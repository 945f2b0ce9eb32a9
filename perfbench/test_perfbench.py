"""Tests of the benchmark itself: failure counting, self time, the traced
wrappers, and smoke runs of every workload.

Run from the repository root: python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pgcone  # noqa: E402
from pgcone import decode, plane  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _span(name, start, end, parent):
    return [name, start, end, parent, 0, None]


def test_wrong_output_is_counted_and_the_run_continues(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    wl = workloads.prepare("lp-decode", 1, smoke=True)
    real = wl.ops[0].call

    def wrong_status():
        outcome = real()
        outcome.status = decode.FAILURE
        return outcome

    def raises():
        raise RuntimeError("deliberate")

    wl.ops[0].call = wrong_status
    wl.ops[1].call = raises
    res = run.run_pass(wl)
    assert len(res.durations) == len(wl.ops)
    assert [op_id for op_id, _, _ in res.failures] == [0, 1]
    assert "RuntimeError: deliberate" in res.failures[1][2]


def _pass(starts, durations):
    res = run.PassResult()
    res.starts, res.durations = starts, durations
    return res


def test_op_latency_is_the_median_repeat_over_the_passes():
    # The last pass stopped early, after the first two ops.
    passes = [_pass([0, 1, 3], [0.3, 2.0, 0.1]), _pass([4, 5, 10], [0.2, 5.0, 0.4]),
              _pass([11, 12], [0.9, 1.0])]
    assert run.op_latencies(passes, run.wall_scale) == [0.3, 2.0, 0.25]
    m = run.end_to_end(passes, 0.5, run.wall_scale)
    assert m["time_to_result_s"] == pytest.approx(2.55)
    assert m["op_p50_ms"] == pytest.approx(300.0)


def test_times_are_scaled_by_the_calibration_loop_around_them():
    ref = run.CALIBRATION_REF_S
    host = run.HostSpeed()
    # The host runs at reference speed until t = 10 s, then at half speed.
    host.times = [0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0]
    host.loops = [ref] * 5 + [2 * ref] * 5
    assert host.scale(3.0, 4.5) == pytest.approx(1.0)
    assert host.scale(14.5, 15.0) == pytest.approx(0.5)
    # The same op takes 1 s before the slow spell and 2 s inside it.
    passes = [_pass([3.0], [1.0]), _pass([15.0], [2.0])]
    assert run.op_latencies(passes, host.scale) == [pytest.approx(1.0)]
    assert run.op_latencies(passes, run.wall_scale) == [1.5]


def test_self_time_subtracts_nested_children():
    spans = [_span("bench.op", 0.0, 10.0, None),
             _span("decode.zero_optimal", 1.0, 6.0, 0),
             _span("simplex.lp_solve", 2.0, 5.0, 1),
             _span("cone.is_member", 3.0, 4.0, 2),
             _span("weights.awgnc_pw", 7.0, 9.0, 0)]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 2.0, 1.0, 2.0])
    m = tracing.per_layer_metrics(spans, 0)
    assert m["bench.self_s"] == pytest.approx(3.0)
    assert m["decode.zero_optimal.self_s"] == pytest.approx(2.0)
    assert m["simplex.lp_solve.busy_s"] == pytest.approx(3.0)
    assert sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS
               + (tracing.HARNESS,)) == pytest.approx(10.0)


def test_overlapping_children_are_covered_once():
    spans = [_span("bench.op", 0.0, 10.0, None),
             _span("cone.is_member", 1.0, 5.0, 0),
             _span("cone.type_of", 4.0, 12.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


def test_tracer_catches_names_bound_by_from_import():
    originals = {(mod, name): getattr(mod, name) for mod, name in (
        (pgcone.rays, "integer_rank"), (pgcone.decode, "lp_solve"),
        (pgcone.effect, "lp_solve"), (pgcone.construct, "active_rank"))}
    H2 = plane.incidence_matrix(plane.build_plane(2))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (mod, name), fn in originals.items():
            assert getattr(mod, name) is not fn
        tracer.begin_op(0, "probe", time.perf_counter())
        pgcone.rays.enumerate_rays(H2)
        tracer.end_op(time.perf_counter())
    finally:
        tracer.uninstall()
    for (mod, name), fn in originals.items():
        assert getattr(mod, name) is fn
    names = [span[tracing.NAME] for span in tracer.spans]
    dd = names.index("rays.enumerate_rays")
    ranks = [span for span in tracer.spans if span[tracing.NAME]
             == "cone.integer_rank" and span[tracing.PARENT] == dd]
    assert ranks
    m = tracing.per_layer_metrics(tracer.spans, 0)
    assert m["rays.rank_tests"] == len(ranks)
    assert m["rays.rays_returned"] == 14
    assert m["rays.certified_frac"] == 1.0


def test_calls_outside_an_op_are_not_traced():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        pgcone.plane.build_plane(2)
    finally:
        tracer.uninstall()
    assert tracer.spans == []


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, check=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"]
                for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    printed = {line.split()[0]: line.split()[-1] for line in lines[1:-1]}
    for name, unit in expected.items():
        assert printed[name] == unit
    assert printed["failed_frac"] == "ratio"


def test_without_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "lp-decode",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_layer_map_covers_every_per_layer_metric():
    groups = json.loads((HERE / "layer_map.json").read_text())["groups"]
    mapped = [name for group in groups for name in group["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in SPEC["per_layer"])
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    for group in groups:
        assert set(group["moves"]) <= set(run.WORKLOADS)
        assert all(set(names) <= e2e for names in group["moves"].values())
