"""pgcone benchmark: run one named workload with a workload seed, check
every op's output exactly, and print each metric by name with its unit.

Usage, from the repository root:

    python3 perfbench/run.py --workload lp-decode --seed 1 --seconds 20 --trace 0

One process, one thread, closed loop: each op is issued after the previous
one returns. With --trace 0 the run issues the workload's op list in
passes until --seconds is spent (the first pass always completes; a later
one stops before an op that would not end in time) and reports the
end-to-end metrics. setup_s is the median over a few fresh interpreters,
spread over the run, each timed from spawn to the end of its set-up
(import pgcone and build the workload's inputs).

On a shared host the other tenants' load slows the whole interpreter, by
up to 1.8x and for minutes at a time, which no number of repeats inside
one run averages out. So every end-to-end time is reported at a reference
host speed: a fixed calibration loop is timed between ops, and a time
measured over an interval is multiplied by CALIBRATION_REF_S over the
loop's median time within CALIBRATION_WINDOW_S of that interval. A change
to pgcone cannot move the loop, so it moves the scaled times as it moves
the wall times. The unscaled wall times are printed as wall.<metric>; the
result file keeps them, each op's start and duration in every pass, and
the calibration samples.

An op's latency is the median of its scaled repeats; time_to_result_s is
the sum of those latencies and op_p50_ms / op_p90_ms are their
percentiles. Over ten seeds on a host whose speed varied up to 1.8x, the
spread (interquartile range over median) of these metrics was 2-10%,
against 5-21% for the fastest scaled repeat (which picks the largest
scaling error) and 5-28% for unscaled times. The least steady is
dd-census's time_to_result_s: most of it is one 6 s op, whose time
follows the calibration loop less closely than the short ops' do.

With --trace 1 it runs the op list once untraced and once traced, writes
the spans as JSONL under perfbench/out/ and reports the per-layer metrics,
including the tracing overhead against the untraced pass.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Every run also writes a result
file with its provenance under perfbench/out/. The library is imported
from src/ of the checkout that holds this directory; without it the run
exits with code 2 and prints no result.
"""

import argparse
import bisect
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("lp-decode", "dd-census", "cone-study")
SETUP_PROBES = 8
END_TO_END_UNITS = {"setup_s": "s", "time_to_result_s": "s",
                    "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mb": "MB"}
MAX_REPORTED_FAILURES = 20

CALIBRATION_TERMS = 300
# About the loop's time on a quiet 2-vCPU Intel Xeon sandbox. It only sets
# the scale, so that scaled times read as wall times on that host.
CALIBRATION_REF_S = 0.0008
CALIBRATE_EVERY_S = 0.05
CALIBRATION_WINDOW_S = 1.0


def unit_of(name):
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def calibration_loop():
    """Fixed exact rational arithmetic, the kind of work pgcone does. A
    host's load slows it as it slows pgcone: over a minute in which the
    host's speed varied 1.8x, the ratios of four pgcone ops' times to
    this loop's had coefficients of variation of 3-5%, against 13-15% for
    the ops' times alone and 7-10% for a loop of small-integer arithmetic."""
    acc = Fraction(0)
    for i in range(1, CALIBRATION_TERMS):
        acc += Fraction(i % 7 + 1, i % 5 + 1)
    return acc


class HostSpeed:
    """Calibration loop times, taken between ops, and the factor that
    scales a time measured over an interval to the reference speed."""

    def __init__(self):
        self.times = []  # midpoints, increasing
        self.loops = []

    def sample(self):
        start = time.perf_counter()
        calibration_loop()
        end = time.perf_counter()
        self.times.append((start + end) / 2)
        self.loops.append(end - start)

    def when_due(self):
        if not self.times or \
                time.perf_counter() - self.times[-1] >= CALIBRATE_EVERY_S:
            self.sample()

    def scale(self, start, end):
        lo = bisect.bisect_left(self.times, start - CALIBRATION_WINDOW_S)
        hi = bisect.bisect_right(self.times, end + CALIBRATION_WINDOW_S)
        return CALIBRATION_REF_S / statistics.median(
            self.loops[lo:hi] or self.loops)


def wall_scale(start, end):
    return 1.0


class PassResult:
    def __init__(self):
        self.starts = []
        self.durations = []
        self.failures = []
        self.bytes_written = 0
        self.wall = 0.0

    @property
    def time_to_result(self):
        return sum(self.durations)


def run_pass(wl, tracer=None, between_ops=None, deadline=None, expected=None):
    """Issue the ops in order, timing each call alone; `between_ops` runs
    after each op, outside its timing. With a deadline, the pass stops
    before the first op that would not end by it, going by that op's
    `expected` duration."""
    res = PassResult()
    begin = time.perf_counter()
    wl.scratch = tempfile.mkdtemp(prefix="pass-", dir=OUT)
    try:
        for op_id, op in enumerate(wl.ops):
            if deadline is not None and \
                    time.perf_counter() + expected[op_id] > deadline:
                break
            raised = None
            start = time.perf_counter()
            if tracer is not None:
                tracer.begin_op(op_id, op.kind, start)
            try:
                result = op.call()
            except Exception:  # a raising op counts as failed; the run goes on
                raised = traceback.format_exc()
            end = time.perf_counter()
            if tracer is not None:
                tracer.end_op(end)
            res.starts.append(start)
            res.durations.append(end - start)
            reason = raised or _check(op, result)
            if reason:
                res.failures.append((op_id, op.kind, reason))
            if between_ops is not None:
                between_ops()
        res.bytes_written = sum(p.stat().st_size
                                for p in Path(wl.scratch).rglob("*") if p.is_file())
    finally:
        shutil.rmtree(wl.scratch, ignore_errors=True)
        wl.scratch = None
    res.wall = time.perf_counter() - begin
    return res


def _check(op, result):
    """None when the output matches the reference, else why it does not."""
    try:
        return None if op.check(result) else "output differs from the reference"
    except Exception:  # a check that cannot read the output is a mismatch
        return traceback.format_exc()


class SetupProbes:
    """setup_s samples: fresh interpreters that import pgcone and build the
    workload's inputs, each timed from spawn to the end of its set-up.
    The samples are spread evenly over the measured passes, so a slow spell
    on a shared host moves only a few of them."""

    def __init__(self, workload, seed, smoke, count, seconds):
        self.argv = [sys.executable, str(HERE / "setup_probe.py"), workload,
                     str(seed), "1" if smoke else "0"]
        self.count = count
        self.interval = seconds / count
        self.samples = []
        self.spans = []  # perf_counter interval of each sample
        self.begin = time.perf_counter()

    def sample(self):
        begin = time.perf_counter()
        start = time.monotonic()
        out = subprocess.run(self.argv, check=True, timeout=170,
                             capture_output=True, text=True)
        # The probe prints its own monotonic clock (system-wide on Linux)
        # when set-up ends, so the wait for its exit is not counted.
        self.samples.append(float(out.stdout.strip().splitlines()[-1]) - start)
        self.spans.append((begin, time.perf_counter()))

    def when_due(self):
        elapsed = time.perf_counter() - self.begin
        if len(self.samples) < self.count and \
                elapsed >= len(self.samples) * self.interval:
            self.sample()

    def finish(self):
        while len(self.samples) < self.count:
            self.sample()

    def setup_s(self, scale):
        return statistics.median(sample * scale(*span)
                                 for sample, span in zip(self.samples, self.spans))


def op_latencies(passes, scale):
    """Each op's median scaled duration over its repeats. Every pass issues
    the same ops in the same order; the first is complete, a later one
    may stop early."""
    repeats = [[] for _ in passes[0].durations]
    for p in passes:
        for op_id, (start, d) in enumerate(zip(p.starts, p.durations)):
            repeats[op_id].append(d * scale(start, start + d))
    return [statistics.median(r) for r in repeats]


def end_to_end(passes, setup_s, scale):
    durations = op_latencies(passes, scale)
    cuts = statistics.quantiles(durations, n=10)
    return {
        "setup_s": setup_s,
        "time_to_result_s": sum(durations),
        "op_p50_ms": statistics.median(durations) * 1000,
        "op_p90_ms": cuts[-1] * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_metrics(wl, untraced, spans_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_pass(wl, tracer)
    finally:
        tracer.uninstall()
    tracer.write_jsonl(spans_path)
    metrics = tracing.per_layer_metrics(tracer.spans, traced.bytes_written)
    ttr = traced.time_to_result
    layer_total = sum(metrics[f"{layer}.self_s"]
                      for layer in tracing.LAYERS + (tracing.HARNESS,))
    metrics["trace.time_to_result_s"] = ttr
    metrics["trace.overhead_frac"] = ttr / untraced.time_to_result - 1
    metrics["trace.accounted_frac"] = layer_total / ttr
    metrics["trace.spans"] = len(tracer.spans)
    return traced, metrics


def provenance(args, wl, n_passes):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "tracing": bool(args.trace),
        "seconds": args.seconds,
        "smoke": args.smoke,
        "passes": n_passes,
        "op_counts": wl.op_counts(),
        "ops_per_pass": len(wl.ops),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "git_commit": _git_commit(),
    }


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes, for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "pgcone" / "__init__.py").is_file():
        print(f"error: no pgcone sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import pgcone
    if Path(pgcone.__file__).resolve().parent != SRC / "pgcone":
        print(f"error: imported pgcone from {pgcone.__file__}", file=sys.stderr)
        return 2
    import workloads
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    wl = workloads.prepare(args.workload, args.seed, args.smoke)
    if args.trace:
        untraced = run_pass(wl)
        # One spans file per workload, replaced by each traced run: a
        # dd-census pass records about 180k spans (25 MB).
        traced, metrics = traced_metrics(wl, untraced,
                                         OUT / f"{args.workload}-spans.jsonl")
        passes = [untraced, traced]
        units = {name: unit_of(name) for name in metrics}
    else:
        probes = SetupProbes(args.workload, args.seed, args.smoke,
                             1 if args.smoke else SETUP_PROBES, args.seconds)
        host = HostSpeed()

        def between_ops():
            probes.when_due()
            host.when_due()

        deadline = time.perf_counter() + args.seconds
        host.sample()
        passes = [run_pass(wl, between_ops=between_ops)]
        while time.perf_counter() < deadline:
            later = run_pass(wl, between_ops=between_ops, deadline=deadline,
                             expected=passes[0].durations)
            if not later.durations:
                break
            passes.append(later)
        probes.finish()
        host.sample()
        metrics = end_to_end(passes, probes.setup_s(host.scale), host.scale)
        wall = end_to_end(passes, probes.setup_s(wall_scale), wall_scale)
        units = END_TO_END_UNITS

    attempted = sum(len(p.durations) for p in passes)
    failures = [f for p in passes for f in p.failures]
    for op_id, kind, reason in failures[:MAX_REPORTED_FAILURES]:
        print(f"FAILED op {op_id} ({kind}): {reason.strip()}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    record = {"provenance": provenance(args, wl, len(passes)), "result": result,
              "pass_time_to_result_s": [p.time_to_result for p in passes],
              "pass_wall_s": [p.wall for p in passes],
              "failures": [{"op": op_id, "kind": kind, "reason": reason}
                           for op_id, kind, reason in failures[:MAX_REPORTED_FAILURES]]}
    if not args.trace:
        record["setup_samples_s"] = probes.samples
        record["wall_metrics"] = wall
        record["calibration_loop_s"] = {"samples": len(host.loops),
                                        "median": statistics.median(host.loops),
                                        "reference": CALIBRATION_REF_S}
        record["ops"] = [{"starts": p.starts, "durations": p.durations}
                         for p in passes]
        record["calibration"] = {"times": host.times, "loops": host.loops}
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=2)

    counts = ", ".join(f"{k} {v}" for k, v in wl.op_counts().items())
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(wl.ops)} ops per pass ({counts}), {len(passes)} passes, "
          f"{attempted} op samples")
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    if not args.trace:
        for name, value in wall.items():
            print(f"wall.{name} {value} {units[name]}")
    print(f"failed_frac {len(failures) / attempted} ratio")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
