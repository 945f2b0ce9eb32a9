"""Command-line interface: dispatch, artifacts, exit codes."""

import json
import os
import subprocess
import sys

import pytest

import pgcone
from pgcone import cli, cone
from pgcone.cli import build_parser, dispatch
from pgcone.cone import active_rank


def run(tmp_path, *argv):
    return dispatch(["--out", str(tmp_path), *argv])


def test_plane_build(tmp_path):
    assert run(tmp_path, "plane", "build", "--q", "2") == 0
    meta = json.loads((tmp_path / "plane_q2.json").read_text())
    assert meta["n"] == 7
    assert meta["difference_set"] == [1, 2, 4]
    assert "config_hash" in meta and "matrix_hash" in meta
    alist = (tmp_path / "plane_q2.alist").read_text()
    assert alist.split("\n")[0] == "7 7"


def test_no_openssl_on_the_import_path(tmp_path):
    # A fresh interpreter imports the package and the CLI, enumerates the
    # q = 2 rays and writes a provenance (config_hash and matrix_hash);
    # neither hashlib nor OpenSSL's _hashlib gets loaded on the way.
    code = (
        "import sys\n"
        "import pgcone, pgcone.cli\n"
        "from pgcone import build_plane, enumerate_rays, incidence_matrix\n"
        "assert len(enumerate_rays(incidence_matrix(build_plane(2)))) == 14\n"
        f"assert pgcone.cli.dispatch(['--out', {str(tmp_path)!r}, 'plane', "
        "'build', '--q', '2']) == 0\n"
        "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))\n")
    src = os.path.dirname(os.path.dirname(pgcone.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "[]"
    meta = json.loads((tmp_path / "plane_q2.json").read_text())
    assert meta["matrix_hash"] == "98fa0e873bb3fa8f"
    assert len(meta["config_hash"]) == 16


def test_plane_check(tmp_path, capsys):
    assert run(tmp_path, "plane", "check", "--q", "4") == 0
    assert "axioms pass" in capsys.readouterr().out


def test_plane_export_dense(tmp_path):
    assert run(tmp_path, "plane", "export", "--q", "2",
               "--format", "dense") == 0
    assert (tmp_path / "plane_q2.txt").exists()


def test_plane_export_alist_default(tmp_path, H2):
    assert run(tmp_path, "plane", "export", "--q", "2") == 0
    assert (tmp_path / "plane_q2.alist").read_text() == H2.to_alist()


def test_codewords_min(tmp_path, capsys):
    assert run(tmp_path, "codewords", "min", "--q", "2") == 0
    assert "7 codewords" in capsys.readouterr().out
    payload = json.loads((tmp_path / "codewords_q2_w4.json").read_text())
    assert payload["count"] == 7


def test_cone_member(tmp_path, capsys):
    assert run(tmp_path, "cone", "member", "--q", "2",
               "--vector", "1,1,1,1,1,1,1") == 0
    assert "member" in capsys.readouterr().out
    assert run(tmp_path, "cone", "member", "--q", "2",
               "--vector", "1,0,0,0,0,0,0") == 0
    assert "not a member" in capsys.readouterr().out


def test_cone_minimal_and_type(tmp_path, capsys, codewords2):
    vec = ",".join(str(x) for x in codewords2[0])
    assert run(tmp_path, "cone", "minimal", "--q", "2", "--vector", vec) == 0
    assert "minimal" in capsys.readouterr().out
    assert run(tmp_path, "cone", "type", "--vector", "1,1,2,0") == 0
    out = capsys.readouterr().out
    assert "t_0=1" in out and "t_1=2" in out and "t_2=1" in out


def test_weights_compute(tmp_path, capsys):
    assert run(tmp_path, "weights", "compute",
               "--vector", "1,1,1,1,2,2,2") == 0
    out = capsys.readouterr().out
    assert "AWGNC 25/4" in out
    assert "BEC 7" in out
    assert "BSC 5" in out


def test_weights_bounds(tmp_path, capsys):
    assert run(tmp_path, "weights", "bounds", "--vector", "1,1,1,1,2,2,2",
               "--q", "2") == 0
    out = capsys.readouterr().out
    assert "Thm5(q=2) 16/3" in out
    assert "applicable" in out


def test_weights_bounds_zero_vector_prints_nothing(tmp_path, capsys):
    # Cor4 has no value at the zero vector; the command fails before it
    # prints any of the other bounds.
    assert run(tmp_path, "weights", "bounds", "--vector", "0,0,0,0,0,0,0",
               "--q", "2") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: Cor4 requires a nonzero vector\n"


def test_rays_and_histogram(tmp_path, capsys):
    assert run(tmp_path, "rays", "enumerate", "--q", "2") == 0
    assert "14 rays (complete)" in capsys.readouterr().out
    rays_path = tmp_path / "rays_q2.jsonl"
    assert rays_path.exists()
    assert run(tmp_path, "rays", "histogram", "--rayset", str(rays_path),
               "--kind", "BEC") == 0
    csv = (tmp_path / "histogram_bec.csv").read_text()
    assert csv.splitlines()[0] == "bin_low,bin_high,count"
    assert csv.splitlines()[1].startswith("4,")


def test_histogram_warns_on_partial_rayset(tmp_path, capsys):
    from pgcone.cone import PseudoCodeword
    from pgcone.rays import RaySet
    path = tmp_path / "partial.jsonl"
    RaySet(rays=(PseudoCodeword([1, 0, 1, 1, 1, 0, 0]),), h_matrix_id="x",
           complete=False, n=7).save_jsonl(path)
    assert run(tmp_path, "rays", "histogram", "--rayset", str(path),
               "--kind", "BEC") == 0
    assert capsys.readouterr().out.splitlines()[-1] == \
        "warning: ray set is partial"
    assert (tmp_path / "histogram_bec.csv").read_text() == \
        "bin_low,bin_high,count\n4,5,1\n"


def test_rays_zero_budget_is_honoured(tmp_path, capsys):
    assert run(tmp_path, "rays", "enumerate", "--q", "2",
               "--max-rays", "0") == 0
    assert "(partial)" in capsys.readouterr().out
    header = (tmp_path / "rays_q2.jsonl").read_text().splitlines()[0]
    assert json.loads(header)["complete"] is False


def test_decode_zero_opt(tmp_path, capsys):
    assert run(tmp_path, "decode", "zero-opt", "--q", "2", "--flips", "0") == 0
    assert "ZeroStrictlyOptimal" in capsys.readouterr().out
    assert run(tmp_path, "decode", "zero-opt", "--q", "2",
               "--flips", "0,1,2") == 0
    assert "Failure" in capsys.readouterr().out


def test_fraction_options(tmp_path, capsys):
    assert run(tmp_path, "decode", "zero-opt", "--q", "2", "--flips", "0",
               "--L", "1/2") == 0
    assert capsys.readouterr().out == "ZeroStrictlyOptimal; objective 1/4\n"
    assert run(tmp_path, "rays", "enumerate", "--q", "2") == 0
    assert run(tmp_path, "rays", "histogram", "--rayset",
               str(tmp_path / "rays_q2.jsonl"), "--kind", "AWGNC",
               "--bin-width", "1/2") == 0
    assert (tmp_path / "histogram_awgnc.csv").read_text() == \
        "bin_low,bin_high,count\n4,9/2,7\n6,13/2,7\n"
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, "decode", "zero-opt", "--q", "2", "--L", "abc")
    assert exc.value.code == 2
    assert "invalid Fraction value: 'abc'" in capsys.readouterr().err


def test_decode_sweep(tmp_path, capsys):
    assert run(tmp_path, "decode", "sweep", "--q", "2", "--e", "1") == 0
    assert "1,7,7,0,0" in capsys.readouterr().out
    assert (tmp_path / "sweep_q2_e1.csv").exists()
    assert run(tmp_path, "decode", "sweep", "--q", "2", "--e", "1",
               "--samples", "3", "--seed", "1") == 0
    assert capsys.readouterr().out.splitlines()[-1] == "1,3,3,0,0"


def test_decode_feldman(tmp_path, capsys):
    assert run(tmp_path, "decode", "feldman", "--q", "2") == 0
    out = capsys.readouterr().out
    assert out.startswith("integral")
    # A fractional polytope optimum, over a common denominator of 3.
    assert run(tmp_path, "decode", "feldman", "--q", "2",
               "--flips", "0,1,3") == 0
    assert capsys.readouterr().out == \
        "fractional 2/3 2/3 1/3 2/3 1/3 1/3 1/3\n"


def test_effective_subcommands(tmp_path):
    assert run(tmp_path, "rays", "enumerate", "--q", "2") == 0
    rays_path = str(tmp_path / "rays_q2.jsonl")
    assert run(tmp_path, "effective", "awgnc", "--rayset", rays_path) == 0
    lines = (tmp_path / "effective_awgnc.jsonl").read_text().strip().splitlines()
    assert len(lines) == 14
    assert all(json.loads(line)["kind"] == "First" for line in lines)


def test_effective_rejects_a_rayset_of_another_matrix(tmp_path, capsys):
    assert run(tmp_path, "rays", "enumerate", "--q", "2") == 0
    rays_path = str(tmp_path / "rays_q2.jsonl")
    capsys.readouterr()
    for command in ("awgnc", "bsc"):
        assert run(tmp_path, "effective", command, "--rayset", rays_path,
                   "--q", "4") == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / f"effective_{command}.jsonl").exists()
    for command in ("awgnc", "bsc"):
        assert run(tmp_path, "effective", command, "--rayset", rays_path,
                   "--q", "2") == 0
        lines = (tmp_path / f"effective_{command}.jsonl").read_text().splitlines()
        assert len(lines) == 14


def test_construct_ex5_and_conjecture_lines(tmp_path, capsys):
    assert run(tmp_path, "construct", "ex5") == 0
    assert capsys.readouterr().out.splitlines()[-1] == \
        "zero lines 5,8; intersection 11; max alpha 2"
    assert (tmp_path / "construct_ex5_q4.json").exists()
    assert run(tmp_path, "construct", "conjecture", "--q", "2") == 0
    assert capsys.readouterr().out.splitlines()[-1] == \
        "conjectured family target pseudo-weight 25/4"
    assert (tmp_path / "construct_conjecture_q2.json").exists()


def test_construct_ex3(tmp_path, capsys):
    assert run(tmp_path, "construct", "ex3", "--q", "2") == 0
    assert "awgnc_pw 25/4" in capsys.readouterr().out
    trace = json.loads((tmp_path / "construct_ex3_q2.json").read_text())
    assert trace["minimal"] is True


def test_vector_from_file(tmp_path, capsys):
    from pgcone.cone import PseudoCodeword
    path = tmp_path / "vec.json"
    path.write_text(PseudoCodeword([1, 1, 1, 1, 2, 2, 2]).to_json())
    assert run(tmp_path, "weights", "compute", "--vector", f"@{path}") == 0
    assert "AWGNC 25/4" in capsys.readouterr().out


@pytest.mark.parametrize("text, message", [
    ("{}", 'must be an object with an "entries" list'),
    ("[1, 2]", 'must be an object with an "entries" list'),
    ('{"entries": 5}', 'must be an object with an "entries" list'),
    ('{"entries": ["1/0", 0, 0, 0, 0, 0, 0]}', "not a rational: '1/0'"),
    ('{"entries": [null, 0, 0, 0, 0, 0, 0]}', "not a rational: None"),
])
def test_malformed_vector_file_exit_code(tmp_path, capsys, text, message):
    path = tmp_path / "vec.json"
    path.write_text(text)
    assert run(tmp_path, "cone", "member", "--q", "2",
               "--vector", f"@{path}") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("entries, awgnc", [
    ("0.1, 0.2", "9/5 (1.8)"),
    # Binary 0.3 is not three times binary 0.1, so this one tells exact
    # decimals from floats; binary 0.2 is exactly twice binary 0.1.
    ("0.1, 0.3", "8/5 (1.6)"),
])
def test_vector_file_decimals_are_exact(tmp_path, capsys, entries, awgnc):
    path = tmp_path / "dec.json"
    path.write_text(f'{{"entries": [{entries}, 0, 0, 0, 0, 0]}}')
    assert run(tmp_path, "weights", "compute", "--vector", f"@{path}") == 0
    assert capsys.readouterr().out.splitlines()[0] == f"AWGNC {awgnc}"


def test_zero_denominator_in_a_vector(tmp_path, capsys):
    assert run(tmp_path, "cone", "member", "--q", "2",
               "--vector", "1/0,0,0,0,0,0,0") == 1
    assert capsys.readouterr().err == "error: not a rational: '1/0'\n"


@pytest.mark.parametrize("argv", [
    ("decode", "zero-opt", "--q", "2", "--L", "1/0"),
    ("rays", "histogram", "--rayset", "rays.jsonl", "--kind", "BEC",
     "--bin-width", "1/0"),
    ("effective", "bsc", "--rayset", "rays.jsonl", "--L", "1/0"),
])
def test_zero_denominator_option_is_a_usage_error(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, *argv)
    assert exc.value.code == 2
    assert "invalid Fraction value: '1/0'" in capsys.readouterr().err


def test_domain_error_exit_code(tmp_path, capsys):
    # q=3 is not a supported plane order: domain error, exit 1.
    assert run(tmp_path, "plane", "build", "--q", "3") == 1
    assert "error:" in capsys.readouterr().err


def test_q_is_validated_before_any_output(tmp_path, capsys):
    # q = 0 once failed with "negative shift count", and the Thm5 bound was
    # printed for any q; both now exit 1 with a message naming q.
    assert run(tmp_path, "plane", "check", "--q", "0") == 1
    err = capsys.readouterr().err
    assert err == "error: q=0 is not a supported power of two\n"
    for q in ("0", "3"):
        assert run(tmp_path, "weights", "bounds",
                   "--vector", "1,1,1,1,2,2,2", "--q", q) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            f"error: q must be a power of two, q >= 2, got {q}\n"


@pytest.mark.parametrize("argv", [
    ("cone", "member", "--q", "2", "--vector", "1,-1,0,0,0,0,0"),
    ("cone", "member", "--q", "2", "--vector", "1,abc"),
    ("decode", "zero-opt", "--q", "2", "--flips", "9"),
    ("construct", "ex3", "--q", "3"),
    ("rays", "histogram", "--rayset", "/nonexistent/rays.jsonl",
     "--kind", "BEC"),
    ("decode", "sweep", "--q", "2", "--e", "1", "--samples", "0"),
    ("rays", "enumerate", "--q", "2", "--max-rays", "-1"),
    ("rays", "enumerate", "--q", "2", "--max-seconds", "-1"),
    ("codewords", "min", "--q", "2", "--w-max", "-1"),
    ("rays", "enumerate", "--q", "2", "--max-seconds", "nan"),
    ("decode", "sweep", "--q", "2", "--e", "-1"),
    ("decode", "sweep", "--q", "2", "--e", "8", "--samples", "3"),
    ("decode", "sweep", "--q", "2", "--e", "8"),
])
def test_input_error_exit_code(tmp_path, capsys, argv):
    assert run(tmp_path, *argv) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_cone_lines_pinned(tmp_path, capsys):
    assert run(tmp_path, "cone", "member", "--q", "2",
               "--vector", "1,0,0,0,0,0,0") == 0
    assert capsys.readouterr().out == \
        "not a member; violates ('cone', 3, 0)\n"
    assert run(tmp_path, "cone", "minimal", "--q", "2",
               "--vector", "1,0,1,1,1,0,0") == 0
    assert capsys.readouterr().out == "active rank 6 of 6; minimal\n"


def test_cone_minimal_ranks_once(tmp_path, capsys, monkeypatch):
    # Wrapped in `cone` too, so a second certification through
    # `is_minimal` would be counted.
    calls = []

    def counting(H, omega):
        calls.append(omega)
        return active_rank(H, omega)

    monkeypatch.setattr(cli, "active_rank", counting)
    monkeypatch.setattr(cone, "active_rank", counting)
    assert run(tmp_path, "cone", "minimal", "--q", "2",
               "--vector", "1,0,1,1,1,0,0") == 0
    assert capsys.readouterr().out == "active rank 6 of 6; minimal\n"
    assert len(calls) == 1


def test_malformed_rayset_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"h_matrix_id": "x", "complete": true}\n')
    assert run(tmp_path, "effective", "awgnc", "--rayset", str(bad)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "bad.jsonl" in err


def test_usage_error_exit_code(tmp_path):
    with pytest.raises(SystemExit) as exc:
        dispatch(["plane", "build"])  # missing required --q
    assert exc.value.code == 2


def test_out_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("PGCONE_OUT", str(tmp_path / "envout"))
    assert dispatch(["plane", "build", "--q", "2"]) == 0
    assert (tmp_path / "envout" / "plane_q2.alist").exists()


SHARED_PARSER_RUNS = (
    ("rays", "histogram", "--rayset", "{rays}", "--kind", "AWGNC",
     "--bin-width", "1/2"),
    ("rays", "histogram", "--rayset", "{rays}", "--kind", "AWGNC"),
    ("decode", "zero-opt", "--q", "2", "--flips", "0", "--L", "2"),
    ("decode", "zero-opt", "--q", "2", "--flips", "0"),
    ("plane", "build"),  # missing required --q: SystemExit 2
    ("plane", "build", "--q", "2"),
)


def test_dispatch_reuses_one_parser(tmp_path, capsys, monkeypatch):
    # Each command gives the stdout, stderr, exit code and files that a
    # fresh parser gives, though the commands before it parsed with the
    # same parser; an option given once does not stay for the next call.
    rays = tmp_path / "rays"
    assert run(rays, "rays", "enumerate", "--q", "2") == 0
    out = tmp_path / "out"
    builds = []

    def counting():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting)

    def outcomes(fresh):
        cli._parser.cache_clear()
        capsys.readouterr()
        found = []
        for argv in SHARED_PARSER_RUNS:
            if fresh:
                cli._parser.cache_clear()
            try:
                code = run(out, *(a.format(rays=rays / "rays_q2.jsonl")
                                  for a in argv))
            except SystemExit as exc:
                code = ("exit", exc.code)
            files = {f.name: f.read_text() for f in sorted(out.iterdir())}
            for f in out.iterdir():
                f.unlink()
            found.append((code, *capsys.readouterr(), files))
        return found

    out.mkdir()
    shared = outcomes(fresh=False)
    assert len(builds) == 1
    assert shared == outcomes(fresh=True)
    assert len(builds) == 1 + len(SHARED_PARSER_RUNS)
    codes = [found[0] for found in shared]
    assert codes == [0, 0, 0, 0, ("exit", 2), 0]
    assert shared[0][3] != shared[1][3]
    assert [found[1] for found in shared[2:4]] == [
        "ZeroStrictlyOptimal; objective 1/1\n",
        "ZeroStrictlyOptimal; objective 1/2\n"]
    assert "--q" in shared[4][2]


def test_the_parser_is_not_built_at_import():
    code = ("import pgcone.cli as cli\n"
            "print(cli._parser.cache_info().currsize)\n")
    src = os.path.dirname(os.path.dirname(pgcone.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "0"
