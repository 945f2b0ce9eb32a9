"""Command-line front end: plane/codeword/cone/weights/rays/decode/
effectiveness/construction subcommands with JSON, alist and CSV artifacts.

Exit codes: 0 success, 1 domain error, 2 usage error (argparse default).
Vector files (PseudoCodeword.to_json) write rationals as "p/q" strings; the
construct and effect JSON write str(Fraction), "2" or "-2/3". Decimals
appear only in the human-readable summary lines (4 significant digits).
"""

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import construct, decode, effect, weights
from .cone import PseudoCodeword, _rational, active_rank, is_member, type_of
from .errors import MatrixMismatch, PgconeError
from .plane import (_digest, build_plane, incidence_matrix,
                    min_weight_codewords, verify_axioms)
from .rays import Budget, RaySet, enumerate_rays, histogram, histogram_csv


def _fmt(x):
    """Render a rational with 4 significant digits for summary output."""
    return f"{float(x):.4g}"


def _rat(x):
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _out_dir(args):
    path = args.out or os.environ.get("PGCONE_OUT", ".")
    os.makedirs(path, exist_ok=True)
    return path


def _provenance(args, H=None):
    config = {k: str(v) for k, v in sorted(vars(args).items())
              if k not in ("func",) and v is not None}
    blob = json.dumps(config, sort_keys=True)
    prov = {"config": config,
            "config_hash": _digest(blob)}
    if H is not None:
        prov["matrix_hash"] = H.matrix_id()
    return prov


def _write(args, name, payload):
    path = os.path.join(_out_dir(args), name)
    with open(path, "w") as fh:
        fh.write(payload)
    print(f"wrote {path}")
    return path


def _plane_and_matrix(args):
    p = build_plane(args.q)
    return p, incidence_matrix(p)


def _load_vector(text):
    """Vector given inline as comma-separated rationals or as @file.json."""
    if text.startswith("@"):
        with open(text[1:]) as fh:
            return PseudoCodeword.from_json(fh.read())
    return PseudoCodeword(text.split(","))


def cmd_plane_build(args):
    p, H = _plane_and_matrix(args)
    meta = _provenance(args, H)
    meta.update({"q": p.q, "n": p.n, "difference_set": list(p.difference_set)})
    _write(args, f"plane_q{p.q}.alist", H.to_alist())
    _write(args, f"plane_q{p.q}.json", json.dumps(meta, indent=2))
    return 0


def cmd_plane_check(args):
    p = build_plane(args.q)
    report = verify_axioms(p)
    print("axioms pass" if report.ok else f"axioms FAIL: {report.failure}")
    return 0 if report.ok else 1


def cmd_plane_export(args):
    _, H = _plane_and_matrix(args)
    if args.format == "alist":
        _write(args, f"plane_q{args.q}.alist", H.to_alist())
    else:
        _write(args, f"plane_q{args.q}.txt", H.to_dense_text())
    return 0


def cmd_codewords_min(args):
    p, H = _plane_and_matrix(args)
    w_max = args.w_max if args.w_max is not None else p.q + 2
    words = min_weight_codewords(H, w_max)
    payload = {"provenance": _provenance(args, H), "count": len(words),
               "w_max": w_max, "codewords": [list(w) for w in words]}
    _write(args, f"codewords_q{p.q}_w{w_max}.json", json.dumps(payload))
    print(f"{len(words)} codewords of weight <= {w_max}")
    return 0


def cmd_cone_member(args):
    _, H = _plane_and_matrix(args)
    omega = _load_vector(args.vector)
    ok, violated = is_member(H, omega)
    print("member" if ok else f"not a member; violates {violated}")
    return 0


def cmd_cone_minimal(args):
    _, H = _plane_and_matrix(args)
    omega = _load_vector(args.vector)
    rank = active_rank(H, omega)
    # The zero vector has rank n, so rank n - 1 alone certifies a ray.
    print(f"active rank {rank} of {H.n_cols - 1}; "
          f"{'minimal' if rank == H.n_cols - 1 else 'not minimal'}")
    return 0


def cmd_cone_type(args):
    omega = _load_vector(args.vector)
    t = type_of(omega)
    print(f"t_0={t.t0} " + " ".join(
        f"t_{_fmt(k)}={v}" for k, v in sorted(t.counts.items())))
    return 0


def cmd_weights_compute(args):
    omega = _load_vector(args.vector)
    aw = weights.awgnc_pw(omega)
    print(f"AWGNC {_rat(aw)} ({_fmt(aw)})")
    print(f"BEC {weights.bec_pw(omega)}")
    if any(x != 0 for x in omega.entries):
        print(f"BSC {weights.bsc_pw(omega)}")
    return 0


def cmd_weights_bounds(args):
    omega = _load_vector(args.vector)
    # Both raise on bad input (q, the zero vector) before anything prints.
    thm5 = None if args.q is None else weights.bound_thm5(args.q)
    cor4 = weights.bound_cor4(omega)
    t = type_of(omega)
    aw = weights.awgnc_pw(omega)
    print(f"awgnc_pw {_rat(aw)} ({_fmt(aw)})")
    rep = weights.bound_lemma1(t)
    if rep.applicable:
        print(f"Lemma1 {_rat(rep.value)} ({_fmt(rep.value)})")
    for eta in (Fraction(4, 3), Fraction(2)):
        rep = weights.bound_cor3(t, eta)
        print(f"Cor3(eta={_rat(eta)}) {_rat(rep.value)} ({_fmt(rep.value)})")
    print(f"Cor4 {_rat(cor4.value)} ({_fmt(cor4.value)})")
    if thm5 is not None:
        note = "applicable" if weights.thm5_applicable(t, args.q) \
            else "not applicable to this type"
        print(f"Thm5(q={args.q}) {_rat(thm5)} ({_fmt(thm5)}) [{note}]")
    return 0


def cmd_rays_enumerate(args):
    _, H = _plane_and_matrix(args)
    budget = Budget(max_seconds=args.max_seconds, max_rays=args.max_rays)
    rs = enumerate_rays(H, budget=budget, seed=args.seed)
    path = os.path.join(_out_dir(args), f"rays_q{args.q}.jsonl")
    rs.save_jsonl(path)
    print(f"{len(rs)} rays ({'complete' if rs.complete else 'partial'}); "
          f"wrote {path}")
    return 0


def cmd_rays_histogram(args):
    rs = RaySet.load_jsonl(args.rayset)
    rows = histogram(rs, args.kind, args.bin_width)
    name = f"histogram_{args.kind.lower()}.csv"
    _write(args, name, histogram_csv(rows))
    if not rs.complete:
        print("warning: ray set is partial")
    return 0


def _matrix_and_llr(args, L=1):
    """The PG(2, q) matrix and the LLR vector of --flips at magnitude L."""
    _, H = _plane_and_matrix(args)
    flips = [int(x) for x in args.flips.split(",")] if args.flips else []
    return H, decode.llr_from_flips(H.n_cols, flips, L)


def cmd_decode_zero_opt(args):
    outcome = decode.zero_optimal(*_matrix_and_llr(args, args.L))
    print(f"{outcome.status}; objective {_rat(outcome.objective)}")
    return 0


def cmd_decode_sweep(args):
    _, H = _plane_and_matrix(args)
    stats = decode.bsc_sweep(H, args.e, samples=args.samples, seed=args.seed)
    payload = "e,patterns,corrected,ties,failures\n" + stats.csv_row() + "\n"
    _write(args, f"sweep_q{args.q}_e{args.e}.csv", payload)
    print(payload.strip().splitlines()[-1])
    return 0


def cmd_decode_feldman(args):
    sol, integral = decode.feldman_lp_decode(*_matrix_and_llr(args))
    print(("integral " if integral else "fractional ")
          + " ".join(_rat(x) for x in sol))
    return 0


def _load_rayset(args):
    """The ray set of --rayset; with --q, it must have been built for the
    PG(2, q) incidence matrix."""
    rs = RaySet.load_jsonl(args.rayset)
    if args.q is not None:
        _, H = _plane_and_matrix(args)
        if rs.h_matrix_id != H.matrix_id():
            raise MatrixMismatch(
                f"{args.rayset} was built for matrix {rs.h_matrix_id}, "
                f"not for the q = {args.q} matrix {H.matrix_id()}")
    return rs


def cmd_effective(args):
    rs = _load_rayset(args)
    if args.sub == "awgnc":
        reports = [effect.awgnc_first_kind(rs, r) for r in rs]
    else:
        reports = [effect.bsc_effectiveness(rs, r, args.L) for r in rs]
    _write(args, f"effective_{args.sub}.jsonl",
           "\n".join(rep.to_json() for rep in reports) + "\n")
    return 0


def cmd_construct_ex3(args):
    p = build_plane(args.q)
    trace = construct.ex3_minimal_pcw(p)
    _write(args, f"construct_ex3_q{args.q}.json", trace.to_json())
    aw = trace.pseudo_weights["AWGNC"]
    bound = weights.bound_thm5(p.q)
    print(f"awgnc_pw {_rat(aw)} ({_fmt(aw)}); "
          f"Thm5 bound {_rat(bound)} ({_fmt(bound)})")
    return 0


def cmd_construct_ex5(args):
    trace = construct.ex5_procedure(build_plane(4))
    _write(args, "construct_ex5_q4.json", trace.to_json())
    print(trace.notes)
    return 0


def cmd_construct_conjecture(args):
    p = build_plane(args.q)
    trace = construct.conjectured_family_search(
        p, max_candidates=args.max_candidates)
    _write(args, f"construct_conjecture_q{args.q}.json", trace.to_json())
    print(trace.notes)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pgcone",
        description="Fundamental-cone toolkit for projective-plane LDPC codes")
    parser.add_argument("--out", help="output directory "
                        "(default $PGCONE_OUT or the working directory)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(group, name, fn, **arguments):
        sp = group.add_parser(name)
        # Fraction options parse through _rational, so a zero denominator
        # is a ValueError too, which argparse reports as a usage error.
        sp.register("type", Fraction, _rational)
        for arg, kw in arguments.items():
            sp.add_argument(f"--{arg.replace('_', '-')}", **kw)
        sp.set_defaults(func=fn)
        return sp

    q_arg = {"type": int, "required": True}

    plane = sub.add_parser("plane").add_subparsers(dest="sub", required=True)
    add(plane, "build", cmd_plane_build, q=q_arg)
    add(plane, "check", cmd_plane_check, q=q_arg)
    add(plane, "export", cmd_plane_export, q=q_arg,
        format={"choices": ["alist", "dense"], "default": "alist"})

    codewords = sub.add_parser("codewords").add_subparsers(dest="sub", required=True)
    add(codewords, "min", cmd_codewords_min, q=q_arg, w_max={"type": int})

    cone_p = sub.add_parser("cone").add_subparsers(dest="sub", required=True)
    vec_arg = {"required": True, "help": "comma-separated rationals or @file"}
    add(cone_p, "member", cmd_cone_member, q=q_arg, vector=vec_arg)
    add(cone_p, "minimal", cmd_cone_minimal, q=q_arg, vector=vec_arg)
    add(cone_p, "type", cmd_cone_type, vector=vec_arg)

    weights_p = sub.add_parser("weights").add_subparsers(dest="sub", required=True)
    add(weights_p, "compute", cmd_weights_compute, vector=vec_arg)
    add(weights_p, "bounds", cmd_weights_bounds, vector=vec_arg,
        q={"type": int})

    rays_p = sub.add_parser("rays").add_subparsers(dest="sub", required=True)
    add(rays_p, "enumerate", cmd_rays_enumerate, q=q_arg,
        max_seconds={"type": float}, max_rays={"type": int},
        seed={"type": int})
    add(rays_p, "histogram", cmd_rays_histogram,
        rayset={"required": True}, kind={"choices": ["AWGNC", "BSC", "BEC"],
                                         "required": True},
        bin_width={"type": Fraction, "default": Fraction(1)})

    decode_p = sub.add_parser("decode").add_subparsers(dest="sub", required=True)
    add(decode_p, "zero-opt", cmd_decode_zero_opt, q=q_arg,
        flips={"default": ""}, L={"type": Fraction, "default": Fraction(1)})
    add(decode_p, "sweep", cmd_decode_sweep, q=q_arg, e={"type": int, "required": True},
        samples={"type": int}, seed={"type": int})
    add(decode_p, "feldman", cmd_decode_feldman, q=q_arg, flips={"default": ""})

    effective = sub.add_parser("effective").add_subparsers(dest="sub", required=True)
    add(effective, "awgnc", cmd_effective, rayset={"required": True},
        q={"type": int})
    add(effective, "bsc", cmd_effective, rayset={"required": True},
        q={"type": int}, L={"type": Fraction, "default": Fraction(1)})

    construct_p = sub.add_parser("construct").add_subparsers(dest="sub", required=True)
    add(construct_p, "ex3", cmd_construct_ex3, q=q_arg)
    add(construct_p, "ex5", cmd_construct_ex5)
    add(construct_p, "conjecture", cmd_construct_conjecture, q=q_arg,
        max_candidates={"type": int})

    return parser


@functools.cache
def _parser():
    """The parser dispatch reads, built on first use: not at import, and
    once per process. It is private, so build_parser's callers get their
    own copy to change."""
    return build_parser()


def dispatch(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (PgconeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
