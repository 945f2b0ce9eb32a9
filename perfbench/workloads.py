"""The benchmark's workloads: inputs drawn from the workload seed, the ops
that call into pgcone, and an exact check of every op's output.

An op is one call into the workload's top layer. Ops reach pgcone through
module attributes at call time (`decode.zero_optimal`, not a name bound at
import), so the tracer's wrappers see every call.

Why these workloads:
- lp-decode (63 q = 2 flip patterns of weight 1 to 3, each through
  `zero_optimal` and `feldman_lp_decode`, plus 24 q = 4 single flips
  through `feldman_lp_decode`): nearly all of its time is
  `simplex.lp_solve` on two LP shapes (the cone LP with an EQ row and GE
  rows, the polytope LP with LE rows and box bounds); it calls neither
  `rays` nor `integer_rank`.
- dd-census (100 q = 2 insertion orders, then q = 4 in lexicographic order
  to 800 rays and in one seeded order to 200 rays): nearly all of its time
  is `rays.enumerate_rays` with `cone.integer_rank`, `is_member` and
  `is_minimal`; it never calls `simplex`.
- cone-study (a 12-command CLI pipeline, then 1000 cone members at each of
  q = 2 and q = 4 through the criterion-8 bound family and 1000
  non-members): the same layers used differently (box-bounded LPs from
  `effect.awgnc_first_kind`, full accepting scans and early rejections in
  `cone.is_member`) plus `construct`, `weights`, `effect`, `plane` and
  `cli`.

Seed-driven inputs whose cost is heavy-tailed are kept out, because the
seed-to-seed spread of an end-to-end metric must stay inside its bound:
weight-2 flip patterns at q = 4 cost 0.43 s to 16.8 s each in
`feldman_lp_decode`, and a shuffled q = 4 insertion order run to 800 rays
costs 0.8 s to 5.4 s (to 400 rays, 0.27 s to 1.6 s). The q = 4 Feldman
patterns are therefore 24 single flips (drawn with replacement), and the
seeded q = 4 order runs to 200 rays (0.1 s to 0.2 s). The q = 4 solves
are slower than nearly every q = 2 op, so with 24 of them lp-decode's
median op falls about 12 places into its 63 `zero_optimal` ops, clear of
their sparse fast tail (with 12 q = 4 solves it fell 6 places in, and
op_p50_ms spread 15% seed to seed). dd-census runs 100 q = 2 orders, so
that a pass is short and every op is repeated several times in a run.
"""

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from pgcone import cli, cone, decode, plane, rays, weights

import reference

SIZES = {
    "full": {"q2_flip_weights": (1, 2, 3), "q4_feldman": 24, "q2_orders": 100,
             "q4_dd": True, "vectors": 1000},
    # Reduced sizes for the benchmark's own tests.
    "smoke": {"q2_flip_weights": (1,), "q4_feldman": 1, "q2_orders": 4,
              "q4_dd": False, "vectors": 10},
}
LEX_Q4_MAX_RAYS = 800
SEEDED_Q4_MAX_RAYS = 200


@dataclass
class Op:
    kind: str
    call: object   # no-argument callable into pgcone
    check: object  # result -> bool, exact comparison with the reference


@dataclass
class Workload:
    name: str
    ops: list = field(default_factory=list)
    # Directory the CLI ops write into; the runner gives each pass a fresh one.
    scratch: str = None

    def op_counts(self):
        counts = {}
        for op in self.ops:
            counts[op.kind] = counts.get(op.kind, 0) + 1
        return counts


def prepare(name, seed, smoke=False):
    """Everything a workload constructs before its first op."""
    builders = {"lp-decode": _lp_decode, "dd-census": _dd_census,
                "cone-study": _cone_study}
    if name not in builders:
        raise ValueError(f"unknown workload {name!r}")
    wl = Workload(name)
    builders[name](wl, random.Random(seed), SIZES["smoke" if smoke else "full"])
    return wl


def _matrix(q):
    return plane.incidence_matrix(plane.build_plane(q))


# --------------------------------------------------------------- lp-decode

EXPECTED_Q2 = {1: decode.ZERO_STRICTLY_OPTIMAL, 2: decode.TIE,
               3: decode.FAILURE}


def _lp_decode(wl, rng, size):
    H2, H4 = _matrix(2), _matrix(4)
    cs2 = cone.cone_constraints(H2)
    q2 = []
    for e in size["q2_flip_weights"]:
        for flips in combinations(range(H2.n_cols), e):
            llr = decode.llr_from_flips(H2.n_cols, flips, 1)
            expected = EXPECTED_Q2[e]
            q2.append([
                Op("zero_optimal.q2",
                   lambda llr=llr: decode.zero_optimal(H2, llr, cs2),
                   lambda out, llr=llr, ex=expected: _zero_optimal_ok(H2, llr, ex, out)),
                Op("feldman.q2",
                   lambda llr=llr: decode.feldman_lp_decode(H2, llr),
                   lambda out, llr=llr, ex=expected: _feldman_ok(llr, ex, out))])
    q4 = []
    for _ in range(size["q4_feldman"]):
        llr = decode.llr_from_flips(H4.n_cols, (rng.randrange(H4.n_cols),), 1)
        q4.append(Op("feldman.q4",
                     lambda llr=llr: decode.feldman_lp_decode(H4, llr),
                     lambda out, llr=llr: _feldman_ok(
                         llr, decode.ZERO_STRICTLY_OPTIMAL, out)))
    # The q = 4 solves are spread evenly among the q = 2 patterns, so each
    # kind of op is sampled across the whole pass.
    for k, pair in enumerate(q2):
        wl.ops.extend(pair)
        wl.ops.extend(q4[k * len(q4) // len(q2):(k + 1) * len(q4) // len(q2)])


def _zero_optimal_ok(H, llr, expected, outcome):
    """Status as the flip weight predicts (criterion 6); a tie or failure
    carries a mass-one cone witness whose objective is the reported one."""
    if outcome.status != expected:
        return False
    if expected == decode.ZERO_STRICTLY_OPTIMAL:
        return outcome.objective > 0
    w = outcome.certificate.entries
    objective = sum(a * b for a, b in zip(w, llr.entries))
    return (sum(w) == 1 and reference.in_cone(H.rows, w)
            and objective == outcome.objective
            and (objective == 0) == (expected == decode.TIE))


def _feldman_ok(llr, expected, result):
    """Criterion 10: the all-zero word is polytope-optimal exactly when the
    cone LP does not fail, and a strictly optimal zero decodes to zero."""
    sol, integral = result
    if len(sol) != len(llr.entries) or any(not 0 <= x <= 1 for x in sol):
        return False
    objective = sum(f * l for f, l in zip(sol, llr.entries))
    if (objective == 0) != (expected != decode.FAILURE):
        return False
    if expected == decode.ZERO_STRICTLY_OPTIMAL:
        return integral and not any(sol)
    return True


# --------------------------------------------------------------- dd-census

def _dd_census(wl, rng, size):
    H2, H4 = _matrix(2), _matrix(4)
    q2 = [Op("enumerate.q2",
             lambda s=rng.getrandbits(32): rays.enumerate_rays(H2, seed=s),
             _q2_rays_ok) for _ in range(size["q2_orders"])]
    order_seed = rng.getrandbits(32)
    q4 = [
        Op("enumerate.q4.lex",
           lambda: rays.enumerate_rays(H4, rays.Budget(max_rays=LEX_Q4_MAX_RAYS)),
           lambda rs: (len(rs) == reference.LEX_Q4_CERTIFIED_RAYS
                       and _all_extreme(H4, rs))),
        Op("enumerate.q4.seeded",
           lambda: rays.enumerate_rays(
               H4, rays.Budget(max_rays=SEEDED_Q4_MAX_RAYS), seed=order_seed),
           lambda rs: _all_extreme(H4, rs)),
    ] if size["q4_dd"] else []
    # The q = 2 orders run in two halves around the q = 4 runs, so their
    # latency samples span the pass rather than its first seconds.
    half = len(q2) // 2
    wl.ops = q2[:half] + q4[:1] + q2[half:] + q4[1:]


def _q2_rays_ok(rs):
    if not rs.complete or set(rs.canonicals()) != reference.RAYS_Q2:
        return False
    minima = {"AWGNC": min(weights.awgnc_pw(r) for r in rs),
              "BSC": min(weights.bsc_pw(r) for r in rs),
              "BEC": min(weights.bec_pw(r) for r in rs)}
    return minima == reference.MIN_PSEUDO_WEIGHTS_Q2


def _all_extreme(H, rs):
    return all(reference.is_extreme(H.rows, r.canonical) for r in rs)


# --------------------------------------------------------------- cone-study

CLI_PIPELINE = (
    ("rays", "enumerate", "--q", "2"),
    ("rays", "histogram", "--rayset", "{out}/rays_q2.jsonl", "--kind", "AWGNC"),
    ("rays", "histogram", "--rayset", "{out}/rays_q2.jsonl", "--kind", "BSC"),
    ("rays", "histogram", "--rayset", "{out}/rays_q2.jsonl", "--kind", "BEC"),
    ("effective", "awgnc", "--rayset", "{out}/rays_q2.jsonl"),
    ("effective", "bsc", "--rayset", "{out}/rays_q2.jsonl"),
    ("construct", "ex3", "--q", "2"),
    ("construct", "ex3", "--q", "4"),
    ("construct", "ex5"),
    ("construct", "conjecture", "--q", "4"),
    ("plane", "check", "--q", "16"),
    ("codewords", "min", "--q", "4"),
)


def _cone_study(wl, rng, size):
    H = {2: _matrix(2), 4: _matrix(4)}
    cs = {q: cone.cone_constraints(H[q]) for q in H}
    codewords4 = plane.min_weight_codewords(H[4], 6)
    if len(codewords4) != reference.MIN_CODEWORDS_Q4:
        raise RuntimeError(f"expected {reference.MIN_CODEWORDS_Q4} weight-6 "
                           f"codewords at q = 4, got {len(codewords4)}")
    pools = {2: sorted(reference.RAYS_Q2), 4: codewords4}

    for argv in CLI_PIPELINE:
        wl.ops.append(Op("cli", lambda argv=argv: _dispatch(wl, argv),
                         lambda res, argv=argv: _cli_ok(wl, H, argv, res)))
    members = {q: [Op(f"member.q{q}",
                      lambda q=q, vec=vec: _bound_family(H[q], cs[q], q, vec),
                      lambda res, vec=vec: _bound_family_ok(vec, res))
                   for vec in _random_members(pools[q], size["vectors"], rng)]
               for q in (2, 4)}
    nonmembers = []
    for k in range(size["vectors"]):
        q = (2, 4)[k % 2]
        vec = _random_members(pools[q], 1, rng)[0]
        i = rng.randrange(len(vec))
        vec[i] = sum(vec) + 1
        nonmembers.append(Op(f"nonmember.q{q}",
                             lambda q=q, vec=vec: cone.is_member(H[q], vec, cs[q]),
                             lambda res: res[0] is False))
    # Round-robin, so each kind of op is sampled across the whole pass.
    for trio in zip(members[2], members[4], nonmembers):
        wl.ops.extend(trio)


def _random_members(pool, count, rng):
    """Conic combinations of one to three pool vectors (criterion 8)."""
    out = []
    for _ in range(count):
        vec = [Fraction(0)] * len(pool[0])
        for _ in range(rng.randint(1, 3)):
            c = Fraction(rng.randint(1, 6), rng.randint(1, 4))
            w = pool[rng.randrange(len(pool))]
            vec = [a + c * b for a, b in zip(vec, w)]
        out.append(vec)
    return out


ETAS = (Fraction(1), Fraction(4, 3), Fraction(2), Fraction(3))


def _bound_family(H, cs, q, vec):
    """Membership and the criterion-8 lower bounds of one vector."""
    member, _ = cone.is_member(H, vec, cs)
    t = cone.type_of(vec)
    star = Fraction(sum(x * x for x in vec), sum(vec))
    lemma1 = weights.bound_lemma1(t)
    bounds = [weights.bound_lemma2(vec, eta).value for eta in ETAS]
    bounds += [weights.bound_cor3(t, eta).value for eta in ETAS[1:3]]
    bounds.append(weights.bound_cor4(vec).value)
    if lemma1.applicable:
        bounds.append(lemma1.value)
    if weights.thm5_applicable(t, q):
        bounds.append(weights.bound_thm5(q))
    bounds += [weights.bound_generalized(q, m) for m in (2, 3)
               if weights.generalized_applicable(t, q, m)]
    return member, weights.awgnc_pw(vec), bounds, weights.bound_lemma2(vec, star)


def _bound_family_ok(vec, result):
    member, target, bounds, at_star = result
    return (member and target == reference.awgnc(vec)
            and all(b <= target for b in bounds)
            and at_star.equality and at_star.value == target)


def _dispatch(wl, argv):
    args = ["--out", wl.scratch] + [a.format(out=wl.scratch) for a in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.dispatch(args)
    return code, buf.getvalue()


def _read(wl, name):
    with open(os.path.join(wl.scratch, name)) as fh:
        return fh.read()


def _cli_ok(wl, H, argv, result):
    code, stdout = result
    if code != 0:
        return False
    command = argv[:2]
    if command == ("rays", "enumerate"):
        lines = _read(wl, "rays_q2.jsonl").splitlines()
        header = json.loads(lines[0])
        found = {tuple(json.loads(line)["ray"]) for line in lines[1:]}
        return header["complete"] and len(lines) == 15 and found == reference.RAYS_Q2
    if command == ("rays", "histogram"):
        kind = argv[-1]
        return (_read(wl, f"histogram_{kind.lower()}.csv")
                == reference.HISTOGRAM_CSV_Q2[kind])
    if command[0] == "effective":
        reports = [json.loads(line) for line in
                   _read(wl, f"effective_{command[1]}.jsonl").splitlines()]
        # Every q = 2 ray is first-kind effective on both channels, which
        # also satisfies the criterion-9 BSC window 4 <= w_BSC <= 6.
        return ({tuple(r["ray"]) for r in reports} == reference.RAYS_Q2
                and len(reports) == 14
                and all(r["kind"] == "First" for r in reports))
    if command[0] == "construct":
        q = int(argv[3]) if len(argv) > 2 else 4
        stem = {"ex3": f"construct_ex3_q{q}", "ex5": "construct_ex5_q4",
                "conjecture": f"construct_conjecture_q{q}"}[command[1]]
        trace = json.loads(_read(wl, stem + ".json"))
        final = trace["final"]
        rows = H[q].rows
        awgnc = Fraction(trace["pseudo_weights"]["AWGNC"])
        ok = (trace["minimal"] and reference.is_extreme(rows, final)
              and awgnc == reference.awgnc(final))
        if command[1] == "ex3":
            return ok and awgnc == reference.EX3_AWGNC[q]
        if command[1] == "ex5":
            # Criterion 4: type (t0, t1, t2) = (8, 8, 5) and rank 20.
            return (ok and trace["type"] == {"1": 8, "2": 5}
                    and final.count(0) == 8 and trace["ranks"]["final"] == 20)
        return (ok and awgnc == reference.CONJECTURE_Q4_AWGNC
                and trace["type"] == {"1": 6, "2": 5})
    if command == ("plane", "check"):
        return stdout.strip() == "axioms pass"
    if command == ("codewords", "min"):
        payload = json.loads(_read(wl, "codewords_q4_w6.json"))
        words = payload["codewords"]
        return (payload["count"] == reference.MIN_CODEWORDS_Q4
                == len(set(map(tuple, words)))
                and all(sum(w) == 6 and _is_codeword(H[4], w) for w in words))
    raise ValueError(f"no check for {' '.join(argv)}")


def _is_codeword(H, word):
    return all(sum(word[i] for i in row) % 2 == 0 for row in H.rows)
