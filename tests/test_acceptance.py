"""End-to-end acceptance checks, one test per numbered criterion.

The conftest terminal-summary hook turns each test outcome into a single
"criterion N: PASS/FAIL" line at the end of the run.
"""

import random
from fractions import Fraction
from itertools import combinations

from pgcone.cone import is_member, is_minimal, active_rank, type_of
from pgcone.construct import ex3_minimal_pcw, ex5_procedure
from pgcone.decode import (FAILURE, ZERO_STRICTLY_OPTIMAL, bsc_sweep,
                           canonical_completion, feldman_lp_decode,
                           llr_from_flips, zero_optimal)
from pgcone.effect import (EXCLUDED_BY_RANGE, FIRST, SECOND_ONLY,
                           awgnc_first_kind, bsc_effectiveness, cor8_screen)
from pgcone.plane import gf2_rank, min_weight_codewords, verify_axioms
from pgcone.rays import Budget, RaySet, enumerate_rays, histogram
from pgcone.weights import (awgnc_pw, bec_pw, bound_cor3, bound_cor4,
                            bound_generalized, bound_lemma1, bound_lemma2,
                            bound_thm5, bsc_pw, generalized_applicable,
                            thm5_applicable)


def test_criterion_01_plane_parameters(plane2, plane4, plane8, H2, H4, H8):
    """Plane sizes, uniform weights, axioms, circulant structure."""
    for p, H, q in ((plane2, H2, 2), (plane4, H4, 4), (plane8, H8, 8)):
        n = q * q + q + 1
        assert p.n == n
        assert H.n_rows == H.n_cols == n
        assert all(len(r) == q + 1 for r in H.rows)
        assert all(len(c) == q + 1 for c in H.cols)
        assert verify_axioms(p).ok
        for j in range(n):
            shifted = tuple(sorted((i + 1) % n for i in H.rows[j]))
            assert shifted == H.rows[(j + 1) % n]


def test_criterion_02_code_parameters(H2, H4, H8):
    """GF(2) rank 3^s + 1, dimension, minimum distance q + 2."""
    for H, s, dim in ((H2, 1, 3), (H4, 2, 11), (H8, 3, 45)):
        assert gf2_rank(H) == 3 ** s + 1
        assert H.n_cols - gf2_rank(H) == dim
    for H, q in ((H2, 2), (H4, 4)):
        assert min_weight_codewords(H, q + 1) == []
        found = min_weight_codewords(H, q + 2)
        assert found
        assert all(sum(w) == q + 2 for w in found)


def test_criterion_03_overlap_switch_construction(plane2, plane4):
    """Certified-minimal overlap-switch vectors vs. the 4(q+2)/3 bound."""
    t2 = ex3_minimal_pcw(plane2)
    assert t2.minimal
    assert t2.pseudo_weights["AWGNC"] == Fraction(25, 4)
    assert bound_thm5(2) == Fraction(16, 3)
    assert t2.pseudo_weights["AWGNC"] > bound_thm5(2)
    t4 = ex3_minimal_pcw(plane4)
    assert t4.minimal
    assert t4.pseudo_weights["AWGNC"] == Fraction(128, 13)
    assert bound_thm5(4) == 8
    assert t4.pseudo_weights["AWGNC"] > bound_thm5(4)


def test_criterion_04_two_zero_line_procedure(plane4):
    """q=4 alpha procedure: type (8,8,5), max alpha 2, rank 20."""
    trace = ex5_procedure(plane4)
    t = trace.final_type
    assert (t.t0, t.get(1), t.get(2)) == (8, 8, 5)
    assert set(trace.switched.values()) == {Fraction(2)}
    assert trace.ranks["final"] == 20
    assert trace.minimal


def test_criterion_05_bsc_calibration(codewords2, codewords4):
    """BSC weight 12 for type (t_2=1, t_1=12); q+2 for minimal codewords."""
    assert bsc_pw([2] + [1] * 12 + [0] * 8) == 12
    for pool, q in ((codewords2, 2), (codewords4, 4)):
        for w in pool:
            assert bsc_pw(w) == q + 2


def test_criterion_06_flip_threshold_sweeps(H2):
    """q=2: all single flips corrected, all triple flips fail with exact
    canonical-completion certificates."""
    e1 = bsc_sweep(H2, 1)
    assert (e1.patterns, e1.corrected) == (7, 7)
    e3 = bsc_sweep(H2, 3)
    assert (e3.patterns, e3.corrected, e3.failures) == (35, 0, 35)
    for flips in combinations(range(7), 3):
        omega = canonical_completion(H2, flips)
        assert is_member(H2, omega)[0]
        llr = llr_from_flips(7, flips, 1)
        obj = sum(w * l for w, l in zip(omega.entries, llr.entries))
        assert obj == -1
    for flips in list(combinations(range(7), 1)) + \
            list(combinations(range(7), 2)):
        assert is_member(H2, canonical_completion(H2, flips))[0]


def test_criterion_07_ray_enumeration(H2, H4, rays2, oracle2, codewords4):
    """q=2 complete certified enumeration matching the oracle; budgeted q=4
    histograms with minimum occupied bin q + 2 = 6."""
    assert rays2.complete
    for r in rays2:
        assert is_member(H2, r)[0]
        assert active_rank(H2, r) == 6
    assert set(rays2.canonicals()) == set(oracle2.canonicals())
    assert min(awgnc_pw(r) for r in rays2) == 4
    assert min(bsc_pw(r) for r in rays2) == 4
    assert min(bec_pw(r) for r in rays2) == 4
    canon = set(rays2.canonicals())
    for r in rays2:
        v = r.canonical
        assert tuple(v[(i - 1) % 7] for i in range(7)) in canon

    budgeted = enumerate_rays(H4, budget=Budget(max_seconds=30, max_rays=400))
    for r in budgeted:
        assert is_member(H4, r)[0]
        assert is_minimal(H4, r)
    for w in codewords4:
        assert is_minimal(H4, w)
    merged = RaySet(rays=tuple(budgeted.rays) + tuple(codewords4),
                    h_matrix_id=H4.matrix_id(), complete=False)
    for kind in ("AWGNC", "BSC", "BEC"):
        rows = histogram(merged, kind)
        assert rows[0][0] == 6


def _random_members(pool, count, seed):
    """Conic combinations of certified cone members are members."""
    rng = random.Random(seed)
    n = len(pool[0])
    out = []
    while len(out) < count:
        k = rng.randint(1, 3)
        vec = [Fraction(0)] * n
        for _ in range(k):
            c = Fraction(rng.randint(1, 6), rng.randint(1, 4))
            w = pool[rng.randrange(len(pool))]
            vec = [a + c * b for a, b in zip(vec, w)]
        out.append(vec)
    return out


def test_criterion_08_bound_dominance(H2, H4, rays2, codewords4):
    """Every applicable lower bound stays at or below awgnc_pw, exactly."""
    pools = {2: (H2, [list(r.entries) for r in rays2]),
             4: (H4, [list(w) for w in codewords4])}
    for q, (H, pool) in pools.items():
        for vec in _random_members(pool, 1000, seed=q):
            assert is_member(H, vec)[0]
            target = awgnc_pw(vec)
            t = type_of(vec)
            one = sum(vec)
            star = Fraction(sum(x * x for x in vec), one)
            for eta in (Fraction(1), Fraction(4, 3), Fraction(2),
                        Fraction(3), star):
                rep = bound_lemma2(vec, eta)
                assert rep.value <= target
                if eta == star:
                    assert rep.equality and rep.value == target
            for eta in (Fraction(4, 3), Fraction(2)):
                assert bound_cor3(t, eta).value <= target
            assert bound_cor4(vec).value <= target
            rep1 = bound_lemma1(t)
            if rep1.applicable:
                assert rep1.value <= target
            if thm5_applicable(t, q):
                assert bound_thm5(q) <= target
            for m in (2, 3):
                if generalized_applicable(t, q, m):
                    assert bound_generalized(q, m) <= target


def test_criterion_09_effectiveness(rays2):
    """First-kind AWGNC for every ray; BSC second-kind window; the weight-12
    q=4 type is excluded from the [6, 10] window."""
    for r in rays2:
        assert awgnc_first_kind(rays2, r).kind == FIRST
        rep = bsc_effectiveness(rays2, r)
        if rep.kind in (FIRST, SECOND_ONLY):
            assert 4 <= bsc_pw(r) <= 6
    assert cor8_screen([2] + [1] * 12 + [0] * 8, 4) == EXCLUDED_BY_RANGE


def test_criterion_10_cross_module_consistency(H2):
    """Polytope LP decoding agrees with the cone classification on every
    flip pattern of weight at most 3."""
    for e in range(4):
        for flips in combinations(range(7), e):
            llr = llr_from_flips(7, flips, 1)
            outcome = zero_optimal(H2, llr)
            sol, integral = feldman_lp_decode(H2, llr)
            obj = sum(f * l for f, l in zip(sol, llr.entries))
            zero_polytope_optimal = obj == 0
            assert zero_polytope_optimal == (outcome.status != FAILURE)
            if outcome.status == ZERO_STRICTLY_OPTIMAL:
                assert integral and all(x == 0 for x in sol)
