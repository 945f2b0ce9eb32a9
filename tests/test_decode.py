"""LP decoding experiments: LLR construction, zero-codeword optimality,
canonical completion, the polytope decoder, sweeps and BEC peeling."""

import random
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest

from pgcone import cone, decode
from pgcone.cone import cone_constraints, is_member
from pgcone.decode import (FAILURE, ZERO_STRICTLY_OPTIMAL, LLRVector,
                           bec_decode, bsc_sweep, canonical_completion,
                           feldman_lp_decode, llr_from_flips,
                           max_stopping_subset, zero_optimal)
from pgcone.errors import EmptyFlips, LpNotOptimal, TooManyPatterns
from pgcone.plane import ParityCheck
from pgcone.simplex import (EQ, GE, LE, OPTIMAL, UNBOUNDED, LinearProgram,
                            LpResult, lp_solve)


def test_llr_from_flips():
    llr = llr_from_flips(7, {0}, 1)
    assert llr.entries == (-1, 1, 1, 1, 1, 1, 1)
    assert llr.channel == "BSC"
    empty = llr_from_flips(7, set(), Fraction(3, 2))
    assert all(x == Fraction(3, 2) for x in empty.entries)
    assert sum(1 for x in llr_from_flips(7, {1, 5}, 1).entries if x < 0) == 2


def test_llr_validation():
    with pytest.raises(ValueError):
        llr_from_flips(7, {9}, 1)
    with pytest.raises(ValueError):
        llr_from_flips(7, {0}, 0)
    with pytest.raises(ValueError):
        LLRVector((1, -2, 1), "BSC")


def test_zero_optimal_all_positive(H2):
    out = zero_optimal(H2, llr_from_flips(7, set(), 1))
    assert out.status == ZERO_STRICTLY_OPTIMAL
    assert out.objective > 0


def test_zero_optimal_single_flip(H2):
    for i in range(7):
        out = zero_optimal(H2, llr_from_flips(7, {i}, 1))
        assert out.status == ZERO_STRICTLY_OPTIMAL


def test_zero_optimal_three_flips(H2):
    out = zero_optimal(H2, llr_from_flips(7, {0, 1, 2}, 1))
    assert out.status == FAILURE
    assert out.objective < 0
    witness = out.certificate
    assert is_member(H2, witness)[0]
    obj = sum(w * l for w, l in
              zip(witness.entries, llr_from_flips(7, {0, 1, 2}, 1).entries))
    assert obj == out.objective


def test_zero_optimal_q4(H4):
    out = zero_optimal(H4, llr_from_flips(21, {0}, 1))
    assert out.status == ZERO_STRICTLY_OPTIMAL
    flips = (0, 1, 2, 3, 4)
    llr = llr_from_flips(21, flips, 1)
    out = zero_optimal(H4, llr)
    assert out.status == FAILURE
    witness = out.certificate
    assert is_member(H4, witness)[0]
    assert sum(witness.entries) == 1
    assert sum(w * l for w, l in zip(witness.entries, llr.entries)) \
        == out.objective
    # The canonical completion (mass 9, objective -5 + 16/4) is a feasible
    # point of the same slice once scaled to mass one.
    omega = canonical_completion(H4, flips)
    completion = sum(w * l for w, l in zip(omega.entries, llr.entries)) \
        / sum(omega.entries)
    assert completion == Fraction(-1, 9)
    assert out.objective <= completion


def test_lp_status_is_checked(H2, monkeypatch):
    monkeypatch.setattr(decode, "lp_solve",
                        lambda lp: LpResult(status=UNBOUNDED))
    llr = llr_from_flips(7, {0}, 1)
    with pytest.raises(LpNotOptimal):
        zero_optimal(H2, llr)
    with pytest.raises(LpNotOptimal):
        feldman_lp_decode(H2, llr)


def _full_cone_value(H, llr):
    """Reference: the cone-slice LP with every cone row up front."""
    n = H.n_cols
    rows = [(coeffs, GE, 0)
            for label, coeffs in cone_constraints(H).items()
            if label[0] == "cone"]
    rows.append((dict.fromkeys(range(n), 1), EQ, 1))
    res = lp_solve(LinearProgram(list(llr.entries), rows, [(0, None)] * n))
    assert res.status == OPTIMAL
    return res.optimal_value


def _full_polytope_value(H, llr):
    """Reference: the polytope LP with every odd-set row up front."""
    n = H.n_cols
    rows = []
    for support in H.rows:
        for size in range(1, len(support) + 1, 2):
            for S in combinations(support, size):
                coeffs = {i: 1 if i in S else -1 for i in support}
                rows.append((coeffs, LE, size - 1))
    res = lp_solve(LinearProgram(list(llr.entries), rows, [(0, 1)] * n))
    assert res.status == OPTIMAL
    return res.optimal_value


def _assert_matches_full_lp(H, flips):
    llr = llr_from_flips(H.n_cols, flips, 1)
    value = _full_cone_value(H, llr)
    out = zero_optimal(H, llr)
    assert out.objective == value
    expected = (ZERO_STRICTLY_OPTIMAL if value > 0
                else decode.TIE if value == 0 else FAILURE)
    assert out.status == expected
    if expected != ZERO_STRICTLY_OPTIMAL:
        w = out.certificate.entries
        assert sum(w) == 1
        assert is_member(H, w)[0]
        assert sum(a * b for a, b in zip(w, llr.entries)) == value
    sol, integral = feldman_lp_decode(H, llr)
    assert sum(f * l for f, l in zip(sol, llr.entries)) \
        == _full_polytope_value(H, llr)
    if expected == ZERO_STRICTLY_OPTIMAL:
        assert integral and not any(sol)


def test_cutting_planes_match_full_lp_q2(H2):
    patterns = [flips for e in range(4) for flips in combinations(range(7), e)]
    assert len(patterns) == 64
    for flips in patterns:
        _assert_matches_full_lp(H2, flips)


def test_decode_pivot_counts_q2(H2, pivots):
    # Both decode LPs over the 63 patterns with 1 <= e <= 3: the pivot rule
    # and the order in which rows enter the tableau fix these totals.
    patterns = [flips for e in (1, 2, 3) for flips in combinations(range(7), e)]
    for flips in patterns:
        zero_optimal(H2, llr_from_flips(7, flips, 1))
    assert len(pivots) == 458
    pivots.clear()
    for flips in patterns:
        feldman_lp_decode(H2, llr_from_flips(7, flips, 1))
    assert len(pivots) == 362


def test_empty_check_changes_no_decode(H2, pivots):
    # A check with no columns (degree 0 in an alist) constrains nothing;
    # both separation oracles once crashed on it, at max() or min() of an
    # empty row. With one appended, every pattern decodes as before.
    H = ParityCheck(list(H2.rows) + [[]], 7)
    for e in (1, 2, 3):
        for flips in combinations(range(7), e):
            llr = llr_from_flips(7, flips, 1)
            runs = []
            for M in (H2, H):
                pivots.clear()
                out = zero_optimal(M, llr)
                zo = (out.status, out.objective, out.certificate, len(pivots))
                pivots.clear()
                runs.append((zo, feldman_lp_decode(M, llr), len(pivots)))
            assert runs[0] == runs[1]


def test_cutting_planes_match_full_lp_q4(H4):
    rng = random.Random(5)
    for e in (1, 1, 2, 2, 3, 3):
        _assert_matches_full_lp(H4, sorted(rng.sample(range(21), e)))


def test_oracles_read_ints_over_a_common_denominator(H2, H4, monkeypatch):
    # Both decode oracles get ints x and a positive int d, and the final
    # solution is the last x / d.
    scales = []

    def recording_solve(lp):
        separate, seen = lp.separate, []

        def recording(x, d):
            assert all(type(v) is int for v in x) and type(d) is int and d > 0
            seen.append((x, d))
            return separate(x, d)
        lp.separate = recording
        res = lp_solve(lp)
        x, d = seen[-1]
        assert res.solution == [Fraction(v, d) for v in x]
        scales.extend(d for _, d in seen)
        return res

    monkeypatch.setattr(decode, "lp_solve", recording_solve)
    rng = random.Random(17)
    for H in (H2, H4):
        for e in (1, 1, 2, 2, 3, 3):
            llr = llr_from_flips(H.n_cols, rng.sample(range(H.n_cols), e), 1)
            zero_optimal(H, llr)
            feldman_lp_decode(H, llr)
    assert max(scales) > 1
    # Each tableau row is its equation's primitive int multiple, so d is
    # fixed too: these 67 oracle calls see d = 1 to 28, 244 in all.
    assert (len(scales), sum(scales), max(scales)) == (67, 244, 28)


def test_odd_set_separation_is_exact():
    rng = random.Random(7)
    for _ in range(600):
        d = rng.randint(2, 7)
        support = sorted(rng.sample(range(12), d))
        f = [Fraction(0)] * 12
        for i in support:
            den = rng.choice((1, 2, 3, 4, 6, 7))
            f[i] = Fraction(rng.randint(0, den), den)
        scale = lcm(*(x.denominator for x in f)) * rng.randint(1, 3)
        x = [int(v * scale) for v in f]
        S, excess = decode._odd_set_cut(support, x, scale)
        assert len(S) % 2 == 1 and S <= set(support)

        def excess_of(T):
            return (sum(f[i] if i in T else -f[i] for i in support)
                    - (len(T) - 1))

        assert Fraction(excess, scale) == excess_of(S)
        best = max(excess_of(set(T)) for size in range(1, d + 1, 2)
                   for T in combinations(support, size))
        assert Fraction(excess, scale) == best
        assert (excess > 0) == (best > 0)


def test_canonical_completion_member_and_objective(H2):
    for e, flips in ((1, {0}), (2, {0, 3}), (3, {1, 2, 6})):
        omega = canonical_completion(H2, flips)
        assert is_member(H2, omega)[0]
        llr = llr_from_flips(7, flips, 1)
        obj = sum(w * l for w, l in zip(omega.entries, llr.entries))
        assert obj == -e + Fraction(7 - e, 2)


def test_canonical_completion_q4_objective(H4):
    rng = random.Random(21)
    for _ in range(5):
        flips = set(rng.sample(range(21), 5))
        omega = canonical_completion(H4, flips)
        assert is_member(H4, omega)[0]
        llr = llr_from_flips(21, flips, 1)
        obj = sum(w * l for w, l in zip(omega.entries, llr.entries))
        assert obj == -5 + Fraction(16, 4)  # = -1


def test_canonical_completion_empty_rejected(H2):
    with pytest.raises(EmptyFlips):
        canonical_completion(H2, set())


@pytest.mark.parametrize("flips", [[100], [0, 7], [-1]])
def test_canonical_completion_rejects_out_of_range_flips(H2, flips):
    with pytest.raises(ValueError, match="out of range"):
        canonical_completion(H2, flips)


def test_feldman_all_positive(H2):
    sol, integral = feldman_lp_decode(H2, llr_from_flips(7, set(), 1))
    assert integral and all(x == 0 for x in sol)


def test_feldman_three_flips_fails(H2):
    llr = llr_from_flips(7, {0, 1, 2}, 1)
    sol, integral = feldman_lp_decode(H2, llr)
    obj = sum(f * l for f, l in zip(sol, llr.entries))
    assert obj < 0  # the zero codeword is not optimal


def test_feldman_agrees_with_zero_optimal_at_q8(H8):
    # Row weight 9, past any row-weight limit: on a seeded sample the
    # polytope decoder returns the all-zero integral word exactly when the
    # cone LP finds the zero codeword strictly optimal.
    rng = random.Random(3)
    for e in (1, 2, 3):
        for _ in range(2):
            llr = llr_from_flips(H8.n_cols, rng.sample(range(H8.n_cols), e), 1)
            sol, integral = feldman_lp_decode(H8, llr)
            strict = zero_optimal(H8, llr).status == ZERO_STRICTLY_OPTIMAL
            assert (integral and not any(sol)) == strict


def test_zero_optimal_q8_weight_four(H8, pivots):
    # The four e = 4 patterns of random.Random(3), drawn after four
    # patterns each of e = 1, 2 and 3, as in BENCH_6.json.
    rng = random.Random(3)
    for e in (1, 2, 3):
        for _ in range(4):
            rng.sample(range(H8.n_cols), e)
    objectives, counts = [], []
    for _ in range(4):
        flips = sorted(rng.sample(range(H8.n_cols), 4))
        out = zero_optimal(H8, llr_from_flips(H8.n_cols, flips, 1))
        assert out.status == ZERO_STRICTLY_OPTIMAL
        objectives.append(out.objective)
        counts.append(len(pivots))
        pivots.clear()
    assert objectives == [Fraction(1, 5), Fraction(4, 15), Fraction(1, 5),
                          Fraction(1, 5)]
    assert counts == [320, 546, 159, 326]


def test_sweep_e1(H2):
    stats = bsc_sweep(H2, 1)
    assert (stats.patterns, stats.corrected) == (7, 7)
    assert stats.csv_row() == "1,7,7,0,0"


def test_sweep_e2_all_ties(H2):
    stats = bsc_sweep(H2, 2)
    assert (stats.patterns, stats.corrected, stats.ties) == (21, 0, 21)


def test_sweep_sampled_mode(H2):
    stats = bsc_sweep(H2, 1, samples=5, seed=1)
    assert stats.patterns == 5
    assert stats.corrected == 5
    with pytest.raises(ValueError):
        bsc_sweep(H2, 1, samples=0)


@pytest.mark.parametrize("e, samples", [(-1, None), (8, 3), (8, None)])
def test_sweep_rejects_a_weight_outside_zero_to_n(H2, e, samples):
    # A weight below 0 and one above n = 7, exhaustive and sampled.
    with pytest.raises(ValueError, match=f"e = {e} is outside 0..n = 0..7"):
        bsc_sweep(H2, e, samples=samples, seed=1)


def test_sweep_pattern_gate():
    H = ParityCheck([[i, (i + 1) % 60] for i in range(60)], 60)
    with pytest.raises(TooManyPatterns):
        bsc_sweep(H, 7)


def test_cyclic_symmetry_of_outcomes(H2):
    # Shifting the flip pattern shifts the outcome, not its class.
    base = {0, 2}
    out0 = zero_optimal(H2, llr_from_flips(7, base, 1))
    shifted = {(i + 1) % 7 for i in base}
    out1 = zero_optimal(H2, llr_from_flips(7, shifted, 1))
    assert out0.status == out1.status
    assert out0.objective == out1.objective


def test_max_stopping_subset(H2, codewords2):
    oval = frozenset(i for i, x in enumerate(codewords2[0]) if x)
    assert max_stopping_subset(H2, oval) == oval
    assert max_stopping_subset(H2, {0}) == frozenset()
    assert max_stopping_subset(H2, set(oval) | {min(set(range(7)) - oval)}) \
        >= oval


def test_stopping_sets_are_decided_in_cone(H2):
    assert decode.max_stopping_subset is cone.max_stopping_subset
    for erasures in ({99}, {-1}, {0, 7}):
        with pytest.raises(ValueError, match=r"positions must lie in 0\.\.6"):
            bec_decode(H2, erasures)


def test_bec_decode(H2, codewords2):
    ok, residual = bec_decode(H2, {0, 1})
    assert ok and residual == frozenset()
    oval = {i for i, x in enumerate(codewords2[0]) if x}
    ok, residual = bec_decode(H2, oval)
    assert not ok
    assert residual == frozenset(oval)
