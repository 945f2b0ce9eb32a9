"""LP decoding experiments: LLR construction, zero-codeword optimality,
canonical completion, the polytope decoder, sweeps and BEC peeling."""

import random
from fractions import Fraction

import pytest

from pgcone import decode
from pgcone.cone import is_member
from pgcone.decode import (FAILURE, ZERO_STRICTLY_OPTIMAL, LLRVector,
                           bec_decode, bsc_sweep, canonical_completion,
                           feldman_lp_decode, llr_from_flips,
                           max_stopping_subset, zero_optimal)
from pgcone.errors import (EmptyFlips, LpNotOptimal, RowWeightTooLarge,
                           TooManyPatterns)
from pgcone.plane import ParityCheck
from pgcone.simplex import UNBOUNDED, LpResult


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
    omega = canonical_completion(H4, flips, 4)
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


def test_canonical_completion_member_and_objective(H2):
    for e, flips in ((1, {0}), (2, {0, 3}), (3, {1, 2, 6})):
        omega = canonical_completion(H2, flips, 2)
        assert is_member(H2, omega)[0]
        llr = llr_from_flips(7, flips, 1)
        obj = sum(w * l for w, l in zip(omega.entries, llr.entries))
        assert obj == -e + Fraction(7 - e, 2)


def test_canonical_completion_q4_objective(H4):
    rng = random.Random(21)
    for _ in range(5):
        flips = set(rng.sample(range(21), 5))
        omega = canonical_completion(H4, flips, 4)
        assert is_member(H4, omega)[0]
        llr = llr_from_flips(21, flips, 1)
        obj = sum(w * l for w, l in zip(omega.entries, llr.entries))
        assert obj == -5 + Fraction(16, 4)  # = -1


def test_canonical_completion_empty_rejected(H2):
    with pytest.raises(EmptyFlips):
        canonical_completion(H2, set(), 2)


def test_feldman_all_positive(H2):
    sol, integral = feldman_lp_decode(H2, llr_from_flips(7, set(), 1))
    assert integral and all(x == 0 for x in sol)


def test_feldman_three_flips_fails(H2):
    llr = llr_from_flips(7, {0, 1, 2}, 1)
    sol, integral = feldman_lp_decode(H2, llr)
    obj = sum(f * l for f, l in zip(sol, llr.entries))
    assert obj < 0  # the zero codeword is not optimal


def test_feldman_row_weight_gate():
    H = ParityCheck([list(range(8))], 8)
    with pytest.raises(RowWeightTooLarge):
        feldman_lp_decode(H, llr_from_flips(8, set(), 1))


def test_sweep_e1(H2):
    stats = bsc_sweep(H2, 1)
    assert (stats.patterns, stats.corrected) == (7, 7)
    assert stats.csv_row() == "1,7,7,0,0"


def test_sweep_e2_all_ties(H2):
    stats = bsc_sweep(H2, 2)
    assert (stats.patterns, stats.corrected, stats.ties) == (21, 0, 21)


def test_sweep_sampled_mode(H2):
    stats = bsc_sweep(H2, 1, mode="sampled", samples=5, seed=1)
    assert stats.patterns == 5
    assert stats.corrected == 5
    with pytest.raises(ValueError):
        bsc_sweep(H2, 1, mode="sampled")
    with pytest.raises(ValueError):
        bsc_sweep(H2, 1, mode="bogus")


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


def test_bec_decode(H2, codewords2):
    ok, residual = bec_decode(H2, {0, 1})
    assert ok and residual == frozenset()
    oval = {i for i, x in enumerate(codewords2[0]) if x}
    ok, residual = bec_decode(H2, oval)
    assert not ok
    assert residual == frozenset(oval)
