"""LP decoding experiments under the zero-codeword assumption: channel LLR
construction, optimality certification over the fundamental cone, the
canonical-completion failure witness, the fundamental-polytope LP decoder
(both LPs solved by exact cutting planes), and BSC flip-pattern sweeps."""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from .cone import (PseudoCodeword, _check_length, _positive, _row,
                   max_stopping_subset)
from .errors import EmptyFlips, LpNotOptimal, TooManyPatterns
from .plane import ParityCheck, _mask
from .simplex import EQ, GE, LE, OPTIMAL, LinearProgram, lp_solve
import random

ZERO_STRICTLY_OPTIMAL = "ZeroStrictlyOptimal"
TIE = "Tie"
FAILURE = "Failure"


@dataclass
class LLRVector:
    entries: tuple
    channel: str  # "AWGNC", "BSC", "BEC"

    def __post_init__(self):
        self.entries = tuple(Fraction(x) for x in self.entries)
        if self.channel == "BSC":
            mags = {abs(x) for x in self.entries}
            if len(mags) > 1:
                raise ValueError("BSC entries must all be +L or -L")


@dataclass
class DecodeOutcome:
    status: str
    objective: Fraction
    certificate: PseudoCodeword = None


@dataclass
class SweepStats:
    e: int
    patterns: int
    corrected: int
    ties: int
    failures: int

    def csv_row(self):
        return f"{self.e},{self.patterns},{self.corrected},{self.ties},{self.failures}"


def llr_from_flips(n, flips, L) -> LLRVector:
    """-L on flipped positions, +L elsewhere (zero codeword sent)."""
    L = _positive(L, "L")
    flips = _mask(n, flips)
    return LLRVector(tuple(-L if flips >> i & 1 else L for i in range(n)), "BSC")


def zero_optimal(H: ParityCheck, llr: LLRVector, constraints=None) -> DecodeOutcome:
    """Minimize <omega, lambda> over the mass-one slice of the fundamental
    cone; the sign of the optimum classifies the zero codeword's LP fate.

    Solved by exact cutting planes in one ``lp_solve`` call. The LP has
    only the mass row sum(omega) = 1 and omega >= 0; its separation oracle
    reads each optimum as ints x over a positive d (omega = x / d; every
    test below is invariant under that scaling) and separates check by
    check: check j violates at most one cone row, the one whose pivot i is
    the argmax of omega on I_j, and only when 2 omega_i > sum(omega_{I_j}).
    ``lp_solve`` appends those rows and re-enters by dual simplex from the
    last basis, until no cone row is violated; the optimum is then feasible
    for the full cone LP, so it is that LP's optimum. Each cut's row map
    (``cone._row``) is built when the oracle returns it. ``constraints`` is
    ignored; it is accepted only because older callers pass
    ``cone_constraints(H)`` there. LengthMismatch for an LLR vector of
    another length than H's.
    """
    n = H.n_cols
    _check_length(len(llr.entries), n)

    def separate(x, d):
        cuts = []
        for j, support in enumerate(H.rows):
            if not support:  # an empty check has no cone row
                continue
            i = max(support, key=x.__getitem__)
            if 2 * x[i] > sum(x[k] for k in support):
                cuts.append((_row(H, ("cone", j, i)), GE, 0))
        return cuts

    res = lp_solve(LinearProgram(list(llr.entries),
                                 [(dict.fromkeys(range(n), 1), EQ, 1)],
                                 separate=separate))
    if res.status != OPTIMAL:
        raise LpNotOptimal(f"cone-slice LP ended {res.status}")
    value = res.optimal_value
    if value > 0:
        return DecodeOutcome(ZERO_STRICTLY_OPTIMAL, value)
    witness = PseudoCodeword(res.solution)
    return DecodeOutcome(TIE if value == 0 else FAILURE, value, witness)


def canonical_completion(H: ParityCheck, flips) -> PseudoCodeword:
    """1 on flipped positions, 1/q elsewhere, q + 1 the size of a check of H;
    a cone member for PG(2, q), as any two variable nodes are at distance 2."""
    flips = _mask(H.n_cols, flips)
    if not flips:
        raise EmptyFlips("canonical completion needs at least one flip")
    inv_q = Fraction(1, len(H.rows[0]) - 1)
    return PseudoCodeword(tuple(Fraction(1) if flips >> i & 1 else inv_q
                                for i in range(H.n_cols)))


def _odd_set_cut(support, x, scale):
    """The most violated odd-set row of one check at f = x / scale (x the
    ints of f scaled by scale): S = {i : f_i > 1/2}, and when |S| is even
    the lowest-index i with the least |f_i - 1/2| toggled. Returns S and
    the row's excess sum(x_S) - sum(x_{I_j \\ S}) - (|S| - 1) scale; the row
    sum(f_S) - sum(f_{I_j \\ S}) <= |S| - 1 is violated iff the excess is
    positive, and no odd S has a larger excess."""
    S = {i for i in support if 2 * x[i] > scale}
    if len(S) % 2 == 0:
        S ^= {min(support, key=lambda i: (abs(2 * x[i] - scale), i))}
    excess = sum(x[i] if i in S else -x[i] for i in support) \
        - (len(S) - 1) * scale
    return S, excess


def feldman_lp_decode(H: ParityCheck, llr: LLRVector):
    """Fundamental-polytope LP decoding: per check j and odd S within I_j,
    sum(f_S) - sum(f_{I_j \\ S}) <= |S| - 1, with 0 <= f <= 1.

    Solved by exact cutting planes in one ``lp_solve`` call. The LP has
    only the box 0 <= f <= 1; its separation oracle reads each optimum as
    ints x over a positive d (f = x / d), runs ``_odd_set_cut`` with scale d
    on each check, which finds the check's most violated odd-set row, and
    returns every violated one. ``lp_solve`` appends them and re-enters by
    dual simplex from the last basis, until no odd-set row is violated and
    the optimum is the full LP's.

    Returns (fractional solution tuple, integral flag); LengthMismatch for
    an LLR vector of another length than H's.
    """
    n = H.n_cols
    _check_length(len(llr.entries), n)

    def separate(x, d):
        cuts = []
        for support in H.rows:
            if not support:  # an empty check has no odd-set row
                continue
            S, excess = _odd_set_cut(support, x, d)
            if excess > 0:
                cuts.append(({i: 1 if i in S else -1 for i in support},
                             LE, len(S) - 1))
        return cuts

    res = lp_solve(LinearProgram(objective=list(llr.entries), constraints=[],
                                 bounds=[(0, 1)] * n, separate=separate))
    if res.status != OPTIMAL:
        raise LpNotOptimal(f"polytope LP ended {res.status}")
    sol = tuple(res.solution)
    return sol, all(x in (0, 1) for x in sol)


def bsc_sweep(H: ParityCheck, e, samples=None, seed=None) -> SweepStats:
    """Classify flip patterns of weight e via zero_optimal: every pattern,
    or, when ``samples`` is given, that many seeded random ones. The LLR
    magnitude is 1; a positive rescaling changes no classification.
    ValueError for e outside 0..n."""
    n = H.n_cols
    if not 0 <= e <= n:
        raise ValueError(f"flip weight e = {e} is outside 0..n = 0..{n}")
    if samples is None:
        if comb(n, e) > 10 ** 6:
            raise TooManyPatterns(f"C({n},{e}) exceeds the exhaustive limit")
        patterns = combinations(range(n), e)
    else:
        if samples < 1:
            raise ValueError(f"sample count must be at least 1, got {samples}")
        rng = random.Random(seed)
        patterns = (tuple(sorted(rng.sample(range(n), e)))
                    for _ in range(samples))
    counts = {ZERO_STRICTLY_OPTIMAL: 0, TIE: 0, FAILURE: 0}
    total = 0
    for flips in patterns:
        outcome = zero_optimal(H, llr_from_flips(n, flips, 1))
        counts[outcome.status] += 1
        total += 1
    return SweepStats(e=e, patterns=total,
                      corrected=counts[ZERO_STRICTLY_OPTIMAL],
                      ties=counts[TIE], failures=counts[FAILURE])


def bec_decode(H: ParityCheck, erasures):
    """LP/peeling decoding over the BEC succeeds iff the erasure set contains
    no nonempty stopping set. Returns (success, residual stopping set)."""
    residual = max_stopping_subset(H, erasures)
    return (len(residual) == 0, residual)
