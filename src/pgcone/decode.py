"""LP decoding experiments under the zero-codeword assumption: channel LLR
construction, optimality certification over the fundamental cone, the
canonical-completion failure witness, the full fundamental-polytope LP
decoder, and BSC flip-pattern sweeps."""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from .cone import PseudoCodeword, cone_constraints
from .errors import (EmptyFlips, LpNotOptimal, RowWeightTooLarge,
                     TooManyPatterns)
from .plane import ParityCheck
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
    L = Fraction(L)
    if L <= 0:
        raise ValueError("L must be positive")
    flips = set(flips)
    if not all(0 <= i < n for i in flips):
        raise ValueError("flip positions out of range")
    return LLRVector(tuple(-L if i in flips else L for i in range(n)), "BSC")


def zero_optimal(H: ParityCheck, llr: LLRVector, constraints=None) -> DecodeOutcome:
    """Minimize <omega, lambda> over the mass-one slice of the fundamental
    cone; the sign of the optimum classifies the zero codeword's LP fate."""
    n = H.n_cols
    cs = constraints if constraints is not None else cone_constraints(H)
    rows = [(list(con.coeffs), GE, 0) for con in cs.cone_rows]
    rows.append(([1] * n, EQ, 1))
    lp = LinearProgram(objective=list(llr.entries), constraints=rows,
                       bounds=[(0, None)] * n)
    res = lp_solve(lp)
    if res.status != OPTIMAL:
        raise LpNotOptimal(f"cone-slice LP ended {res.status}")
    value = res.optimal_value
    if value > 0:
        return DecodeOutcome(ZERO_STRICTLY_OPTIMAL, value)
    witness = PseudoCodeword(res.solution)
    return DecodeOutcome(TIE if value == 0 else FAILURE, value, witness)


def canonical_completion(H: ParityCheck, flips, q) -> PseudoCodeword:
    """1 on flipped positions, 1/q elsewhere; always a cone member for the
    PG(2, q) matrix because any two variable nodes are at graph distance 2."""
    flips = set(flips)
    if not flips:
        raise EmptyFlips("canonical completion needs at least one flip")
    n = H.n_cols
    inv_q = Fraction(1, q)
    return PseudoCodeword(tuple(
        Fraction(1) if i in flips else inv_q for i in range(n)))


def feldman_lp_decode(H: ParityCheck, llr: LLRVector):
    """Fundamental-polytope LP decoding: per check j and odd S within I_j,
    sum(f_S) - sum(f_{I_j \\ S}) <= |S| - 1, with 0 <= f <= 1.

    Returns (fractional solution tuple, integral flag).
    """
    n = H.n_cols
    rows = []
    for support in H.rows:
        d = len(support)
        if d > 7:
            raise RowWeightTooLarge(f"row weight {d} > 7")
        for bits in range(1 << d):
            if bin(bits).count("1") % 2 == 0:
                continue
            coeffs = [0] * n
            size = 0
            for pos, i in enumerate(support):
                if (bits >> pos) & 1:
                    coeffs[i] = 1
                    size += 1
                else:
                    coeffs[i] = -1
            rows.append((coeffs, LE, size - 1))
    lp = LinearProgram(objective=list(llr.entries), constraints=rows,
                       bounds=[(0, 1)] * n)
    res = lp_solve(lp)
    if res.status != OPTIMAL:
        raise LpNotOptimal(f"polytope LP ended {res.status}")
    sol = tuple(res.solution)
    integral = all(x in (0, 1) for x in sol)
    return sol, integral


def bsc_sweep(H: ParityCheck, e, L=1, mode="exhaustive", samples=None,
              seed=None) -> SweepStats:
    """Classify flip patterns of weight e via zero_optimal."""
    n = H.n_cols
    cs = cone_constraints(H)
    if mode == "exhaustive":
        if comb(n, e) > 10 ** 6:
            raise TooManyPatterns(f"C({n},{e}) exceeds the exhaustive limit")
        patterns = combinations(range(n), e)
    elif mode == "sampled":
        if not samples:
            raise ValueError("sampled mode needs a sample count")
        rng = random.Random(seed)
        patterns = (tuple(sorted(rng.sample(range(n), e)))
                    for _ in range(samples))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    counts = {ZERO_STRICTLY_OPTIMAL: 0, TIE: 0, FAILURE: 0}
    total = 0
    for flips in patterns:
        outcome = zero_optimal(H, llr_from_flips(n, flips, L), cs)
        counts[outcome.status] += 1
        total += 1
    return SweepStats(e=e, patterns=total,
                      corrected=counts[ZERO_STRICTLY_OPTIMAL],
                      ties=counts[TIE], failures=counts[FAILURE])


def max_stopping_subset(H: ParityCheck, erasures):
    """Largest stopping set inside the erasure set, by peeling positions
    that some check sees alone."""
    E = set(erasures)
    changed = True
    while changed and E:
        changed = False
        for row in H.rows:
            hits = [i for i in row if i in E]
            if len(hits) == 1:
                E.discard(hits[0])
                changed = True
    return frozenset(E)


def bec_decode(H: ParityCheck, erasures):
    """LP/peeling decoding over the BEC succeeds iff the erasure set contains
    no nonempty stopping set. Returns (success, residual stopping set)."""
    residual = max_stopping_subset(H, erasures)
    return (len(residual) == 0, residual)
