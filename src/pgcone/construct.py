"""Explicit minimal-pseudo-codeword constructions: sum of two overlapping
minimum-weight codewords with zero positions switched to twos, and the
two-zero-line alpha-threshold procedure on PG(2, 4)."""

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, count, tee
from math import inf

from .cone import (PseudoCodeword, _ints, active_rank, is_member, is_minimal,
                   type_of)
from .errors import (DimensionTooLarge, NoSuchPair, NotInCone, NoZeroLinePair,
                     SearchExhausted)
from .plane import (Plane, _hyperovals, _mask, _nonnegative, arc_check,
                    incidence_matrix, mask_to_vector, min_weight_codewords)
from .weights import _channel, awgnc_pw, conjectured_wp


@dataclass
class ConstructionTrace:
    generators: tuple
    overlap: int
    switched: dict
    intermediate: PseudoCodeword
    final: PseudoCodeword
    ranks: dict
    final_type: object
    pseudo_weights: dict
    minimal: bool
    notes: str = ""

    def to_json(self):
        return json.dumps({
            "generators": [list(g) for g in self.generators],
            "overlap": self.overlap,
            "switched": {str(k): str(v) for k, v in self.switched.items()},
            "intermediate": list(self.intermediate.canonical),
            "final": list(self.final.canonical),
            "ranks": self.ranks,
            "type": {str(k): v for k, v in self.final_type.counts.items()},
            "pseudo_weights": {k: str(v) for k, v in self.pseudo_weights.items()},
            "minimal": self.minimal,
            "notes": self.notes,
        }, indent=2)


def _weights_of(omega):
    return {kind: _channel(kind)(omega) for kind in ("AWGNC", "BSC", "BEC")}


def overlapping_pair(p: Plane, overlap=None):
    """First pair, in the pool order of `_overlapping_pairs`, of
    weight-(q+2) codewords whose supports overlap in `overlap` positions
    (default (q+2)/2).

    Two distinct hyperovals share at most q/2 + 1 points, so a larger
    overlap, or one that is not a whole number, raises NoSuchPair before
    any codeword is read. Take X on the second and off the
    first. Each line through X meets the second in exactly one more point,
    so the common points lie on distinct lines through X, each a secant of
    the first; X lies on exactly (q + 2)/2 secants of the first."""
    if overlap is None:
        overlap = (p.q + 2) // 2
    if overlap not in range(p.q // 2 + 2):
        raise NoSuchPair(f"two distinct weight-{p.q + 2} codewords share "
                         f"0 to {p.q // 2 + 1} positions, not {overlap}")
    for pair in _overlapping_pairs(p, overlap):
        return pair
    raise NoSuchPair(
        f"no weight-{p.q + 2} codeword pair with overlap {overlap}")


def _overlapping_pairs(p: Plane, overlap):
    """Codeword pairs (a, b), a before b in the pool, whose supports share
    `overlap` points. The pool is the exhaustive list while the code
    dimension allows it, in ascending mask (colex) order, else the
    hyperoval search, in lexicographic order of point tuples, read on
    demand."""
    try:
        rest = (sum(x << i for i, x in enumerate(w)) for w in
                min_weight_codewords(incidence_matrix(p), p.q + 2))
    except DimensionTooLarge:
        rest = (sum(1 << i for i in pts) for pts in _hyperovals(p))
    while (ma := next(rest, None)) is not None:
        rest, later = tee(rest)
        for mb in later:
            if (ma & mb).bit_count() == overlap:
                yield mask_to_vector(ma, p.n), mask_to_vector(mb, p.n)


def max_alpha(H, base, positions):
    """Supremum alpha >= 0 such that base + alpha * indicator(positions)
    stays in the cone; exact slack/step ray-shooting. The cone row (j, i)
    changes by step |P & I_j| - 2 [i in P], which is negative only when i
    is the one position on I_j, and then it is -1; its slack is
    sum(base[I_j]) - 2 base_i, taken on the ints x = scale * base. Returns
    a Fraction, or math.inf when no row decreases."""
    x, scale = _ints(base)
    ok, violated = is_member(H, x)
    if not ok:
        raise NotInCone(f"base violates {violated}")
    P = _mask(H.n_cols, positions)
    best = inf
    for support, m in zip(H.rows, H.row_masks):
        if (hit := m & P).bit_count() == 1:
            i = hit.bit_length() - 1
            best = min(best, sum(x[k] for k in support) - 2 * x[i])
    return best if best is inf else Fraction(best, scale)


def _switched(base, positions, value):
    out = list(base)
    for i in positions:
        out[i] = value
    return tuple(out)


def _trace(x1, x2, overlap, switched, omega_t, cand, rank_t=None, notes=""):
    """Trace of cand, certified minimal, so its tight rank is n - 1."""
    ranks = {} if rank_t is None else {"intermediate": rank_t}
    ranks["final"] = len(cand) - 1
    final = PseudoCodeword(cand)
    return ConstructionTrace(
        generators=(tuple(x1), tuple(x2)),
        overlap=overlap,
        switched=switched,
        intermediate=PseudoCodeword(omega_t),
        final=final,
        ranks=ranks,
        final_type=type_of(final),
        pseudo_weights=_weights_of(final),
        minimal=True,
        notes=notes,
    )


def _switch_search(p: Plane, admissible):
    """For each default-overlap codeword pair, switch s = log2(q) zeros of
    their sum to twos; yield (x1, x2, omega_t, switch, cand) for each
    switch set that passes `admissible` and whose result certifies
    minimal. omega_t and cand are int tuples, which the cone scan takes
    as they are."""
    s = p.q.bit_length() - 1
    H = incidence_matrix(p)
    for x1, x2 in _overlapping_pairs(p, (p.q + 2) // 2):
        omega_t = tuple(a + b for a, b in zip(x1, x2))
        zeros = [i for i, x in enumerate(omega_t) if x == 0]
        for switch in combinations(zeros, s):
            if not admissible(switch):
                continue
            cand = _switched(omega_t, switch, 2)
            if is_minimal(H, cand):
                yield x1, x2, omega_t, switch, cand


def ex3_minimal_pcw(p: Plane) -> ConstructionTrace:
    """Sum a default-overlap minimum-weight codeword pair, then switch
    s = log2(q) zeros to twos so the result certifies minimal."""
    # Any two distinct points share a line, so the q=4 "on the same line"
    # requirement holds for every switch set.
    for x1, x2, omega_t, switch, cand in _switch_search(p, lambda switch: True):
        return _trace(x1, x2, (p.q + 2) // 2, {i: 2 for i in switch},
                      omega_t, cand, active_rank(incidence_matrix(p), omega_t))
    raise SearchExhausted("no switch set certified a minimal pseudo-codeword")


def conjectured_family_search(p: Plane, max_candidates=None) -> ConstructionTrace:
    """Search switch sets of size s = log2(q) in simplex configuration whose
    result certifies minimal; the conjecture's target type is
    t_1 = q+2, t_2 = q/2 + s + 1."""
    if max_candidates is not None:
        _nonnegative(max_candidates, "max_candidates")
    target = conjectured_wp(p.q)
    tried = count(1)

    # The conjecture's simplex condition is that no three switched points
    # are collinear (an arc): a point for s=1, two points and their line
    # for s=2, a triangle frame for s=3.
    def admissible(switch):
        if not arc_check(p, switch).is_arc:
            return False
        if max_candidates is not None and next(tried) > max_candidates:
            raise SearchExhausted(
                f"candidate budget {max_candidates} exhausted")
        return True

    for x1, x2, omega_t, switch, cand in _switch_search(p, admissible):
        if awgnc_pw(cand) == target:
            return _trace(
                x1, x2, (p.q + 2) // 2, {i: 2 for i in switch}, omega_t, cand,
                notes=f"conjectured family target pseudo-weight {target}")
    raise SearchExhausted("no simplex switch set realized the conjecture")


def ex5_procedure(p: Plane) -> ConstructionTrace:
    """Two-zero-line procedure on PG(2, 4): overlap-2 codeword pair, find
    fully zero lines L1, L2, raise a point on each to the maximal feasible
    alpha and certify minimality at alpha = 2."""
    if p.q != 4:
        raise ValueError("the procedure is specific to q = 4")
    H = incidence_matrix(p)
    found_zero_lines = False
    for x1, x2 in _overlapping_pairs(p, 2):
        omega_t = tuple(a + b for a, b in zip(x1, x2))
        zero_lines = [j for j in range(p.n)
                      if all(omega_t[i] == 0 for i in p.lines[j])]
        for l1, l2 in combinations(zero_lines, 2):
            found_zero_lines = True
            p0 = next(iter(p.lines[l1] & p.lines[l2]))
            # The intersection point is raised together with P1 and P2:
            # the two zero lines then stay tight (alpha >= alpha), which is
            # what lifts the tight-constraint rank back to n - 1.
            for pt1 in sorted(p.lines[l1] - {p0}):
                for pt2 in sorted(p.lines[l2] - {p0}):
                    alpha = max_alpha(H, omega_t, {p0, pt1, pt2})
                    if alpha is inf or alpha <= 0:
                        continue
                    cand = _switched(omega_t, (p0, pt1, pt2), alpha)
                    if not is_minimal(H, cand):
                        continue
                    return _trace(
                        x1, x2, 2, {p0: alpha, pt1: alpha, pt2: alpha},
                        omega_t, cand, active_rank(H, omega_t),
                        notes=f"zero lines {l1},{l2}; intersection {p0}; "
                              f"max alpha {alpha}")
    if not found_zero_lines:
        raise NoZeroLinePair("no codeword pair exposed two all-zero lines")
    raise SearchExhausted("no point pair certified a minimal pseudo-codeword")
