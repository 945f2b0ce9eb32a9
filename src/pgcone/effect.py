"""Effectiveness classification of minimal pseudo-codewords: does some
admissible LLR vector make a given ray beat (or tie) every other ray?"""

import json
from dataclasses import dataclass
from itertools import product

from .cone import PseudoCodeword, _check_length, _dot, _positive
from .errors import IncompleteRaySet, LpNotOptimal
from .rays import RaySet
from .simplex import GE, OPTIMAL, LinearProgram, lp_solve
from .weights import bsc_pw

FIRST = "First"
SECOND_ONLY = "SecondOnly"
NOT_EFFECTIVE = "NotEffective"

POSSIBLY_EFFECTIVE = "PossiblyEffective"
EXCLUDED_BY_RANGE = "ExcludedByCor8"


@dataclass
class EffectivenessReport:
    ray: tuple
    channel: str
    kind: str
    witness: tuple = None

    def to_json(self):
        return json.dumps({
            "ray": list(self.ray),
            "channel": self.channel,
            "kind": self.kind,
            "witness": None if self.witness is None
            else [str(x) for x in self.witness],
        })


def _target_and_others(rayset: RaySet, omega, channel):
    """Both classifiers' prelude: IncompleteRaySet naming the channel, else
    omega's primitive form (of the ray set's length) and every other ray's."""
    if not rayset.complete:
        raise IncompleteRaySet(
            f"{channel} classification needs the full ray set")
    target = PseudoCodeword(omega).canonical
    _check_length(len(target), rayset.n)
    return target, [c for c in rayset.canonicals() if c != target]


def bsc_effectiveness(rayset: RaySet, omega, L=1) -> EffectivenessReport:
    """Exhaustive scan over lambda in {+-L}^n, on the signs in {+-1}^n: the
    classification depends only on signs, so L scales only the witness."""
    target, others = _target_and_others(rayset, omega, "BSC")
    L = _positive(L, "L")
    n = len(target)
    if n > 25:
        raise ValueError("exhaustive scan is limited to n <= 25")
    best_kind = NOT_EFFECTIVE
    witness = None
    for signs in product((1, -1), repeat=n):
        own = _dot(target, signs)
        if own > 0 or any(_dot(o, signs) < 0 for o in others):
            continue
        if own < 0:
            return EffectivenessReport(target, f"BSC({L})", FIRST,
                                       tuple(s * L for s in signs))
        if best_kind == NOT_EFFECTIVE:
            best_kind, witness = SECOND_ONLY, tuple(s * L for s in signs)
    return EffectivenessReport(target, f"BSC({L})", best_kind, witness)


def cor8_screen(omega, q) -> str:
    """Necessary BSC-second-kind window: q+2 <= bsc_pw <= 2q+2."""
    w = bsc_pw(omega)
    if q + 2 <= w <= 2 * q + 2:
        return POSSIBLY_EFFECTIVE
    return EXCLUDED_BY_RANGE


def awgnc_first_kind(rayset: RaySet, omega) -> EffectivenessReport:
    """LP search for a box-bounded AWGNC witness: minimize <omega, lambda>
    subject to <omega', lambda> >= 0 for every other ray and
    -1 <= lambda <= 1. lambda = 0 satisfies every row and the box, so the
    optimum is never positive: first kind iff it is negative, second kind
    only iff it is zero."""
    target, others = _target_and_others(rayset, omega, "AWGNC")
    n = len(target)
    rows = [({i: v for i, v in enumerate(o) if v}, GE, 0) for o in others]
    lp = LinearProgram(objective=list(target), constraints=rows,
                       bounds=[(-1, 1)] * n)
    res = lp_solve(lp)
    if res.status != OPTIMAL:
        raise LpNotOptimal(f"box-bounded witness LP ended {res.status}")
    kind = FIRST if res.optimal_value < 0 else SECOND_ONLY
    return EffectivenessReport(target, "AWGNC", kind, tuple(res.solution))
