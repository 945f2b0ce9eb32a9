"""Extreme-ray (minimal pseudo-codeword) enumeration of the fundamental cone
by the double description method over exact integers, an independent
support-guided oracle for cross-checking, and pseudo-weight histograms."""

import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import inf

from . import weights
from .cone import (PseudoCodeword, _check_length, _eliminate, _ints,
                   _nullspace_from_echelon, _positive, _primitive,
                   cone_constraints, integer_rank, is_member, is_minimal,
                   is_stopping_set)
from .errors import LengthMismatch, MalformedRaySet
from .plane import ParityCheck, _bits, mask_to_vector


@dataclass
class RaySet:
    rays: tuple
    h_matrix_id: str
    complete: bool
    n: int = 0

    def __post_init__(self):
        """Rays kept once each, by primitive form, sorted. They share one
        length, which a nonzero n must equal (LengthMismatch otherwise);
        n = 0 takes it from the rays."""
        seen = {}
        for r in self.rays:
            seen[_primitive(_ints(r)[0])] = None
        self.rays = tuple(PseudoCodeword(c) for c in sorted(seen))
        if self.rays and not self.n:
            self.n = self.rays[0].n
        for r in self.rays:
            _check_length(r.n, self.n)

    def __len__(self):
        return len(self.rays)

    def __iter__(self):
        return iter(self.rays)

    def canonicals(self):
        return [r.canonical for r in self.rays]

    def save_jsonl(self, path):
        with open(path, "w") as fh:
            fh.write(json.dumps({"h_matrix_id": self.h_matrix_id,
                                 "complete": self.complete,
                                 "n": self.n}) + "\n")
            for r in self.rays:
                fh.write(json.dumps({"ray": list(r.canonical)}) + "\n")

    @classmethod
    def load_jsonl(cls, path):
        with open(path) as fh:
            try:
                header = json.loads(fh.readline())
                kinds = {"h_matrix_id": str, "complete": bool, "n": int}
                fields = {k: header[k] for k in kinds}
                for k, kind in kinds.items():
                    if (type(fields[k]) is not kind
                            or k == "n" and fields[k] < 0):
                        raise ValueError(f"header {k} is {fields[k]!r}")
                lines = [json.loads(line, parse_float=Fraction)
                         for line in fh if line.strip()]
                rays = [PseudoCodeword(obj["ray"]) for obj in lines]
            except (KeyError, TypeError, ValueError) as exc:
                raise MalformedRaySet(
                    f"{path}: malformed ray-set file "
                    f"({type(exc).__name__}: {exc})") from exc
        for r in rays:
            if r.n != fields["n"]:
                raise LengthMismatch(
                    f"{path}: header n = {fields['n']}, ray of length {r.n}")
        return cls(rays=tuple(rays), **fields)


@dataclass
class Budget:
    """Limits of one run, None for none; a negative or NaN one: ValueError."""
    max_seconds: float = None
    max_rays: int = None

    def __post_init__(self):
        for name, limit in vars(self).items():
            if limit is not None and not limit >= 0:
                raise ValueError(f"{name} must be nonnegative, got {limit}")


def insertion_order(H: ParityCheck, seed=None):
    """Order of cone-constraint insertion; default (j, i) lexicographic,
    a seed selects a reproducible shuffle for cross-validation."""
    order = list(range(sum(map(len, H.rows))))
    if seed is not None:
        random.Random(seed).shuffle(order)
    return order


def enumerate_rays(H: ParityCheck, budget: Budget = None, seed=None) -> RaySet:
    """Double description: start from the nonnegative orthant's unit rays and
    insert the cone inequalities one at a time, combining adjacent
    positive/negative ray pairs into rays on the new hyperplane.

    Each ray carries its tight set as an int bitmask over the processed
    rows: bit k is the k-th processed row, the n nonnegativity rows first,
    then the cone rows in insertion order. A ray with value 0 on the
    inserted row gains that row's bit; the ray built from a pair (r+, r-)
    gets (T+ & T-) | bit, which is exact because it is a positive
    combination of the two. A pair is adjacent when its common tight set C
    passes three tests, cheapest first:

    1. cardinality: |C| >= n - 2;
    2. combinatorial: no other current ray is tight on all of C (exact
       because the intermediate cone is pointed and only its extreme rays
       are kept);
    3. algebraic: the rows in C have integer rank n - 2, which decides.

    The combinatorial test reads the rays by id. Each ray gets an int id
    when it is made (unit ray e_i has id i), and ``holders[k]``, the
    bitset of the ids of the rays tight at processed row k, is kept across
    steps: a ray with value 0 on the inserted row enters that row's
    holder, and a new ray enters the holders of its common set and of the
    inserted row. A dropped ray only leaves ``alive``, the ids of the
    current rays, and every test ANDs with ``alive`` as it was at the start
    of the step, so a ray made during the step is never a third ray. The
    AND over C is taken one byte of rows at a time: within a step, the AND
    of ``alive`` and the holders of the rows that one byte of C selects is
    memoized on (byte offset, byte value), so pairs whose common sets share
    a byte share its work.

    ``max_rays`` is checked after each step and ``max_seconds`` also once
    per positive ray inside a step; a run stopped by either returns
    complete=False. Every returned ray is certified by full membership
    and minimality, whether the run completed or not.
    """
    n = H.n_cols
    cs = list(cone_constraints(H).values())
    processed = cs[-n:] + [cs[k] for k in insertion_order(H, seed)]
    full = (1 << n) - 1
    rays = {mask_to_vector(1 << i, n): full ^ (1 << i) for i in range(n)}
    ids = {r: i for i, r in enumerate(rays)}
    holders = [full ^ (1 << k) for k in range(n)]
    alive = full
    made = n
    budget = budget or Budget()
    deadline = inf if budget.max_seconds is None else \
        time.monotonic() + budget.max_seconds
    complete = True

    for step in range(n, len(processed)):
        items = tuple(processed[step].items())
        bit = 1 << step
        keep, pos, neg = {}, [], []
        zero = gone = 0
        for r, mask in rays.items():
            v = sum([c * r[i] for i, c in items])
            if v > 0:
                keep[r] = mask
                pos.append((r, mask, v))
            elif v == 0:
                keep[r] = mask | bit
                zero |= 1 << ids[r]
            else:
                neg.append((r, mask, v))
                gone |= 1 << ids.pop(r)
        holders.append(zero)
        if neg:
            chunks = (step + 7) // 8
            memo = {}
            born = 0
            for rp, mp, vp in pos:
                if time.monotonic() > deadline:
                    complete = False
                    break
                for rm, mm, vm in neg:
                    common = mp & mm
                    if common.bit_count() < n - 2:
                        continue
                    tight_on_all = alive
                    for o, byte in enumerate(common.to_bytes(chunks, "little")):
                        if byte:
                            h = memo.get(key := o << 8 | byte)
                            if h is None:
                                h = alive
                                for j in _BYTE_BITS[byte]:
                                    h &= holders[8 * o + j]
                                memo[key] = h
                            tight_on_all &= h
                    # r+ and r- are two of the rays tight on all of common.
                    if tight_on_all.bit_count() > 2:
                        continue
                    rows = _bits(common)
                    if integer_rank([processed[k] for k in rows]) != n - 2:
                        continue
                    new = _primitive([vp * b - vm * c for b, c in zip(rm, rp)])
                    if new not in keep:
                        keep[new] = common | bit
                        ids[new] = made
                        own = 1 << made
                        made += 1
                        born |= own
                        for k in rows:
                            holders[k] |= own
                        holders[step] |= own
            alive = alive ^ gone | born
        rays = keep
        if not complete or time.monotonic() > deadline or \
                (budget.max_rays is not None and len(rays) > budget.max_rays):
            complete = False
            break

    result = tuple(r for r in rays
                   if is_member(H, r)[0] and is_minimal(H, r))
    return RaySet(rays=result, h_matrix_id=H.matrix_id(),
                  complete=complete, n=n)


# _BYTE_BITS[b]: the positions of the set bits of the byte value b.
_BYTE_BITS = tuple(tuple(j for j in range(8) if b >> j & 1)
                   for b in range(256))


def support_guided_rays(H: ParityCheck) -> RaySet:
    """Independent exhaustive oracle: for every stopping-set support, find all
    strictly positive nullspace generators of (|S| - 1)-rank systems of
    restricted tight cone constraints, drop the repeats (a degenerate ray
    is the generator of many subsets), then certify each candidate. A
    singleton {i} is a stopping set exactly when no check touches column i;
    its only generator is the unit ray e_i.

    Exponential in n; intended as the q = 2 cross-check.
    """
    n = H.n_cols
    if n > 12:
        raise ValueError("oracle enumeration is limited to n <= 12")
    cone_rows = [row for label, row in cone_constraints(H).items()
                 if label[0] == "cone"]
    found = set()
    for size in range(1, n + 1):
        for S in combinations(range(n), size):
            if not is_stopping_set(H, S):
                continue
            restricted = sorted({tuple(a.get(i, 0) for i in S)
                                 for a in cone_rows})
            gens = _rank_deficient_solutions(restricted, size)
            for vec in {v for v in gens if min(v) > 0}:
                full = [0] * n
                for i, x in zip(S, vec):
                    full[i] = x
                if is_minimal(H, full):
                    found.add(tuple(full))
    return RaySet(rays=tuple(found), h_matrix_id=H.matrix_id(),
                  complete=True, n=n)


def _rank_deficient_solutions(rows, k):
    """Yield nullspace generators of every independent (k-1)-subset of rows
    (for k = 1, the empty subset and its generator (1,)).

    Subsets are built recursively with an incrementally maintained integer
    row echelon, so dependent branches are pruned with one row reduction.
    Each echelon row is stored with a positive pivot, as ``_eliminate``
    needs.
    """
    def reduce_row(echelon, row):
        r = list(row)
        for pc, pr in echelon:
            if r[pc]:
                _eliminate(r, pr, pr[pc], r[pc])
        return r

    def rec(start, depth, echelon):
        if depth == k - 1:
            yield _nullspace_from_echelon(echelon, k)
            return
        for idx in range(start, len(rows) - (k - 2 - depth)):
            red = reduce_row(echelon, rows[idx])
            if not any(red):
                continue
            pc = next(c for c, v in enumerate(red) if v)
            if red[pc] < 0:
                red = [-v for v in red]
            yield from rec(idx + 1, depth + 1, echelon + [(pc, red)])

    yield from rec(0, 0, [])


def histogram(rs: RaySet, kind: str, bin_width=1):
    """Counts of rays per half-open bin [b, b + w); returns a sorted list of
    (bin_low, bin_high, count)."""
    calc = weights._channel(kind)
    bin_width = _positive(bin_width, "bin width")
    bins = {}
    for r in rs:
        w = Fraction(calc(r))
        low = (w // bin_width) * bin_width
        bins[low] = bins.get(low, 0) + 1
    return [(low, low + bin_width, cnt) for low, cnt in sorted(bins.items())]


def histogram_csv(rows):
    out = ["bin_low,bin_high,count"]
    for low, high, cnt in rows:
        out.append(f"{low},{high},{cnt}")
    return "\n".join(out) + "\n"
