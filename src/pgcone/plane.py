"""PG(2, q) via the Singer/trace difference set, its circulant parity-check
matrix, GF(2) linear algebra, minimum-weight codewords and arc detection."""

import binascii
from dataclasses import dataclass, field
from itertools import islice

from .errors import DimensionTooLarge, UnsupportedQ
from .fields import field_new, trace

SUPPORTED_S = (1, 2, 3, 4)


def _digest(text):
    """16 lowercase hex digits: the CRC-32 of the text's bytes, then that of
    the reversed bytes. The same on every Python version; it tells one
    matrix or configuration from another, it does not resist forgery."""
    data = text.encode()
    return f"{binascii.crc32(data):08x}{binascii.crc32(data[::-1]):08x}"


@dataclass(frozen=True)
class Plane:
    """Projective plane of order q with points labelled by Singer exponents.

    Line j is the cyclic translate (D + j) mod n of the difference set D.
    """
    q: int
    n: int
    difference_set: tuple
    lines: tuple = field(repr=False)


class ParityCheck:
    """Square circulant 0/1 incidence matrix with row/column support sets."""

    def __init__(self, rows, n_cols):
        self.n_rows = len(rows)
        self.n_cols = n_cols
        self.rows = tuple(tuple(sorted(r)) for r in rows)
        cols = [[] for _ in range(n_cols)]
        for j, r in enumerate(self.rows):
            if len(set(r)) < len(r) or r and not 0 <= r[0] <= r[-1] < n_cols:
                raise ValueError(f"row {j} lists columns {list(r)}; they must "
                                 f"be distinct and in 0..{n_cols - 1}")
            for i in r:
                cols[i].append(j)
        self.cols = tuple(tuple(c) for c in cols)
        self.row_masks = tuple(sum(1 << i for i in r) for r in self.rows)

    def entry(self, j, i):
        return 1 if i in self.rows[j] else 0

    def to_alist(self):
        """Serialize in the standard alist text format (1-indexed)."""
        col_deg = [len(c) for c in self.cols]
        row_deg = [len(r) for r in self.rows]
        out = [f"{self.n_cols} {self.n_rows}",
               f"{max(col_deg, default=0)} {max(row_deg, default=0)}",
               " ".join(map(str, col_deg)),
               " ".join(map(str, row_deg))]
        for c in self.cols:
            out.append(" ".join(str(j + 1) for j in c))
        for r in self.rows:
            out.append(" ".join(str(i + 1) for i in r))
        return "\n".join(out) + "\n"

    @classmethod
    def from_alist(cls, text):
        fields = text.split()
        pos = 0

        def take(k):
            nonlocal pos
            vals = [int(x) for x in fields[pos:pos + k]]
            if len(vals) != k:
                raise ValueError("truncated alist")
            pos += k
            return vals

        n_cols, n_rows = take(2)
        take(2)  # max degrees
        col_deg = take(n_cols)
        row_deg = take(n_rows)
        col_lists = [take(d) for d in col_deg]
        rows = []
        for d in row_deg:
            row = take(d)
            bad = next((i for i in row if not 1 <= i <= n_cols), None)
            if bad is not None:
                raise ValueError(f"alist index {bad} outside 1..{n_cols}")
            rows.append([i - 1 for i in row])
        if pos < len(fields):
            raise ValueError(f"alist has {fields[pos]!r} after the row lists")
        H = cls(rows, n_cols)
        for i, col in enumerate(col_lists):
            if sorted(col) != [j + 1 for j in H.cols[i]]:
                raise ValueError(f"alist column {i + 1} lists rows {col}; "
                                 f"the rows say {[j + 1 for j in H.cols[i]]}")
        return H

    def to_dense_text(self):
        lines = []
        for j in range(self.n_rows):
            lines.append(" ".join(str(self.entry(j, i)) for i in range(self.n_cols)))
        return "\n".join(lines) + "\n"

    def matrix_id(self):
        return _digest(self.to_alist())


@dataclass
class ArcReport:
    point_set: frozenset
    is_arc: bool
    is_hyperoval: bool
    violating_line: int | None = None


@dataclass
class AxiomReport:
    ok: bool
    failure: str | None = None


def _plane_field(q):
    s = q.bit_length() - 1
    if q < 2 or q & (q - 1) or s not in SUPPORTED_S:
        raise UnsupportedQ(f"q={q} is not a supported power of two")
    return s


def build_plane(q):
    """Build PG(2, q), q = 2^s, from the trace-zero Singer difference set."""
    s = _plane_field(q)
    big = field_new(3 * s)
    n = q * q + q + 1
    d_set = [i for i in range(n) if trace(big, big.exp_table[i]) == 0]
    if len(d_set) != q + 1:
        raise UnsupportedQ(f"trace construction failed for q={q}")
    lines = tuple(frozenset((d + j) % n for d in d_set) for j in range(n))
    return Plane(q=q, n=n, difference_set=tuple(d_set), lines=lines)


def incidence_matrix(p: Plane) -> ParityCheck:
    """Lines as rows, points as columns; circulant by construction."""
    return ParityCheck([sorted(line) for line in p.lines], p.n)


def _bits(mask):
    """Indices of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _incidence_masks(p: Plane):
    """Line j as an int mask over its points and point i as an int mask
    over the lines through it. Only points in 0..n-1 get a bit, so a
    malformed line is reported by the checks rather than raising."""
    line_masks = [0] * len(p.lines)
    point_masks = [0] * p.n
    for j, line in enumerate(p.lines):
        for i in line:
            if 0 <= i < p.n:
                line_masks[j] |= 1 << i
                point_masks[i] |= 1 << j
    return line_masks, point_masks


def verify_axioms(p: Plane) -> AxiomReport:
    """Exhaustively check the four projective-plane incidence axioms.

    After the size and degree checks, point a lies on q + 1 lines of at
    most q + 1 points each, so they hold at most q(q + 1) incidences
    besides a. When that is n - 1, the OR of their masks is all n points
    exactly when a shares one line with every other point; dually for
    lines. Only when a cover fails (or n is not q^2 + q + 1) is a scanned
    against every b > a, so the first failing pair is the pairwise one."""
    n, q = p.n, p.q
    for j, line in enumerate(p.lines):
        if len(line) != q + 1:
            return AxiomReport(False, f"line {j} has {len(line)} points")
    line_masks, point_masks = _incidence_masks(p)
    for i in range(n):
        deg = point_masks[i].bit_count()
        if deg != q + 1:
            return AxiomReport(False, f"point {i} lies on {deg} lines")
    # Pairs are compared among points and lines 0..n-1 only, so a cover
    # is read under this mask (a point mask may name lines past the n-th).
    full = (1 << n) - 1
    exact = n == q * q + q + 1
    for masks, other, failure in (
            (point_masks, line_masks, "points {},{} share {} lines"),
            (line_masks, point_masks, "lines {},{} meet in {} points")):
        for a in range(n):
            cover = 0
            for k in _bits(masks[a]):
                cover |= other[k]
            if exact and cover & full == full:
                continue
            for b in range(a + 1, n):
                common = (masks[a] & masks[b]).bit_count()
                if common != 1:
                    return AxiomReport(False, failure.format(a, b, common))
    return AxiomReport(True)


def _gf2_eliminate(masks):
    """Reduced row echelon form of bitmask rows: {top bit: row}, one pass."""
    pivots = {}
    for m in masks:
        for c, pm in pivots.items():
            if (m >> c) & 1:
                m ^= pm
        if m:
            c = m.bit_length() - 1
            for c2, pm in pivots.items():
                if (pm >> c) & 1:
                    pivots[c2] = pm ^ m
            pivots[c] = m
    return pivots


def gf2_rank(H: ParityCheck) -> int:
    return len(_gf2_eliminate(H.row_masks))


def gf2_nullspace(H: ParityCheck):
    """Basis of the GF(2) nullspace (codewords) as bitmasks over columns."""
    pivots = _gf2_eliminate(H.row_masks)
    basis = []
    for fc in range(H.n_cols):
        if fc in pivots:
            continue
        v = 1 << fc
        for c, pm in pivots.items():
            if (pm >> fc) & 1:
                v |= 1 << c
        basis.append(v)
    return basis


def mask_to_vector(m, n):
    return tuple((m >> i) & 1 for i in range(n))


def min_weight_codewords(H: ParityCheck, w_max: int):
    """All nonzero codewords of weight <= w_max by full codebook enumeration."""
    if w_max < 0:
        raise ValueError(f"w_max must be nonnegative, got {w_max}")
    basis = gf2_nullspace(H)
    k = len(basis)
    if k > 24:
        raise DimensionTooLarge(f"dimension {k} exceeds the exhaustive limit 24")
    found = []
    word = 0
    # Gray-code walk over the nonzero sums: step idx adds basis[idx's low bit].
    for idx in range(1, 1 << k):
        word ^= basis[(idx & -idx).bit_length() - 1]
        if word.bit_count() <= w_max:
            found.append(word)
    found.sort()
    return [mask_to_vector(m, H.n_cols) for m in found]


def arc_check(p: Plane, point_set) -> ArcReport:
    """Arc iff no line meets the set in three or more points."""
    pts = frozenset(point_set)
    for j, line in enumerate(p.lines):
        if len(line & pts) > 2:
            return ArcReport(pts, False, False, violating_line=j)
    return ArcReport(pts, True, len(pts) == p.q + 2)


def _hyperovals(p: Plane):
    """Backtracking search yielding the (q+2)-arcs in lexicographic order.

    `blocked` is the point mask of the secants, the lines through two
    chosen points; a point off every secant extends the arc."""
    n = p.n
    target = p.q + 2
    line_masks, point_masks = _incidence_masks(p)

    def extend(current, start, blocked):
        if len(current) == target:
            yield tuple(current)
            return
        # Not enough candidate points left to finish the arc.
        stop = n - (target - len(current)) + 1
        window = ((1 << stop) - 1) >> start << start
        free = window & ~blocked
        while free:
            low = free & -free
            free ^= low
            nxt = low.bit_length() - 1
            grown = blocked
            for a in current:
                common = point_masks[nxt] & point_masks[a]
                grown |= line_masks[common.bit_length() - 1]
            current.append(nxt)
            yield from extend(current, nxt + 1, grown)
            current.pop()

    yield from extend([], 0, 0)


def find_hyperovals(p: Plane, limit=1):
    """The first `limit` >= 0 hyperovals in lexicographic order."""
    if limit < 0:
        raise ValueError(f"limit must be nonnegative, got {limit}")
    return list(islice(_hyperovals(p), limit))
