"""The fundamental cone of a parity-check matrix, each constraint named by
its label; exact membership and minimality certification via the rank of
tight constraints (one integer scan, check by check, gives both membership
and the tight set), type vectors, stopping sets and mod-2 reduction.

It also holds the package's one reading of a vector, as ints and their
scale, and its one integer kernel: gcd reduction to a primitive vector,
the dot product, the fraction-free row elimination shared by the simplex
tableau and the oracle's echelon, integer back-substitution for a
nullspace generator, and integer rank."""

import json
from fractions import Fraction
from math import gcd, lcm
from operator import is_, mul

from .errors import LengthMismatch, NonInteger, NotInCone
from .plane import ParityCheck, _bits


def _rational(x):
    """x itself if its type is exactly Fraction, else Fraction(x), with a
    ValueError also for a zero denominator, an infinite float or a value of
    another type."""
    if type(x) is Fraction:
        return x
    try:
        return Fraction(x)
    except (TypeError, ZeroDivisionError, OverflowError):
        raise ValueError(f"not a rational: {x!r}") from None


def _positive(x, name):
    """Fraction(x), whose errors propagate; ValueError unless positive."""
    x = Fraction(x)
    if x <= 0:
        raise ValueError(f"{name} must be positive")
    return x


_EXACT = frozenset((int, Fraction))


def _exact(v):
    """v itself if its type is exactly int or Fraction (so not a bool or a
    subclass), else Fraction(v), whose errors propagate."""
    return v if type(v) in _EXACT else Fraction(v)


# The last reading _ints stored: (vector, tuple of its entries, (x, m)),
# read and replaced whole, so a thread always sees one consistent entry.
_last = (None, (), ((), 1))


def _ints(omega):
    """The package's one reading of a vector: (x, m), the ints x = m omega
    with m > 0 the lcm of the entries' denominators. Each entry is read as
    the numerator and denominator of its ``as_integer_ratio()``: an int or
    Fraction entry (exact type) as it is, every other entry through
    Fraction, whose errors propagate. An all-int tuple or list is returned
    as it is, with m = 1; any other iterable is read once.

    The last reading of a list, tuple or PseudoCodeword whose entries are
    all exact ints or Fractions is kept, with the vector and a tuple of its
    entry objects: when that same vector comes back holding the same entry
    objects, its stored (x, m) is returned unread. An in-place change, a
    reassigned ``entries`` or an equal but different vector is read anew,
    and nothing else (an iterator, a bool, float, Decimal or str entry, a
    Fraction subclass) is ever stored. Callers must not write to x.

    The scale is positive, so every sign and every zero of a dot product
    with an integer row is unchanged."""
    global _last
    if type(omega) in (list, tuple):
        held, entries = True, omega
    elif isinstance(omega, PseudoCodeword):
        held, entries = True, omega.entries
    else:
        held, entries = False, list(omega)
    vec, snap, stored = _last
    if (held and omega is vec and len(entries) == len(snap)
            and all(map(is_, entries, snap))):
        return stored
    types = set(map(type, entries))
    if entries is omega and types <= {int}:
        reading = omega, 1
    else:
        vals = entries if types <= _EXACT else map(_exact, entries)
        pairs = [v.as_integer_ratio() for v in vals]
        m = lcm(*[d for _, d in pairs])
        reading = [p * (m // d) for p, d in pairs], m
    if held and types <= _EXACT:
        _last = omega, tuple(entries), reading
    return reading


def _primitive(vec):
    """The int vector divided by the gcd of its entries, as a tuple; the
    divisor is positive, so signs are kept, and all-zero stays zero."""
    g = gcd(*vec)
    return tuple(v // g for v in vec) if g > 1 else tuple(vec)


def _dot(a, b):
    return sum(map(mul, a, b))


def _eliminate(row, prow, p, f):
    """row := p row - f prow with p > 0, p and f divided by their gcd
    first, then the row divided by the gcd of its entries. A positive
    factor stays positive."""
    g = gcd(p, f)
    if g > 1:
        p //= g
        f //= g
    row[:] = [p * a - f * b for a, b in zip(row, prow)]
    g = gcd(*row)
    if g > 1:
        row[:] = [a // g for a in row]


def _nullspace_from_echelon(echelon, k):
    """Primitive integer nullspace generator, first nonzero entry positive,
    from k-1 echelon rows (pivot column, row) with distinct pivots.

    Row m was reduced against rows 0..m-1 only, so in reverse order each
    row's non-pivot columns are already solved; back-substitution suffices.
    It stays in integers: x is the solution times a common denominator,
    and solving p x_pc + s = 0 scales x by p / gcd(p, s).
    """
    pivot_cols = {pc for pc, _ in echelon}
    x = [0] * k
    x[next(c for c in range(k) if c not in pivot_cols)] = 1
    for pc, row in reversed(echelon):
        s = _dot(row, x)
        if s:
            g = gcd(row[pc], s)
            x = [v * (row[pc] // g) for v in x]
            x[pc] = -s // g
    x = _primitive(x)
    if next(v for v in x if v) < 0:
        x = tuple(-v for v in x)
    return x


class PseudoCodeword:
    """A nonnegative exact-rational vector. Equality and hashing are on the
    entries; `canonical`, its primitive-integer form, identifies the ray."""

    def __init__(self, entries):
        if isinstance(entries, PseudoCodeword):
            entries = entries.entries
        entries = tuple(map(_rational, entries))
        if any(x < 0 for x in entries):
            raise ValueError("pseudo-codeword entries must be nonnegative")
        self.entries = entries

    @property
    def n(self):
        return len(self.entries)

    @property
    def canonical(self):
        """Unique positive integer multiple with entry gcd 1 (0 maps to 0)."""
        return _primitive(_ints(self)[0])

    def scaled(self, c):
        c = _positive(c, "scaling constant")
        return PseudoCodeword(x * c for x in self.entries)

    def __eq__(self, other):
        return isinstance(other, PseudoCodeword) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"PseudoCodeword({list(self.entries)})"

    def to_json(self):
        return json.dumps({
            "n": self.n,
            "entries": [f"{x.numerator}/{x.denominator}" for x in self.entries],
            "canonical": list(self.canonical),
        })

    @classmethod
    def from_json(cls, text):
        """The vector of a ``to_json`` text: an object whose "entries" list
        holds rationals (decimals read exactly) and whose "n" and
        "canonical", when present, agree with it. LengthMismatch for
        another "n"; ValueError, naming what is malformed, otherwise."""
        obj = json.loads(text, parse_float=Fraction)
        if not isinstance(obj, dict) or not isinstance(obj.get("entries"), list):
            raise ValueError('a vector file must be an object with an '
                             '"entries" list')
        vec = cls(obj["entries"])
        if obj.get("n", vec.n) != vec.n:
            raise LengthMismatch(f'"n" is {obj["n"]!r} for {vec.n} entries')
        if "canonical" in obj and obj["canonical"] != list(vec.canonical):
            raise ValueError('"canonical" is not the entries\' primitive form')
        return vec


class TypeVector:
    """Map from positive value to whole multiplicity; t_0 is implicit."""

    def __init__(self, counts, n):
        self.counts = {}
        for k, v in counts.items():
            if v:
                if type(v) is not int:
                    if (f := Fraction(v)).denominator != 1:
                        raise ValueError(f"multiplicity {v} is not an integer")
                    v = f.numerator
                if type(k) is not Fraction:
                    k = Fraction(k)
                if k:
                    self.counts[k] = v
        if any(k < 0 or v < 0 for k, v in self.counts.items()):
            raise ValueError("type values and multiplicities must be "
                             "nonnegative")
        self.n = n
        if sum(self.counts.values()) > n:
            raise ValueError("type counts exceed the vector length")

    @property
    def t0(self):
        return self.n - sum(self.counts.values())

    def get(self, value):
        value = _exact(value)
        if value == 0:
            return self.t0
        return self.counts.get(value, 0)

    def values(self):
        """Distinct positive component values, sorted."""
        return sorted(self.counts)

    def scaled(self, c):
        c = _positive(c, "scaling constant")
        return TypeVector({k * c: v for k, v in self.counts.items()}, self.n)

    def __eq__(self, other):
        return (isinstance(other, TypeVector)
                and self.counts == other.counts and self.n == other.n)

    def __repr__(self):
        items = ", ".join(f"t_{k}={v}" for k, v in sorted(self.counts.items()))
        return f"TypeVector(n={self.n}, t_0={self.t0}, {items})"


def _row(H: ParityCheck, label):
    """{column: coefficient} map of one constraint, no zero held: 1 on
    I_j \\ {i} and -1 at i for ("cone", j, i), {i: 1} for ("nonneg", i)."""
    if label[0] == "cone":
        row = dict.fromkeys(H.rows[label[1]], 1)
        row[label[2]] = -1
        return row
    return {label[1]: 1}


def cone_constraints(H: ParityCheck) -> dict:
    """Row maps (``_row``) of every constraint a . omega >= 0, keyed by
    label in scan order: ("cone", j, i) for check j and pivot i in I_j in
    (j, i) order, then ("nonneg", i)."""
    labels = [("cone", j, i) for j, support in enumerate(H.rows)
              for i in support] + [("nonneg", i) for i in range(H.n_cols)]
    return {label: _row(H, label) for label in labels}


def _check_length(n, expected):
    """LengthMismatch, naming both lengths, unless n == expected."""
    if n != expected:
        raise LengthMismatch(f"expected length {expected}, got {n}")


def _scan(H: ParityCheck, omega):
    """One pass at omega, as ints, check by check: sum x[I_j] once, then
    test the value sum - 2 x_i of each pivot i, then x_i >= 0. Returns
    (label of the first violated constraint, None) for a non-member, else
    (None, labels of the tight constraints)."""
    x, _ = _ints(omega)
    _check_length(len(x), H.n_cols)
    tight = []
    for j, support in enumerate(H.rows):
        vals = [x[i] for i in support]
        s = sum(vals)
        for i, v in zip(support, vals):
            value = s - 2 * v
            if value <= 0:
                if value:
                    return ("cone", j, i), None
                tight.append(("cone", j, i))
    for i, v in enumerate(x):
        if v <= 0:
            if v:
                return ("nonneg", i), None
            tight.append(("nonneg", i))
    return None, tight


def is_member(H: ParityCheck, omega, constraints=None):
    """Exact membership; returns (True, None) or (False, label of the first
    violated constraint). ``constraints`` is ignored; it is accepted only
    because older callers pass ``cone_constraints(H)`` there."""
    violated, _ = _scan(H, omega)
    return violated is None, violated


def integer_rank(rows):
    """Rank of integer rows, {column: coefficient} maps without zeros. A
    row with one entry is its own pivot: the distinct columns of such rows
    add one each to the rank and are dropped from the other rows, and
    Bareiss fraction-free elimination ranks the rest, dense over the
    columns they touch.

    Bareiss stays, rather than Gauss on the shared ``_eliminate``, because
    it is faster on double description's rank tests. Replaying the 9,513
    calls of one dd-census pass (best of 11, 2-vCPU host) took 0.16 s with
    this kernel, 0.19 s with unit peeling plus the oracle's incremental
    echelon, 0.21 s with unit peeling plus ``_eliminate`` and 0.58 s with
    plain Bareiss. A second elimination also keeps the oracle cross-check
    meaningful: DD ranks with Bareiss and the oracle eliminates with gcd
    reduction, so one faulty kernel cannot fool both."""
    unit_cols = set()
    rest = []
    for r in rows:
        if len(r) == 1:
            unit_cols.update(r)
        elif r:
            rest.append(r)
    cols = sorted(set().union(*rest) - unit_cols)
    mat = [row for row in ([r.get(c, 0) for c in cols] for r in rest)
           if any(row)]
    rank = len(unit_cols)
    if not mat:
        return rank
    n_cols = len(mat[0])
    prev_pivot = 1
    r = 0
    for c in range(n_cols):
        pivot_row = None
        for rr in range(r, len(mat)):
            if mat[rr][c] != 0:
                pivot_row = rr
                break
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        piv = mat[r][c]
        for rr in range(r + 1, len(mat)):
            factor = mat[rr][c]
            if factor == 0 and piv == prev_pivot:
                continue
            row = mat[rr]
            prow = mat[r]
            for cc in range(c, n_cols):
                row[cc] = (piv * row[cc] - factor * prow[cc]) // prev_pivot
        prev_pivot = piv
        r += 1
        rank += 1
        if r == len(mat):
            break
    return rank


def active_rank(H: ParityCheck, omega) -> int:
    """Rank of the tight-constraint coefficient matrix at omega; one scan
    gives both membership (NotInCone otherwise) and the tight set. The
    zero set Z's unit rows add |Z|; a tight cone row (j, i) off Z's columns
    is empty if x_i = 0, so only rows with x_i > 0 are built and ranked.
    A check that meets the support in two points i, k has the tight rows
    e_k - e_i and e_i - e_k, both tight when one is, so only the first is
    ranked."""
    violated, tight = _scan(H, omega)
    if violated is not None:
        raise NotInCone(f"vector violates {violated}")
    zero = {label[1] for label in tight if label[0] == "nonneg"}
    rows = []
    paired = set()
    for label in tight:
        if label[0] != "cone" or label[2] in zero or label[1] in paired:
            continue
        j, i = label[1:]
        row = {k: -1 if k == i else 1 for k in H.rows[j] if k not in zero}
        if len(row) == 2:
            paired.add(j)
        rows.append(row)
    return len(zero) + integer_rank(rows)


def is_minimal(H: ParityCheck, omega) -> bool:
    """Extreme ray of the cone: a member with tight rank n - 1 (zero has n)."""
    try:
        return active_rank(H, omega) == H.n_cols - 1
    except NotInCone:
        return False


def type_of(omega) -> TypeVector:
    x, m = _ints(omega)
    counts = {}
    for v in x:
        if v:
            counts[v] = counts.get(v, 0) + 1
    return TypeVector({Fraction(v, m): c for v, c in counts.items()}, len(x))


def support(omega):
    x, _ = _ints(omega)
    return frozenset(i for i, v in enumerate(x) if v)


def _mask(n, positions):
    """Bitmask of the positions; ValueError for one outside 0..n-1."""
    mask = 0
    for i in positions:
        if not 0 <= i < n:
            raise ValueError(f"out of range: positions must lie in 0..{n - 1}")
        mask |= 1 << i
    return mask


def _lone(H: ParityCheck, E):
    """Mask of the positions of the point mask E that some check meets alone."""
    lone = 0
    for m in H.row_masks:
        if (hit := m & E).bit_count() == 1:
            lone |= hit
    return lone


def max_stopping_subset(H: ParityCheck, point_set) -> frozenset:
    """Largest stopping set inside the point set, by peeling positions that
    some check sees alone, all of a round at once (the largest stopping
    subset is unique); ValueError for a position outside 0..n-1."""
    E = _mask(H.n_cols, point_set)
    while lone := _lone(H, E):
        E ^= lone
    return frozenset(_bits(E))


def is_stopping_set(H: ParityCheck, point_set) -> bool:
    """No check touches the set exactly once: peeling removes nothing."""
    return not _lone(H, _mask(H.n_cols, point_set))


def mod2_reduce(omega):
    """Entrywise parity of an integer-valued vector."""
    x, m = _ints(omega)
    for v in x:
        if v % m:
            raise NonInteger(f"entry {Fraction(v, m)} is not an integer")
    return tuple(v // m % 2 for v in x)
