"""Exact simplex on a condensed integer tableau (the dictionary, or Tucker,
form; Chvatal, "Linear Programming", 1983, ch. 2-3), with Bland's rule for
both the entering and the leaving variable: dual simplex for phase 1 and
for cutting planes, primal simplex for the objective.

Every variable x has a finite lower bound lo and is one standard variable,
y = x - lo >= 0; an upper bound hi is the row y <= hi - lo. Each variable
has a label: the standard ones are 0..n-1, and each row's slack takes the
next label in the order the rows enter. The tableau has one row per basic
variable (``basis`` holds their labels) and one column per nonbasic
variable (``cols``), so n columns however many rows have entered. A row
is [a_1, ..., a_n, rhs, factor]: factor times its basic variable plus a
times the nonbasic ones equals rhs, with factor > 0. Each row with its
right-hand side, and the objective, is scaled once to ints by the lcm of
its denominators. The objective row z has the same layout, factor 0.

A pivot on (row r, column col) swaps the entering and the leaving labels:
row r's entry at col and its factor change places (the row negated if the
new factor is negative), and each other row, and z, with an entry f != 0
at col becomes p row - f row_r, its own entry at col read as 0 and row
r's factor slot as 0, then is divided by its gcd (``cone._eliminate``, the
kernel the oracle's echelon shares). Only those rows change. The ratio
test cross-multiplies, so the factors cancel. Every sign and ratio is the
rational tableau's, and Bland's rule reads labels, not positions, so the
pivots are the rational simplex's too, with no floating point anywhere.
``Fraction`` appears only at the boundary: the coercion of
``LinearProgram`` data and the ``LpResult``.

Every row enters the tableau one way, as a ``<=`` row with its own slack,
which starts basic: a ``>=`` row is negated, and an ``==`` row enters as a
``<=`` row and a ``>=`` row. The new row's basic standard variables are
substituted out (``_express``), so its rhs is the slack's value at the
current basic solution, negative where that solution violates the row;
no existing row changes. A slack basis is dual feasible at zero cost, so
phase 1 is dual simplex at zero cost: it reaches a feasible basis or
proves that there is none (Lemke, 1954; Chvatal, 1983, ch. 10). Phase 2 is
primal simplex on the objective. No row or variable is ever dropped. Dual
simplex keeps Bland's rule in the dual: the leaving row is the
negative-rhs row with the smallest basic label, and the entering variable
the one of least ratio z_j / -a_j over a_j < 0 (cross-multiplied), ties
to the smallest label. A leaving row with no a_j < 0 proves the LP
infeasible.

An LP may carry a separation oracle, ``separate(x, d)``, called on each
optimum x / d: x has one int per variable, d > 0 is the lcm of the
lower bounds' denominators and the factors of the rows of nonzero basic
variables. It returns the rows x / d violates, in ``constraints`` form
(inequalities whose row maps hold int or Fraction coefficients), or
nothing once x / d is feasible for the whole family; the loop ends only
then. The rows enter the final tableau as above. The reduced costs are
untouched, so the basis stays dual feasible, and dual simplex restores
primal feasibility.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .cone import _dot, _eliminate, _exact, _ints, _primitive

GE = ">="
LE = "<="
EQ = "=="

OPTIMAL = "Optimal"
UNBOUNDED = "Unbounded"
INFEASIBLE = "Infeasible"


@dataclass
class LinearProgram:
    """Minimize objective . x (a list) subject to rows (a, rel, b), each a
    a {variable: coefficient} map without zeros, and per-variable bounds
    (lower, upper): the lower bound finite (ValueError for None), the
    upper one None for none; the default is (0, None) for every variable.
    ``separate(x, d)``, when given, returns the rows of a larger family
    that the optimum x / d violates (see the module docstring)."""
    objective: list
    constraints: list
    bounds: list = None
    separate: object = None

    def __post_init__(self):
        # Each number is coerced once, an int or Fraction kept as it is.
        self.objective = [_exact(c) for c in self.objective]
        self.constraints = [
            ({k: _exact(a) for k, a in row.items()}, rel, _exact(b))
            for row, rel, b in self.constraints
        ]
        n = len(self.objective)
        bounds = [(0, None)] * n if self.bounds is None else self.bounds
        if any(lo is None for lo, _ in bounds):
            raise ValueError("every variable needs a finite lower bound")
        self.bounds = [(_exact(lo), None if hi is None else _exact(hi))
                       for lo, hi in bounds]
        for row, _, _ in self.constraints:
            if not all(0 <= k < n for k in row):
                raise ValueError("constraint dimension mismatch")
        if len(self.bounds) != n:
            raise ValueError("bounds dimension mismatch")


@dataclass
class LpResult:
    status: str
    optimal_value: Fraction = None
    solution: list = None
    tight_constraints: list = field(default_factory=list)


def _append(tableau, basis, cols, rows, shifts):
    """Add rows (a, rel, b) in the original variables to the tableau as the
    module docstring says; shifts maps each variable of nonzero lower bound
    to that bound. A row's standard form is a y (rel) b - a . lo
    (ValueError on a variable out of range). Times the lcm m of its
    denominators, and -1 for GE, it gets its slack at factor m, basic
    (``_express``). An EQ row enters as its LE half, then its GE half. No
    existing row changes. Returns each row's slack label (an EQ row's:
    that of its LE half)."""
    n = len(cols)
    first = n + len(tableau)
    row_of = {b: row for b, row in zip(basis, tableau) if b < n}
    col_of = {label: j for j, label in enumerate(cols)}
    slacks, new = [], []
    for coeffs, rel, b in rows:
        if coeffs and (min(coeffs) < 0 or max(coeffs) >= n):
            raise ValueError("constraint dimension mismatch")
        shift = [a * shifts[k] for k, a in coeffs.items() if k in shifts]
        if shift:
            b -= sum(shift)
        m = lcm(b.denominator, *[a.denominator for a in coeffs.values()])
        if rel not in (LE, EQ):
            m = -m  # a GE row
        row = _express(coeffs, m, b.numerator * (m // b.denominator), abs(m),
                       row_of, col_of)
        slacks.append(first + len(new))
        new.append(row)
        if rel == EQ:
            new.append([-v for v in row[:-1]] + row[-1:])
    tableau.extend(new)
    basis.extend(range(first, first + len(new)))
    return slacks


def _express(coeffs, m, rhs, factor, row_of, col_of):
    """The row m sum(a y_k for k, a in coeffs) + factor (its basic
    variable) = rhs in the nonbasic columns, as a primitive int row; m is
    a multiple of every a's denominator. Each basic standard y_k is
    substituted out through its row row_of[k], all at once over the lcm of
    their factors. factor 0 gives an objective row."""
    head = [0] * len(col_of) + [rhs]
    basic = []
    for k, a in coeffs.items():
        a = a.numerator * (m // a.denominator)
        j = col_of.get(k)
        if j is None:
            basic.append((a, row_of[k]))
        else:
            head[j] = a
    if basic:
        scale = lcm(*[row[-1] for _, row in basic])
        if scale > 1:
            head = [v * scale for v in head]
            factor *= scale
        for a, row in basic:
            # zip stops at the rhs: row's factor belongs to y_k.
            f = a * (scale // row[-1])
            head = [v - f * w for v, w in zip(head, row)]
    head.append(factor)
    return list(_primitive(head))


def _recover(tableau, basis, lows, scale):
    """The tableau's basic solution as (x, d), the variables as ints x over
    one positive common denominator d: lows / scale are the lower bounds,
    a basic variable's y is its row's rhs / factor, and x = lo + y."""
    basic = [(b, row) for b, row in zip(basis, tableau)
             if b < len(lows) and row[-2]]
    d = lcm(scale, *[row[-1] for _, row in basic])
    x = [lo * (d // scale) for lo in lows]
    for b, row in basic:
        x[b] += row[-2] * (d // row[-1])
    return x, d


def lp_solve(lp: LinearProgram) -> LpResult:
    lows, scale = _ints([lo for lo, _ in lp.bounds])
    shifts = {k: lo for k, (lo, _) in enumerate(lp.bounds) if lo}
    n = len(lows)
    tableau, basis, cols, zero = [], [], list(range(n)), [0] * (n + 2)
    # slacks holds the slack label of each row of lp.constraints, then of
    # each separated row in the order the rows are added; the upper-bound
    # rows follow lp.constraints in the tableau.
    slacks = _append(tableau, basis, cols, lp.constraints + [
        ({k: 1}, LE, hi) for k, (_, hi) in enumerate(lp.bounds)
        if hi is not None], shifts)[:len(lp.constraints)]
    if _dual(tableau, basis, cols, zero) == INFEASIBLE:
        return LpResult(status=INFEASIBLE)
    c, c_scale = _ints(lp.objective)
    z = _express({k: a for k, a in enumerate(c) if a}, 1, 0, 0,
                 {b: row for b, row in zip(basis, tableau) if b < n},
                 {label: j for j, label in enumerate(cols)})
    if _run(tableau, basis, cols, z) == UNBOUNDED:
        return LpResult(status=UNBOUNDED)
    while True:
        x, d = _recover(tableau, basis, lows, scale)
        cuts = lp.separate(x, d) if lp.separate is not None else None
        if not cuts:
            break
        if any(rel == EQ for _, rel, _ in cuts):
            raise ValueError("separated rows must be inequalities")
        slacks += _append(tableau, basis, cols, cuts, shifts)
        if _dual(tableau, basis, cols, z) == INFEASIBLE:
            return LpResult(status=INFEASIBLE)
    # A row is tight exactly when its slack is zero: nonbasic, or basic
    # with rhs 0. Both slacks of an EQ row are zero at every feasible point.
    row_of = {b: row for b, row in zip(basis, tableau)}
    tight = [k for k, s in enumerate(slacks)
             if s not in row_of or not row_of[s][-2]]
    return LpResult(status=OPTIMAL,
                    optimal_value=Fraction(_dot(c, x), c_scale * d),
                    solution=[Fraction(v, d) for v in x],
                    tight_constraints=tight)


def _run(tableau, basis, cols, z):
    """Minimize z, reducing it in place; Bland's rule for both the entering
    and the leaving variable, by label."""
    while True:
        neg = [j for j in range(len(cols)) if z[j] < 0]
        if not neg:
            return OPTIMAL
        col = min(neg, key=cols.__getitem__)
        r_pick = None
        for r, row in enumerate(tableau):
            a = row[col]
            if a > 0:
                if r_pick is not None:
                    # b / a against b_pick / a_pick, cross-multiplied.
                    d = row[-2] * a_pick - b_pick * a
                    if d > 0 or (d == 0 and basis[r] > basis[r_pick]):
                        continue
                r_pick, a_pick, b_pick = r, a, row[-2]
        if r_pick is None:
            return UNBOUNDED
        _pivot(tableau, z, basis, cols, r_pick, col)


def _dual(tableau, basis, cols, z):
    """Dual simplex from a dual feasible basis (z >= 0) until every rhs is
    nonnegative; Bland's rule in the dual, by label. Returns INFEASIBLE
    when the leaving row has no negative entry."""
    while True:
        r_pick = None
        for r, row in enumerate(tableau):
            if row[-2] < 0 and (r_pick is None or basis[r] < basis[r_pick]):
                r_pick = r
        if r_pick is None:
            return OPTIMAL
        row = tableau[r_pick]
        col = None
        for j in range(len(cols)):
            a = row[j]
            if a < 0:
                if col is not None:
                    # z_j / -a against z_col / -a_col, cross-multiplied.
                    d = z[j] * a_col - z[col] * a
                    if d < 0 or (d == 0 and cols[j] > cols[col]):
                        continue
                col, a_col = j, a
        if col is None:
            return INFEASIBLE
        _pivot(tableau, z, basis, cols, r_pick, col)


def _pivot(tableau, z, basis, cols, r, col):
    """Pivot on (r, col): the entering and leaving variables swap labels,
    so row r's entry at col and its factor swap places (the row negated if
    the new factor p is negative), and every other row and z with an entry
    f != 0 at col becomes p row - f row_r. That row's entry at col is read
    as 0, since the leaving variable appears in row r alone, and row r's
    factor slot as 0, since row r's basic variable is not that row's."""
    prow = tableau[r]
    prow[col], prow[-1] = prow[-1], prow[col]
    if prow[-1] < 0:
        prow[:] = [-v for v in prow]
    p, prow[-1] = prow[-1], 0
    for row in (*tableau, z):
        f = row[col]
        if f and row is not prow:
            row[col] = 0
            _eliminate(row, prow, p, f)
    prow[-1] = p
    basis[r], cols[col] = cols[col], basis[r]
