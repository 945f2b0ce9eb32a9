"""Exact simplex on an integer tableau, with Bland's rule for both the
entering and the leaving column: dual simplex for phase 1 and for cutting
planes, primal simplex for the objective.

Every variable x has a finite lower bound lo and is one standard column,
y = x - lo >= 0; an upper bound hi is the row y <= hi - lo. So the
tableau's columns are the variables, then the rows' slacks. Each row with
its right-hand side, and the objective, is scaled once to ints by the lcm
of its denominators. A tableau row equals its equation times a positive
factor, its entry at the basic column. Pivots are fraction-free
(``cone._eliminate``: row := p row - row[col] prow, then division by the
row's gcd) and touch only the rows with a nonzero in the pivot column;
the ratio test cross-multiplies, so the factors cancel. Every sign and
ratio is the rational tableau's, so the pivots are too, with no floating
point anywhere. ``Fraction`` appears only at the boundary: the coercion
of ``LinearProgram`` data and the ``LpResult``.

Every row enters the tableau one way, as a ``<=`` row with its own slack
column, which starts basic: a ``>=`` row is negated, and an ``==`` row
enters as a ``<=`` row and a ``>=`` row. The basic columns are eliminated
from the new row, so its rhs is the slack's value at the current basic
solution, negative where that solution violates the row. A slack basis is
dual feasible at zero cost, so phase 1 is dual simplex at zero cost: it
reaches a feasible basis or proves that there is none (Lemke, 1954;
Chvatal, "Linear Programming", 1983, ch. 10). Phase 2 is primal simplex on
the objective. No row or slack column is ever dropped. Dual simplex keeps
Bland's rule in the dual: the leaving row is the negative-rhs row with the
smallest basic column, and the entering column the one of least ratio
z_j / -a_j over a_j < 0 (cross-multiplied), ties to the smallest column.
A leaving row with no a_j < 0 proves the LP infeasible.

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

from .cone import _eliminate, _ints

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
        self.objective = [Fraction(c) for c in self.objective]
        self.constraints = [
            ({k: Fraction(a) for k, a in row.items()}, rel, Fraction(b))
            for row, rel, b in self.constraints
        ]
        n = len(self.objective)
        bounds = [(0, None)] * n if self.bounds is None else self.bounds
        if any(lo is None for lo, _ in bounds):
            raise ValueError("every variable needs a finite lower bound")
        self.bounds = [(Fraction(lo), None if hi is None else Fraction(hi))
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


def _append(tableau, basis, zrow, rows, lows):
    """Add rows (a, rel, b) in the original variables to the tableau as the
    module docstring says. A row's standard form is a y (rel) b - a . lo
    (ValueError on a variable out of range), and an EQ row enters as its
    LE half, then its GE half. Each half, times sign (-1 for GE) and the
    lcm m of its denominators, gets its slack at +m, basic. zrow gains the
    zero reduced costs of the new slacks. Returns each row's slack column
    (an EQ row's: that of its LE half)."""
    width = len(zrow) - 1
    halves, slacks = [], []
    for coeffs, rel, b in rows:
        for k, a in coeffs.items():
            if not 0 <= k < len(lows):
                raise ValueError("constraint dimension mismatch")
            if lows[k]:
                b -= a * lows[k]
        slacks.append(width + len(halves))
        for sign in (1, -1) if rel == EQ else (1 if rel == LE else -1,):
            halves.append((coeffs, sign, b))
    full = width + len(halves)
    for row in (*tableau, zrow):
        row[-1:-1] = [0] * len(halves)
    new = []
    for k, (coeffs, sign, b) in enumerate(halves, width):
        m = lcm(b.denominator, *(a.denominator for a in coeffs.values()))
        row = [0] * (full + 1)
        for idx, a in coeffs.items():
            row[idx] = sign * a.numerator * (m // a.denominator)
        row[k] = m
        row[-1] = sign * b.numerator * (m // b.denominator)
        new.append(_reduced_costs(tableau, basis, row, full))
    tableau.extend(new)
    basis.extend(range(width, full))
    return slacks


def _recover(tableau, basis, lows):
    """The tableau's basic solution as (x, d), the variables as ints x over
    one positive common denominator d: a basic column's y is its row's
    rhs / factor, and x = lo + y."""
    basic = [(b, row) for b, row in zip(basis, tableau)
             if b < len(lows) and row[-1]]
    d = lcm(*(lo.denominator for lo in lows), *(r[b] for b, r in basic))
    x = [lo.numerator * (d // lo.denominator) for lo in lows]
    for b, row in basic:
        x[b] += row[-1] * (d // row[b])
    return x, d


def lp_solve(lp: LinearProgram) -> LpResult:
    lows = [lo for lo, _ in lp.bounds]
    tableau, basis, zero = [], [], [0] * (len(lows) + 1)
    # slacks holds the slack column of each row of lp.constraints, then of
    # each separated row in the order the rows are added; the upper-bound
    # rows follow lp.constraints in the tableau.
    slacks = _append(tableau, basis, zero, lp.constraints + [
        ({k: 1}, LE, hi) for k, (_, hi) in enumerate(lp.bounds)
        if hi is not None], lows)[:len(lp.constraints)]
    if _dual(tableau, basis, zero) == INFEASIBLE:
        return LpResult(status=INFEASIBLE)
    z = _reduced_costs(tableau, basis, _ints(lp.objective)[0],
                       len(zero) - 1)
    if _run(tableau, basis, z) == UNBOUNDED:
        return LpResult(status=UNBOUNDED)
    while True:
        x, d = _recover(tableau, basis, lows)
        cuts = lp.separate(x, d) if lp.separate is not None else None
        if not cuts:
            break
        if any(rel == EQ for _, rel, _ in cuts):
            raise ValueError("separated rows must be inequalities")
        slacks += _append(tableau, basis, z, cuts, lows)
        if _dual(tableau, basis, z) == INFEASIBLE:
            return LpResult(status=INFEASIBLE)
    value = Fraction(sum(ci * v for ci, v in zip(lp.objective, x) if v), d)
    # A row is tight exactly when its slack is zero: nonbasic, or basic
    # with rhs 0. Both slacks of an EQ row are zero at every feasible point.
    row_of = {col: row for col, row in zip(basis, tableau)}
    tight = [k for k, s in enumerate(slacks)
             if s not in row_of or not row_of[s][-1]]
    return LpResult(status=OPTIMAL, optimal_value=value,
                    solution=[Fraction(v, d) for v in x],
                    tight_constraints=tight)


def _reduced_costs(tableau, basis, cost, width):
    """cost padded to width columns plus the rhs entry, with the basic
    columns eliminated: an objective row up to a positive factor, or a
    new row expressed in the nonbasic columns."""
    z = list(cost) + [0] * (width + 1 - len(cost))
    for r, row in enumerate(tableau):
        if z[basis[r]]:
            _eliminate(z, row, basis[r])
    return z


def _run(tableau, basis, zrow):
    """Minimize zrow, reducing it in place; Bland's rule for both the
    entering and the leaving column."""
    while True:
        col = next((j for j in range(len(zrow) - 1) if zrow[j] < 0), None)
        if col is None:
            return OPTIMAL
        r_pick = None
        for r, row in enumerate(tableau):
            a = row[col]
            if a > 0:
                if r_pick is not None:
                    # b / a against b_pick / a_pick, cross-multiplied.
                    d = row[-1] * a_pick - b_pick * a
                    if d > 0 or (d == 0 and basis[r] > basis[r_pick]):
                        continue
                r_pick, a_pick, b_pick = r, a, row[-1]
        if r_pick is None:
            return UNBOUNDED
        _pivot_full(tableau, zrow, basis, r_pick, col)


def _dual(tableau, basis, zrow):
    """Dual simplex from a dual feasible basis (zrow >= 0) until every rhs
    is nonnegative; Bland's rule in the dual. Returns INFEASIBLE when the
    leaving row has no negative entry."""
    while True:
        r_pick = None
        for r, row in enumerate(tableau):
            if row[-1] < 0 and (r_pick is None or basis[r] < basis[r_pick]):
                r_pick = r
        if r_pick is None:
            return OPTIMAL
        row = tableau[r_pick]
        col = None
        for j in range(len(zrow) - 1):
            a = row[j]
            if a < 0 and (col is None
                          # z_j / -a below z_col / -a_col, cross-multiplied.
                          or zrow[j] * a_col > zrow[col] * a):
                col, a_col = j, a
        if col is None:
            return INFEASIBLE
        _pivot_full(tableau, zrow, basis, r_pick, col)


def _pivot_full(tableau, zrow, basis, r, col):
    """Pivot on (r, col): negate row r if its entry at col is negative, so
    that entry becomes the row's positive factor, and eliminate col from
    the other rows and zrow that have a nonzero there."""
    prow = tableau[r]
    if prow[col] < 0:
        prow[:] = [-v for v in prow]
    for row in (*tableau, zrow):
        if row[col] and row is not prow:
            _eliminate(row, prow, col)
    basis[r] = col
