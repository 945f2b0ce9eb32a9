"""Exact two-phase simplex on an integer tableau, with Bland's rule for
both the entering and the leaving column, and cutting planes re-entered
by dual simplex.

Each standard-form row with its right-hand side, and the objective, is
scaled once to ints by the lcm of its denominators. A tableau row equals
its equation times a positive factor, its entry at the basic column.
Pivots are fraction-free (``cone._eliminate``: row := p row - row[col]
prow, then division by the row's gcd) and touch only the rows with a
nonzero in the pivot column; the ratio test cross-multiplies, so the
factors cancel. Every sign and ratio is the rational tableau's, so the
pivots are too, with no floating point anywhere. ``Fraction`` appears only
at the boundary: the coercion of ``LinearProgram`` data, the solution and
the optimal value.

The start basis is made of slacks wherever it can be. Every row is
oriented so that its right-hand side is nonnegative, and a ``>=`` row with
b == 0 is negated too, so that each ``<=`` row with b >= 0 and each ``>=``
row with b <= 0 starts with its slack basic. Only the remaining rows
(``==`` rows, ``>=`` rows with b > 0, ``<=`` rows with b < 0) get an
artificial column and go through phase 1; an LP without such rows skips
phase 1. Phase 2 runs without the artificial columns.

An LP may carry a separation oracle, ``separate``: given an optimal
solution it returns the rows that solution violates, in ``constraints``
form (inequalities only), or nothing once the solution is feasible for the
whole family. Each returned row is appended to the final tableau with a
new slack column, which starts basic: the row is scaled to ints once and
the basic columns are eliminated from it, so its rhs is the slack's value
at the current solution, negative for a violated row. The reduced costs
are untouched, so the basis stays dual feasible, and dual simplex restores
primal feasibility with Bland's rule in the dual: the leaving row is the
negative-rhs row with the smallest basic column, and the entering column
the one of least ratio z_j / -a_j over a_j < 0 (cross-multiplied), ties to
the smallest column. A leaving row with no a_j < 0 proves the LP with its
cuts infeasible. The oracle is called again on each new optimum until it
returns nothing, so an oracle that keeps returning rows the solution
satisfies never ends the loop.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .cone import _eliminate, _scaled_to_ints
from .errors import LpNotOptimal

GE = ">="
LE = "<="
EQ = "=="

OPTIMAL = "Optimal"
UNBOUNDED = "Unbounded"
INFEASIBLE = "Infeasible"

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass
class LinearProgram:
    """Minimize objective . x subject to rows (a, rel, b) and optional
    per-variable (lower, upper) bounds; a bound of None means unbounded.
    ``separate``, when given, maps an optimal solution x to the rows of a
    larger family that x violates (see the module docstring)."""
    objective: list
    constraints: list
    bounds: list = None
    separate: object = None

    def __post_init__(self):
        self.objective = [Fraction(c) for c in self.objective]
        self.constraints = [
            ([Fraction(a) for a in row], rel, Fraction(b))
            for row, rel, b in self.constraints
        ]
        n = len(self.objective)
        if self.bounds is None:
            self.bounds = [(None, None)] * n
        else:
            self.bounds = [
                (None if lo is None else Fraction(lo),
                 None if hi is None else Fraction(hi))
                for lo, hi in self.bounds
            ]
        for row, _, _ in self.constraints:
            if len(row) != n:
                raise ValueError("constraint dimension mismatch")
        if len(self.bounds) != n:
            raise ValueError("bounds dimension mismatch")


@dataclass
class LpResult:
    status: str
    optimal_value: Fraction = None
    solution: list = None
    tight_constraints: list = field(default_factory=list)


def _to_standard_form(lp: LinearProgram):
    """Rewrite as min c.y, A y (rel) b with y >= 0.

    Returns (c, nstd, rows, expand, recover): rows hold their
    coefficients as a sparse {std index: value} dict, expand maps a row of
    original coefficients to that dict and the constant its bound shifts
    add, and recover maps a standard-form solution back to the original
    variables.
    """
    n = len(lp.objective)
    var_terms = []   # per original var: list of (std index, sign)
    var_shift = []   # constant added to the variable expression
    extra_rows = []  # upper-bound rows in standard variables
    nstd = 0
    for k, (lo, hi) in enumerate(lp.bounds):
        if lo is not None:
            var_terms.append([(nstd, 1)])
            var_shift.append(lo)
            if hi is not None:
                extra_rows.append(({nstd: _ONE}, LE, hi - lo))
            nstd += 1
        elif hi is not None:
            # x = hi - y with y >= 0
            var_terms.append([(nstd, -1)])
            var_shift.append(hi)
            nstd += 1
        else:
            var_terms.append([(nstd, 1), (nstd + 1, -1)])
            var_shift.append(_ZERO)
            nstd += 2

    def expand(row):
        # Each standard index belongs to exactly one original variable, so
        # every entry is set once and nothing is accumulated.
        out = {}
        const = _ZERO
        for k, a in enumerate(row):
            if not a:
                continue
            shift = var_shift[k]
            if shift:
                const += a * shift
            for idx, sign in var_terms[k]:
                out[idx] = a if sign > 0 else -a
        return out, const

    c = [_ZERO] * nstd
    for idx, a in expand(lp.objective)[0].items():
        c[idx] = a
    rows = []
    for row, rel, b in lp.constraints:
        coeffs, const = expand(row)
        rows.append((coeffs, rel, b - const))
    rows.extend(extra_rows)

    def recover(y):
        xs = []
        for k in range(n):
            val = var_shift[k]
            for idx, sign in var_terms[k]:
                val += sign * y[idx]
            xs.append(val)
        return xs

    return c, nstd, rows, expand, recover


def _needs_artificial(rel, b):
    """True unless the oriented row has its slack at +1 with b >= 0."""
    return rel == EQ or (rel == GE and b > 0) or (rel == LE and b < 0)


def _int_row(coeffs, b, sign, width):
    """coeffs (a sparse {index: value} dict) and rhs b, times sign and the
    lcm m of their denominators, as an int row of width columns plus the
    rhs. Returns the row and m."""
    m = lcm(b.denominator, *(a.denominator for a in coeffs.values()))
    row = [0] * (width + 1)
    for idx, a in coeffs.items():
        row[idx] = sign * a.numerator * (m // a.denominator)
    row[-1] = sign * b.numerator * (m // b.denominator)
    return row, m


def lp_solve(lp: LinearProgram) -> LpResult:
    c, nstd, rows, expand, recover = _to_standard_form(lp)
    ncols = nstd + sum(1 for _, rel, _ in rows if rel != EQ)
    n_art = sum(1 for _, rel, b in rows if _needs_artificial(rel, b))
    total = ncols + n_art

    # Int rows over [standard | slack | artificial | rhs]: each row times
    # the lcm m of its denominators, oriented so that b >= 0 and, where
    # possible, its slack starts in the basis at +m.
    tableau = []
    basis = []
    slacks = []  # each row's slack column, None for an EQ row
    slack = nstd
    art = ncols
    for coeffs, rel, b in rows:
        sign = -1 if b < 0 or (rel == GE and b == 0) else 1
        row, m = _int_row(coeffs, b, sign, total)
        slacks.append(None if rel == EQ else slack)
        if rel != EQ:
            row[slack] = sign * m if rel == LE else -sign * m
            slack += 1
        if _needs_artificial(rel, b):
            row[art] = m
            basis.append(art)
            art += 1
        else:
            basis.append(slack - 1)
        tableau.append(row)

    if n_art:
        z1 = _reduced_costs(tableau, basis, [0] * ncols + [1] * n_art, total)
        status = _run(tableau, basis, z1, total)
        if status != OPTIMAL:
            raise LpNotOptimal(f"phase 1 ended {status}")
        if z1[-1] != 0:
            return LpResult(status=INFEASIBLE)
        # Drive any artificial still basic out of the basis; if its row has
        # no nonzero outside the artificial columns, the row is redundant
        # and is dropped. Then the artificial columns go.
        for r, row in enumerate(tableau):
            if basis[r] >= ncols:
                col = next((j for j in range(ncols) if row[j]), None)
                if col is not None:
                    _pivot_full(tableau, z1, basis, r, col)
        kept = [r for r in range(len(tableau)) if basis[r] < ncols]
        tableau = [tableau[r] for r in kept]
        basis = [basis[r] for r in kept]
        for row in tableau:
            del row[ncols:total]

    z2 = _reduced_costs(tableau, basis, _scaled_to_ints(c), ncols)
    if _run(tableau, basis, z2, ncols) == UNBOUNDED:
        return LpResult(status=UNBOUNDED)
    # slacks keeps the rows of lp.constraints, then gains the separated
    # rows' slacks in the order the rows are added.
    slacks = slacks[:len(lp.constraints)]
    width = ncols
    while True:
        y = [0] * width
        for r, row in enumerate(tableau):
            y[basis[r]] = Fraction(row[-1], row[basis[r]])
        xs = recover(y)
        cuts = lp.separate(xs) if lp.separate is not None else None
        if not cuts:
            break
        # Each cut gets a slack column at +m, basic, before the rhs.
        full = width + len(cuts)
        for row in (*tableau, z2):
            row[-1:-1] = [0] * len(cuts)
        new = []
        for k, (a, rel, b) in enumerate(cuts, width):
            if len(a) != len(lp.objective):
                raise ValueError("constraint dimension mismatch")
            if rel == EQ:
                raise ValueError("separated rows must be inequalities")
            coeffs, const = expand([Fraction(v) if v else v for v in a])
            row, m = _int_row(coeffs, Fraction(b) - const,
                              1 if rel == LE else -1, full)
            row[k] = m
            new.append(_reduced_costs(tableau, basis, row, full))
            slacks.append(k)
        tableau.extend(new)
        basis.extend(range(width, full))
        width = full
        if _dual(tableau, basis, z2, width) == INFEASIBLE:
            return LpResult(status=INFEASIBLE)
    value = sum((ci * xi for ci, xi in zip(lp.objective, xs) if ci and xi),
                _ZERO)
    # A row is tight exactly when its slack is zero: nonbasic, or basic
    # with rhs 0. An EQ row, even one dropped as redundant, always is.
    row_of = {col: row for col, row in zip(basis, tableau)}
    tight = [k for k, s in enumerate(slacks)
             if s not in row_of or not row_of[s][-1]]
    return LpResult(status=OPTIMAL, optimal_value=value, solution=xs,
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


def _run(tableau, basis, zrow, limit):
    """Minimize zrow over the columns below limit, reducing it in place;
    Bland's rule for both the entering and the leaving column."""
    while True:
        col = next((j for j in range(limit) if zrow[j] < 0), None)
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


def _dual(tableau, basis, zrow, limit):
    """Dual simplex from a dual feasible basis (zrow >= 0 below limit)
    until every rhs is nonnegative; Bland's rule in the dual. Returns
    INFEASIBLE when the leaving row has no negative entry."""
    while True:
        r_pick = None
        for r, row in enumerate(tableau):
            if row[-1] < 0 and (r_pick is None or basis[r] < basis[r_pick]):
                r_pick = r
        if r_pick is None:
            return OPTIMAL
        row = tableau[r_pick]
        col = None
        for j in range(limit):
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
