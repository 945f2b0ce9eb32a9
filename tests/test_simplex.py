"""Exact simplex kernel: statuses, exactness, duality spot-checks."""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from pgcone import simplex
from pgcone.simplex import (EQ, GE, INFEASIBLE, LE, OPTIMAL, UNBOUNDED,
                            LinearProgram, lp_solve)


def _sparse(rows):
    """Rows (a, rel, b) with a dense list a, as LinearProgram takes them:
    a as a {variable: coefficient} map that holds no zero."""
    return [({k: v for k, v in enumerate(a) if v}, rel, b)
            for a, rel, b in rows]


def test_simple_lower_bound():
    res = lp_solve(LinearProgram([1], [({0: 1}, GE, 3)]))
    assert res.status == OPTIMAL
    assert res.optimal_value == 3
    assert res.solution == [3]


def test_unbounded():
    res = lp_solve(LinearProgram([-1], [], bounds=[(0, None)]))
    assert res.status == UNBOUNDED


def test_infeasible():
    res = lp_solve(LinearProgram([0], [({0: 1}, GE, 1), ({0: 1}, LE, 0)]))
    assert res.status == INFEASIBLE


def test_equality_constraint():
    res = lp_solve(LinearProgram([1, 1], [({0: 1, 1: 1}, EQ, 2),
                                          ({0: 1, 1: -1}, GE, 0)],
                                 bounds=[(0, None), (0, None)]))
    assert res.status == OPTIMAL
    assert res.optimal_value == 2


def test_upper_bounds_via_box():
    res = lp_solve(LinearProgram([-1, -1], [({0: 1, 1: 2}, LE, 3)],
                                 bounds=[(0, 1), (0, 1)]))
    assert res.status == OPTIMAL
    assert res.optimal_value == -2
    assert res.solution == [1, 1]


def test_default_bounds_are_nonnegative():
    # With no bounds given every variable is >= 0, so min x is 0.
    res = lp_solve(LinearProgram([1], []))
    assert res.status == OPTIMAL
    assert res.optimal_value == 0
    assert res.solution == [0]


def test_lower_bound_is_required():
    with pytest.raises(ValueError, match="finite lower bound"):
        LinearProgram([1], [], bounds=[(None, 1)])


def test_exact_fractions():
    res = lp_solve(LinearProgram(
        [Fraction(1, 3)], [({0: Fraction(2, 7)}, GE, Fraction(5, 11))],
        bounds=[(0, None)]))
    assert res.optimal_value == Fraction(1, 3) * Fraction(35, 22)


def test_tight_constraint_report():
    res = lp_solve(LinearProgram([1, 0], [({0: 1}, GE, 2), ({1: 1}, GE, 0)],
                                 bounds=[(0, None), (0, None)]))
    assert 0 in res.tight_constraints


def test_determinism():
    lp_args = ([1, 2, -1],
               [({0: 1, 1: 1, 2: 1}, GE, 1), ({0: 1, 1: -1}, LE, 2)],
               [(0, 3)] * 3)
    first = lp_solve(LinearProgram(*lp_args))
    second = lp_solve(LinearProgram(*lp_args))
    assert first.optimal_value == second.optimal_value
    assert first.solution == second.solution


def _brute_force_box_min(c, rows, bounds):
    """Reference optimum by vertex enumeration over a box-bounded feasible
    region: every vertex is the solution of n tight conditions drawn from
    constraint rows and box faces."""
    n = len(c)
    conditions = []
    for row, rel, b in rows:
        conditions.append((row, b))
    for k in range(n):
        lo, hi = bounds[k]
        for v in (lo, hi):
            e = [Fraction(0)] * n
            e[k] = Fraction(1)
            conditions.append((e, Fraction(v)))

    def solve_square(idx):
        mat = [[Fraction(x) for x in conditions[i][0]] + [conditions[i][1]]
               for i in idx]
        for col in range(n):
            piv = next((r for r in range(col, n) if mat[r][col]), None)
            if piv is None:
                return None
            mat[col], mat[piv] = mat[piv], mat[col]
            for r in range(n):
                if r != col and mat[r][col]:
                    f = mat[r][col] / mat[col][col]
                    mat[r] = [a - f * b for a, b in zip(mat[r], mat[col])]
        return [mat[r][n] / mat[r][r] for r in range(n)]

    def feasible(x):
        for k in range(n):
            if not bounds[k][0] <= x[k] <= bounds[k][1]:
                return False
        for row, rel, b in rows:
            lhs = sum(a * v for a, v in zip(row, x))
            if rel == GE and lhs < b:
                return False
            if rel == LE and lhs > b:
                return False
            if rel == EQ and lhs != b:
                return False
        return True

    best = None
    for idx in combinations(range(len(conditions)), n):
        x = solve_square(idx)
        if x is None or not feasible(x):
            continue
        val = sum(ci * xi for ci, xi in zip(c, x))
        if best is None or val < best:
            best = val
    return best


def test_against_vertex_enumeration_oracle():
    rng = random.Random(17)
    for _ in range(25):
        n = rng.choice((2, 3))
        c = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
        rows = []
        for _ in range(rng.randint(1, 3)):
            a = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
            rel = rng.choice((GE, LE))
            b = Fraction(rng.randint(-4, 4))
            rows.append((a, rel, b))
        bounds = [(Fraction(-3), Fraction(3))] * n
        res = lp_solve(LinearProgram(list(c), _sparse(rows), list(bounds)))
        expected = _brute_force_box_min(c, rows, bounds)
        if expected is None:
            assert res.status == INFEASIBLE
        else:
            assert res.status == OPTIMAL
            assert res.optimal_value == expected


def test_random_box_lps_up_to_four_variables():
    # Property test: on seeded box-bounded LPs with 2-4 variables, rows of
    # every relation and fractional data, lp_solve's status and optimum are
    # those of vertex enumeration in Fractions.
    rng = random.Random(53)

    def frac():
        return Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3)))

    seen = {OPTIMAL: 0, INFEASIBLE: 0}
    for _ in range(60):
        n = rng.randint(2, 4)
        c = [frac() for _ in range(n)]
        rows = [([frac() for _ in range(n)], rng.choice((GE, LE, EQ)), frac())
                for _ in range(rng.randint(1, 3))]
        bounds = [(lo, lo + rng.randint(0, 4))
                  for lo in (frac() for _ in range(n))]
        res = lp_solve(LinearProgram(list(c), _sparse(rows), list(bounds)))
        expected = _brute_force_box_min(c, rows, bounds)
        status = INFEASIBLE if expected is None else OPTIMAL
        assert res.status == status, (c, rows, bounds)
        if expected is not None:
            assert res.optimal_value == expected, (c, rows, bounds)
        seen[status] += 1
    assert min(seen.values()) >= 10, seen


def _row_holds(row, rel, b, x):
    lhs = sum(a * v for a, v in zip(row, x))
    return {GE: lhs >= b, LE: lhs <= b, EQ: lhs == b}[rel]


def test_slack_start_and_redundant_rows_against_oracle():
    # Rows with b == 0 start from a feasible slack; EQ rows, one of them
    # duplicated, enter as a LE and a GE half whose slacks the dual phase
    # makes feasible, and the duplicate's halves stay in the tableau as
    # rows whose slacks are zero at every feasible point.
    rng = random.Random(29)
    for _ in range(40):
        n = rng.choice((2, 3))
        c = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
        rows = []
        for _ in range(rng.randint(1, 2)):
            a = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
            rows.append((a, rng.choice((GE, LE)), Fraction(0)))
        eq = ([Fraction(rng.randint(-3, 3)) for _ in range(n)], EQ,
              Fraction(rng.randint(-2, 2)))
        rows.extend([eq, eq])
        if rng.random() < 0.5:
            a = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
            rows.append((a, EQ, Fraction(0)))
        rng.shuffle(rows)
        bounds = [(Fraction(-3), Fraction(3))] * n
        res = lp_solve(LinearProgram(list(c), _sparse(rows), list(bounds)))
        expected = _brute_force_box_min(c, rows, bounds)
        if expected is None:
            assert res.status == INFEASIBLE
            continue
        assert res.status == OPTIMAL
        assert res.optimal_value == expected
        x = res.solution
        assert all(_row_holds(row, rel, b, x) for row, rel, b in rows)
        assert all(-3 <= v <= 3 for v in x)
        assert res.tight_constraints == [
            k for k, (row, _, b) in enumerate(rows)
            if sum(a * v for a, v in zip(row, x)) == b]


def test_beale_cycling_lp():
    # Beale's example, on which the textbook rule cycles; Bland's rule
    # reaches the optimum.
    F = Fraction
    res = lp_solve(LinearProgram(
        [F(-3, 4), 20, F(-1, 2), 6],
        [({0: F(1, 4), 1: -8, 2: -1, 3: 9}, LE, 0),
         ({0: F(1, 2), 1: -12, 2: F(-1, 2), 3: 3}, LE, 0), ({2: 1}, LE, 1)],
        bounds=[(0, None)] * 4))
    assert res.status == OPTIMAL
    assert res.optimal_value == Fraction(-5, 4)
    assert res.solution == [1, 0, 1, 0]
    assert res.tight_constraints == [1, 2]


def test_fractional_data_against_oracle(pivots):
    # Denominators 1-9 in the objective, the rows, the right-hand sides
    # and the box, so each is scaled to ints by a nontrivial lcm.
    rng = random.Random(41)

    def frac():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    solved = 0
    for _ in range(100):
        n = rng.choice((2, 3))
        c = [frac() for _ in range(n)]
        rows = [([frac() for _ in range(n)], rng.choice((GE, LE)), frac())
                for _ in range(rng.randint(1, 2))]
        if rng.random() < 0.5:
            rows.insert(rng.randint(0, len(rows)),
                        ([frac() for _ in range(n)], EQ, frac()))
        bounds = [tuple(sorted((frac(), frac()))) for _ in range(n)]
        res = lp_solve(LinearProgram(list(c), _sparse(rows), list(bounds)))
        expected = _brute_force_box_min(c, rows, bounds)
        if expected is None:
            assert res.status == INFEASIBLE
            continue
        assert res.status == OPTIMAL
        assert res.optimal_value == expected
        x = res.solution
        assert all(_row_holds(row, rel, b, x) for row, rel, b in rows)
        assert all(lo <= v <= hi for v, (lo, hi) in zip(x, bounds))
        assert res.tight_constraints == [
            k for k, (row, _, b) in enumerate(rows)
            if sum(a * v for a, v in zip(row, x)) == b]
        solved += 1
    assert solved >= 30
    # The rows enter the tableau in the same order, so Bland's rule takes
    # the same pivots.
    assert len(pivots) == 205


def test_duality_bound_on_cone_slice(H2):
    # The optimum of min c.x over the mass-one cone slice is attained at
    # some extreme point; cross-check with a direct scan over the rays.
    from pgcone.cone import cone_constraints
    from pgcone.rays import enumerate_rays
    rng = random.Random(23)
    rays = [r.entries for r in enumerate_rays(H2)]
    rows = [(coeffs, GE, 0)
            for label, coeffs in cone_constraints(H2).items()
            if label[0] == "cone"]
    rows.append((dict.fromkeys(range(7), 1), EQ, 1))
    for _ in range(5):
        c = [Fraction(rng.randint(-3, 3)) for _ in range(7)]
        res = lp_solve(LinearProgram(list(c), list(rows),
                                     bounds=[(0, None)] * 7))
        assert res.status == OPTIMAL
        best_ray = min(
            sum(ci * xi for ci, xi in zip(c, r)) / sum(r) for r in rays)
        assert res.optimal_value == best_ray


def _hidden_row_oracle(hidden, most_violated_only):
    """An oracle over the hidden rows (dense): the ones x violates, or only
    the most violated of them, as row maps."""
    def separate(x, d):
        x = [Fraction(v, d) for v in x]
        excess = []
        for row, rel, b in hidden:
            lhs = sum(a * v for a, v in zip(row, x))
            over = lhs - b if rel == LE else b - lhs
            if over > 0:
                excess.append((over, (row, rel, b)))
        if most_violated_only and excess:
            return _sparse([max(excess, key=lambda e: e[0])[1]])
        return _sparse([row for _, row in excess])
    return separate


def _added_rows(rows, separate):
    """Wrap separate so that every row it returns is recorded in order,
    as a dense row."""
    added = list(rows)

    def recording(x, d):
        cuts = separate(x, d)
        added.extend(([a.get(k, 0) for k in range(len(x))], rel, b)
                     for a, rel, b in cuts)
        return cuts
    return added, recording


def test_separated_rows_match_the_full_lp(pivots):
    # Box-bounded LPs with fractional data: visible rows (EQ ones too) in
    # constraints, further GE/LE rows only behind the oracle. The warm
    # re-solve must end where a cold solve of every row ends.
    rng = random.Random(43)

    def frac():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    kinds = {OPTIMAL: 0, INFEASIBLE: 0}
    rounds = 0  # separated rows added, over all trials
    for trial in range(100):
        n = rng.choice((2, 3, 4))
        c = [frac() for _ in range(n)]
        bounds = [tuple(sorted((frac(), frac()))) for _ in range(n)]
        rows = [([frac() for _ in range(n)], rng.choice((GE, LE)), frac())
                for _ in range(rng.randint(0, 1))]
        # Most hidden rows hold at a point p of the box, so most of these
        # LPs are feasible; one trial in five draws them at random.
        p = [lo + (hi - lo) * Fraction(rng.randint(0, 4), 4)
             for lo, hi in bounds]
        hidden = []
        for _ in range(rng.randint(2, 8)):
            a = [frac() for _ in range(n)]
            rel, b = rng.choice((GE, LE)), frac()
            if trial % 5:
                at_p = sum(ai * pi for ai, pi in zip(a, p))
                b = at_p - abs(b) if rel == GE else at_p + abs(b)
            hidden.append((a, rel, b))
        if trial % 3 == 0:
            x = [rng.randint(-2, 2) for _ in range(n)]
            rows.append((x, EQ, sum(ai * pi for ai, pi in zip(x, p))))
        added, separate = _added_rows(
            rows, _hidden_row_oracle(hidden, trial % 2 == 1))
        res = lp_solve(LinearProgram(list(c), _sparse(rows), list(bounds),
                                     separate=separate))
        full = lp_solve(LinearProgram(list(c), _sparse(rows + hidden),
                                      list(bounds)))
        assert res.status == full.status
        kinds[res.status] += 1
        rounds += len(added) - len(rows)
        if res.status != OPTIMAL:
            continue
        assert res.optimal_value == full.optimal_value
        x = res.solution
        assert all(_row_holds(row, rel, b, x) for row, rel, b in rows + hidden)
        assert all(lo <= v <= hi for v, (lo, hi) in zip(x, bounds))
        assert res.tight_constraints == [
            k for k, (row, _, b) in enumerate(added)
            if sum(a * v for a, v in zip(row, x)) == b]
    assert kinds[OPTIMAL] >= 50 and kinds[INFEASIBLE] >= 10
    assert rounds >= 100
    assert len(pivots) == 702  # warm and cold solves together


def test_rows_keep_the_width_of_the_variables(monkeypatch):
    # Before each pivot every row, and z, holds one entry per nonbasic
    # variable, the rhs and the factor slot, however many rows the oracle
    # has added; every label is basic or nonbasic, never both, and every
    # row is primitive with a positive factor (z's is 0).
    widths = []
    pivot = simplex._pivot

    def checked(tableau, z, basis, cols, r, col):
        n = len(cols)
        assert sorted(basis + cols) == list(range(n + len(tableau)))
        assert all(len(row) == n + 2 and row[-1] > 0 and gcd(*row) == 1
                   for row in tableau)
        assert len(z) == n + 2 and z[-1] == 0
        widths.append((n, len(tableau)))
        return pivot(tableau, z, basis, cols, r, col)

    monkeypatch.setattr(simplex, "_pivot", checked)
    rng = random.Random(53)
    for _ in range(20):
        n = rng.choice((2, 3, 4))
        hidden = [([rng.randint(-3, 3) for _ in range(n)], rng.choice((GE, LE)),
                   rng.randint(-2, 3)) for _ in range(rng.randint(3, 8))]
        lp_solve(LinearProgram([rng.randint(-2, 2) for _ in range(n)],
                               _sparse([([1] * n, EQ, 2)]), [(0, 2)] * n,
                               separate=_hidden_row_oracle(hidden, True)))
    # Pivots after the oracle's first row: more rows than the 2 + n the
    # LP starts with.
    assert sum(rows > n + 2 for n, rows in widths) >= 40


def test_separated_row_can_make_the_lp_infeasible():
    # x <= 1 from the box, then x >= 2 from the oracle: the dual step
    # finds no entering column.
    calls = []

    def separate(x, d):
        calls.append([Fraction(v, d) for v in x])
        return [({0: 1}, GE, 2)] if len(calls) == 1 else []

    res = lp_solve(LinearProgram([1, 1], [({0: 1, 1: 1}, GE, Fraction(1, 2))],
                                 [(0, 1), (0, 1)], separate=separate))
    assert res.status == INFEASIBLE
    assert len(calls) == 1


def test_separated_rows_in_original_variables():
    # Shifted variables, boxed and lower-bounded: a cut is written in the
    # original variables, and its rhs absorbs the bound shifts.
    def separate(x, d):
        x = [Fraction(v, d) for v in x]
        cuts = []
        if x[0] + x[1] < 3:
            cuts.append(({0: 1, 1: 1}, GE, 3))
        if x[2] < x[0] - 4:
            cuts.append(({0: -1, 2: 1}, GE, -4))
        return cuts

    bounds = [(-2, 5), (-7, 4), (-20, None)]
    res = lp_solve(LinearProgram([1, -2, 1], [({2: 1}, GE, -10)], bounds,
                                 separate=separate))
    # Without the cuts the optimum is (-2, 4, -10), which violates both;
    # with them it is (-1, 4, -5), where both are tight.
    assert res.status == OPTIMAL
    assert res.optimal_value == -14
    assert res.solution == [-1, 4, -5]
    assert res.tight_constraints == [1, 2]


def test_oracle_reads_ints_over_a_common_denominator():
    # Fractional bound shifts, two boxed variables and a lower-bounded one:
    # each oracle call gets ints x and a positive int d with x / d the
    # optimum in the original variables, before and after a cut.
    calls = []

    def separate(x, d):
        assert all(type(v) is int for v in x) and type(d) is int and d > 0
        calls.append([Fraction(v, d) for v in x])
        return [({0: 2, 2: 1}, GE, 1)] if 2 * x[0] + x[2] < d else []

    bounds = [(Fraction(1, 3), Fraction(7, 2)), (-3, Fraction(5, 4)),
              (Fraction(-9, 2), None)]
    rows = [({0: -1, 2: 1}, GE, Fraction(-5, 2))]
    res = lp_solve(LinearProgram([1, -1, 1], rows, bounds, separate=separate))
    assert res.status == OPTIMAL
    assert calls == [[Fraction(1, 3), Fraction(5, 4), Fraction(-13, 6)],
                     [Fraction(7, 6), Fraction(5, 4), Fraction(-4, 3)]]
    assert res.solution == calls[-1]
    assert res.optimal_value == Fraction(-17, 12)


def test_dimensions_are_validated():
    # A column past the last variable, and a negative one, which would
    # otherwise index the last variable's bound shift.
    for row in ({0: 1, 2: 1}, {-1: 1}):
        with pytest.raises(ValueError, match="constraint dimension mismatch"):
            LinearProgram([1, 1], [(row, GE, 0)])
    with pytest.raises(ValueError, match="bounds dimension mismatch"):
        LinearProgram([1], [], bounds=[(0, 1), (0, 1)])


def test_separated_rows_are_validated():
    # An oracle row must be an inequality over the LP's variables only.
    for cut in (({0: 1}, EQ, Fraction(1, 2)), ({0: 1, 1: 1}, GE, 1),
                ({-1: 1}, GE, 1)):
        lp = LinearProgram([1], [], [(0, 1)], separate=lambda x, d: [cut])
        with pytest.raises(ValueError):
            lp_solve(lp)


def test_dual_degenerate_ties_terminate(monkeypatch):
    # A zero objective leaves every reduced cost at 0, so every dual ratio
    # ties and Bland's rule alone picks the entering variable: the one of
    # smallest label with a negative entry. The oracle returns one hidden
    # row at a time; every dual step follows Bland's rule, and every solve
    # ends within a pivot budget and agrees with the cold solve of all rows.
    pivots, tied = [], []
    pivot = simplex._pivot

    def checked(tableau, z, basis, cols, r, col):
        row = tableau[r]
        if row[-2] < 0:
            # A dual step: r is the negative-rhs row with the smallest
            # basic label, col the smallest label of least z_j / -a_j.
            assert basis[r] == min(basis[i] for i, other in enumerate(tableau)
                                   if other[-2] < 0)
            ratios = {cols[j]: Fraction(z[j], -a)
                      for j, a in enumerate(row[:-2]) if a < 0}
            least = min(ratios.values())
            ties = sorted(k for k, v in ratios.items() if v == least)
            assert cols[col] == ties[0]
            tied.append(len(ties) > 1)
        pivots.append(cols[col])
        assert len(pivots) < 2000
        return pivot(tableau, z, basis, cols, r, col)

    monkeypatch.setattr(simplex, "_pivot", checked)
    rng = random.Random(47)
    for trial in range(40):
        n = rng.choice((3, 4, 5))
        hidden = [([rng.randint(-2, 2) for _ in range(n)], rng.choice((GE, LE)),
                   rng.randint(-1, 2)) for _ in range(rng.randint(2, 8))]
        c = [0] * n if trial % 2 else [rng.randint(0, 1) for _ in range(n)]
        res = lp_solve(LinearProgram(c, [], [(0, 1)] * n,
                                     separate=_hidden_row_oracle(hidden, True)))
        full = lp_solve(LinearProgram(c, _sparse(hidden), [(0, 1)] * n))
        assert res.status == full.status
        if res.status == OPTIMAL:
            assert res.optimal_value == full.optimal_value
            assert all(_row_holds(row, rel, b, res.solution)
                       for row, rel, b in hidden)
    assert sum(tied) >= 20
