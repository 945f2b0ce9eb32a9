"""Plane construction, incidence matrices, GF(2) linear algebra, arcs."""

import random
import re
from itertools import combinations

import pytest

from pgcone.errors import DimensionTooLarge, UnsupportedQ
from pgcone.plane import (AxiomReport, ParityCheck, Plane, _gf2_eliminate,
                          arc_check, build_plane, find_hyperovals,
                          gf2_nullspace, gf2_rank, incidence_matrix,
                          mask_to_vector, min_weight_codewords, verify_axioms)


def test_q2_difference_set():
    p = build_plane(2)
    assert p.n == 7
    assert p.difference_set == (1, 2, 4)


@pytest.mark.parametrize("q, d_set", [
    (4, (3, 6, 7, 12, 14)),
    (8, (17, 33, 34, 45, 53, 59, 63, 66, 68)),
    (16, (39, 59, 78, 83, 89, 91, 118, 125, 156, 166, 178, 181, 182, 199,
          227, 236, 250)),
])
def test_difference_set_is_pinned(q, d_set):
    assert build_plane(q).difference_set == d_set


def test_plane_sizes():
    for q, n in ((2, 7), (4, 21)):
        p = build_plane(q)
        assert p.n == n
        assert len(p.lines) == n
        assert all(len(line) == q + 1 for line in p.lines)


def test_unsupported_q():
    for q in (3, 5, 6, 32):
        with pytest.raises(UnsupportedQ):
            build_plane(q)


def test_q_below_two_is_unsupported():
    # q is checked for q >= 2 and a power of two before any shift, so q = 0
    # and negative q raise UnsupportedQ, not a negative-shift ValueError.
    for q in (0, 1, -1, -2, -4):
        with pytest.raises(UnsupportedQ, match=f"q={q} is not a supported"):
            build_plane(q)


def test_axioms_pass(plane2, plane4, plane8):
    for p in (plane2, plane4, plane8, build_plane(16)):
        assert verify_axioms(p).ok


def test_axioms_fail_on_mutation(plane2):
    # Dropping a point from one line breaks the incidence structure.
    lines = list(plane2.lines)
    damaged = set(lines[0])
    damaged.discard(min(damaged))
    lines[0] = frozenset(damaged)
    broken = Plane(q=2, n=7, difference_set=plane2.difference_set,
                   lines=tuple(lines))
    report = verify_axioms(broken)
    assert not report.ok
    assert report.failure


def _line0_replaced(plane, point):
    """Line 0 with its smallest point replaced by `point` (None: dropped)."""
    line = set(plane.lines[0])
    line.discard(min(line))
    if point is not None:
        line.add(point)
    return (frozenset(line),) + plane.lines[1:]


@pytest.mark.parametrize("broken, failure", [
    # Line 0 = {1, 2, 4} loses 1.
    (lambda p: _line0_replaced(p, None), "line 0 has 2 points"),
    # 1 -> 0, the first point off line 0: point 0 gains a line.
    (lambda p: _line0_replaced(p, 0), "point 0 lies on 4 lines"),
    # Lines {j, j+1, j+2}: right sizes and degrees, but 0 and 1 lie on
    # lines 0 and 6.
    (lambda p: tuple(frozenset({j, (j + 1) % 7, (j + 2) % 7})
                     for j in range(7)), "points 0,1 share 2 lines"),
    # 1 -> 7, a point outside 0..6: a report, not an IndexError.
    (lambda p: _line0_replaced(p, 7), "point 1 lies on 2 lines"),
])
def test_axioms_first_failure_is_pinned(plane2, broken, failure):
    p = Plane(q=2, n=7, difference_set=plane2.difference_set,
              lines=broken(plane2))
    report = verify_axioms(p)
    assert not report.ok
    assert report.failure == failure


def _pairwise_axioms(p):
    """The pairwise-meet oracle: the size and degree checks of
    verify_axioms, then every pair of points and every pair of lines in
    (a, b) order, each required to share exactly one line or point."""
    n, q = p.n, p.q
    for j, line in enumerate(p.lines):
        if len(line) != q + 1:
            return AxiomReport(False, f"line {j} has {len(line)} points")
    on = [{j for j, line in enumerate(p.lines) if i in line}
          for i in range(n)]
    for i in range(n):
        if len(on[i]) != q + 1:
            return AxiomReport(False, f"point {i} lies on {len(on[i])} lines")
    for a, b in combinations(range(n), 2):
        if len(on[a] & on[b]) != 1:
            return AxiomReport(False, f"points {a},{b} share "
                                      f"{len(on[a] & on[b])} lines")
    inside = [{i for i in line if 0 <= i < n} for line in p.lines]
    for a, b in combinations(range(n), 2):
        if len(inside[a] & inside[b]) != 1:
            return AxiomReport(False, f"lines {a},{b} meet in "
                                      f"{len(inside[a] & inside[b])} points")
    return AxiomReport(True)


def _damaged(plane, rng):
    """A copy of the plane with one to three random faults: a point
    dropped from a line, added to one or moved out of range; a line
    replaced by random points; a point of one line traded for a point of
    another (sizes and degrees kept); every line replaced by a translate
    of one random set (sizes and degrees kept); or a line moved past the
    n-th and its place taken by points out of range (sizes, degrees and
    point pairs kept)."""
    n, q = plane.n, plane.q
    lines = [set(line) for line in plane.lines]
    for _ in range(rng.randint(1, 3)):
        j, k = rng.randrange(n), rng.randrange(n)
        kind = rng.randrange(7)
        if kind == 0 and lines[j]:
            lines[j].discard(rng.choice(sorted(lines[j])))
        elif kind == 1:
            lines[j].add(rng.randrange(n))
        elif kind == 2 and lines[j]:
            lines[j].discard(rng.choice(sorted(lines[j])))
            lines[j].add(rng.choice((-1, n, n + rng.randrange(1, 5))))
        elif kind == 3:
            lines[j] = set(rng.sample(range(n), q + 1))
        elif kind == 4 and lines[j] - lines[k] and lines[k] - lines[j]:
            a = rng.choice(sorted(lines[j] - lines[k]))
            b = rng.choice(sorted(lines[k] - lines[j]))
            lines[j] = lines[j] - {a} | {b}
            lines[k] = lines[k] - {b} | {a}
        elif kind == 5:
            base = rng.sample(range(n), q + 1)
            lines[:n] = [{(i + t) % n for i in base} for t in range(n)]
        elif kind == 6:
            lines.append(lines[j])
            lines[j] = set(range(2 * n, 2 * n + q + 1))
    return Plane(q=q, n=n, difference_set=plane.difference_set,
                 lines=tuple(map(frozenset, lines)))


def test_axioms_match_the_pairwise_oracle(plane2, plane4):
    rng = random.Random(3001)
    seen = {}
    for plane in (plane2, plane4) * 1500:
        p = _damaged(plane, rng)
        report = verify_axioms(p)
        assert report == _pairwise_axioms(p), p.lines
        kind = "pass" if report.ok else report.failure.split()[0]
        seen[kind] = seen.get(kind, 0) + 1
    # Every check fails somewhere; the covers fail on the point side and,
    # with a line moved past the n-th, on the line side.
    assert min(seen.get(k, 0) for k in ("line", "point", "points",
                                         "lines")) >= 50, seen


def test_axioms_match_the_pairwise_oracle_off_the_plane_order():
    # Translates of one set of q + 1 = 3 points mod n: every size and
    # degree is right, but only n = 7 can give a plane. For n < 7 a cover
    # can be full while two points share two lines.
    rng = random.Random(3002)
    for n in range(3, 16):
        for _ in range(20):
            base = rng.sample(range(n), 3)
            p = Plane(q=2, n=n, difference_set=tuple(base), lines=tuple(
                frozenset((i + t) % n for i in base) for t in range(n)))
            assert verify_axioms(p) == _pairwise_axioms(p), (n, base)


def test_incidence_matrix_shape_and_weights(H2, H4):
    for H, q in ((H2, 2), (H4, 4)):
        n = q * q + q + 1
        assert H.n_rows == H.n_cols == n
        assert all(len(r) == q + 1 for r in H.rows)
        assert all(len(c) == q + 1 for c in H.cols)
    assert sum(len(r) for r in H4.rows) == 105


def test_circulant_rows(H2, H4):
    for H in (H2, H4):
        n = H.n_cols
        for j in range(n):
            shifted = tuple(sorted((i + 1) % n for i in H.rows[j]))
            assert shifted == H.rows[(j + 1) % n]


def test_alist_round_trip(H4):
    text = H4.to_alist()
    back = ParityCheck.from_alist(text)
    assert back.rows == H4.rows
    assert back.matrix_id() == H4.matrix_id()


def test_alist_round_trip_random():
    # Random sparse matrices, empty rows and columns included.
    rng = random.Random(53)
    for _ in range(200):
        n_rows, n_cols = rng.randint(1, 12), rng.randint(1, 12)
        rows = [rng.sample(range(n_cols), rng.randint(0, min(4, n_cols)))
                for _ in range(n_rows)]
        H = ParityCheck(rows, n_cols)
        back = ParityCheck.from_alist(H.to_alist())
        assert back.rows == H.rows and back.cols == H.cols
        assert back.matrix_id() == H.matrix_id()


def test_matrix_id_digest():
    # 16 lowercase hex digits (CRC-32 of the alist text, then of its
    # reverse), kept by an alist round trip, one per q; the q = 2 value is
    # pinned, so a change of digest shows here and in every ray-set header.
    ids = {}
    for q in (2, 4, 8, 16):
        H = incidence_matrix(build_plane(q))
        ids[q] = H.matrix_id()
        assert re.fullmatch("[0-9a-f]{16}", ids[q]), ids[q]
        assert ParityCheck.from_alist(H.to_alist()).matrix_id() == ids[q]
    assert len(set(ids.values())) == 4
    assert ids[2] == "98fa0e873bb3fa8f"


@pytest.mark.parametrize("index", [0, 4])
def test_alist_index_out_of_range(index):
    # Rows {0, 1} and {1, 2} of three columns; the last row's first index
    # (1-based) is replaced by one outside 1..3.
    text = ParityCheck([[0, 1], [1, 2]], 3).to_alist()
    assert text.endswith("\n2 3\n")
    bad = text[:-4] + f"{index} 3\n"
    with pytest.raises(ValueError, match=f"alist index {index} outside 1..3"):
        ParityCheck.from_alist(bad)


@pytest.mark.parametrize("row", [[0, 0, 1], [0, 1, 5], [-1, 0], [3]])
def test_parity_check_rows_name_distinct_columns_in_range(row):
    # [0, 0, 1] was stored as mask 0b100 (column 2) and [0, 1, 5] raised
    # IndexError.
    message = (f"row 1 lists columns {sorted(row)}; they must be distinct "
               "and in 0..2")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ParityCheck([[1, 2], row], 3)


def test_alist_rejects_a_repeated_column():
    # Row 2 (1-based) listed as "2 2": read as is, its mask would hold
    # column 2 only and its column lists column 2 twice.
    text = ParityCheck([[0, 1], [1, 2]], 3).to_alist()
    assert text.endswith("\n2 3\n")
    bad = text[:-4] + "2 2\n"
    with pytest.raises(ValueError, match=re.escape(
            "row 1 lists columns [1, 1]; they must be distinct and in 0..2")):
        ParityCheck.from_alist(bad)
    # An index outside 1..n is still named by the alist reader, first.
    with pytest.raises(ValueError, match="alist index 4 outside 1..3"):
        ParityCheck.from_alist(text[:-4] + "4 4\n")


def test_alist_column_lists_must_match_rows():
    # Rows {1, 2} and {2, 3} (1-based), but the column lists put column 1
    # in row 2 and column 3 in row 1.
    text = ParityCheck([[0, 1], [1, 2]], 3).to_alist()
    assert text.splitlines()[4:7] == ["1", "1 2", "2"]
    bad = text.replace("\n1\n1 2\n2\n", "\n2\n1 2\n1\n", 1)
    with pytest.raises(ValueError,
                       match=r"alist column 1 lists rows \[2\]; "
                             r"the rows say \[1\]"):
        ParityCheck.from_alist(bad)


def test_alist_rejects_trailing_fields():
    text = ParityCheck([[0, 1], [1, 2]], 3).to_alist()
    with pytest.raises(ValueError, match="alist has '9' after the row lists"):
        ParityCheck.from_alist(text + "9 9 9\n")


def test_dense_text(H2):
    lines = H2.to_dense_text().strip().splitlines()
    assert len(lines) == 7
    assert all(len(line.split()) == 7 for line in lines)
    assert all(line.split().count("1") == 3 for line in lines)


def test_gf2_rank_values(H2, H4, H8):
    assert gf2_rank(H2) == 4
    assert gf2_rank(H4) == 10
    assert gf2_rank(H8) == 28


def test_nullspace_dimension(H2, H4):
    assert len(gf2_nullspace(H2)) == 3
    assert len(gf2_nullspace(H4)) == 11


def test_nullspace_vectors_are_codewords(H4):
    for mask in gf2_nullspace(H4):
        for row_mask in H4.row_masks:
            assert bin(mask & row_mask).count("1") % 2 == 0


def test_min_weight_codewords_q2(H2, codewords2):
    assert len(codewords2) == 7
    assert all(sum(w) == 4 for w in codewords2)
    assert min_weight_codewords(H2, 3) == []


def test_min_weight_codewords_q4(H4, codewords4):
    assert min_weight_codewords(H4, 5) == []
    assert len(codewords4) == 168
    assert all(sum(w) == 6 for w in codewords4)


def test_min_weight_codewords_rejects_a_negative_or_nan_w_max(H2):
    # w_max = nan once returned [], as no weight compares <= nan.
    for w_max in (-1, float("nan")):
        with pytest.raises(ValueError,
                           match=f"w_max must be nonnegative, got {w_max}$"):
            min_weight_codewords(H2, w_max)


def test_min_weight_dimension_limit(H8):
    with pytest.raises(DimensionTooLarge):
        min_weight_codewords(H8, 10)


def test_arc_check_basics(plane2):
    two = arc_check(plane2, {0, 1})
    assert two.is_arc and not two.is_hyperoval
    line = arc_check(plane2, set(plane2.lines[0]))
    assert not line.is_arc
    assert line.violating_line is not None
    # A point outside 0..n-1 is an error, not a point off every line: the
    # set {0, 1, 2, 100} once passed for a hyperoval of PG(2, 2).
    for bad in (plane2.n, -1, 100):
        with pytest.raises(ValueError, match=r"positions must lie in 0\.\.6"):
            arc_check(plane2, {0, 1, 2, bad})


def test_codeword_supports_are_hyperovals(plane2, codewords2):
    for w in codewords2:
        sup = {i for i, x in enumerate(w) if x}
        report = arc_check(plane2, sup)
        assert report.is_arc and report.is_hyperoval


def test_codeword_supports_are_hyperovals_q4(plane4, codewords4):
    for w in codewords4[:20]:
        sup = {i for i, x in enumerate(w) if x}
        assert arc_check(plane4, sup).is_hyperoval


def test_hyperoval_half_overlap(plane2, codewords2):
    # Distinct hyperovals never share more than half their points.
    sups = [frozenset(i for i, x in enumerate(w) if x) for w in codewords2]
    for a, b in combinations(sups, 2):
        assert len(a & b) <= 2


def test_hyperoval_half_overlap_q4_sampled(codewords4):
    sups = [frozenset(i for i, x in enumerate(w) if x) for w in codewords4]
    for a, b in combinations(sups[:25], 2):
        assert len(a & b) <= 4


def test_find_hyperovals(plane2, plane4):
    ovals = find_hyperovals(plane2, limit=10)
    assert 1 <= len(ovals) <= 10
    for pts in ovals:
        assert arc_check(plane2, pts).is_hyperoval
    one = find_hyperovals(plane4, limit=1)
    assert len(one) == 1
    assert arc_check(plane4, one[0]).is_hyperoval


def test_find_hyperovals_limit(plane2):
    assert find_hyperovals(plane2, limit=0) == []
    for limit in (-1, float("nan")):
        with pytest.raises(ValueError,
                           match=f"limit must be nonnegative, got {limit}$"):
            find_hyperovals(plane2, limit=limit)


def test_find_hyperovals_q4_is_exhaustive(plane4, codewords4):
    # Minimum-weight supports are the hyperovals, so a search that finds
    # all 168 of them, in lexicographic order, misses none.
    ovals = find_hyperovals(plane4, limit=1000)
    assert len(ovals) == 168
    assert all(list(pts) == sorted(set(pts)) for pts in ovals)
    assert ovals == sorted(tuple(i for i, x in enumerate(w) if x)
                           for w in codewords4)


def test_find_hyperovals_q8(plane8):
    ovals = find_hyperovals(plane8, limit=50)
    assert len(ovals) == 50
    for pts in ovals:
        assert list(pts) == sorted(set(pts))
        assert arc_check(plane8, pts).is_hyperoval


def _random_sparse(rng):
    """A seeded random sparse matrix: n <= 12 columns, 0 to 12 rows."""
    n = rng.randint(1, 12)
    rows = [rng.sample(range(n), rng.randint(0, min(4, n)))
            for _ in range(rng.randint(0, 12))]
    return ParityCheck(rows, n)


def test_gf2_eliminate_is_reduced_row_echelon():
    # Each pivot is its row's top bit and is set in no other row, and the
    # rows span the input rows.
    rng = random.Random(29)
    for _ in range(300):
        H = _random_sparse(rng)
        pivots = _gf2_eliminate(H.row_masks)
        for c, row in pivots.items():
            assert row.bit_length() - 1 == c
            assert [c2 for c2, r in pivots.items() if (r >> c) & 1] == [c]
        for m in H.row_masks:
            for c, row in pivots.items():
                if (m >> c) & 1:
                    m ^= row
            assert m == 0


def test_gf2_nullspace_against_brute_force():
    # n - rank independent codewords that span every word H annihilates.
    rng = random.Random(31)
    for _ in range(300):
        H = _random_sparse(rng)
        n = H.n_cols
        basis = gf2_nullspace(H)
        assert len(basis) == n - gf2_rank(H)
        code = {w for w in range(1 << n)
                if all((w & m).bit_count() % 2 == 0 for m in H.row_masks)}
        span = {0}
        for v in basis:
            assert v in code and v not in span
            span |= {w ^ v for w in span}
        assert span == code


def test_min_weight_codewords_lists_each_codeword_once():
    # Every nonzero codeword once, 2^k - 1 of them, sorted by their masks.
    rng = random.Random(37)
    for _ in range(300):
        H = _random_sparse(rng)
        n = H.n_cols
        words = min_weight_codewords(H, n)
        code = [mask_to_vector(w, n) for w in range(1, 1 << n)
                if all((w & m).bit_count() % 2 == 0 for m in H.row_masks)]
        assert len(words) == 2 ** len(gf2_nullspace(H)) - 1
        assert words == code
