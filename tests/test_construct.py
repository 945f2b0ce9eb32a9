"""Explicit minimal-pseudo-codeword constructions and the alpha procedure."""

from fractions import Fraction
from itertools import combinations
from math import inf

import pytest

from pgcone import construct
from pgcone.cone import is_member, is_minimal, mod2_reduce, type_of
from pgcone.construct import (conjectured_family_search, ex3_minimal_pcw,
                              ex5_procedure, max_alpha, overlapping_pair)
from pgcone.errors import DimensionTooLarge, NoSuchPair, SearchExhausted
from pgcone.plane import (_hyperovals, arc_check, find_hyperovals,
                          incidence_matrix, mask_to_vector,
                          min_weight_codewords)
from pgcone.weights import bound_thm5, conjectured_wp, thm5_applicable


def test_overlapping_pair_q2(plane2):
    x1, x2 = overlapping_pair(plane2)
    s1 = {i for i, x in enumerate(x1) if x}
    s2 = {i for i, x in enumerate(x2) if x}
    assert len(s1) == len(s2) == 4
    assert len(s1 & s2) == 2


def test_overlapping_pair_q4(plane4):
    x1, x2 = overlapping_pair(plane4)
    s1 = {i for i, x in enumerate(x1) if x}
    s2 = {i for i, x in enumerate(x2) if x}
    assert len(s1 & s2) == 3


@pytest.fixture
def drawn(monkeypatch):
    """The hyperovals the constructions read from now on, in order."""
    seen = []

    def counted(p):
        for pts in _hyperovals(p):
            seen.append(pts)
            yield pts

    monkeypatch.setattr(construct, "_hyperovals", counted)
    return seen


def test_no_pair_with_excess_overlap(request, plane8, drawn):
    # Distinct minimum-weight supports (hyperovals) share at most q/2 + 1
    # points. At q = 2 and 4 each overlap from -1 to q + 3 gives the first
    # pair of an exhaustive scan of the codebook's pairs, or NoSuchPair
    # where the scan finds none, and q/2 + 1 is the largest overlap there.
    for q in (2, 4):
        p = request.getfixturevalue(f"plane{q}")
        masks = [sum(x << i for i, x in enumerate(w))
                 for w in request.getfixturevalue(f"codewords{q}")]
        meets = [(a, b, (a & b).bit_count())
                 for a, b in combinations(masks, 2)]
        assert max(m for _, _, m in meets) == q // 2 + 1
        for overlap in range(-1, q + 4):
            first = next(((a, b) for a, b, m in meets if m == overlap), None)
            if first is None:
                with pytest.raises(NoSuchPair):
                    overlapping_pair(p, overlap)
            else:
                assert overlapping_pair(p, overlap) == tuple(
                    mask_to_vector(m, p.n) for m in first)
    # At q = 8 an overlap above 5 raises before a hyperoval is read.
    for overlap in range(6, 11):
        with pytest.raises(NoSuchPair,
                           match=f"0 to 5 positions, not {overlap}$"):
            overlapping_pair(plane8, overlap)
    # So does an overlap that is not a whole number, at every q; at q = 8
    # an overlap of 1.5 once read the whole hyperoval search.
    for q in (2, 4, 8):
        p = request.getfixturevalue(f"plane{q}")
        for overlap in (0.5, 1.5, Fraction(5, 2)):
            with pytest.raises(
                    NoSuchPair,
                    match=f"0 to {q // 2 + 1} positions, not {overlap}$"):
                overlapping_pair(p, overlap)
    assert drawn == []


def test_ex3_q2(plane2):
    trace = ex3_minimal_pcw(plane2)
    t = trace.final_type
    assert (t.get(1), t.get(2)) == (4, 3)
    assert trace.pseudo_weights["AWGNC"] == Fraction(25, 4)
    assert trace.ranks["final"] == 6
    assert trace.minimal
    assert len(trace.switched) == 1


def test_ex3_q2_intermediate(plane2):
    trace = ex3_minimal_pcw(plane2)
    t = type_of(trace.intermediate)
    assert (t.get(1), t.get(2)) == (4, 2)
    assert trace.ranks["intermediate"] < 6


def test_ex3_q4(plane4):
    trace = ex3_minimal_pcw(plane4)
    t = trace.final_type
    assert (t.get(1), t.get(2)) == (6, 5)
    assert trace.pseudo_weights["AWGNC"] == Fraction(128, 13)
    assert trace.ranks["final"] == 20
    assert len(trace.switched) == 2


def test_ex3_q8_from_the_hyperoval_search(plane8):
    # The PG(2, 8) code is too large for the exhaustive codeword search, so
    # the pool comes from the hyperoval search; Example 3 and the
    # conjecture's search find the same minimal pseudo-codeword.
    H = incidence_matrix(plane8)
    with pytest.raises(DimensionTooLarge):
        min_weight_codewords(H, 10)
    first_two = [mask_to_vector(sum(1 << i for i in pts), plane8.n)
                 for pts in find_hyperovals(plane8, 2)]
    for trace in (ex3_minimal_pcw(plane8), conjectured_family_search(plane8)):
        assert trace.final_type.counts == {1: 10, 2: 8}
        assert trace.pseudo_weights["AWGNC"] == Fraction(338, 21) \
            == conjectured_wp(8)
        assert trace.ranks["final"] == 72 and is_minimal(H, trace.final)
        assert list(trace.generators) == first_two


def test_q8_constructions_read_two_hyperovals(plane8, drawn):
    # The pool is read on demand: the first pair already yields the
    # construction, so no search goes past the second hyperoval.
    for search in (ex3_minimal_pcw, conjectured_family_search):
        drawn.clear()
        search(plane8)
        assert drawn == find_hyperovals(plane8, 2)


def test_ex3_q4_switches_share_a_line(plane4):
    trace = ex3_minimal_pcw(plane4)
    a, b = sorted(trace.switched)
    assert a != b and sum(a in line and b in line for line in plane4.lines) == 1


def test_ex3_dominates_bound(plane2, plane4):
    for p, q in ((plane2, 2), (plane4, 4)):
        trace = ex3_minimal_pcw(p)
        assert thm5_applicable(trace.final_type, q)
        assert trace.pseudo_weights["AWGNC"] > bound_thm5(q)
        assert trace.pseudo_weights["AWGNC"] == conjectured_wp(q)


def test_ex3_mod2_reduces_to_codeword(plane2):
    trace = ex3_minimal_pcw(plane2)
    H = incidence_matrix(plane2)
    word = mod2_reduce(trace.final.canonical)
    assert any(word)
    for row in H.rows:
        assert sum(word[i] for i in row) % 2 == 0
    # The parity part is the symmetric difference of the two generators.
    x1, x2 = trace.generators
    assert word == tuple(a ^ b for a, b in zip(x1, x2))


def test_conjectured_family_q2(plane2):
    trace = conjectured_family_search(plane2)
    t = trace.final_type
    assert (t.get(1), t.get(2)) == (4, 3)
    assert trace.pseudo_weights["AWGNC"] == conjectured_wp(2)


def test_conjectured_family_q4(plane4):
    trace = conjectured_family_search(plane4)
    t = trace.final_type
    assert (t.get(1), t.get(2)) == (6, 5)
    assert trace.pseudo_weights["AWGNC"] == conjectured_wp(4)


def test_simplex_configuration_q8(plane8):
    # s = 3 switch sets: three collinear points are rejected, a triangle
    # (no point on the line through the other two) is accepted.
    a, b, c = sorted(plane8.lines[0])[:3]
    assert not arc_check(plane8, (a, b, c)).is_arc
    d = next(x for x in range(plane8.n) if x not in plane8.lines[0])
    assert arc_check(plane8, (a, b, d)).is_arc
    assert arc_check(plane8, (a, b)).is_arc


@pytest.mark.parametrize("q, budget, switched", [
    (2, 0, None), (2, 1, {6: 2}), (4, 27, None), (4, 28, {5: 2, 18: 2})])
def test_conjectured_family_candidate_budget(request, q, budget, switched):
    p = request.getfixturevalue(f"plane{q}")
    if switched is None:
        with pytest.raises(SearchExhausted,
                           match=f"candidate budget {budget} exhausted"):
            conjectured_family_search(p, max_candidates=budget)
    else:
        trace = conjectured_family_search(p, max_candidates=budget)
        assert trace.switched == switched


def test_conjectured_family_negative_budget_rejected(plane2):
    # A budget of -1 once ran out as SearchExhausted("candidate budget -1
    # exhausted"), and a NaN one left the search unbudgeted; like every
    # other budget they are now a ValueError.
    for budget in (-1, float("nan")):
        with pytest.raises(
                ValueError,
                match=f"max_candidates must be nonnegative, got {budget}$"):
            conjectured_family_search(plane2, max_candidates=budget)


def test_max_alpha_empty_positions(plane2, codewords2):
    H = incidence_matrix(plane2)
    assert max_alpha(H, codewords2[0], set()) is inf


@pytest.mark.parametrize("positions", [{7}, {-1}, {0, 7}])
def test_max_alpha_positions_out_of_range(plane2, codewords2, positions):
    H = incidence_matrix(plane2)
    with pytest.raises(ValueError, match=r"positions must lie in 0\.\.6"):
        max_alpha(H, codewords2[0], positions)


def test_max_alpha_fixture(fixture_h):
    # Base (1,1,0): the pivot-2 inequality x0 + x1 >= x2 caps the raise at 2.
    alpha = max_alpha(fixture_h, [1, 1, 0], {2})
    assert alpha == 2
    assert is_member(fixture_h, [1, 1, 2])[0]
    assert not is_member(fixture_h, [1, 1, Fraction(5, 2)])[0]


def test_max_alpha_zero_line_blocks(plane2, codewords2):
    # Every point outside a q=2 hyperoval lies on one line that misses the
    # hyperoval entirely, so no single zero can be raised at all.
    H = incidence_matrix(plane2)
    base = codewords2[0]
    for zero in (i for i, x in enumerate(base) if x == 0):
        assert max_alpha(H, base, {zero}) == 0


def test_max_alpha_matches_switch_threshold(plane2):
    trace = ex3_minimal_pcw(plane2)
    H = incidence_matrix(plane2)
    (pos,) = trace.switched
    alpha = max_alpha(H, trace.intermediate, {pos})
    assert alpha >= 2 and alpha is not inf
    raised = list(trace.intermediate.entries)
    raised[pos] = alpha
    assert is_member(H, raised)[0]
    raised[pos] = alpha + 1
    assert not is_member(H, raised)[0]


def test_ex5(plane4):
    trace = ex5_procedure(plane4)
    t = trace.final_type
    assert (t.t0, t.get(1), t.get(2)) == (8, 8, 5)
    assert set(trace.switched.values()) == {2}
    assert trace.ranks["final"] == 20
    assert trace.minimal
    H = incidence_matrix(plane4)
    # Raising the same positions beyond the threshold leaves the cone.
    over = list(trace.intermediate.entries)
    for i in trace.switched:
        over[i] = Fraction(5, 2)
    assert not is_member(H, over)[0]


def test_ex5_intermediate_type(plane4):
    trace = ex5_procedure(plane4)
    t = type_of(trace.intermediate)
    assert (t.t0, t.get(1), t.get(2)) == (11, 8, 2)
    assert trace.ranks["intermediate"] == 19


def test_ex5_requires_q4(plane2):
    with pytest.raises(ValueError):
        ex5_procedure(plane2)


def test_trace_json(plane2):
    import json
    trace = ex3_minimal_pcw(plane2)
    obj = json.loads(trace.to_json())
    assert obj["minimal"] is True
    assert obj["overlap"] == 2
    assert len(obj["final"]) == 7
