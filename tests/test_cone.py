"""Fundamental-cone constraints, membership, minimality, types, supports."""

import random
import re
from decimal import Decimal
from fractions import Fraction
from math import lcm

import pytest

from pgcone import cone
from pgcone.cone import (PseudoCodeword, TypeVector, _ints, active_rank,
                         cone_constraints, integer_rank, is_member,
                         is_minimal, is_stopping_set, max_stopping_subset,
                         mod2_reduce, support, type_of)
from pgcone.construct import max_alpha
from pgcone.decode import llr_from_flips
from pgcone.effect import bsc_effectiveness
from pgcone.errors import LengthMismatch, NonInteger, NotInCone, PgconeError
from pgcone.rays import Budget, RaySet, enumerate_rays, histogram
from pgcone.weights import (awgnc_pw, bec_pw, bound_cor4, bound_lemma1,
                            bound_lemma2, bsc_pw)


def test_constraint_counts(H2, H4, fixture_h):
    assert len(cone_constraints(H2)) == 7 * 3 + 7
    assert len(cone_constraints(H4)) == 21 * 5 + 21
    assert len(cone_constraints(fixture_h)) == 3 + 3


def test_constraint_coefficients(H2):
    cs = cone_constraints(H2)
    for label, coeffs in cs.items():
        if label[0] == "cone":
            _, j, i = label
            assert coeffs == {k: 1 for k in H2.rows[j] if k != i} | {i: -1}
        else:
            assert coeffs == {label[1]: 1}
        assert 0 not in coeffs.values()


def test_codewords_are_members(H2, codewords2):
    for w in codewords2:
        ok, violated = is_member(H2, w)
        assert ok and violated is None


def test_unit_vector_not_member(H2):
    e0 = [1, 0, 0, 0, 0, 0, 0]
    ok, violated = is_member(H2, e0)
    assert not ok
    assert violated[0] == "cone"


def test_membership_reports_first_violation_lexicographic(H2):
    # The pivot of the first violated constraint is position 0 on the
    # first line through it.
    e0 = [1, 0, 0, 0, 0, 0, 0]
    _, violated = is_member(H2, e0)
    j, i = violated[1], violated[2]
    assert i == 0
    assert j == min(H2.cols[0])


def test_length_mismatch(H2):
    with pytest.raises(LengthMismatch):
        is_member(H2, [1, 2, 3])


def test_membership_scale_invariant(H2, rays2):
    for r in list(rays2)[:5]:
        scaled = r.scaled(Fraction(7, 3))
        assert is_member(H2, scaled)[0]


def test_sum_of_members_is_member(H2, rays2):
    rng = random.Random(3)
    rays = list(rays2)
    for _ in range(25):
        a, b = rng.sample(rays, 2)
        s = [x + y for x, y in zip(a.entries, b.entries)]
        assert is_member(H2, s)[0]


def test_all_ones_rank_zero(H2):
    ones = [1] * 7
    assert active_rank(H2, ones) == 0
    assert not is_minimal(H2, ones)


def test_codeword_minimality(H2, codewords2):
    for w in codewords2:
        assert active_rank(H2, w) == 6
        assert is_minimal(H2, w)


def test_active_rank_requires_membership(H2):
    with pytest.raises(NotInCone):
        active_rank(H2, [1, 0, 0, 0, 0, 0, 0])


def test_zero_vector_not_minimal(H2):
    assert not is_minimal(H2, [0] * 7)


def test_is_minimal_is_false_off_the_cone(H2, H4):
    rng = random.Random(18)
    cases = [(H2, [1, 0, 0, 0, 0, 0, 0]), (H2, [1, 1, 1, 1, 1, 1, -1])]
    for H in (H2, H4):
        for _ in range(25):
            vec = [rng.randint(0, 3) for _ in range(H.n_cols)]
            vec[rng.randrange(H.n_cols)] = sum(vec) + 1
            cases.append((H, vec))
    for H, vec in cases:
        assert not is_member(H, vec)[0]
        assert is_minimal(H, vec) is False
        assert is_minimal(H, [Fraction(x, 3) for x in vec]) is False


def test_canonical_form():
    pcw = PseudoCodeword([Fraction(1, 2), Fraction(1, 3), 0])
    assert pcw.canonical == (3, 2, 0)
    assert pcw.scaled(6).canonical == (3, 2, 0)
    assert PseudoCodeword([0, 0]).canonical == (0, 0)


def test_negative_entry_rejected():
    with pytest.raises(ValueError):
        PseudoCodeword([1, -1])


def test_pcw_json_round_trip():
    pcw = PseudoCodeword([Fraction(1, 2), 2, 0])
    back = PseudoCodeword.from_json(pcw.to_json())
    assert back == pcw


@pytest.mark.parametrize("entries, message", [
    (["1/0", 1], "not a rational: '1/0'"),
    ([1, None], "not a rational: None"),
    ([float("inf")], "not a rational: inf"),
    ((x for x in ["1/0"]), "not a rational: '1/0'"),
])
def test_bad_rational_entries_are_value_errors(entries, message):
    with pytest.raises(ValueError) as exc:
        PseudoCodeword(entries)
    assert str(exc.value) == message


# The rays of the single check on three columns, for the classifier site.
_RAYS3 = RaySet(rays=((0, 1, 1), (1, 0, 1), (1, 1, 0)), h_matrix_id="x",
                complete=True)

# Each site of the one positive-rational guard: a call taking the value,
# and the name its message gives.
_POSITIVE_SITES = {
    "PseudoCodeword.scaled":
        (lambda c: PseudoCodeword([1, 0]).scaled(c), "scaling constant"),
    "TypeVector.scaled":
        (lambda c: TypeVector({1: 2}, 3).scaled(c), "scaling constant"),
    "llr_from_flips": (lambda L: llr_from_flips(3, {0}, L), "L"),
    "bsc_effectiveness":
        (lambda L: bsc_effectiveness(_RAYS3, (0, 1, 1), L), "L"),
    "histogram": (lambda w: histogram(_RAYS3, "AWGNC", w), "bin width"),
}


@pytest.mark.parametrize("site", sorted(_POSITIVE_SITES))
def test_every_positive_site_raises_the_same_errors(site):
    call, name = _POSITIVE_SITES[site]
    for bad in (0, -1, Fraction(-1, 2)):
        with pytest.raises(ValueError) as exc:
            call(bad)
        assert str(exc.value) == f"{name} must be positive"
    # A non-rational raises what Fraction raises, with its message.
    for bad, kind in (("abc", ValueError), (None, TypeError)):
        with pytest.raises(kind) as want:
            Fraction(bad)
        with pytest.raises(kind) as exc:
            call(bad)
        assert str(exc.value) == str(want.value)


def test_from_json_reads_decimals_exactly():
    pcw = PseudoCodeword.from_json('{"entries": [0.1, 0, 0]}')
    assert pcw.entries == (Fraction(1, 10), 0, 0)
    pcw = PseudoCodeword.from_json('{"entries": [2.5e-1, 1e400, "1/3"]}')
    assert pcw.entries == (Fraction(1, 4), 10 ** 400, Fraction(1, 3))


def test_from_json_checks_n_and_canonical():
    with pytest.raises(LengthMismatch, match='"n" is 21 for 3 entries'):
        PseudoCodeword.from_json(
            '{"n": 21, "entries": [1, 0, 0], "canonical": [5, 5]}')
    for text in ('{"entries": [1, 0, 0], "canonical": [5, 5]}',
                 '{"entries": [2, 0, 2], "canonical": [2, 0, 2]}'):
        with pytest.raises(ValueError, match="entries' primitive form"):
            PseudoCodeword.from_json(text)
    pcw = PseudoCodeword.from_json(
        '{"n": 3, "entries": ["1/2", 1, 0], "canonical": [1, 2, 0]}')
    assert pcw.entries == (Fraction(1, 2), 1, 0)


def test_type_of_zero():
    t = type_of([0] * 7)
    assert t.t0 == 7
    assert t.counts == {}


def test_type_of_mixed():
    t = type_of([1, 1, 2, 0, 0, 0, 2])
    assert t.t0 == 3
    assert t.get(1) == 2 and t.get(2) == 2
    assert t.values() == [1, 2]


def test_type_scaling_law():
    t = type_of([1, 1, 2, 0])
    scaled = t.scaled(2)
    assert scaled.get(2) == 2 and scaled.get(4) == 1
    assert scaled.t0 == t.t0


def test_support_and_stopping_sets(H2, codewords2):
    assert is_stopping_set(H2, set())
    assert not is_stopping_set(H2, {0})
    for w in codewords2:
        assert is_stopping_set(H2, support(w))


def test_member_support_is_stopping_set(H2, rays2):
    for r in rays2:
        assert is_stopping_set(H2, support(r))


def _one_pass_stopping(H, S):
    """The one-pass test: no check touches S exactly once."""
    return all(sum(1 for i in row if i in S) != 1 for row in H.rows)


def _sequential_peel(H, S):
    """Peeling one position at a time: drop the first position some check
    touches alone, until none is left."""
    E = set(S)
    while True:
        for row in H.rows:
            hits = [i for i in row if i in E]
            if len(hits) == 1:
                E.discard(hits[0])
                break
        else:
            return frozenset(E)


def test_stopping_set_is_a_peeling_fixed_point(H2, H4, H8):
    rng = random.Random(5)
    cases = [(H2, frozenset(i for i in range(7) if mask >> i & 1))
             for mask in range(1 << 7)]
    cases += [(H4, frozenset(rng.sample(range(21), rng.randint(0, 12))))
              for _ in range(200)]
    cases += [(H8, frozenset(rng.sample(range(73), rng.randint(0, 40))))
              for _ in range(200)]
    stopping = 0
    for H, S in cases:
        peeled = max_stopping_subset(H, S)
        assert peeled <= S and _one_pass_stopping(H, peeled)
        assert peeled == _sequential_peel(H, S)
        assert is_stopping_set(H, S) == (peeled == S) \
            == _one_pass_stopping(H, S)
        stopping += peeled == S
    assert stopping >= 10


@pytest.mark.parametrize("points", [{99}, {7}, {-1}, {0, 1, 7}])
def test_stopping_positions_out_of_range(H2, points):
    for call in (max_stopping_subset, is_stopping_set):
        with pytest.raises(ValueError, match=r"positions must lie in 0\.\.6"):
            call(H2, points)


def test_mod2_reduce():
    assert mod2_reduce([2, 2, 0, 4]) == (0, 0, 0, 0)
    assert mod2_reduce([1, 0, 1, 1]) == (1, 0, 1, 1)
    with pytest.raises(NonInteger):
        mod2_reduce([Fraction(1, 2), 0])


def _row_maps(rows):
    """Dense int rows as integer_rank takes them: {column: entry} maps
    that hold no zero."""
    return [{c: v for c, v in enumerate(r) if v} for r in rows]


def test_integer_rank():
    assert integer_rank([]) == 0
    assert integer_rank([{}, {}]) == 0
    assert integer_rank([{0: 1, 1: 2}, {0: 2, 1: 4}]) == 1
    assert integer_rank([{0: 1, 1: 2}, {0: 2, 1: 5}]) == 2
    assert integer_rank([{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: -1}]) == 2


def test_integer_rank_against_fraction_elimination():
    rng = random.Random(5)
    for _ in range(30):
        rows = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(4)]
        # Reference rank by straightforward rational elimination.
        mat = [[Fraction(x) for x in row] for row in rows]
        rank = 0
        for c in range(5):
            piv = next((r for r in range(rank, 4) if mat[r][c]), None)
            if piv is None:
                continue
            mat[rank], mat[piv] = mat[piv], mat[rank]
            for r in range(4):
                if r != rank and mat[r][c]:
                    f = mat[r][c] / mat[rank][c]
                    mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
            rank += 1
        assert integer_rank(_row_maps(rows)) == rank


class _Sub(Fraction):
    """A Fraction subclass: not an exact Fraction, so read through Fraction."""


def _ints_via_fraction(vec):
    fracs = [Fraction(v) for v in vec]
    m = lcm(*[f.denominator for f in fracs])
    return [f.numerator * (m // f.denominator) for f in fracs], m


def test_ints_reads_every_entry_as_fraction_does():
    # Seeded mixes of ints, Fractions and entries of other types, given as
    # a list, a tuple or a one-shot iterator.
    rng = random.Random(25)
    pool = (0, 3, 7, Fraction(2, 9), Fraction(5, 4), True, False, 0.5, 0.1,
            Decimal("0.25"), Decimal("1.1"), "3/7", " 2 ", _Sub(5, 6))
    for _ in range(300):
        vec = [rng.choice(pool) for _ in range(rng.randint(0, 8))]
        want = _ints_via_fraction(vec)
        for form in (list, tuple, iter):
            x, m = _ints(form(vec))
            assert (list(x), m) == want, vec
            assert all(type(v) is int for v in x), vec


@pytest.mark.parametrize("bad", ["abc", None, float("inf"), float("nan"),
                                 "1/0", Decimal("inf")])
def test_ints_raises_what_fraction_raises(bad):
    with pytest.raises(Exception) as want:
        Fraction(bad)
    with pytest.raises(type(want.value), match=re.escape(str(want.value))):
        _ints([1, Fraction(1, 2), bad])


# What the memo tests compare: each public reader of a vector, applied to
# it, as ("ok", result) or ("err", type, message).
_READERS = {
    "is_member": lambda H, v: is_member(H, v),
    "active_rank": lambda H, v: active_rank(H, v),
    "is_minimal": lambda H, v: is_minimal(H, v),
    "type_of": lambda H, v: type_of(v),
    "support": lambda H, v: support(v),
    "mod2_reduce": lambda H, v: mod2_reduce(v),
    "awgnc_pw": lambda H, v: awgnc_pw(v),
    "bec_pw": lambda H, v: bec_pw(v),
    "bsc_pw": lambda H, v: bsc_pw(v),
    "bound_lemma2": lambda H, v: bound_lemma2(v, Fraction(4, 3)),
    "bound_cor4": lambda H, v: bound_cor4(v),
    "max_alpha": lambda H, v: max_alpha(H, v, [0]),
    "canonical": lambda H, v: PseudoCodeword(v).canonical,
}
_MEMO_READERS = ("is_member", "type_of", "awgnc_pw", "bound_lemma2")


def _result(call):
    try:
        return "ok", call()
    except Exception as exc:
        return "err", type(exc), str(exc)


def _fresh(values):
    """A new list of new Fraction objects: the values as _ints_via_fraction
    reads them."""
    x, m = _ints_via_fraction(values)
    return [Fraction(v, m) for v in x]


def _fresh_result(read, H, values):
    """The reader's outcome on _fresh(values), with _ints' stored reading
    left as it was, so the next read of a vector meets it."""
    saved = cone._last
    try:
        return _result(lambda: read(H, _fresh(values)))
    finally:
        cone._last = saved


def _assert_reads_fresh(H, make, values):
    """_ints and each reader on make() (the vector, or a new iterator for
    each call) give what they give on a fresh list of the values."""
    for name in _MEMO_READERS:
        read = _READERS[name]
        assert (_result(lambda: read(H, make()))
                == _fresh_result(read, H, values)), (name, values)
    x, m = _ints(make())
    assert (list(x), m) == _ints_via_fraction(values), values


def test_ints_returns_its_stored_reading_for_the_same_vector(H2):
    vec = [Fraction(1, 2), Fraction(1, 2), 1, 0, Fraction(3, 2), 0, 0]
    x, m = _ints(vec)
    assert cone._last[0] is vec
    assert _ints(vec)[0] is x
    for name in _MEMO_READERS:
        _READERS[name](H2, vec)
        assert _ints(vec)[0] is x, name
    # An equal-valued but different list, with the same or new entry
    # objects, is read anew.
    for other in (list(vec), [Fraction(v) for v in vec]):
        y, k = _ints(other)
        assert y is not x and (y, k) == (x, m)
    # An all-int list is still its own reading, with m = 1.
    ints = [1, 0, 1, 1, 1, 0, 0]
    assert _ints(ints) == (ints, 1) and _ints(ints)[0] is ints


def test_ints_reads_a_vector_changed_in_place_anew(H2):
    vec = [Fraction(1, 2), Fraction(1, 2), 1, 0, Fraction(3, 2), 0, 0]
    changes = (lambda v: v.__setitem__(1, Fraction(5, 2)),
               lambda v: v.__setitem__(1, Fraction(5, 2)),  # a new object
               lambda v: v.append(Fraction(1, 3)),
               lambda v: v.pop(),
               lambda v: v.pop(),
               lambda v: v.__setitem__(slice(None), [1, 0, 1, 1, 1, 0]),
               lambda v: v.__setitem__(0, Fraction(1)),
               lambda v: v.insert(0, 0))
    for change in changes:
        _ints(vec)
        assert cone._last[0] is vec
        change(vec)
        _assert_reads_fresh(H2, lambda: vec, vec)


def test_ints_reads_an_equal_but_different_list_anew(H2):
    vec = [Fraction(2, 3), 0, Fraction(2, 3), Fraction(2, 3), 0, 0, 0]
    for other in (list(vec), [Fraction(v) for v in vec], tuple(vec)):
        _ints(vec)
        _assert_reads_fresh(H2, lambda: other, vec)


def test_ints_reads_a_one_shot_iterator_each_time(H2):
    values = [1, 1, 0, 1, 0, 0, 0]
    for form in (values, [Fraction(v, 3) for v in values]):
        _ints(form)
        _assert_reads_fresh(H2, lambda: iter(form), form)
        it = iter(form)
        _ints(it)
        assert cone._last[0] is not it
        # The iterator is spent: a second reading reads no entries.
        assert _ints(it) == ([], 1)


def test_ints_reads_a_pseudocodeword_with_new_entries_anew(H2):
    pcw = PseudoCodeword([1, 1, 0, 1, 0, 0, 0])
    old = pcw.entries
    for entries in ((Fraction(1, 2),) + old[1:], old, old + (Fraction(0),),
                    tuple(Fraction(v) for v in old)):
        _ints(pcw)
        assert cone._last[0] is pcw
        pcw.entries = entries
        _assert_reads_fresh(H2, lambda: pcw, entries)


@pytest.mark.parametrize("odd", [0.5, Decimal("0.25"), "1/2", _Sub(1, 2),
                                 True])
def test_ints_never_stores_a_reading_of_other_entry_types(H2, odd):
    vec = [Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), 0, 0, 0, 0]
    _ints(vec)
    vec[0] = odd
    stored = cone._last
    for _ in range(2):
        _assert_reads_fresh(H2, lambda: vec, vec)
        assert cone._last is stored
    vec[0] = Fraction(odd)
    _assert_reads_fresh(H2, lambda: vec, vec)
    assert cone._last is not stored and cone._last[0] is vec
    vec[0] = odd
    stored = cone._last
    _assert_reads_fresh(H2, lambda: vec, vec)
    assert cone._last is stored


def test_ints_memo_against_fresh_readings_on_shared_mutated_lists(H2):
    # Three lists, mutated at random in place between reads: every public
    # reader agrees with a fresh reading, and none writes to the stored x.
    rng = random.Random(28)
    pool = (0, 1, 2, Fraction(1, 2), Fraction(3, 2), Fraction(2, 3),
            Fraction(5, 4))
    vecs = [[rng.choice(pool) for _ in range(7)] for _ in range(3)]
    names = sorted(_READERS)
    for _ in range(2000):
        vec = rng.choice(vecs)
        step = rng.random()
        if step < 0.3:
            vec[rng.randrange(len(vec))] = rng.choice(pool)
        elif step < 0.4:
            i = rng.randrange(len(vec))
            vec[i] = Fraction(vec[i])       # equal value, new object
        elif step < 0.45:
            vec.append(rng.choice(pool))
        elif step < 0.5 and len(vec) > 6:
            vec.pop()
        name = rng.choice(names)
        read = _READERS[name]
        assert (_result(lambda: read(H2, vec))
                == _fresh_result(read, H2, vec)), (name, vec)
        x, m = _ints(vec)
        before = (list(x), m)
        assert before == _ints_via_fraction(vec), vec
        _result(lambda: read(H2, vec))
        assert (list(x), m) == before, name


def test_pseudocodeword_keeps_fraction_entries():
    half, three = Fraction(1, 2), Fraction(3)
    entries = [half, 2, three, 0]
    pcw = PseudoCodeword(entries)
    assert pcw.entries[0] is half and pcw.entries[2] is three
    assert all(type(v) is Fraction for v in pcw.entries)
    assert pcw.entries == (half, Fraction(2), three, Fraction(0))
    # Subclass entries are still rebuilt as exact Fractions.
    assert type(PseudoCodeword([_Sub(1, 2)]).entries[0]) is Fraction


def test_type_vector_get_reads_its_value_exactly():
    t = TypeVector({Fraction(1, 2): 3, 1: 2}, 9)
    assert t.get(1) == 2 and t.get(Fraction(1)) == 2
    assert t.get(Fraction(1, 2)) == 3 and t.get("1/2") == 3
    assert t.get(0) == t.get("0") == 4
    assert t.get(Fraction(2)) == 0
    for bad, kind in (("abc", ValueError), (None, TypeError)):
        with pytest.raises(kind) as want:
            Fraction(bad)
        with pytest.raises(kind) as exc:
            t.get(bad)
        assert str(exc.value) == str(want.value)


def test_type_vector_keys_read_as_fractions():
    # Dyadic values, so every float key is exact; each key given as an
    # int (when whole), a string, a float or a Fraction.
    rng = random.Random(26)
    values = [Fraction(1, 2), Fraction(3, 4), Fraction(1), Fraction(2),
              Fraction(5, 8), Fraction(7, 2)]
    forms = (str, float, lambda k: k,
             lambda k: int(k) if k.denominator == 1 else k)
    for _ in range(100):
        counts = {k: rng.randint(0, 3) for k in rng.sample(values, 4)}
        ref = TypeVector(counts, 20)
        given = {rng.choice(forms)(k): v for k, v in counts.items()}
        t = TypeVector(given, 20)
        assert t.counts == ref.counts and repr(t) == repr(ref), given
        assert all(type(k) is Fraction for k in t.counts)
    key = Fraction(2, 3)
    assert next(iter(TypeVector({key: 1, 0: 2, "abc": 0}, 5).counts)) is key


def test_type_vector_validation():
    with pytest.raises(ValueError):
        TypeVector({1: 5, 2: 5}, 7)


@pytest.mark.parametrize("counts, bad", [
    ({1: Fraction(1, 2), 2: 2}, "1/2"),
    ({1: 4, 2: 2.7}, "2.7"),
    ({1: "3/2"}, "3/2"),
])
def test_type_vector_rejects_a_fractional_multiplicity(counts, bad):
    # int() would truncate: t_1 = 0 from 1/2, t_2 = 2 from 2.7.
    with pytest.raises(ValueError,
                       match=f"^multiplicity {re.escape(bad)} is not an "
                             "integer$"):
        TypeVector(counts, 7)


def test_type_vector_reads_whole_multiplicities():
    big = 10 ** 30
    t = TypeVector({1: 2.0, 2: Fraction(6, 2), 3: "1", 4: big}, big + 6)
    assert t.counts == {1: 2, 2: 3, 3: 1, 4: big}
    assert all(type(v) is int for v in t.counts.values())
    assert t.counts[4] is big  # an int is kept as it is
    report = bound_lemma1(TypeVector({1: 4.0, 2: Fraction(3)}, 7))
    assert report.parameters == {"t1": 4, "t2": 3}
    assert report.value == bound_lemma1(type_of([1, 1, 1, 1, 2, 2, 2])).value


def test_type_vector_rejects_a_negative_multiplicity():
    # Without the check, t_0 = 9 > n and pw_from_type builds 10 entries.
    with pytest.raises(ValueError, match="multiplicities"):
        TypeVector({1: -3, 2: 1}, 7)


def _fraction_rank(rows):
    """Reference rank by Gauss-Jordan elimination over Fractions."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(mat[0]) if mat else 0):
        piv = next((r for r in range(rank, len(mat)) if mat[r][c]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for r in range(len(mat)):
            if r != rank and mat[r][c]:
                f = mat[r][c] / mat[rank][c]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def test_integer_rank_with_unit_zero_and_repeated_rows():
    rng = random.Random(7)
    assert integer_rank([]) == _fraction_rank([]) == 0
    shapes = {"all unit": 0, "unit and dense": 0, "no unit": 0}
    for k in range(2000):
        n = rng.randint(1, 8)
        rows = []
        for _ in range(rng.randint(0, 10)):
            kind = rng.random()
            if kind < 0.45:
                row = [0] * n
                row[rng.randrange(n)] = rng.choice((-3, -2, -1, 1, 2, 5))
            elif kind < 0.55:
                row = [0] * n
            elif kind < 0.7 and rows:
                row = list(rng.choice(rows))
            else:
                row = [rng.randint(-3, 3) for _ in range(n)]
            rows.append(tuple(row) if rng.random() < 0.5 else row)
        if k % 10 == 0:
            rows = [tuple(1 if c == i else 0 for c in range(n))
                    for i in rng.sample(range(n), rng.randint(1, n))]
        units = sum(1 for r in rows if sum(1 for x in r if x) == 1)
        if rows and units == len(rows):
            shapes["all unit"] += 1
        elif units:
            shapes["unit and dense"] += 1
        else:
            shapes["no unit"] += 1
        assert integer_rank(_row_maps(rows)) == _fraction_rank(rows), rows
    assert min(shapes.values()) >= 100, shapes


def _forms(vec):
    """The same dyadic vector in every form a reader takes, each as a
    function that makes it afresh: as given (ints, or Fractions), as
    Fractions, as a PseudoCodeword (only when nonnegative), as decimal
    strings, as "p/q" strings, as floats and as a generator."""
    fracs = [Fraction(x) for x in vec]
    forms = [lambda: tuple(vec), lambda: list(fracs),
             lambda: [repr(float(x)) for x in fracs],
             lambda: [f"{x.numerator}/{x.denominator}" for x in fracs],
             lambda: [float(x) for x in fracs],
             lambda: (x for x in vec)]
    if min(vec) >= 0:
        forms.append(lambda: PseudoCodeword(vec))
    return forms


def _outcome(f, omega):
    """f(omega), or the type of the error it raises."""
    try:
        return f(omega)
    except (PgconeError, ValueError) as exc:
        return type(exc)


def _answers(H, make):
    ok, violated = is_member(H, make())
    try:
        rank, minimal = active_rank(H, make()), is_minimal(H, make())
    except NotInCone:
        rank = minimal = "NotInCone"
    return (ok, violated, rank, minimal, *(_outcome(f, make()) for f in (
        type_of, support, awgnc_pw, bsc_pw, bec_pw,
        lambda v: PseudoCodeword(v).canonical, mod2_reduce)))


def test_int_fraction_and_pseudocodeword_inputs_agree(H2, H4, rays2):
    rays4 = enumerate_rays(H4, budget=Budget(max_rays=800))
    assert len(rays4) == 19
    rng = random.Random(11)
    cases = [(H2, r.canonical, True) for r in rays2]
    cases += [(H4, r.canonical, True) for r in rays4]
    for H in (H2, H4):
        for _ in range(20):
            vec = [rng.randint(0, 3) for _ in range(H.n_cols)]
            vec[rng.randrange(H.n_cols)] = sum(vec) + 1
            cases.append((H, vec, False))
    negative = list(rays2.rays[0].canonical)
    negative[negative.index(0)] = -1
    cases.append((H2, negative, False))
    # Each vector also at a quarter of its scale, so the decimal, "p/q"
    # and float forms hold fractions.
    cases += [(H, [Fraction(x, 4) for x in vec], member)
              for H, vec, member in cases]
    for H, vec, member in cases:
        answers = [_answers(H, make) for make in _forms(vec)]
        assert all(a == answers[0] for a in answers), vec
        ok, violated, rank, minimal = answers[0][:4]
        assert ok == member and (violated is None) == member
        if member:
            assert rank == H.n_cols - 1 and minimal is True
        else:
            assert rank == minimal == "NotInCone"
        integral = all(Fraction(x).denominator == 1 for x in vec)
        assert (answers[0][-1] is NonInteger) != integral
    # An entry that is no rational raises Fraction's own error from every
    # reader, in every form; PseudoCodeword turns each into a ValueError.
    for bad, error in (("abc", ValueError), (None, TypeError),
                       ("1/0", ZeroDivisionError)):
        vec = [1, bad, 1, 1, 0, 0, 0]
        for make in (lambda: vec, lambda: tuple(vec),
                     lambda: (x for x in vec)):
            for f in (lambda v: is_member(H2, v),
                      lambda v: active_rank(H2, v),
                      lambda v: is_minimal(H2, v), type_of, support,
                      mod2_reduce, awgnc_pw, bsc_pw, bec_pw, bound_cor4,
                      lambda v: bound_lemma2(v, 1),
                      lambda v: max_alpha(H2, v, {0})):
                with pytest.raises(error):
                    f(make())
            with pytest.raises(ValueError):
                PseudoCodeword(make())


def _dense_reference(H, omega):
    """Every row of cone_constraints(H), in order, dotted with omega in
    Fractions: (first violated label, None) or (None, rank of the tight
    rows by integer_rank, itself checked against Fraction elimination)."""
    x = [Fraction(v) for v in omega]
    tight = []
    for label, row in cone_constraints(H).items():
        value = sum(a * x[k] for k, a in row.items())
        if value < 0:
            return label, None
        if value == 0:
            tight.append(row)
    return None, integer_rank(tight)


def _random_vector(rng, n, pool, kind):
    if kind == 0:
        return [rng.choice((0, 0, 1, 2, 3)) for _ in range(n)]
    if kind == 1:
        return [Fraction(rng.choice((0, 0, 1, 2, 5)), rng.randint(1, 3))
                for _ in range(n)]
    if kind == 4:
        vec = [rng.randint(1, 3) for _ in range(n)]
        vec[rng.randrange(n)] = -rng.randint(1, 2)
        return vec
    vec = [0] * n
    for _ in range(rng.randint(1, 3)):
        c = rng.randint(1, 3) if kind == 2 else Fraction(rng.randint(1, 6),
                                                         rng.randint(1, 4))
        vec = [a + c * b for a, b in zip(vec, rng.choice(pool))]
    return vec


def test_label_scan_matches_dense_reference(H2, H4, fixture_h, codewords2,
                                            codewords4):
    rng = random.Random(29)
    seen = {"member": 0, "cone": 0, "nonneg": 0}
    for H, pool in ((H2, codewords2), (H4, codewords4),
                    (fixture_h, [(1, 1, 0), (0, 1, 1), (1, 0, 1)])):
        for k in range(100):
            vec = _random_vector(rng, H.n_cols, pool, k % 5)
            label, rank = _dense_reference(H, vec)
            assert is_member(H, vec) == (label is None, label), vec
            if label is None:
                seen["member"] += 1
                assert active_rank(H, vec) == rank, vec
            else:
                seen[label[0]] += 1
                with pytest.raises(NotInCone):
                    active_rank(H, vec)
    assert min(seen.values()) >= 10, seen


def test_active_rank_matches_every_tight_row(H2, H4, rays2, codewords2,
                                             codewords4):
    # A check meeting the support in two points has two tight rows, one
    # the negative of the other; active_rank ranks one of them.
    rays4 = enumerate_rays(H4, budget=Budget(max_rays=800))
    rng = random.Random(3003)
    cases = [(H2, r.canonical) for r in rays2]
    cases += [(H4, r.canonical) for r in rays4]
    for H, pool in ((H2, codewords2), (H4, codewords4)):
        cases += [(H, _random_vector(rng, H.n_cols, pool, 2 + k % 2))
                  for k in range(100)]
    paired = 0
    for H, vec in cases:
        label, rank = _dense_reference(H, vec)
        assert label is None and active_rank(H, vec) == rank, vec
        on = {i for i, v in enumerate(vec) if v}
        paired += any(len(on.intersection(row)) == 2 for row in H.rows)
    assert len(cases) == 14 + 19 + 200 and paired >= 150
