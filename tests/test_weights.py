"""Pseudo-weight calculators and the AWGNC lower-bound family."""

import random
from fractions import Fraction

import pytest

from pgcone.cone import (PseudoCodeword, TypeVector, is_member, is_minimal,
                         type_of)
from pgcone.errors import BadM, ZeroEta, ZeroVector
from pgcone.weights import (awgnc_pw, bec_pw, beta_coefficient, bound_cor3,
                            bound_cor4, bound_generalized, bound_lemma1,
                            bound_lemma2, bound_thm5, bsc_pw, conjectured_wp,
                            generalized_applicable, pw_from_type,
                            thm5_applicable)

VEC_43 = [1, 1, 1, 1, 2, 2, 2]  # type t_1=4, t_2=3


def test_awgnc_basics():
    assert awgnc_pw([0, 0, 0]) == 0
    assert awgnc_pw(VEC_43) == Fraction(25, 4)
    assert awgnc_pw([1, 1, 1, 1]) == 4


def test_awgnc_negative_entry_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        awgnc_pw([1, -1])


@pytest.mark.parametrize("vec", [[-1, 0, 0], [2, -1], [1, 3, Fraction(-1, 2)]])
def test_bsc_and_cor4_negative_entry_rejected(vec):
    # bsc_pw([-1, 0, 0]) once read -1 and bound_cor4([-1, 2]) -16.
    with pytest.raises(ValueError, match="nonnegative"):
        bsc_pw(vec)
    with pytest.raises(ValueError, match="nonnegative"):
        bound_cor4(vec)


@pytest.mark.parametrize("vec", [[-1, 2, 0], [-1, 1, 0], [2, -1],
                                 [1, 3, Fraction(-1, 2)], ["1/3", "-1/5"]])
def test_every_vector_weight_rejects_negative_entries(vec):
    # bound_lemma2([-1, 2, 0], 1) once read -3 and bec_pw([-1, 1, 0]) 2.
    for call in (awgnc_pw, bec_pw, bsc_pw, bound_cor4,
                 lambda v: bound_lemma2(v, 1)):
        with pytest.raises(ValueError, match="entries must be nonnegative"):
            call(vec)


def _lemma2_by_fractions(vec, eta):
    """bound_lemma2's value and equality, entry by entry in Fraction."""
    one = sum(vec, Fraction(0))
    two = sum((x * x for x in vec), Fraction(0))
    value = (2 * eta * one - two) / (eta * eta)
    return value, (one == 0 or eta == two / one)


def test_integer_norms_match_the_fraction_formulas():
    # Seeded vectors with mixed denominators, given as ints, strings,
    # Fractions or a PseudoCodeword, the zero vector among them, each also
    # under a positive rescaling; the norms must give exactly what the
    # Fraction formulas give.
    rng = random.Random(20)
    forms = (lambda v: [int(x) if x.denominator == 1 else x for x in v],
             lambda v: [f"{x.numerator}/{x.denominator}" for x in v],
             list, PseudoCodeword)
    checked = zeros = 0
    for k in range(240):
        n = rng.randint(1, 12)
        if k % 40 == 0:
            vec = [Fraction(0)] * n
        else:
            dens = (1, 1, 2, 3, 4, 7, 12)
            vec = [Fraction(rng.randint(0, 9), rng.choice(dens))
                   if rng.random() < 0.8 else Fraction(0) for _ in range(n)]
        c = Fraction(rng.randint(1, 30), rng.randint(1, 30))
        for v in (vec, [c * x for x in vec]):
            one = sum(v, Fraction(0))
            two = sum((x * x for x in v), Fraction(0))
            etas = [Fraction(1), Fraction(4, 3), Fraction(2), Fraction(3)]
            if one:
                etas.append(two / one)
            for form in forms:
                omega = form(v)
                pw = awgnc_pw(omega)
                assert type(pw) is Fraction
                assert pw == (one * one / two if one else 0), (omega, pw)
                for eta in etas:
                    rep = bound_lemma2(omega, eta)
                    assert type(rep.value) is Fraction
                    assert (rep.value, rep.equality) == \
                        _lemma2_by_fractions(v, eta), (omega, eta)
                if one:
                    assert bound_lemma2(omega, etas[-1]).equality
                    assert bound_lemma2(omega, etas[-1]).value == pw
            checked += 1
            zeros += not one
    assert checked >= 400 and zeros >= 10


def test_awgnc_q4_value():
    vec = [1] * 6 + [2] * 5 + [0] * 10
    assert awgnc_pw(vec) == Fraction(128, 13)


def test_bec():
    assert bec_pw([0, 0]) == 0
    assert bec_pw([1, 0, 2, Fraction(1, 3)]) == 3
    assert bec_pw([1] * 4 + [0] * 3) == 4


def test_bsc_values():
    assert bsc_pw([2] + [1] * 12) == 12
    assert bsc_pw([1, 1, 1, 1, 0, 0, 0]) == 4
    assert bsc_pw([1, 0, 0]) == 1
    assert bsc_pw(VEC_43) == 5


def test_bsc_zero_rejected():
    with pytest.raises(ZeroVector):
        bsc_pw([0, 0])


def test_bsc_flip_count_consistency():
    # ceil(w/2) equals the least k of largest entries reaching half mass.
    rng = random.Random(2)
    for _ in range(50):
        vec = [rng.randint(0, 4) for _ in range(9)]
        if not any(vec):
            continue
        w = bsc_pw(vec)
        entries = sorted((x for x in vec if x), reverse=True)
        half = Fraction(sum(entries), 2)
        acc, e = 0, 0
        for x in entries:
            acc += x
            e += 1
            if acc >= half:
                break
        assert (w + 1) // 2 == e


def test_scale_invariance():
    rng = random.Random(4)
    for _ in range(20):
        vec = [Fraction(rng.randint(0, 5), rng.randint(1, 4))
               for _ in range(8)]
        if not any(vec):
            continue
        c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        scaled = [c * x for x in vec]
        assert awgnc_pw(vec) == awgnc_pw(scaled)
        assert bec_pw(vec) == bec_pw(scaled)
        assert bsc_pw(vec) == bsc_pw(scaled)


def test_pw_from_type_agrees_with_direct():
    rng = random.Random(6)
    for _ in range(30):
        vec = [rng.randint(0, 3) for _ in range(10)]
        t = type_of(vec)
        assert pw_from_type(t, "AWGNC") == awgnc_pw(vec)
        assert pw_from_type(t, "BEC") == bec_pw(vec)
        if any(vec):
            assert pw_from_type(t, "BSC") == bsc_pw(vec)


def test_pw_from_type_examples():
    assert pw_from_type(TypeVector({1: 4, 2: 3}, 7), "AWGNC") == Fraction(25, 4)
    assert pw_from_type(TypeVector({1: 5}, 9), "AWGNC") == 5
    assert pw_from_type(TypeVector({1: 8, 2: 5}, 21), "BEC") == 13


def test_pw_from_type_unknown_kind():
    with pytest.raises(ValueError, match="unknown channel kind 'BIAWGN'"):
        pw_from_type(TypeVector({1: 4, 2: 3}, 7), "BIAWGN")


def test_lemma1():
    rep = bound_lemma1(TypeVector({1: 4, 2: 3}, 7))
    assert rep.applicable and rep.value == 6
    uniform = bound_lemma1(TypeVector({2: 5}, 7))
    assert uniform.value == 5
    bad = bound_lemma1(TypeVector({3: 1}, 7))
    assert not bad.applicable and bad.reason


def test_lemma2():
    rep = bound_lemma2(VEC_43, 2)
    assert rep.value == 6 and not rep.equality
    star = Fraction(16, 10)
    rep = bound_lemma2(VEC_43, star)
    assert rep.value == Fraction(25, 4) and rep.equality
    assert bound_lemma2([0, 0], 3).value == 0
    with pytest.raises(ZeroEta):
        bound_lemma2(VEC_43, 0)


def test_lemma2_maximized_at_eta_star():
    rng = random.Random(9)
    for _ in range(20):
        vec = [rng.randint(0, 4) for _ in range(8)]
        if not any(vec):
            continue
        star = Fraction(sum(x * x for x in vec), sum(vec))
        best = bound_lemma2(vec, star).value
        assert best == awgnc_pw(vec)
        for delta in (Fraction(-1, 10), Fraction(1, 10)):
            if star + delta != 0:
                assert bound_lemma2(vec, star + delta).value <= best


def test_cor3_betas():
    rep = bound_cor3(TypeVector({1: 4, 2: 3}, 7), Fraction(4, 3))
    assert rep.parameters["beta"][1] == Fraction(15, 16)
    assert rep.parameters["beta"][2] == Fraction(12, 16)
    rep2 = bound_cor3(TypeVector({1: 4, 2: 3}, 7), 2)
    assert rep2.parameters["beta"][1] == Fraction(3, 4)
    assert rep2.parameters["beta"][2] == 1
    assert beta_coefficient(0, 2) == 0
    with pytest.raises(ZeroEta):
        bound_cor3(TypeVector({1: 1}, 3), 0)
    # beta_coefficient(-1, 2) once read -5/4; like every weights input
    # with a negative entry it is now a ValueError.
    with pytest.raises(ValueError, match="entries must be nonnegative"):
        beta_coefficient(-1, 2)


def test_cor3_matches_lemma2():
    # Cor. 3 is Lemma 2 on the type's vector, each beta_l is Lemma 2 on
    # the one-entry vector (l), and Lemma 1 is Cor. 3 at its better of
    # eta = 4/3 and eta = 2.
    rng = random.Random(13)
    for _ in range(20):
        vec = [rng.randint(0, 3) for _ in range(9)]
        eta = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        rep = bound_cor3(type_of(vec), eta)
        assert rep.value == bound_lemma2(vec, eta).value
        for l, beta in rep.parameters["beta"].items():
            assert beta == beta_coefficient(l, eta) == \
                bound_lemma2([l], eta).value
    for _ in range(40):
        vec = [rng.randint(0, 2) for _ in range(rng.randint(1, 12))]
        t = type_of(vec)
        assert bound_lemma1(t).value == max(
            bound_cor3(t, Fraction(4, 3)).value, bound_cor3(t, 2).value)
    for l in (0, 1, 2, 3, Fraction(1, 2), Fraction(5, 3)):
        for eta in (Fraction(4, 3), 2, Fraction(-1, 2), 3):
            assert beta_coefficient(l, eta) == bound_lemma2([l], eta).value


def test_cor3_lemma1_and_pw_from_type_on_fractional_types():
    # Seeded vectors whose values have mixed denominators, and vectors on
    # {0, 1, 2} given in other forms; the type's norms must give what the
    # vector's give, beta by beta.
    rng = random.Random(27)
    dens = (1, 2, 3, 4, 6, 7)
    seen = {"m > 1": 0, "Lemma1": 0}
    for k in range(120):
        n = rng.randint(1, 12)
        if k % 3:
            vec = [Fraction(rng.randint(0, 9), rng.choice(dens))
                   for _ in range(n)]
        else:
            vec = [rng.choice((0, 1, 2, "1", 2.0, Fraction(2)))
                   for _ in range(n)]
        t = type_of(vec)
        seen["m > 1"] += any(v.denominator > 1 for v in t.counts)
        assert pw_from_type(t, "AWGNC") == awgnc_pw(vec)
        etas = (Fraction(4, 3), 2, Fraction(-1, 2), "3/2",
                Fraction(rng.randint(1, 9), rng.randint(1, 5)))
        for eta in etas:
            rep = bound_cor3(t, eta)
            assert type(rep.value) is Fraction
            assert rep.value == bound_lemma2(vec, eta).value, (vec, eta)
            assert set(rep.parameters["beta"]) == set(t.counts)
            for l, beta in rep.parameters["beta"].items():
                assert type(beta) is Fraction
                assert beta == beta_coefficient(l, eta) == \
                    bound_lemma2([l], eta).value, (l, eta)
        lemma1 = bound_lemma1(t)
        if set(t.counts) <= {1, 2}:
            seen["Lemma1"] += 1
            assert lemma1.applicable and lemma1.value == max(
                bound_cor3(t, Fraction(4, 3)).value, bound_cor3(t, 2).value)
        else:
            assert not lemma1.applicable
    assert min(seen.values()) >= 30, seen


def test_cor4():
    rep = bound_cor4([1, 1, 0, 1])
    assert rep.value == 3
    rep = bound_cor4(VEC_43)
    assert rep.parameters["r"] == 2
    assert rep.value == Fraction(56, 9)
    assert beta_coefficient(3, 2) == Fraction(3, 4)
    with pytest.raises(ZeroVector):
        bound_cor4([0, 0])


def test_thm5():
    assert bound_thm5(2) == Fraction(16, 3)
    assert bound_thm5(4) == 8
    t = TypeVector({1: 4, 2: 3}, 7)
    assert thm5_applicable(t, 2)
    assert not thm5_applicable(TypeVector({1: 3, 2: 3}, 7), 2)
    assert not thm5_applicable(TypeVector({1: 5, 3: 1}, 7), 2)
    assert awgnc_pw(VEC_43) >= bound_thm5(2)


def test_generalized():
    assert bound_generalized(2, 2) == bound_thm5(2)
    assert bound_generalized(4, 3) == Fraction(54, 7)
    with pytest.raises(BadM):
        bound_generalized(4, 1)
    t = TypeVector({1: 6, 3: 1}, 21)
    assert generalized_applicable(t, 4, 3)
    assert not generalized_applicable(TypeVector({1: 6}, 21), 4, 3)
    assert not generalized_applicable(
        TypeVector({Fraction(1, 2): 7, 2: 1}, 21), 4, 2)
    # Mass at odd values other than 1 does not qualify: a tripled minimum
    # codeword (t_3 = q+2) must stay out of scope, its weight is only q+2.
    assert not generalized_applicable(TypeVector({3: 4}, 7), 2, 3)
    assert not generalized_applicable(TypeVector({1: 2, 3: 4}, 21), 4, 3)


def test_generalized_m_is_a_whole_number():
    # 5/2 is no m of the theorem (the bound read 150/19 for it), and 3.0
    # is 3 (the bound raised TypeError for a float).
    t = TypeVector({1: 6, 3: 1}, 21)
    for call in (lambda m: bound_generalized(4, m),
                 lambda m: generalized_applicable(t, 4, m)):
        for m, text in ((Fraction(5, 2), "5/2"), (2.5, "2.5")):
            with pytest.raises(BadM, match="^m must be a whole number, "
                                           f"got {text}$"):
                call(m)
        assert call(3.0) == call(Fraction(6, 2)) == call(3)
    with pytest.raises(BadM, match="^m must be at least 2$"):
        generalized_applicable(t, 4, 1.0)


def test_thm5_is_the_generalized_pair_at_m2():
    # Seeded types with values drawn from {1/2, 1, 2, 3}, so every clause
    # of the hypothesis (values in {1, 2}, t_1 >= q + 2, t_2 >= 1) is
    # met and missed.
    rng = random.Random(13)
    values = (Fraction(1, 2), 1, 2, 3)
    seen = {True: 0, False: 0}
    for _ in range(500):
        q = rng.choice((2, 4, 8))
        counts = {v: rng.randint(0, q + 4) for v in values
                  if rng.random() < (0.9 if v in (1, 2) else 0.15)}
        t = TypeVector(counts, sum(counts.values()) + rng.randint(0, 3))
        applicable = thm5_applicable(t, q)
        assert applicable == generalized_applicable(t, q, 2), (t, q)
        # The hypothesis as Theorem 5 states it.
        assert applicable == (set(t.counts) <= {1, 2} and t.get(1) >= q + 2
                              and t.get(2) >= 1), (t, q)
        seen[applicable] += 1
    assert min(seen.values()) >= 50, seen
    for q in (2, 4, 8, 16):
        assert bound_thm5(q) == bound_generalized(q, 2)


def test_bounds_reject_q_that_is_not_a_power_of_two():
    t = TypeVector({1: 4, 2: 3}, 7)
    for q in (0, 1, 3, 6, -2):
        for call in (lambda: conjectured_wp(q), lambda: bound_thm5(q),
                     lambda: thm5_applicable(t, q),
                     lambda: bound_generalized(q, 3),
                     lambda: generalized_applicable(t, q, 3)):
            with pytest.raises(ValueError, match="power of two, q >= 2"):
                call()


def test_conjectured_wp():
    assert conjectured_wp(2) == Fraction(25, 4)
    assert conjectured_wp(4) == Fraction(128, 13)
    for q in (2, 4, 8, 16):
        assert conjectured_wp(q) >= bound_thm5(q)
        s = q.bit_length() - 1
        t = TypeVector({1: q + 2, 2: q // 2 + s + 1}, q * q + q + 1)
        assert pw_from_type(t, "AWGNC") == conjectured_wp(q)
    with pytest.raises(ValueError):
        conjectured_wp(6)


def test_pseudo_weights_invariant_under_positive_scaling(rays2, codewords4):
    rng = random.Random(12)
    for pool in ([r.canonical for r in rays2], codewords4):
        for _ in range(60):
            vec = [Fraction(0)] * len(pool[0])
            for _ in range(rng.randint(1, 4)):
                c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
                w = pool[rng.randrange(len(pool))]
                vec = [a + c * b for a, b in zip(vec, w)]
            c = Fraction(rng.randint(1, 50), rng.randint(1, 50))
            scaled = [c * x for x in vec]
            assert awgnc_pw(scaled) == awgnc_pw(vec)
            assert bsc_pw(scaled) == bsc_pw(vec)
            assert bec_pw(scaled) == bec_pw(vec)


def test_q4_minimal_pcw_below_the_conjectured_family(H4):
    """A q = 4 minimal pseudo-codeword of support 11 whose AWGNC
    pseudo-weight 49/5 lies below conjectured_wp(4) = 128/13, and above
    every applicable lower bound."""
    omega = [2, 1, 2, 1, 1, 1, 1, 1, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 0, 0]
    assert is_member(H4, omega)[0] and is_minimal(H4, omega)
    t = type_of(omega)
    assert (t.get(1), t.get(2), t.values()) == (8, 3, [1, 2])
    assert awgnc_pw(omega) == Fraction(49, 5)
    assert bsc_pw(omega) == 8
    assert bec_pw(omega) == 11
    assert bound_lemma1(t).value == Fraction(39, 4)
    assert bound_cor4(omega).value == Fraction(88, 9)
    assert thm5_applicable(t, 4) and bound_thm5(4) == 8
    assert awgnc_pw(omega) < conjectured_wp(4) == Fraction(128, 13)
