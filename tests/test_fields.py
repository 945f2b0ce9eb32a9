"""GF(2^s) arithmetic, primitivity checking and the GF(q^3)/GF(q) trace."""

import random

import pytest

from pgcone.errors import FieldMismatch, RejectedPolynomial
from pgcone.fields import Field, field_new, trace


def test_gf2_identity():
    f = field_new(1)
    assert f.q == 2
    assert f.mul(1, 1) == 1
    assert f.add(1, 1) == 0


def test_gf4_generator_relation():
    # alpha^2 = alpha + 1 under x^2 + x + 1.
    f = field_new(2)
    assert f.mul(2, 2) == 3
    assert f.mul(3, 3) == 2  # (alpha+1)^2 = alpha
    assert f.add(3, 3) == 0


def test_gf8_generator_order():
    f = field_new(3)
    assert f.pow(2, 7) == 1
    assert all(f.pow(2, k) != 1 for k in range(1, 7))


def test_inverse_identity():
    f = field_new(3)
    assert f.inv(1) == 1
    for a in range(1, f.q):
        assert f.mul(a, f.inv(a)) == 1


def test_inv_zero_raises():
    f = field_new(2)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_reducible_polynomial_rejected():
    # x^2 + 1 = (x+1)^2 over GF(2).
    with pytest.raises(RejectedPolynomial):
        Field(2, 0b101)


def test_irreducible_non_primitive_rejected():
    # x^4 + x^3 + x^2 + x + 1 is irreducible but x has order 5, not 15.
    with pytest.raises(RejectedPolynomial):
        Field(4, 0b11111)


def test_wrong_degree_rejected():
    with pytest.raises(RejectedPolynomial):
        Field(3, 0b111)


def test_out_of_range_s():
    with pytest.raises(ValueError):
        field_new(0)
    with pytest.raises(ValueError):
        field_new(13)


def test_element_range_check():
    f = field_new(2)
    with pytest.raises(FieldMismatch):
        f.add(4, 0)


def test_field_axioms_randomized():
    rng = random.Random(7)
    for s in (2, 3, 4):
        f = field_new(s)
        for _ in range(50):
            a, b, c = (rng.randrange(f.q) for _ in range(3))
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
            assert f.add(a, f.add(b, c)) == f.add(f.add(a, b), c)
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
            assert f.add(a, a) == 0


def test_trace_zero_and_one():
    # GF(8)/GF(2): trace(0) = 0, trace(alpha) = 0, trace(1) = 1.
    big = field_new(3)
    assert trace(big, 0) == 0
    assert trace(big, 2) == 0
    assert trace(big, 1) == 1


def test_trace_lands_in_the_subfield():
    # GF(q) inside GF(q^3) is {x : x^q = x}.
    for s in (1, 2):
        big, q = field_new(3 * s), 2 ** s
        for a in range(big.q):
            t = trace(big, a)
            assert big.pow(t, q) == t


def test_trace_frobenius_invariance():
    for s in (1, 2):
        big, q = field_new(3 * s), 2 ** s
        for a in range(big.q):
            assert trace(big, a) == trace(big, big.pow(a, q))


def test_trace_kernel_size():
    # The trace kernel is a 2-dimensional GF(q)-subspace: q^2 elements.
    for s in (1, 2):
        big = field_new(3 * s)
        kernel = sum(1 for a in range(big.q) if trace(big, a) == 0)
        assert kernel == (2 ** s) ** 2


def test_trace_additivity():
    big = field_new(6)
    rng = random.Random(11)
    for _ in range(50):
        a, b = rng.randrange(big.q), rng.randrange(big.q)
        assert trace(big, big.add(a, b)) == \
            big.add(trace(big, a), trace(big, b))


def test_trace_wrong_field_rejected():
    with pytest.raises(FieldMismatch):
        trace(field_new(4), 1)


def test_every_supported_s_has_a_builtin_polynomial():
    for s in range(1, 13):
        assert field_new(s).q == 2 ** s
