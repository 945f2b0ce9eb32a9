"""Arithmetic in GF(2^s) via log/antilog tables, plus the trace of GF(q^3)
over GF(q), computed in GF(q^3) alone, whose zeros among the powers of the
generator form the Singer difference set of PG(2, q)."""

from .errors import FieldMismatch, RejectedPolynomial

# Built-in primitive polynomials, bit i = coefficient of x^i.
PRIMITIVE_POLYS = {
    1: 0b11,             # x + 1 (GF(2) sentinel)
    2: 0b111,            # x^2 + x + 1
    3: 0b1011,           # x^3 + x + 1
    4: 0b10011,          # x^4 + x + 1
    5: 0b100101,         # x^5 + x^2 + 1
    6: 0b1000011,        # x^6 + x + 1
    7: 0b10000011,       # x^7 + x + 1
    8: 0b100011101,      # x^8 + x^4 + x^3 + x^2 + 1
    9: 0b1000010001,     # x^9 + x^4 + 1
    10: 0b10000001001,   # x^10 + x^3 + 1
    11: 0b100000000101,  # x^11 + x^2 + 1
    12: 0b1000001010011, # x^12 + x^6 + x^4 + x + 1
}


class Field:
    """GF(2^s) with multiplication through exp/log tables.

    Elements are integers in [0, q) whose bits are polynomial coefficients.
    The polynomial is verified primitive at construction: x must have
    multiplicative order exactly q - 1, which also forces irreducibility.
    """

    def __init__(self, s, primitive_poly=None):
        if s < 1:
            raise ValueError("s must be a positive integer")
        if primitive_poly is None:
            try:
                primitive_poly = PRIMITIVE_POLYS[s]
            except KeyError:
                raise RejectedPolynomial(
                    f"no built-in primitive polynomial for s={s}") from None
        if primitive_poly >> s != 1:
            raise RejectedPolynomial(
                f"polynomial 0b{primitive_poly:b} does not have degree {s}")
        self.s = s
        self.q = 1 << s
        self.primitive_poly = primitive_poly
        self._build_tables()

    def _build_tables(self):
        q = self.q
        exp = [0] * q
        log = [-1] * q
        x = 1
        for i in range(q - 1):
            if log[x] != -1:
                raise RejectedPolynomial(
                    f"0b{self.primitive_poly:b} is not primitive: "
                    f"x has order {i}")
            exp[i] = x
            log[x] = i
            x <<= 1
            if x & q:
                x ^= self.primitive_poly
        if x != 1:
            raise RejectedPolynomial(
                f"0b{self.primitive_poly:b} is not primitive over GF(2)")
        self.exp_table = exp
        self.log_table = log

    def _check(self, *elems):
        for a in elems:
            if not 0 <= a < self.q:
                raise FieldMismatch(f"{a} is not an element of GF({self.q})")

    def add(self, a, b):
        self._check(a, b)
        return a ^ b

    def mul(self, a, b):
        self._check(a, b)
        if a == 0 or b == 0:
            return 0
        return self.exp_table[(self.log_table[a] + self.log_table[b]) % (self.q - 1)]

    def inv(self, a):
        self._check(a)
        if a == 0:
            raise ZeroDivisionError("inv(0) in GF(2^s)")
        return self.exp_table[(-self.log_table[a]) % (self.q - 1)]

    def pow(self, a, k):
        self._check(a)
        if a == 0:
            if k == 0:
                return 1
            if k < 0:
                raise ZeroDivisionError("0 to a negative power")
            return 0
        return self.exp_table[(self.log_table[a] * k) % (self.q - 1)]

    def __repr__(self):
        return f"Field(s={self.s}, poly=0b{self.primitive_poly:b})"


def field_new(s):
    """Construct GF(2^s) on its built-in primitive polynomial."""
    if not 1 <= s <= 12:
        raise ValueError("supported range is 1 <= s <= 12")
    return Field(s)


def trace(big: Field, a):
    """Trace a + a^q + a^{q^2} of GF(q^3) = big, q = 2^(big.s / 3), as an
    element of big; it lies in the subfield GF(q) = {x : x^q = x}."""
    if big.s % 3:
        raise FieldMismatch(f"GF({big.q}) is not a cubic extension")
    q = 1 << big.s // 3
    return a ^ big.pow(a, q) ^ big.pow(a, q * q)
