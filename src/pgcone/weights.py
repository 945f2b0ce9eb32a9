"""Channel pseudo-weights (AWGNC, BSC, BEC) and the exact-rational AWGNC
lower bounds, each one Lemma 2 formula on the integer norms of a vector,
of a type or of a one-entry vector."""

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .cone import TypeVector, _dot, _exact, _ints
from .errors import BadM, ZeroEta, ZeroVector


def _scaled(omega):
    """The ints x = m omega and their scale m > 0, the lcm of the entries'
    denominators (``cone._ints``). Every pseudo-weight and vector bound
    reads omega through here; ValueError for a negative entry."""
    x, m = _ints(omega)
    if x and min(x) < 0:
        raise ValueError("entries must be nonnegative")
    return x, m


def _norms(omega):
    """(s1, s2, m) with s1 = m ||omega||_1 and s2 = m^2 ||omega||_2^2."""
    x, m = _scaled(omega)
    return sum(x), _dot(x, x), m


def _type_norms(t: TypeVector):
    """The norms (s1, s2, m) of the type's vector, read off its counts: m
    is the lcm of the values' denominators, u_k = k m, s1 = sum u_k t_k
    and s2 = sum u_k^2 t_k."""
    m = lcm(*[k.denominator for k in t.counts])
    s1 = s2 = 0
    for k, c in t.counts.items():
        u = k.numerator * (m // k.denominator)
        s1 += u * c
        s2 += u * u * c
    return s1, s2, m


def awgnc_pw(omega) -> Fraction:
    """||omega||_1^2 / ||omega||_2^2, and 0 for the zero vector."""
    s1, s2, _ = _norms(omega)
    return Fraction(s1 * s1, s2) if s1 else Fraction(0)


def bec_pw(omega) -> int:
    """Support size."""
    x, _ = _scaled(omega)
    return len(x) - x.count(0)


def bsc_pw(omega) -> int:
    """Median-mass rule: with e the least number of largest entries covering
    half the total mass, the weight is 2e on an exact tie and 2e - 1 on a
    strict overshoot (the same on any positive multiple of omega)."""
    vec = sorted((v for v in _scaled(omega)[0] if v), reverse=True)
    if not vec:
        raise ZeroVector("BSC pseudo-weight of the zero vector is undefined")
    total = sum(vec)
    acc = e = 0
    while 2 * acc < total:
        acc += vec[e]
        e += 1
    return 2 * e if 2 * acc == total else 2 * e - 1


def _channel(kind):
    """Pseudo-weight function of a channel kind (AWGNC, BSC, BEC, any case),
    looked up at each call, so a wrapper later bound to its name is used."""
    calc = {"AWGNC": awgnc_pw, "BSC": bsc_pw, "BEC": bec_pw}.get(kind.upper())
    if calc is None:
        raise ValueError(f"unknown channel kind {kind!r}")
    return calc


def pw_from_type(t: TypeVector, kind: str):
    """Pseudo-weight from a type vector alone: that of a vector with t_k
    entries equal to each nonzero value k (zeros change no pseudo-weight);
    kind in {AWGNC, BSC, BEC}."""
    return _channel(kind)([k for k, v in t.counts.items() for _ in range(v)])


@dataclass
class BoundReport:
    bound_name: str
    value: Fraction
    applicable: bool = True
    reason: str = ""
    parameters: dict = field(default_factory=dict)
    equality: bool = False


def bound_lemma1(t: TypeVector) -> BoundReport:
    """Cor. 3 at the better of eta = 4/3 and 2; needs values in {0,1,2}."""
    if any(k not in (1, 2) for k in t.counts):
        return BoundReport("Lemma1", Fraction(0), applicable=False,
                           reason="type has components outside {0, 1, 2}")
    norms = _type_norms(t)
    value = max(_lemma2(*norms, eta) for eta in (Fraction(4, 3), 2))
    return BoundReport("Lemma1", value,
                       parameters={"t1": t.get(1), "t2": t.get(2)})


def _eta(eta):
    """eta coerced once (``cone._exact``: an int or Fraction as it is);
    ZeroEta for zero."""
    eta = _exact(eta)
    if eta == 0:
        raise ZeroEta("eta must be nonzero")
    return eta


def _lemma2(s1, s2, m, eta):
    """The one AWGNC lower bound formula, on the norms (s1, s2, m) of
    x = m omega: with eta = a/b (b > 0), b (2 a m s1 - b s2) / (a m)^2,
    tight when a m s1 = b s2."""
    a, b = eta.numerator, eta.denominator
    return Fraction(b * (2 * a * m * s1 - b * s2), (a * m) ** 2)


def bound_lemma2(omega, eta) -> BoundReport:
    """(2 eta ||omega||_1 - ||omega||_2^2) / eta^2, tight at
    eta = ||omega||_2^2 / ||omega||_1."""
    eta = _eta(eta)
    s1, s2, m = _norms(omega)
    equality = s1 == 0 or eta.numerator * m * s1 == eta.denominator * s2
    return BoundReport("Lemma2", _lemma2(s1, s2, m, eta),
                       parameters={"eta": eta}, equality=equality)


def bound_cor3(t: TypeVector, eta) -> BoundReport:
    """Lemma 2 on the type's vector: the sum of beta_l t_l, where
    beta_l = l(2 eta - l)/eta^2 is Lemma 2 on the one-entry vector (l),
    whose norms are (u, u^2, m) for l = u/m in lowest terms."""
    eta = _eta(eta)
    betas = {k: _lemma2(k.numerator, k.numerator ** 2, k.denominator, eta)
             for k in t.counts}
    return BoundReport("Cor3", _lemma2(*_type_norms(t), eta),
                       parameters={"eta": eta, "beta": betas})


def beta_coefficient(value, eta) -> Fraction:
    """Lemma 2 on the one-entry vector (value): value(2 eta - value)/eta^2."""
    eta = _eta(eta)
    return _lemma2(*_norms([value]), eta)


def bound_cor4(omega) -> BoundReport:
    """4r/(r+1)^2 times the support size, r the max/min positive entry
    ratio: 4 hi lo |supp| / (hi + lo)^2 on the ints of omega."""
    vec = [v for v in _scaled(omega)[0] if v]
    if not vec:
        raise ZeroVector("Cor4 requires a nonzero vector")
    hi, lo = max(vec), min(vec)
    value = Fraction(4 * hi * lo * len(vec), (hi + lo) ** 2)
    return BoundReport("Cor4", value,
                       parameters={"r": Fraction(hi, lo), "supp": len(vec)})


def _log2(q):
    """s with q = 2^s; ValueError unless q is a power of two, q >= 2."""
    if q < 2 or q & (q - 1):
        raise ValueError(f"q must be a power of two, q >= 2, got {q}")
    return q.bit_length() - 1


def _qm(q, m):
    """m as an int after ``_log2(q)``; BadM unless m is a whole number >= 2."""
    _log2(q)
    if type(m) is not int:
        if (f := Fraction(m)).denominator != 1:
            raise BadM(f"m must be a whole number, got {m}")
        m = f.numerator
    if m < 2:
        raise BadM("m must be at least 2")
    return m


def thm5_applicable(t: TypeVector, q) -> bool:
    """Only values {0,1,2}, t_1 >= q+2 and t_2 >= 1: the m = 2 case."""
    return generalized_applicable(t, q, 2)


def bound_thm5(q) -> Fraction:
    """4(q+2)/3: the m = 2 case of bound_generalized."""
    return bound_generalized(q, 2)


def generalized_applicable(t: TypeVector, q, m) -> bool:
    """Values are integers in {0..m}, t_m > 0 and t_1 >= q+2.

    The unit-valued mass requirement (rather than total odd-valued mass) is
    what the bound's proof actually consumes; counting mass at other odd
    values would admit scaled codewords that violate the bound.
    """
    m = _qm(q, m)
    for k in t.counts:
        if k.denominator != 1 or not 1 <= k <= m:
            return False
    if t.get(m) == 0:
        return False
    return t.get(1) >= q + 2


def bound_generalized(q, m) -> Fraction:
    m = _qm(q, m)
    return Fraction(m * m * (q + 2), m * m - m + 1)


def conjectured_wp(q) -> Fraction:
    """AWGNC pseudo-weight of the conjectured type t_1 = q+2,
    t_2 = q/2 + s + 1, s = log2(q)."""
    t1, t2 = q + 2, q // 2 + _log2(q) + 1
    return awgnc_pw([1] * t1 + [2] * t2)
