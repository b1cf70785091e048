"""Field arithmetic over the Gaussian rationals."""

import operator
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from racahlab.gaussian import GaussianRational, I, ONE, ZERO, gaussian_sqrt, gr, rational_sqrt

rationals = st.builds(
    Fraction,
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=1, max_value=12),
)
scalars = st.builds(GaussianRational, rationals, rationals)


def test_parse_and_token_roundtrip():
    for text in ("5/16", "-3/16", "0/1", "1/2+3/4*i", "1/2-3/4*i", "-2/3+1/1*i"):
        value = GaussianRational.parse(text)
        assert GaussianRational.parse(value.token()) == value


def test_token_canonical_forms():
    assert gr(Fraction(5, 16)).token() == "5/16"
    assert GaussianRational(Fraction(1, 2), Fraction(-1, 3)).token() == "1/2-1/3*i"
    assert ZERO.token() == "0/1"


def test_parse_rejects_floats_and_junk():
    # digits of other scripts are not ASCII digits: '\u0663' is ARABIC-INDIC THREE
    for bad in ("0.5", "1/2+i", "", "i", "1/2 + 1/2*i", "\u0663", "1/\u0663", "1+\u0661/2*i", "1_0"):
        with pytest.raises(ValueError):
            GaussianRational.parse(bad)


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_complex_division():
    # (1+i)/(1-i) = i, checked by hand: (1+i)^2 / 2 = 2i/2.
    assert (ONE + I) / (ONE - I) == I


def test_powers_and_inverse():
    x = GaussianRational(Fraction(2, 3), Fraction(-1, 5))
    assert x**0 == ONE
    assert x**3 == x * x * x
    assert x**-2 == ONE / (x * x)


@given(scalars, scalars, scalars)
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    if b:
        assert (a / b) * b == a


@given(scalars)
def test_conjugate_norm(a):
    assert a * a.conjugate() == GaussianRational(a.norm())


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 16)) == Fraction(3, 4)
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(-1)) is None


def test_gaussian_sqrt_cases():
    assert gaussian_sqrt(gr(Fraction(9, 4))) == gr(Fraction(3, 2))
    assert gaussian_sqrt(gr(-4)) == GaussianRational(0, 2)
    # (1+i)^2 = 2i
    root = gaussian_sqrt(GaussianRational(0, 2))
    assert root is not None and root * root == GaussianRational(0, 2)
    assert gaussian_sqrt(gr(2)) is None


# -- differential test against the two-Fraction scalar -------------------------


class _PairScalar:
    """The scalar layer as it was before the integer triple: ``re + im*i``
    stored as two ``Fraction``s.  The oracle of the differential tests below."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("immutable")

    def token(self):
        re_tok = f"{self.re.numerator}/{self.re.denominator}"
        if self.im == 0:
            return re_tok
        sign = "+" if self.im > 0 else "-"
        im = abs(self.im)
        return f"{re_tok}{sign}{im.numerator}/{im.denominator}*i"

    @staticmethod
    def _coerce(value):
        if isinstance(value, _PairScalar):
            return value
        if isinstance(value, (int, Fraction)):
            return _PairScalar(value)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        return _PairScalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return _PairScalar(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return _PairScalar(-self.re, -self.im)

    def __mul__(self, other):
        other = self._coerce(other)
        if self.im == 0 and other.im == 0:
            return _PairScalar(self.re * other.re)
        return _PairScalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero in the Gaussian rationals")
        return _PairScalar(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, exponent):
        if exponent < 0:
            return (_PairScalar(1) / self) ** (-exponent)
        result, base, e = _PairScalar(1), self, exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def conjugate(self):
        return _PairScalar(self.re, -self.im)

    def norm(self):
        return self.re * self.re + self.im * self.im

    def sort_key(self):
        return (self.re, self.im)

    def __eq__(self, other):
        other = self._coerce(other)
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0


_parts = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)),
    # negative denominators on input, numerators above 2**64
    st.builds(
        Fraction,
        st.integers(-(2**80), 2**80),
        st.integers(1, 2**70).flatmap(lambda d: st.sampled_from([d, -d])),
    ),
)
_pairs = st.tuples(_parts, st.one_of(st.just(Fraction(0)), _parts))
_mixed = st.one_of(st.integers(-(2**70), 2**70), _parts)


def _both(pair):
    return GaussianRational(*pair), _PairScalar(*pair)


def _agree(new, old):
    """new (a GaussianRational in canonical form) is the oracle's value old."""
    assert isinstance(new, GaussianRational)
    assert type(new.re) is Fraction and type(new.im) is Fraction
    assert (new.re, new.im) == (old.re, old.im)
    assert new.den > 0 and gcd(new.num_re, new.num_im, new.den) == 1
    assert new.token() == old.token()
    assert new.sort_key() == old.sort_key()
    assert hash(new) == hash(old)
    assert bool(new) == bool(old)
    assert new.is_real == (old.im == 0)


def _same_outcome(new_op, old_op):
    try:
        old = old_op()
    except ZeroDivisionError as exc:
        with pytest.raises(ZeroDivisionError, match=str(exc)):
            new_op()
        return
    _agree(new_op(), old)


@settings(max_examples=300, deadline=None)
@given(_pairs, _pairs, st.integers(-3, 5))
def test_triple_scalar_matches_the_fraction_pair(x, y, k):
    (a, a0), (b, b0) = _both(x), _both(y)
    _agree(a, a0)
    assert GaussianRational.parse(a.token()) == a
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        _same_outcome(lambda: op(a, b), lambda: op(a0, b0))
    _agree(-a, -a0)
    _agree(a.conjugate(), a0.conjugate())
    assert a.norm() == a0.norm() and type(a.norm()) is Fraction
    _same_outcome(lambda: a**k, lambda: a0**k)
    assert (a == b) == (a0 == b0) and (a != b) == (not a0 == b0)


@settings(max_examples=200, deadline=None)
@given(_pairs, _mixed)
def test_mixed_operands_on_either_side(x, q):
    a, a0 = _both(x)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        _same_outcome(lambda: op(a, q), lambda: op(a0, q))
        _same_outcome(lambda: op(q, a), lambda: op(q, a0))
    assert (a == q) == (q == a) == (a0 == q)
    assert hash(gr(q)) == hash(q) and gr(q) == q


def test_planted_cases():
    for zero in (ZERO, 0, Fraction(0)):
        with pytest.raises(ZeroDivisionError, match="division by zero in the Gaussian rationals"):
            ONE / zero
    with pytest.raises(ZeroDivisionError):
        1 / ZERO
    with pytest.raises(ZeroDivisionError):
        ZERO**-1
    x = GaussianRational(1, 2)
    for name in ("re", "im", "num_re", "num_im", "den", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, 1)
    for args in ((0.5,), (0.1, -2.75), ("3/4",), ("-7/21", "2"), (True, False), (Fraction(6, -4), 3)):
        _agree(GaussianRational(*args), _PairScalar(*args))
    assert {GaussianRational(2): "two"}[2] == "two"
    assert {Fraction(1, 2): "half"}[GaussianRational(Fraction(1, 2))] == "half"
    assert len({GaussianRational(3), 3, Fraction(3), GaussianRational(Fraction(6, 2), 0)}) == 1
