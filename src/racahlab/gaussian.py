"""Exact scalars over the Gaussian rationals, the ground field of the library.

Every quantity in the library is a ``GaussianRational``: a complex number
stored as three integers, ``(num_re + num_im*i) / den`` with ``den > 0`` and
``gcd(num_re, num_im, den) == 1``, so equal scalars are stored alike.  Each
operation is integer cross-multiplication followed by one ``gcd``; the real
and imaginary parts are ``fractions.Fraction`` views built on demand.
Arithmetic never rounds and division by zero raises immediately.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from math import gcd, isqrt, lcm

# ASCII digits only: a bare \d also matches other scripts' digits
_TOKEN = _re.compile(
    r"^(?P<re>[+-]?\d+(?:/\d+)?)"
    r"(?:(?P<sign>[+-])(?P<im>\d+(?:/\d+)?)\*i)?$",
    _re.ASCII,
)


class GaussianRational:
    """An exact complex scalar ``re + im*i`` with rational parts, stored as
    ``(num_re + num_im*i) / den`` (see the module docstring)."""

    __slots__ = ("num_re", "num_im", "den")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            a, b, d = re, im, 1
        else:
            re, im = Fraction(re), Fraction(im)
            # both parts are in lowest terms, so the lcm leaves gcd(a, b, d) == 1
            d = lcm(re.denominator, im.denominator)
            a = re.numerator * (d // re.denominator)
            b = im.numerator * (d // im.denominator)
        _set_re(self, a)
        _set_im(self, b)
        _set_den(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self.num_re, self.den)

    @property
    def im(self) -> Fraction:
        return Fraction(self.num_im, self.den)

    # -- constructors ------------------------------------------------

    @classmethod
    def parse(cls, token: str) -> "GaussianRational":
        """Parse ``p/q``, ``p/q+r/s*i`` or ``p/q-r/s*i`` (integers allowed)."""
        m = _TOKEN.match(token.strip())
        if m is None:
            raise ValueError(f"not a Gaussian-rational token: {token!r}")
        re_part = Fraction(m.group("re"))
        im_part = Fraction(0)
        if m.group("im") is not None:
            im_part = Fraction(m.group("im"))
            if m.group("sign") == "-":
                im_part = -im_part
        return cls(re_part, im_part)

    # -- formatting --------------------------------------------------

    def token(self) -> str:
        """Render in the exchange format ``p/q`` / ``p/q±r/s*i``."""
        re, im = self.re, self.im
        re_tok = f"{re.numerator}/{re.denominator}"
        if im == 0:
            return re_tok
        sign = "+" if im > 0 else "-"
        return f"{re_tok}{sign}{abs(im.numerator)}/{im.denominator}*i"

    def __repr__(self):
        return self.token()

    __str__ = __repr__

    # -- arithmetic --------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d, f = self.den, other.den
        if d == f:
            return _make(self.num_re + other.num_re, self.num_im + other.num_im, d)
        return _make(self.num_re * f + other.num_re * d, self.num_im * f + other.num_im * d, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d, f = self.den, other.den
        if d == f:
            return _make(self.num_re - other.num_re, self.num_im - other.num_im, d)
        return _make(self.num_re * f - other.num_re * d, self.num_im * f - other.num_im * d, d * f)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return _stored(-self.num_re, -self.num_im, self.den)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, e = self.num_re, self.num_im, other.num_re, other.num_im
        if not e:
            return _make(a * c, b * c, self.den * other.den)
        if not b:
            return _make(a * c, a * e, self.den * other.den)
        return _make(a * c - b * e, a * e + b * c, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, e, f = self.num_re, self.num_im, other.num_re, other.num_im, other.den
        if not e:
            if not c:
                raise ZeroDivisionError("division by zero in the Gaussian rationals")
            return _make(a * f, b * f, self.den * c)
        # (a + b*i)/d / ((c + e*i)/f) = (a + b*i)(c - e*i) f / (d (c^2 + e^2))
        return _make((a * c + b * e) * f, (b * c - a * e) * f, self.den * (c * c + e * e))

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return (ONE / self) ** (-exponent)
        result = ONE
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- structure ---------------------------------------------------

    def conjugate(self) -> "GaussianRational":
        return _stored(self.num_re, -self.num_im, self.den)

    def norm(self) -> Fraction:
        """The field norm ``re**2 + im**2`` (a nonnegative rational)."""
        return Fraction(self.num_re * self.num_re + self.num_im * self.num_im, self.den * self.den)

    @property
    def is_real(self) -> bool:
        return self.num_im == 0

    def sort_key(self):
        """A total order used only for deterministic output."""
        return (self.re, self.im)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (
            self.num_re == other.num_re and self.num_im == other.num_im and self.den == other.den
        )

    def __hash__(self):
        # a real value hashes as its Fraction, so as an int when it is one
        if self.num_im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.num_re != 0 or self.num_im != 0


_new = object.__new__
# the slots' own setters, which get round the immutable __setattr__
_set_re, _set_im, _set_den = (
    GaussianRational.__dict__[name].__set__ for name in GaussianRational.__slots__
)


def _stored(a: int, b: int, d: int) -> GaussianRational:
    """The scalar (a + b*i) / d for a triple already in canonical form."""
    z = _new(GaussianRational)
    _set_re(z, a)
    _set_im(z, b)
    _set_den(z, d)
    return z


def _make(a: int, b: int, d: int) -> GaussianRational:
    """The scalar (a + b*i) / d brought to canonical form; d must be nonzero."""
    g = gcd(a, b, d)
    if d < 0:
        g = -g
    if g != 1:
        a, b, d = a // g, b // g, d // g
    return _stored(a, b, d)


def _coerce(value):
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, int):
        return _stored(int(value), 0, 1)
    if isinstance(value, Fraction):
        return _stored(value.numerator, 0, value.denominator)
    return NotImplemented


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def gr(value) -> GaussianRational:
    """Coerce ints, Fractions, tokens or pairs into a GaussianRational."""
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    if isinstance(value, str):
        return GaussianRational.parse(value)
    if isinstance(value, tuple) and len(value) == 2:
        return GaussianRational(value[0], value[1])
    raise TypeError(f"cannot coerce {value!r} to GaussianRational")


def rational_sqrt(value: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if value < 0:
        return None
    num, den = value.numerator, value.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def gaussian_sqrt(value: GaussianRational) -> GaussianRational | None:
    """A square root of ``value`` in the Gaussian rationals, or None.

    When a root exists, the one with ``(re, im)`` lexicographically largest
    is returned, so the choice is deterministic.
    """
    if value.im == 0:
        if value.re >= 0:
            r = rational_sqrt(value.re)
            return None if r is None else GaussianRational(r)
        r = rational_sqrt(-value.re)
        return None if r is None else GaussianRational(0, r)
    n = rational_sqrt(value.norm())
    if n is None:
        return None
    half = (value.re + n) / 2
    u = rational_sqrt(half)
    if u is None or u == 0:
        return None
    v = value.im / (2 * u)
    root = GaussianRational(u, v)
    other = -root
    return root if root.sort_key() >= other.sort_key() else other
