"""Exact Gaussian-rational scalars.

Every coefficient in the engine lives in Q(i).  A value (a + b*i)/d is
stored as three Python ints, kept in normal form: gcd(a, b, d) = 1 and
d > 0, so two equal values have equal (a, b, d) and `==` compares ints.
Each operation makes at most one gcd; a sum over equal denominators skips
the cross products.  The real and imaginary parts are read as
``fractions.Fraction`` through the read-only properties ``re`` and ``im``.

Keeping the scalar field this small (no floats, no symbols) is what makes
every downstream identity checkable with ``==``: a part is built from an
int, a ``Fraction`` or a string such as "3/2", and a float is refused with
``TypeError``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Tuple, Union

Rationalish = Union[int, Fraction, "GaussianRational"]


def _ratio(x) -> Tuple[int, int]:
    """(numerator, denominator > 0) of an int, a Fraction or a string."""
    if isinstance(x, int):
        return int(x), 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    if isinstance(x, str):
        x = Fraction(x)
        return x.numerator, x.denominator
    raise TypeError(f"cannot make an exact rational from {x!r}")


class GaussianRational:
    """An element (a + b*i)/d with a, b, d integers in normal form."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        p, q = _ratio(re)
        r, s = _ratio(im)
        if q == s:
            # each part is already in lowest terms over q
            self._a, self._b, self._d = p, r, q
        else:
            g = gcd(p * s, r * q, q * s)
            self._a, self._b, self._d = p * s // g, r * q // g, q * s // g

    # -- constructors -------------------------------------------------

    @staticmethod
    def coerce(x: Rationalish) -> "GaussianRational":
        y = _operand(x)
        if y is NotImplemented:
            raise TypeError(f"cannot coerce {x!r} to a Gaussian rational")
        return y

    # -- parts -----------------------------------------------------------

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return self._a == 0 and self._b == 0

    def is_rational(self) -> bool:
        return self._b == 0

    def __bool__(self) -> bool:
        return self._a != 0 or self._b != 0

    # -- arithmetic ----------------------------------------------------

    # an operand that is not a number returns NotImplemented, so Python
    # tries its reflected operation (a Grassmann number, a superfunction)
    def __add__(self, other):
        other = _operand(other)
        if other is NotImplemented:
            return other
        d, e = self._d, other._d
        if d == e:
            return _normal(self._a + other._a, self._b + other._b, d)
        return _normal(self._a * e + other._a * d, self._b * e + other._b * d, d * e)

    __radd__ = __add__

    def __neg__(self):
        return _make(-self._a, -self._b, self._d)

    def __sub__(self, other):
        other = _operand(other)
        return other if other is NotImplemented else self + (-other)

    def __rsub__(self, other):
        other = _operand(other)
        return other if other is NotImplemented else other + (-self)

    def __mul__(self, other):
        other = _operand(other)
        if other is NotImplemented:
            return other
        a, b, c, e = self._a, self._b, other._a, other._b
        return _normal(a * c - b * e, a * e + b * c, self._d * other._d)

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        # d / (a + b i) = d (a - b i) / (a^2 + b^2)
        a, b, d = self._a, self._b, self._d
        n = a * a + b * b
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return _normal(d * a, -d * b, n)

    def __truediv__(self, other):
        return self * GaussianRational.coerce(other).inverse()

    def __rtruediv__(self, other):
        return GaussianRational.coerce(other) * self.inverse()

    # -- comparison/hash -------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, int):
            return self._b == 0 and self._d == 1 and self._a == other
        if isinstance(other, Fraction):
            return self._b == 0 and self._a == other.numerator and self._d == other.denominator
        return NotImplemented

    def __hash__(self):
        # a real value hashes like the Fraction (and so the int) it equals
        if self._b == 0:
            return hash(self._a) if self._d == 1 else hash(self.re)
        return hash((self.re, self.im))

    # -- rendering -------------------------------------------------------

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return _imag_str(im)
        sign = "+" if im > 0 else "-"
        return f"{re} {sign} {_imag_str(abs(im))}"


_new = object.__new__


def _make(a: int, b: int, d: int) -> GaussianRational:
    """(a + b i)/d from parts already in normal form."""
    x = _new(GaussianRational)
    x._a, x._b, x._d = a, b, d
    return x


def _normal(a: int, b: int, d: int) -> GaussianRational:
    """(a + b i)/d for d > 0, brought to normal form by one gcd."""
    g = gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    x = _new(GaussianRational)
    x._a, x._b, x._d = a, b, d
    return x


def _operand(x):
    """x as a GaussianRational, or NotImplemented when it is not a number."""
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, int):
        return _make(int(x), 0, 1)
    if isinstance(x, Fraction):
        return _make(x.numerator, 0, x.denominator)
    return NotImplemented


def _imag_str(b: Fraction) -> str:
    if b == 1:
        return "i"
    if b == -1:
        return "-i"
    return f"{b}*i"


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def Q(re=0, im=0) -> GaussianRational:
    """Shorthand constructor, Q(1,2) == 1 + 2i, Q("3/2") == 3/2."""
    return GaussianRational(re, im)
