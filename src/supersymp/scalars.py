"""Exact Gaussian-rational scalars.

Every coefficient in the engine lives in Q(i): pairs of ``fractions.Fraction``
with the obvious field operations.  Keeping the scalar field this small (no
floats, no symbols) is what makes every downstream identity checkable with
``==``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Rationalish = Union[int, Fraction, "GaussianRational"]


class GaussianRational:
    """An element a + b*i with a, b rational."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    # -- constructors -------------------------------------------------

    @staticmethod
    def coerce(x: Rationalish) -> "GaussianRational":
        y = _operand(x)
        if y is NotImplemented:
            raise TypeError(f"cannot coerce {x!r} to a Gaussian rational")
        return y

    # -- predicates ----------------------------------------------------

    # the zero tests read the numerators: a Fraction is zero exactly when
    # its numerator is, and Fraction.__eq__ costs several times more
    def is_zero(self) -> bool:
        return self.re.numerator == 0 and self.im.numerator == 0

    def is_rational(self) -> bool:
        return self.im.numerator == 0

    def __bool__(self) -> bool:
        return self.re.numerator != 0 or self.im.numerator != 0

    # -- arithmetic ----------------------------------------------------

    # an operand that is not a number returns NotImplemented, so Python
    # tries its reflected operation (a Grassmann number, a superfunction)
    def __add__(self, other):
        other = _operand(other)
        if other is NotImplemented:
            return other
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

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
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * GaussianRational.coerce(other).inverse()

    def __rtruediv__(self, other):
        return GaussianRational.coerce(other) * self.inverse()

    # -- comparison/hash -------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GaussianRational(other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # a real value hashes like the Fraction (and so the int) it equals
        if self.im.numerator == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    # -- rendering -------------------------------------------------------

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return _imag_str(self.im)
        sign = "+" if self.im > 0 else "-"
        return f"{self.re} {sign} {_imag_str(abs(self.im))}"


def _operand(x):
    """x as a GaussianRational, or NotImplemented when it is not a number."""
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
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
    return GaussianRational(Fraction(re), Fraction(im))
