"""Property tests of the integer-backed Gaussian rationals.

The oracle is `Pair`, written here: a value as two `Fraction`s with the
textbook field operations.  Every result of `GaussianRational` must agree
with it in value, `==`, `hash`, `str` and `repr`, and must sit in the
normal form (a + b i)/d with gcd(a, b, d) = 1 and d > 0, which is what
lets `==` and `hash` read the integers.  The profile is derandomized, so
the suite stays deterministic.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supersymp.grassmann import GrassmannNumber
from supersymp.scalars import GaussianRational, Q

PROFILE = settings(derandomize=True, database=None, deadline=None, max_examples=100)


class Pair:
    """re + im i as two Fractions."""

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    def __add__(self, o):
        return Pair(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return Pair(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return Pair(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def inverse(self):
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError
        return Pair(self.re / n, -self.im / n)

    def __truediv__(self, o):
        return self * o.inverse()

    def __neg__(self):
        return Pair(-self.re, -self.im)

    def __hash__(self):
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return _imag(self.im)
        return f"{self.re} {'+' if self.im > 0 else '-'} {_imag(abs(self.im))}"


def _imag(b):
    return "i" if b == 1 else "-i" if b == -1 else f"{b}*i"


def parts(z: GaussianRational):
    """The stored integers (a, b, d) of z = (a + b i)/d."""
    return z._a, z._b, z._d


def agree(z, p: Pair):
    """z has the value of p, its normal form, and its hash and renderings."""
    a, b, d = parts(z)
    assert type(a) is int and type(b) is int and type(d) is int
    assert d > 0 and gcd(a, b, d) == 1
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert (z.re, z.im) == (p.re, p.im) == (Fraction(a, d), Fraction(b, d))
    assert hash(z) == hash(p)
    assert str(z) == str(p) and repr(z) == repr(p)


# small and large heights, with repeated denominators so that sums over a
# common denominator and cancelling gcds both occur
integers = st.one_of(st.integers(-6, 6), st.integers(-(10**20), 10**20))
rationals = st.one_of(
    integers,
    st.builds(Fraction, integers, st.sampled_from((1, 2, 3, 4, 6, 12, 10**9 + 7))),
    st.fractions(max_denominator=10**6),
)
values = st.tuples(rationals, rationals)


@PROFILE
@given(x=values)
def test_construction_matches_the_oracle(x):
    agree(GaussianRational(*x), Pair(*x))
    agree(Q(*x), Pair(*x))
    agree(GaussianRational(x[0]), Pair(x[0]))


@PROFILE
@given(x=values, y=values)
def test_operations_match_the_oracle(x, y):
    z, w, p, q = GaussianRational(*x), GaussianRational(*y), Pair(*x), Pair(*y)
    for op in (operator.add, operator.sub, operator.mul):
        agree(op(z, w), op(p, q))
    agree(-z, -p)
    if q.re or q.im:
        agree(z / w, p / q)
        agree(w.inverse(), q.inverse())
    else:
        with pytest.raises(ZeroDivisionError):
            w.inverse()
        with pytest.raises(ZeroDivisionError):
            z / w


@PROFILE
@given(x=values, r=rationals)
def test_mixed_operands_and_equality(x, r):
    z, p, s = GaussianRational(*x), Pair(*x), Pair(r)
    for op in (operator.add, operator.sub, operator.mul):
        agree(op(z, r), op(p, s))
        agree(op(r, z), op(s, p))
    if r:
        agree(z / r, p / s)
    if p.re or p.im:
        agree(r / z, s / p)
    real = GaussianRational(r)
    assert real == r and r == real and real == Fraction(r) and hash(real) == hash(r) == hash(Fraction(r))
    assert len({real, r}) == 1
    assert (z == r) is (p.im == 0 and p.re == r)
    assert (z == GaussianRational(*x)) and not (z != GaussianRational(*x))
    assert (z == real) is (z == r)


@PROFILE
@given(x=values, y=values, w=values)
def test_field_axioms(x, y, w):
    a, b, c = GaussianRational(*x), GaussianRational(*y), GaussianRational(*w)
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + 0 == a and a * 1 == a and a - a == 0 and a + (-a) == 0
    if a:
        assert a * a.inverse() == 1 and a / a == 1 and a.inverse().inverse() == a
        # equal values have equal integers, however they were reached
        assert parts((b * a) / a) == parts(b) and parts(b + a - a) == parts(b)


def test_zero_and_unit_normal_forms():
    assert parts(GaussianRational()) == parts(Q(0, 0)) == parts(Q("0/5", 0)) == (0, 0, 1)
    assert parts(Q(Fraction(2, 4), Fraction(-3, 6))) == (1, -1, 2)
    assert parts(Q(2, 3) - Q(2, 3)) == (0, 0, 1)
    assert parts(Q(Fraction(1, 6), Fraction(1, 3)) + Q(Fraction(1, 6), Fraction(-1, 3))) == (1, 0, 3)
    with pytest.raises(ZeroDivisionError):
        Q(0).inverse()


def test_strings_ints_and_fractions_are_exact():
    assert Q("3/2") == Fraction(3, 2) and Q("-7/3", "1/2") == Q(Fraction(-7, 3), Fraction(1, 2))
    assert GaussianRational("1/3", -2) == Q(Fraction(1, 3), -2)
    assert Q(True) == 1 and Q("0.25") == Fraction(1, 4)


@pytest.mark.parametrize(
    "build",
    [
        lambda: GaussianRational(0.1),
        lambda: GaussianRational(1, 0.5),
        lambda: Q(0.1),
        lambda: Q(im=2.0),
        lambda: GaussianRational.coerce(0.1),
        lambda: GrassmannNumber.scalar(0.1, 2),
        lambda: Q(1) + 0.5,
        lambda: 0.5 * Q(1),
    ],
)
def test_floats_are_refused(build):
    with pytest.raises(TypeError):
        build()
