"""Bundled reference examples.

The worked examples that the engine is expected to reproduce exactly: the
2|2 mixed-form counterexample, the 2|1 degenerate-but-homogeneously
non-degenerate chart with its Poisson algebra, and the 3|3 super Heisenberg
data with its three coadjoint orbit types, and the sphere and circle covers.
The expected displays live here too, written once: ``verify-paper`` and the
acceptance tests both compare the engine against them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .cech import CechCochain, NerveComplex, build_nerve
from .charts import CFunction, Chart, SuperFunction, VectorField
from .forms import KForm, ext_d, wedge
from .grassmann import DEFAULT_GENERATORS
from .heisenberg import HeisenbergSpec
from .prequant import PrequantChart
from .symplectic import SymplecticData

# the base point of the 2|2, 2|1 and 2|0 examples
ORIGIN = {"x": 0, "y": 0}


def d(chart: Chart, name: str) -> KForm:
    return KForm.differential(chart, name)


# ----------------------------------------------------------------------
# 2|2 chart: omega = dx^dy + dxi^deta + dx^dxi with the two mixed fields
# whose commutator is not even locally hamiltonian in the naive sense.
# ----------------------------------------------------------------------


class MixedCounterexample:
    def __init__(self, chart: Chart, omega: KForm, X: VectorField, Y: VectorField,
                 XY_display: VectorField, iXY_display: KForm, diXY_display: KForm):
        self.chart, self.omega, self.X, self.Y = chart, omega, X, Y
        # The displays [X,Y] = -2 xi d/dx - 2 y d/deta - 2 xi d/deta,
        # i_[X,Y] omega = d(y xi) + 2 xi dxi and d(i_[X,Y] omega) = 2 dxi^dxi.
        # The last two are inconsistent with the elementary contractions by an
        # exact factor -2 (bilinearity gives -2 (d(y xi) + 2 xi dxi)); they are
        # kept as displayed.
        self.XY_display, self.iXY_display, self.diXY_display = XY_display, iXY_display, diXY_display


def mixed_counterexample(generators: int = DEFAULT_GENERATORS) -> MixedCounterexample:
    chart = Chart("M22", ("x", "y"), ("xi", "eta"), generators)
    omega = (
        wedge(d(chart, "x"), d(chart, "y"))
        + wedge(d(chart, "xi"), d(chart, "eta"))
        + wedge(d(chart, "x"), d(chart, "xi"))
    )
    y, xi, eta = chart.var("y"), chart.var("xi"), chart.var("eta")
    X = chart.vector_field({"x": y.scale(2), "eta": y.scale(-2)})
    Y = chart.vector_field({"xi": -xi, "eta": eta, "y": xi})
    XY = chart.vector_field({"x": xi.scale(-2), "eta": y.scale(-2) - xi.scale(2)})
    iXY = ext_d(y * xi) + d(chart, "xi").left_multiply(xi.scale(2))
    diXY = wedge(d(chart, "xi"), d(chart, "xi")).scale(2)
    return MixedCounterexample(chart, omega, X, Y, XY, iXY, diXY)


# ----------------------------------------------------------------------
# 2|1 chart: omega = dx^dy + dx^dxi, degenerate but homogeneously
# non-degenerate; its Poisson algebra is the three-function family
#   f = (a(x) + y c(x)) c0 + (b(x) + xi c(x)) c1.
# ----------------------------------------------------------------------


class MixedChart21:
    def __init__(self, chart: Chart, omega: KForm, theta: KForm):
        self.chart, self.omega = chart, omega
        self.theta = theta  # potential with d(theta) = omega


def mixed_chart_21(generators: int = DEFAULT_GENERATORS) -> MixedChart21:
    chart = Chart("M21", ("x", "y"), ("xi",), generators)
    omega = wedge(d(chart, "x"), d(chart, "y")) + wedge(d(chart, "x"), d(chart, "xi"))
    x = chart.var("x")
    theta = d(chart, "y").left_multiply(x) + d(chart, "xi").left_multiply(x)
    return MixedChart21(chart, omega, theta)


def poisson_member_21(data: MixedChart21, a, b, c) -> CFunction:
    """Member (a(x) + y c(x)) c0 + (b(x) + xi c(x)) c1 of the 2|1 algebra.

    a, b, c are polynomials in x given as coefficient sequences.
    """
    chart = data.chart
    x, y, xi = chart.var("x"), chart.var("y"), chart.var("xi")

    def poly(coeffs) -> SuperFunction:
        acc = chart.zero()
        xpow = chart.one()
        for coeff in coeffs:
            acc = acc + xpow.scale(Fraction(coeff))
            xpow = xpow * x
        return acc

    ca, cb, cc = poly(a), poly(b), poly(c)
    return CFunction(ca + y * cc, cb + xi * cc)


def members_21(data: MixedChart21) -> list:
    """The members x c0, y c0 + xi c1 and x c1 of the 2|1 algebra."""
    chart = data.chart
    x, y, xi = chart.var("x"), chart.var("y"), chart.var("xi")
    return [CFunction(x, chart.zero()), CFunction(y, xi), CFunction(chart.zero(), x)]


def prequant_at_origin(data: MixedChart21) -> PrequantChart:
    """The prequantum chart over the 2|1 or 2|0 example, based at the origin."""
    return PrequantChart(SymplecticData(data.omega, [ORIGIN]), data.theta)


# ----------------------------------------------------------------------
# Even 2|0 chart: omega = dx^dy with potential theta = x dy.
# ----------------------------------------------------------------------


def even_chart_20(generators: int = DEFAULT_GENERATORS) -> MixedChart21:
    chart = Chart("M20", ("x", "y"), (), generators)
    omega = wedge(d(chart, "x"), d(chart, "y"))
    theta = d(chart, "y").left_multiply(chart.var("x"))
    return MixedChart21(chart, omega, theta)


# ----------------------------------------------------------------------
# The 3|3 graded skew-symmetric pairing.  Stored as Omega[i][j] =
# Omega(e_i, e_j) (0-based); the even and odd components are the parity
# 0 and parity 1 pieces of the pairing.
# ----------------------------------------------------------------------

HEISENBERG_33_PARITIES = (0, 0, 0, 1, 1, 1)

HEISENBERG_33_PAIRING = (
    (0, -1, 0, -1, 0, 0),
    (1, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, -1, 0),
    (1, 0, 0, 0, 0, 0),
    (0, 0, 1, 0, 1, 0),
    (0, 0, 0, 0, 0, -1),
)


def heisenberg_33() -> HeisenbergSpec:
    n = 6
    eps = HEISENBERG_33_PARITIES
    omega0 = [[Fraction(0)] * n for _ in range(n)]
    omega1 = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            v = Fraction(HEISENBERG_33_PAIRING[i][j])
            if (eps[i] + eps[j]) % 2 == 0:
                omega0[i][j] = v
            else:
                omega1[i][j] = v
    return HeisenbergSpec(eps, omega0, omega1)


# The displayed KKS forms of the three orbit types, as (coefficient, a, b)
# for coefficient * da^db on the orbit's chart: case (i) on
# (x1,x2|xi5,xi6), case (ii) on (xb4,xb5|xib1,xib3), case (iii) in the
# hatted chart.
ORBIT_FORMS = {
    "case_i": ((1, "x1", "x2"), (Fraction(1, 2), "xi5", "xi5"), (Fraction(-1, 2), "xi6", "xi6")),
    "case_ii": ((1, "xib1", "xb4"), (1, "xib3", "xb5")),
    "case_iii": (
        (1, "x1", "x2"),
        (1, "xib1", "x2"),
        (1, "xb5", "xi5"),
        (Fraction(1, 2), "xi5", "xi5"),
        (Fraction(-1, 2), "xi6", "xi6"),
    ),
}


def orbit_form(chart: Chart, case: str) -> KForm:
    """The displayed KKS form of orbit type `case` on the orbit's chart."""
    out = KForm.zero(chart, 2)
    for coeff, a, b in ORBIT_FORMS[case]:
        out = out + wedge(d(chart, a), d(chart, b)).scale(coeff)
    return out


# ----------------------------------------------------------------------
# Finite covers: the boundary of the 3-simplex (a 2-sphere) with the
# cocycle 3 on one triangle, whose periods are 3Z, and the boundary of a
# triangle (a circle).
# ----------------------------------------------------------------------


def sphere_nerve() -> NerveComplex:
    return build_nerve([s for k in (1, 2, 3) for s in combinations(range(4), k)])


def sphere_cocycle() -> CechCochain:
    return CechCochain(sphere_nerve(), 2, {(0, 1, 2): Fraction(3)})


def circle_nerve() -> NerveComplex:
    return build_nerve([(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)])
