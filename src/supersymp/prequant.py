"""Local-chart model of the D-prequantum connection and its operators.

Everything here happens on one trivializing chart: base coordinates plus an
even fiber coordinate t and an odd fiber coordinate tau; the period d of t
plays no part in these local formulas.  The connection is
alpha = theta + dt + dtau with d(theta) = omega; doubled, its parts are
(theta_0 + dt) c0 and (theta_1 + dtau) c1.

Sections of the associated line model are stored by their reduced part: the
equivariant function e^(-it/hbar) s(base) enters only through the formal
substitution d/dt -> -i/hbar, with hbar = 1 and i an exact Gaussian unit.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from .charts import CFunction, Chart, SuperFunction, VectorField
from .forms import CKForm, KForm, contract, double, ext_d, lie_derivative, lift_field, lift_form, lift_function
from .grassmann import Linear, skew_sign
from .scalars import GaussianRational
from .symplectic import SymplecticData, require_hamiltonian_field

MINUS_I = GaussianRational(0, -1)


class PrequantChart:
    """Base symplectic data, a potential theta with d(theta) = omega, and
    the two fiber coordinates of the structure group.

    `quantum_op` keeps, per function f, the pair (X_f, <X_f, theta_0> + f0)
    that Q(f) needs; an entry is built on first use.
    """

    fiber_even = "t"
    fiber_odd = "tau"

    def __init__(self, data: SymplecticData, theta: KForm):
        if theta.degree != 1:
            raise ValueError("the potential must be a 1-form")
        if ext_d(theta) != data.omega:
            raise ValueError("potential does not satisfy d(theta) = omega")
        self.base = data
        self.theta = theta
        base_chart = data.chart
        if self.fiber_even in base_chart.coords or self.fiber_odd in base_chart.coords:
            raise ValueError("fiber coordinate names collide with the base chart")
        self.total = Chart(
            base_chart.name + "_total",
            base_chart.even + (self.fiber_even,),
            base_chart.odd + (self.fiber_odd,),
            base_chart.generators,
        )
        self._theta0 = theta.parity_part(0)
        theta0 = lift_form(self._theta0, self.total)
        theta1 = lift_form(theta.parity_part(1), self.total)
        self.alpha = CKForm(
            theta0 + KForm.differential(self.total, self.fiber_even),
            theta1 + KForm.differential(self.total, self.fiber_odd),
        )
        self._operators: Dict[CFunction, Tuple[VectorField, SuperFunction]] = {}

    def operator_parts(self, f: CFunction) -> Tuple[VectorField, SuperFunction]:
        """(X_f, <X_f, theta_0> + f0), solved once per f.  A non-member f
        stores nothing and raises `PoissonMembershipError` on every call."""
        parts = self._operators.get(f)
        if parts is None:
            xf = require_hamiltonian_field(f, self.base)
            parts = self._operators[f] = (xf, contract(xf, self._theta0).as_function() + f.f0)
        return parts

    # -- infinitesimal symmetries ---------------------------------------

    def eta_field(self, f: CFunction) -> VectorField:
        """The unique connection symmetry with i_eta doubled-alpha = -f.

        eta_f = X_f - (f0 + <X_f, theta_0>) d/dt - (f1 + <X_f, theta_1>) d/dtau.
        """
        xf = require_hamiltonian_field(f, self.base)
        coeff = f + contract(xf, double(self.theta)).as_cfunction()
        comps = {name: lift_function(c, self.total) for name, c in xf.components.items()}
        for name, c in ((self.fiber_even, coeff.f0), (self.fiber_odd, coeff.f1)):
            if c:
                comps[name] = -lift_function(c, self.total)
        return VectorField(self.total, comps)

    def symmetry_check(self, z: VectorField) -> bool:
        """Does z preserve the doubled connection form componentwise?"""
        return lie_derivative(z, self.alpha).is_zero()

    def project_field(self, z: VectorField) -> VectorField:
        """Drop the fiber components: the pushforward to the base."""
        fiber = (self.fiber_even, self.fiber_odd)
        base = {name: c for name, c in z.components.items() if name not in fiber}
        return lift_field(VectorField(z.chart, base), self.base.chart)


class Section(Linear):
    """Reduced section: a superfunction on the base chart, the one-term sum
    over the key ()."""

    __slots__ = ("chart", "terms")
    _FRAME = ("chart",)
    _mismatch = SuperFunction._mismatch

    def __init__(self, fun: SuperFunction):
        self.chart = fun.chart
        self.terms = {(): fun} if fun else {}

    @property
    def fun(self) -> SuperFunction:
        return self.terms.get(()) or self.chart.zero()


def quantum_op(f: CFunction, s: Section, chart: PrequantChart) -> Section:
    """Q(f) s = -i hbar nabla_(X_f) s + f0 s with hbar = 1.

    In the trivialization nabla_X s = X s + i <X, theta_0> s, so
    Q(f) s = -i X_f(s) + <X_f, theta_0> s + f0 s, all exact in Q(i).  The
    field X_f and the multiplier <X_f, theta_0> + f0 come from
    `chart.operator_parts(f)`, built on the first call with that f.
    """
    xf, multiplier = chart.operator_parts(f)
    return Section(xf.apply(s.fun).scale(MINUS_I) + multiplier * s.fun)


def rep_check(f: CFunction, g: CFunction, chart: PrequantChart, sections: Sequence[Section]) -> bool:
    """[Q(f), Q(g)] = -i hbar Q({f, g}) on the sample sections.

    The commutator is graded: for homogeneous f, g the operators carry the
    parities of f and g.
    """
    from .symplectic import poisson_bracket

    bracket = poisson_bracket(f, g, chart.base)
    sign = skew_sign(f.parity(), g.parity())
    for s in sections:
        lhs = quantum_op(f, quantum_op(g, s, chart), chart) + quantum_op(
            g, quantum_op(f, s, chart), chart
        ).scale(sign)
        rhs = quantum_op(bracket, s, chart).scale(MINUS_I)
        if lhs != rhs:
            return False
    return True
