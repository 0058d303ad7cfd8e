"""Super Heisenberg groups and their coadjoint orbits.

From an even graded skew-symmetric pairing Omega = Omega^0 c0 + Omega^1 c1
on a p|q space E we build the central extension group on E x C, its Lie
algebra, the affine coadjoint action on the 2n real coordinates (x_i,
xbar_i) of the dual, the fundamental vector fields, the orbit trichotomy
(y0 only / ybar1 only / both nonzero), and the orbit symplectic form
obtained by inverting the fundamental-field coefficient matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .charts import CFunction, Chart, SuperFunction, VectorField
from .forms import KForm, contract, ext_d
from .grassmann import GrassmannNumber, default_generator_count
from .liecoh import CECochain, SuperLieAlgebra, momentum_cocycle as _momentum_cocycle, pullback_class as _pullback_class
from .scalars import GaussianRational
from .symplectic import (
    SymplecticData,
    form_from_contraction_matrix,
    poisson_bracket,
    require_hamiltonian_field,
)


class HeisenbergSpec:
    """Even graded skew-symmetric C-valued pairing on a p|q space."""

    def __init__(self, parities: Sequence[int], omega0, omega1):
        self.parities = tuple(int(p) % 2 for p in parities)
        n = len(self.parities)
        self.omega0 = [[Fraction(omega0[i][j]) for j in range(n)] for i in range(n)]
        self.omega1 = [[Fraction(omega1[i][j]) for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(n):
                skew = -1 if (self.parities[i] * self.parities[j]) % 2 == 0 else 1
                for name, m in (("omega0", self.omega0), ("omega1", self.omega1)):
                    if m[i][j] != skew * m[j][i]:
                        raise ValueError(f"{name} is not graded skew-symmetric at ({i},{j})")
                if (self.parities[i] + self.parities[j]) % 2 == 0:
                    if self.omega1[i][j] != 0:
                        raise ValueError(f"omega1 must vanish on even pairs ({i},{j})")
                else:
                    if self.omega0[i][j] != 0:
                        raise ValueError(f"omega0 must vanish on odd pairs ({i},{j})")

    @property
    def dimension(self) -> int:
        return len(self.parities)

    def pairing_c(self, a: Sequence[GrassmannNumber], b: Sequence[GrassmannNumber]):
        """Omega(a, b) for Grassmann coordinate vectors, as a (c0, c1) pair.

        Left bilinearity pulls the second coordinates through the first
        basis slot: Omega(a,b) = sum (-1)^(eps_i eps_j) a^i b^j Omega_ij.
        """
        n = self.dimension
        ng = a[0].n if a else default_generator_count()
        out0 = GrassmannNumber.zero(ng)
        out1 = GrassmannNumber.zero(ng)
        for i in range(n):
            if a[i].is_zero():
                continue
            for j in range(n):
                if b[j].is_zero():
                    continue
                sign = -1 if (self.parities[i] * self.parities[j]) % 2 else 1
                prod = a[i] * b[j]
                if sign < 0:
                    prod = -prod
                if self.omega0[i][j]:
                    out0 = out0 + prod * self.omega0[i][j]
                if self.omega1[i][j]:
                    out1 = out1 + prod * self.omega1[i][j]
        return out0, out1


@dataclass
class GroupElement:
    spec: HeisenbergSpec
    a: List[GrassmannNumber]
    b0: GrassmannNumber
    b1: GrassmannNumber

    def __post_init__(self):
        for i, coord in enumerate(self.a):
            if not coord.is_zero() and coord.parity() != self.spec.parities[i]:
                raise ValueError(f"coordinate a^{i+1} must have parity {self.spec.parities[i]}")
        if not self.b0.is_zero() and self.b0.parity() != 0:
            raise ValueError("b0 must be even")
        if not self.b1.is_zero() and self.b1.parity() != 1:
            raise ValueError("b1 must be odd")

    def __eq__(self, other):
        return (
            isinstance(other, GroupElement)
            and self.a == other.a
            and self.b0 == other.b0
            and self.b1 == other.b1
        )


def group_identity(spec: HeisenbergSpec, generators: Optional[int] = None) -> GroupElement:
    ng = generators or default_generator_count()
    zero = GrassmannNumber.zero(ng)
    return GroupElement(spec, [zero] * spec.dimension, zero, zero)


def group_mul(g: GroupElement, h: GroupElement) -> GroupElement:
    """(a,b) (a',b') = (a + a', b + b' + Omega(a,a')/2)."""
    spec = g.spec
    a = [x + y for x, y in zip(g.a, h.a)]
    c0, c1 = spec.pairing_c(g.a, h.a)
    half = GaussianRational(Fraction(1, 2))
    b0 = g.b0 + h.b0 + c0 * half
    b1 = g.b1 + h.b1 + c1 * half
    return GroupElement(spec, a, b0, b1)


def group_inverse(g: GroupElement) -> GroupElement:
    return GroupElement(g.spec, [-x for x in g.a], -g.b0, -g.b1)


def algebra_of(spec: HeisenbergSpec) -> SuperLieAlgebra:
    """Central extension algebra: [e_i, e_j] = Omega^0_ij c0 + Omega^1_ij c1."""
    n = spec.dimension
    parities = spec.parities + (0, 1)
    brackets: Dict[Tuple[int, int], Dict[int, Fraction]] = {}
    for i in range(n):
        for j in range(i, n):
            vec: Dict[int, Fraction] = {}
            if spec.omega0[i][j]:
                vec[n] = spec.omega0[i][j]
            if spec.omega1[i][j]:
                vec[n + 1] = spec.omega1[i][j]
            if vec:
                brackets[(i, j)] = vec
    return SuperLieAlgebra(parities, brackets)


# ----------------------------------------------------------------------
# the dual and its coadjoint action
# ----------------------------------------------------------------------


@dataclass
class OrbitPoint:
    """Point of the dual in the coordinates (x_i, xbar_i, y0, ybar1).

    The restriction to orbits through real points forces y1 = ybar0 = 0,
    so only y0 and ybar1 are carried.  x and xbar entries may be Grassmann
    (the coadjoint action introduces group coordinates).
    """

    spec: HeisenbergSpec
    x: List[GrassmannNumber]
    xbar: List[GrassmannNumber]
    y0: Fraction
    ybar1: Fraction

    @staticmethod
    def base(spec: HeisenbergSpec, y0, ybar1, x=None, xbar=None, generators: Optional[int] = None) -> "OrbitPoint":
        ng = generators or default_generator_count()
        n = spec.dimension

        def mk(vals, slot_parity):
            out = []
            for i in range(n):
                v = Fraction(vals[i]) if vals else Fraction(0)
                if v != 0 and slot_parity(i) != 0:
                    raise ValueError("real base point: odd slots must vanish")
                out.append(GrassmannNumber.scalar(v, ng))
            return out

        return OrbitPoint(
            spec,
            mk(x, lambda i: spec.parities[i]),
            mk(xbar, lambda i: 1 - spec.parities[i]),
            Fraction(y0),
            Fraction(ybar1),
        )


def coad(g: GroupElement, mu: OrbitPoint) -> OrbitPoint:
    """Coadjoint action of (a, b) in coordinates:

    x_i -> x_i - (-1)^eps_i y0 Omega^0(a, e_i),
    xbar_i -> xbar_i - ybar1 Omega^1(a, e_i); y's unchanged.

    The shifts are the tangent matrix applied to a.
    """
    spec = mu.spec
    n = spec.dimension
    shift = linalg.matmul(tangent_matrix(spec, mu.y0, mu.ybar1), [[a] for a in g.a])
    x = [c - s for c, (s,) in zip(mu.x, shift[:n])]
    xbar = [c - s for c, (s,) in zip(mu.xbar, shift[n:])]
    return OrbitPoint(spec, x, xbar, mu.y0, mu.ybar1)


def coad_infinitesimal(spec: HeisenbergSpec, v: Sequence[Fraction], mu: OrbitPoint):
    """Rates of change (coad(v) mu)_0 and (coad(v) mu)_1 in coordinates:
    minus the fundamental field of v."""
    n = spec.dimension
    rates = [-r for r in _field_coefficients(spec, v, mu.y0, mu.ybar1)]
    return rates[:n], rates[n:]


def coad_pairing(spec: HeisenbergSpec, v: int, w: int, mu: OrbitPoint) -> Fraction:
    """<e_v, coad(e_w) mu> at a real point.

    The algebraic coadjoint action is the derivative of the coordinate
    action; moving that derivative out of the left pairing slot costs
    (-1)^(eps_v eps_w), which matters exactly on odd-odd pairs.
    """
    eps = spec.parities
    unit = [Fraction(1 if j == w else 0) for j in range(spec.dimension)]
    xdot, xbardot = coad_infinitesimal(spec, unit, mu)
    sign_v = -1 if eps[v] % 2 else 1
    raw = sign_v * xdot[v] + xbardot[v]
    return raw if (eps[v] * eps[w]) % 2 == 0 else -raw


def ambient_names(spec: HeisenbergSpec) -> List[str]:
    """Names of the 2n dual coordinates, x-block then xbar-block."""
    names = []
    for i, e in enumerate(spec.parities):
        names.append(f"x{i+1}" if e == 0 else f"xi{i+1}")
    for i, e in enumerate(spec.parities):
        names.append(f"xb{i+1}" if e == 1 else f"xib{i+1}")
    return names


def ambient_parities(spec: HeisenbergSpec) -> List[int]:
    return [e for e in spec.parities] + [1 - e for e in spec.parities]


def ambient_chart(spec: HeisenbergSpec, generators: Optional[int] = None) -> Chart:
    names = ambient_names(spec)
    eps = ambient_parities(spec)
    even = tuple(n for n, e in zip(names, eps) if e == 0)
    odd = tuple(n for n, e in zip(names, eps) if e == 1)
    return Chart("dual", even, odd, generators or default_generator_count())


def tangent_matrix(spec: HeisenbergSpec, y0: Fraction, ybar1: Fraction) -> List[List[Fraction]]:
    """Rows: 2n ambient slots; columns: generators e_j.  Entry = coefficient
    of the fundamental field of e_j on that coordinate."""
    y0, ybar1 = Fraction(y0), Fraction(ybar1)
    top = [[(-y0 if e else y0) * w for w in col] for e, col in zip(spec.parities, linalg.transpose(spec.omega0))]
    return top + [[ybar1 * w for w in col] for col in linalg.transpose(spec.omega1)]


def _field_coefficients(spec: HeisenbergSpec, v: Sequence[Fraction], y0, ybar1) -> List[Fraction]:
    """Coefficients of the fundamental field of v on the 2n ambient slots."""
    t = tangent_matrix(spec, y0, ybar1)
    return [c for (c,) in linalg.matmul(t, [[Fraction(x)] for x in v])]


def fundamental_field(spec: HeisenbergSpec, v: Sequence[Fraction], y0, ybar1, chart: Optional[Chart] = None) -> VectorField:
    """Fundamental vector field of v in E on the ambient dual chart.

    Components: (-1)^eps_i y0 Omega^0(v, e_i) on x_i and
    ybar1 Omega^1(v, e_i) on xbar_i.  Restricting `chart` to an orbit chart
    keeps only its coordinates.
    """
    chart = chart or ambient_chart(spec)
    comps: Dict[str, SuperFunction] = {}
    for name, c in zip(ambient_names(spec), _field_coefficients(spec, v, y0, ybar1)):
        if c != 0 and name in chart.coords:
            comps[name] = chart.constant(c)
    return VectorField(chart, comps)


# ----------------------------------------------------------------------
# orbits
# ----------------------------------------------------------------------


@dataclass
class Orbit:
    spec: HeisenbergSpec
    y0: Fraction
    ybar1: Fraction
    base: OrbitPoint
    case: str
    chart: Optional[Chart]
    coordinates: Tuple[str, ...]
    dimension: Tuple[int, int]
    invariants: Tuple[str, ...]
    tangent_fields: Dict[int, VectorField] = field(default_factory=dict)
    restrictions: Dict[int, List[Tuple[str, Fraction]]] = field(default_factory=dict)
    _kks: Optional[KForm] = field(default=None, compare=False)
    _data: Optional[SymplecticData] = field(default=None, repr=False, compare=False)

    def kks_form(self) -> KForm:
        if self.case == "trivial":
            raise ValueError("the trivial orbit carries no symplectic form")
        if self._kks is None:
            self._kks = _solve_kks(self)
        return self._kks

    def symplectic_data(self) -> SymplecticData:
        if self._data is None:
            self._data = SymplecticData(self.kks_form(), [{name: 0 for name in self.chart.even}])
        return self._data

    def algebra(self) -> SuperLieAlgebra:
        return algebra_of(self.spec)

    def ambient_coordinate_function(self, slot: int) -> SuperFunction:
        """The ambient dual coordinate restricted to the orbit, as an affine
        function of the chart coordinates.

        Coordinates the action does not move are frozen at the base point;
        moved coordinates outside the chart are affine in the chart ones
        (their differences are tied by the orbit invariants).
        """
        spec = self.spec
        chart = self.chart
        names = ambient_names(spec)
        if names[slot] in self.coordinates:
            return chart.var(names[slot])
        base_vals = [g.body() for g in self.base.x] + [g.body() for g in self.base.xbar]
        out = chart.constant(base_vals[slot])
        for name, coeff in self.restrictions.get(slot, ()):
            idx = names.index(name)
            out = out + (chart.var(name) - chart.constant(base_vals[idx])).scale(coeff)
        return out

    def momentum_function(self, m: int) -> CFunction:
        """<e_m, doubled J> as a C-valued function on the orbit chart."""
        spec = self.spec
        n = spec.dimension
        chart = self.chart
        if m < n:
            sign = -1 if spec.parities[m] % 2 else 1
            f0 = self.ambient_coordinate_function(m).scale(sign)
            f1 = self.ambient_coordinate_function(n + m)
            return CFunction(f0, f1)
        if m == n:
            return CFunction(chart.constant(self.y0), chart.zero())
        return CFunction(chart.zero(), chart.constant(self.ybar1))

    def momentum_cocycle(self) -> Tuple[CECochain, bool]:
        sd = self.symplectic_data()
        return _momentum_cocycle(
            self.algebra(),
            self.momentum_function,
            lambda f, g: poisson_bracket(f, g, sd),
        )

    def pullback_cocycle(self) -> CECochain:
        """<[v,w], mu> on the extended algebra at the base point."""
        n = self.spec.dimension
        x = [g.body().re for g in self.base.x] + [self.y0, Fraction(0)]
        xbar = [g.body().re for g in self.base.xbar] + [Fraction(0), self.ybar1]
        return _pullback_class(self.algebra(), x, xbar)


def orbit_classify(spec: HeisenbergSpec, y0, ybar1, base: Optional[OrbitPoint] = None, generators: Optional[int] = None) -> Orbit:
    """Orbit trichotomy and chart selection through a real base point."""
    y0 = Fraction(y0)
    ybar1 = Fraction(ybar1)
    base = base or OrbitPoint.base(spec, y0, ybar1, generators=generators)
    n = spec.dimension
    names = ambient_names(spec)
    eps_amb = ambient_parities(spec)
    t = tangent_matrix(spec, y0, ybar1)

    if y0 == 0 and ybar1 == 0:
        return Orbit(spec, y0, ybar1, base, "trivial", None, (), (0, 0), ())
    if ybar1 == 0:
        case = "case_i"
    elif y0 == 0:
        case = "case_ii"
    else:
        case = "case_iii"

    # one elimination of the moving tangent rows, taken as columns: the
    # pivots are the chart, ambient coordinates whose projection stays an
    # isomorphism onto the tangent space; every other moving coordinate is
    # a fixed combination of the pivots, read off its column, which gives
    # both a linear invariant and its restriction to the chart
    moving = [s for s in range(2 * n) if any(t[s])]
    m, pivots = linalg.rref(linalg.transpose([[GaussianRational(v) for v in t[s]] for s in moving]))
    selected = [moving[c] for c in pivots]
    even = tuple(names[s] for s in selected if eps_amb[s] == 0)
    odd = tuple(names[s] for s in selected if eps_amb[s] == 1)
    chart = Chart(f"orbit_{case}", even, odd, generators or default_generator_count())

    invariants = []
    restrictions: Dict[int, List[Tuple[str, Fraction]]] = {}
    for col, s in enumerate(moving):
        if col in pivots:
            continue
        combo = [(sel, m[r][col]) for r, sel in enumerate(selected) if not m[r][col].is_zero()]
        restrictions[s] = [(names[sel], c.re) for sel, c in combo]
        kernel = sorted([(s, GaussianRational(1))] + [(sel, -c) for sel, c in combo])
        invariants.append(" + ".join(f"({c})*{names[k]}" for k, c in kernel))

    fields = {}
    for j in range(n):
        v = [Fraction(0)] * n
        v[j] = Fraction(1)
        fields[j] = fundamental_field(spec, v, y0, ybar1, chart)

    return Orbit(
        spec,
        y0,
        ybar1,
        base,
        case,
        chart,
        tuple(names[s] for s in selected),
        (len(even), len(odd)),
        tuple(invariants),
        fields,
        restrictions,
    )


def _solve_kks(orbit: Orbit) -> KForm:
    """Orbit symplectic form from omega(v*, w*) = y0 Omega^0(v,w) + ybar1 Omega^1(v,w)."""
    spec = orbit.spec
    n = spec.dimension
    chart = orbit.chart
    coords = chart.coords
    r = len(coords)

    # tangent components in chart coordinates, and r generators whose
    # tangent vectors are independent
    m_rows = []
    for j in range(n):
        comps = orbit.tangent_fields[j].components
        m_rows.append([comps[name].constant_value().body() if name in comps else GaussianRational(0) for name in coords])
    chosen = linalg.independent(m_rows)
    if len(chosen) != r:
        raise ValueError("tangent fields do not span the orbit chart")

    w_target = [
        [
            GaussianRational(orbit.y0 * spec.omega0[a][b] + orbit.ybar1 * spec.omega1[a][b])
            for b in chosen
        ]
        for a in chosen
    ]
    minv = linalg.inverse([m_rows[j] for j in chosen])
    wc = linalg.matmul(linalg.matmul(minv, w_target), linalg.transpose(minv))

    omega = form_from_contraction_matrix(chart, wc)

    # every remaining pairing must agree (well-definedness of the form)
    for a in range(n):
        for b in range(n):
            lhs = contract(
                orbit.tangent_fields[a], orbit.tangent_fields[b], omega
            ).as_function()
            target = orbit.y0 * spec.omega0[a][b] + orbit.ybar1 * spec.omega1[a][b]
            if lhs != chart.constant(Fraction(target)):
                raise ValueError("orbit pairing is inconsistent; form not well defined")
    return omega


def momentum_check(orbit: Orbit) -> dict:
    """Verify i_(v*) doubled-omega = d<v, J> and the strong-hamiltonian
    bracket identity on all basis pairs of the extended algebra."""
    sd = orbit.symplectic_data()
    g = orbit.algebra()
    n_ext = g.dimension
    n = orbit.spec.dimension
    hamiltonian_ok = True
    for m in range(n_ext):
        if m < n:
            fld = orbit.tangent_fields[m]
        else:
            fld = VectorField(orbit.chart, {})
        jm = orbit.momentum_function(m)
        if contract(fld, sd.doubled) != ext_d(jm):
            hamiltonian_ok = False
        xjm = require_hamiltonian_field(jm, sd)
        if xjm != fld:
            hamiltonian_ok = False
    cocycle, constant = orbit.momentum_cocycle()
    return {
        "hamiltonian": hamiltonian_ok,
        "momentum_cocycle_zero": cocycle.is_zero(),
        "cocycle_constant": constant,
        "strongly_hamiltonian": hamiltonian_ok and cocycle.is_zero(),
    }
