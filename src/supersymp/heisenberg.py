"""Super Heisenberg groups and their coadjoint orbits.

From an even graded skew-symmetric pairing Omega = Omega^0 c0 + Omega^1 c1
on a p|q space E we build the central extension group on E x C, its Lie
algebra, the affine coadjoint action on the 2n real coordinates (x_i,
xbar_i) of the dual, the fundamental vector fields, the orbit trichotomy
(y0 only / ybar1 only / both nonzero), and the orbit symplectic form
obtained by inverting the fundamental-field coefficient matrix.

Every kernel reads one table derived from Omega, the columns of
S^alpha_ij = (-1)^(eps_i eps_j) Omega^alpha_ij over Q(i): the pairing is
a^T S b, and the tangent matrix at (y0, ybar1), which gives the coadjoint
action, the fundamental fields, the orbit charts and the KKS form, is S^0
times y0 on the x-slots and S^1 times ybar1 on the xbar-slots.

`orbit_classify` classifies the orbit through a given (y0, ybar1) once per
spec and generator count and keeps its parts on the spec: every later call
returns a new read-only `Orbit` on those parts, so the KKS form,
`SymplecticData` and momentum cocycle are computed once for all callers.
The parts do not refer back to the spec, so no reference cycle keeps a
spec alive once it is dropped.  The momentum map J of an orbit is the
inclusion, so each fundamental field v* is checked as the field of <v, J>
and the momentum cocycle reads its brackets off them: nothing is solved.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .charts import CFunction, Chart, ReadOnly, SuperFunction, VectorField
from .forms import KForm, contract, ext_d
from .grassmann import DEFAULT_GENERATORS, DimensionError, GrassmannNumber, accumulate, add_product, skew_sign
from .liecoh import CECochain, SuperLieAlgebra, central_extension
from .liecoh import momentum_cocycle as _momentum_cocycle, pullback_class as _pullback_class
from .scalars import ZERO, GaussianRational
from .symplectic import SymplecticData, form_from_contraction_matrix


class HeisenbergSpec:
    """Even graded skew-symmetric C-valued pairing on a p|q space."""

    def __init__(self, parities: Sequence[int], omega0, omega1):
        self.parities = tuple(int(p) % 2 for p in parities)
        n = len(self.parities)
        # read-only: the tangent rows, orbit parts and KKS forms cached below are built from them
        self.omega0 = tuple(tuple(Fraction(omega0[i][j]) for j in range(n)) for i in range(n))
        self.omega1 = tuple(tuple(Fraction(omega1[i][j]) for j in range(n)) for i in range(n))
        for name, m in (("omega0", self.omega0), ("omega1", self.omega1)):
            bad = linalg.skew_violation(m, self.parities)
            if bad is not None:
                raise ValueError(f"{name} is not graded skew-symmetric at ({bad[0]},{bad[1]})")
        for name, m, parity, pairs in (("omega0", self.omega0, 0, "odd"), ("omega1", self.omega1, 1, "even")):
            bad = linalg.parity_violation(m, self.parities, parity)
            if bad is not None:
                raise ValueError(f"{name} must vanish on {pairs} pairs ({bad[0]},{bad[1]})")
        # column j of S^alpha_ij = (-1)^(eps_i eps_j) Omega^alpha_ij as its
        # nonzero (i, entry) pairs: the one table every kernel reads
        eps = self.parities
        self._signed = tuple(
            tuple(tuple((i, GaussianRational(-skew_sign(eps[i], eps[j]) * w)) for i, w in enumerate(column) if w)
                  for j, column in enumerate(zip(*omega)))
            for omega in (self.omega0, self.omega1)
        )
        self._tangent: Dict = {}  # _tangent_rows by (y0, ybar1)
        # orbit_classify without a base, by (y0, ybar1, generators): the parts
        # every orbit through that point shares
        self._orbit_parts: Dict = {}

    @property
    def dimension(self) -> int:
        return len(self.parities)

    def pairing_c(self, a: Sequence[GrassmannNumber], b: Sequence[GrassmannNumber]):
        """Omega(a, b) for Grassmann coordinate vectors, as a (c0, c1) pair.

        Left bilinearity pulls the second coordinates through the first
        basis slot: Omega(a,b) = a^T S b with S_ij = (-1)^(eps_i eps_j) Omega_ij.
        For each column j of S the sum u_j = sum_i a_i S_ij is made in one
        terms dict, and its products with b_j go straight into the result,
        so no Grassmann number is built per entry.  On the zero space it is
        the scalar 0, which takes N from what it is added to.
        """
        if not a:
            return GaussianRational(0), GaussianRational(0)
        n = a[0].n
        out = []
        for columns in self._signed:
            terms: Dict = {}
            for column, y in zip(columns, b):
                if not column or not y.terms:
                    continue
                _check_generators(y, n)
                u: Dict = {}
                _add_row_product(u, column, a, n)
                add_product(terms, u, y.terms)
            out.append(a[0]._like(terms))
        return tuple(out)


def _check_pairing(spec: HeisenbergSpec, other: HeisenbergSpec) -> None:
    """Refuse operands on two pairings; a spec with the same parities,
    omega0 and omega1 is the same pairing."""
    if spec is not other and (spec.parities, spec.omega0, spec.omega1) != (other.parities, other.omega0, other.omega1):
        raise ValueError(f"operands on different pairings: dimension {spec.dimension} vs {other.dimension}")


def _check_generators(x: GrassmannNumber, n: int) -> None:
    if x.n != n:
        raise DimensionError(f"generator counts differ: {n} vs {x.n}")


def _add_row_product(terms: Dict, row: Sequence[Tuple[int, GaussianRational]], vector: Sequence[GrassmannNumber], n: int) -> None:
    """terms += sum_j c_j vector[j], for a sparse rational row of (j, c)
    pairs with c nonzero and a vector of Grassmann numbers over N = n: the
    one product of the pairing and the coadjoint action."""
    for j, c in row:
        x = vector[j]
        _check_generators(x, n)
        for idx, v in x.terms.items():
            accumulate(terms, idx, v * c)


class GroupElement:
    def __init__(self, spec: HeisenbergSpec, a: List[GrassmannNumber], b0: GrassmannNumber, b1: GrassmannNumber):
        self.spec, self.a, self.b0, self.b1 = spec, a, b0, b1
        # every term must have the coordinate's parity: zero passes, mixed parities fail
        for i, (coord, parity) in enumerate(zip(self.a, self.spec.parities)):
            if not coord._parities() <= {parity}:
                raise ValueError(f"coordinate a^{i+1} must have parity {parity}")
        if not self.b0._parities() <= {0}:
            raise ValueError("b0 must be even")
        if not self.b1._parities() <= {1}:
            raise ValueError("b1 must be odd")

    def __eq__(self, other):
        return isinstance(other, GroupElement) and (self.a, self.b0, self.b1) == (other.a, other.b0, other.b1)


def group_identity(spec: HeisenbergSpec, generators: int = DEFAULT_GENERATORS) -> GroupElement:
    zero = GrassmannNumber.zero(generators)
    return GroupElement(spec, [zero] * spec.dimension, zero, zero)


def group_mul(g: GroupElement, h: GroupElement) -> GroupElement:
    """(a,b) (a',b') = (a + a', b + b' + Omega(a,a')/2)."""
    spec = g.spec
    _check_pairing(spec, h.spec)
    a = [x + y for x, y in zip(g.a, h.a)]
    c0, c1 = spec.pairing_c(g.a, h.a)
    half = GaussianRational(Fraction(1, 2))
    b0 = g.b0 + h.b0 + c0 * half
    b1 = g.b1 + h.b1 + c1 * half
    return GroupElement(spec, a, b0, b1)


def group_inverse(g: GroupElement) -> GroupElement:
    return GroupElement(g.spec, [-x for x in g.a], -g.b0, -g.b1)


def algebra_of(spec: HeisenbergSpec) -> SuperLieAlgebra:
    """Central extension algebra: [e_i, e_j] = Omega^0_ij c0 + Omega^1_ij c1,
    the extension of the abelian p|q algebra by the pairing.  The spec has
    checked that Omega^0 vanishes on odd pairs and Omega^1 on even ones, so
    the nonzero one of the two is the cochain's value on (i, j)."""
    n = spec.dimension
    abelian = SuperLieAlgebra(spec.parities, {})
    omega = {(i, j): w for i in range(n) for j in range(i, n) if (w := spec.omega0[i][j] or spec.omega1[i][j])}
    return central_extension(abelian, CECochain(abelian, 2)._like(omega))


# ----------------------------------------------------------------------
# the dual and its coadjoint action
# ----------------------------------------------------------------------


class OrbitPoint(ReadOnly):
    """Point of the dual in the coordinates (x_i, xbar_i, y0, ybar1).

    The restriction to orbits through real points forces y1 = ybar0 = 0,
    so only y0 and ybar1 are carried.  x and xbar entries may be Grassmann
    (the coadjoint action introduces group coordinates).  Read-only, x and
    xbar as tuples, since an orbit hands its base point to every caller.
    """

    def __init__(self, spec: HeisenbergSpec, x: Sequence[GrassmannNumber], xbar: Sequence[GrassmannNumber], y0: Fraction, ybar1: Fraction):
        vars(self).update(spec=spec, x=tuple(x), xbar=tuple(xbar), y0=y0, ybar1=ybar1)

    def __eq__(self, other):
        return isinstance(other, OrbitPoint) and vars(self) == vars(other)

    @staticmethod
    def base(spec: HeisenbergSpec, y0, ybar1, x=None, xbar=None, generators: int = DEFAULT_GENERATORS) -> "OrbitPoint":
        n = spec.dimension

        def mk(vals, slot_parity):
            out = []
            for i in range(n):
                v = Fraction(vals[i]) if vals else Fraction(0)
                if v != 0 and slot_parity(i) != 0:
                    raise ValueError("real base point: odd slots must vanish")
                out.append(GrassmannNumber.scalar(v, generators))
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

    The shifts are -t a for the tangent matrix t, which is linear in (y0,
    ybar1), so -t = t(-y0, -ybar1): each moved coordinate is mu's terms plus
    the sparse row of that table at its slot times a, summed in one terms
    dict; a coordinate the action does not move is kept as is.
    """
    spec = mu.spec
    _check_pairing(g.spec, spec)
    n = spec.dimension
    moved = []
    for c, row in zip(mu.x + mu.xbar, _tangent_rows(spec, -mu.y0, -mu.ybar1)):
        if row:
            terms = dict(c.terms)
            _add_row_product(terms, row, g.a, c.n)
            c = c._like(terms)
        moved.append(c)
    return OrbitPoint(spec, moved[:n], moved[n:], mu.y0, mu.ybar1)


def coad_infinitesimal(spec: HeisenbergSpec, v: Sequence[Fraction], mu: OrbitPoint):
    """Rates of change (coad(v) mu)_0 and (coad(v) mu)_1 in coordinates:
    minus the fundamental field of v."""
    n = spec.dimension
    rates = [-r for r in _field_coefficients(spec, v, mu.y0, mu.ybar1)]
    return rates[:n], rates[n:]


def coad_pairing(spec: HeisenbergSpec, v: int, w: int, mu: OrbitPoint) -> GaussianRational:
    """<e_v, coad(e_w) mu> at a real point.

    The algebraic coadjoint action is the derivative of the coordinate
    action; moving that derivative out of the left pairing slot costs
    (-1)^(eps_v eps_w), which matters exactly on odd-odd pairs.
    """
    eps = spec.parities
    unit = [Fraction(1 if j == w else 0) for j in range(spec.dimension)]
    xdot, xbardot = coad_infinitesimal(spec, unit, mu)
    # (-1)^eps_v on the x-rate and (-1)^(eps_v eps_w) overall, each a -skew_sign
    raw = xbardot[v] - skew_sign(eps[v], 1) * xdot[v]
    return -skew_sign(eps[v], eps[w]) * raw


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


def ambient_chart(spec: HeisenbergSpec, generators: int = DEFAULT_GENERATORS) -> Chart:
    names = ambient_names(spec)
    eps = ambient_parities(spec)
    even = tuple(n for n, e in zip(names, eps) if e == 0)
    odd = tuple(n for n, e in zip(names, eps) if e == 1)
    return Chart("dual", even, odd, generators)


def _tangent_rows(spec: HeisenbergSpec, y0, ybar1) -> Tuple[Tuple[Tuple[int, GaussianRational], ...], ...]:
    """The tangent matrix t at (y0, ybar1), one row per ambient slot s as
    its nonzero (j, t_sj) pairs, built once per (spec, y0, ybar1).

    t_sj is (-1)^eps_s y0 Omega^0_js on x_s and ybar1 Omega^1_js on xbar_s.
    Omega^0 lives on pairs of one parity and Omega^1 on mixed pairs, so that
    is y0 S^0_js and ybar1 S^1_js: row s is column s of S^0 times y0, and
    row n + s is column s of S^1 times ybar1."""
    key = Fraction(y0), Fraction(ybar1)
    rows = spec._tangent.get(key)
    if rows is None:
        factors = GaussianRational(key[0]), GaussianRational(key[1])
        rows = spec._tangent[key] = tuple(
            tuple((j, w * y) for j, w in column) if y else ()
            for y, columns in zip(factors, spec._signed)
            for column in columns
        )
    return rows


def tangent_matrix(spec: HeisenbergSpec, y0, ybar1) -> Tuple[Tuple[GaussianRational, ...], ...]:
    """Rows: 2n ambient slots; columns: generators e_j.  Entry = coefficient
    of the fundamental field of e_j on that coordinate: the dense view of
    `_tangent_rows`, as tuples."""
    return tuple(tuple(row.get(j, ZERO) for j in range(spec.dimension)) for row in map(dict, _tangent_rows(spec, y0, ybar1)))


def _field_coefficients(spec: HeisenbergSpec, v: Sequence[Fraction], y0, ybar1) -> List[GaussianRational]:
    """Coefficients of the fundamental field of v on the 2n ambient slots: t v."""
    v = [Fraction(x) for x in v]
    return [sum((c * v[j] for j, c in row), ZERO) for row in _tangent_rows(spec, y0, ybar1)]


def fundamental_field(spec: HeisenbergSpec, v: Sequence[Fraction], y0, ybar1, chart: Optional[Chart] = None) -> VectorField:
    """Fundamental vector field of v in E on the ambient dual chart.

    Components: (-1)^eps_i y0 Omega^0(v, e_i) on x_i and
    ybar1 Omega^1(v, e_i) on xbar_i.  Restricting `chart` to an orbit chart
    keeps only its coordinates.
    """
    return _constant_field(spec, _field_coefficients(spec, v, y0, ybar1), chart or ambient_chart(spec))


def _constant_field(spec: HeisenbergSpec, coefficients: Sequence[GaussianRational], chart: Chart) -> VectorField:
    """The constant field with these coefficients on the 2n ambient slots of `chart`."""
    comps: Dict[str, SuperFunction] = {}
    for name, c in zip(ambient_names(spec), coefficients):
        if c != 0 and name in chart.coords:
            comps[name] = chart.constant(c)
    return VectorField(chart, comps)


# ----------------------------------------------------------------------
# orbits
# ----------------------------------------------------------------------


class Orbit(ReadOnly):
    """Read-only, since orbits through one point of a spec share their
    parts: `tangent_fields` and `restrictions` are read-only mappings, and
    the algebra, the KKS form, its `SymplecticData`, `hamiltonian` and the
    momentum cocycle are each built on first use and kept in the shared `_memo`."""

    def __init__(self, spec: HeisenbergSpec, base: OrbitPoint, parts: Dict):
        vars(self).update(parts, spec=spec, base=base)

    def _cached(self, name: str, build):
        value = self._memo.get(name)
        if value is None:
            value = self._memo[name] = build()
        return value

    def kks_form(self) -> KForm:
        if self.case == "trivial":
            raise ValueError("the trivial orbit carries no symplectic form")
        return self._cached("kks", lambda: _solve_kks(self))

    def symplectic_data(self) -> SymplecticData:
        return self._cached("data", lambda: SymplecticData(self.kks_form(), [{name: 0 for name in self.chart.even}]))

    def algebra(self) -> SuperLieAlgebra:
        return self._cached("algebra", lambda: algebra_of(self.spec))

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
        """<e_m, doubled J> as a C-valued function on the orbit chart, for
        m = 0..n+1; the n + 2 of them are built once and kept in `_memo`."""
        return self._cached("momentum", self._momentum_functions)[m]

    def _momentum_functions(self) -> Tuple[CFunction, ...]:
        if self.case == "trivial":
            raise ValueError("the trivial orbit carries no symplectic form")
        spec = self.spec
        n = spec.dimension
        chart = self.chart
        out = []
        for m in range(n):
            sign = -skew_sign(spec.parities[m], 1)
            f0 = self.ambient_coordinate_function(m).scale(sign)
            f1 = self.ambient_coordinate_function(n + m)
            out.append(CFunction(f0, f1))
        out.append(CFunction(chart.constant(self.y0), chart.zero()))
        out.append(CFunction(chart.zero(), chart.constant(self.ybar1)))
        return tuple(out)

    def momentum_field(self, m: int) -> VectorField:
        """The fundamental field e_m* on the orbit chart, zero on c0 and c1."""
        return self.tangent_fields[m] if m < self.spec.dimension else VectorField(self.chart, {})

    def hamiltonian(self) -> bool:
        """i_(v*) doubled-omega = d<v, J> for each of the n + 2 generators v."""
        return self._cached("hamiltonian", lambda: all(
            ext_d(self.momentum_function(m)) == contract(self.momentum_field(m), self.symplectic_data().doubled)
            for m in range(self.algebra().dimension)
        ))

    def momentum_cocycle(self) -> Tuple[CECochain, bool]:
        """The cocycle with {J_i, J_j} = e_i*(J_j), that of J where `hamiltonian`
        holds: any X with i_X doubled-omega = dJ_i has X(J_j) = i_X i_(e_j*) doubled-omega."""
        return self._cached("cocycle", lambda: _momentum_cocycle(
            self.algebra(),
            self.momentum_function,
            lambda i, j: self.momentum_field(i).apply(self.momentum_function(j)),
        ))

    def pullback_cocycle(self) -> CECochain:
        """<[v,w], mu> on the extended algebra at the base point."""
        n = self.spec.dimension
        x = [g.body().re for g in self.base.x] + [self.y0, Fraction(0)]
        xbar = [g.body().re for g in self.base.xbar] + [Fraction(0), self.ybar1]
        return _pullback_class(self.algebra(), x, xbar)


def orbit_classify(spec: HeisenbergSpec, y0, ybar1, base: Optional[OrbitPoint] = None, generators: int = DEFAULT_GENERATORS) -> Orbit:
    """Orbit trichotomy and chart selection through a real base point.

    The chart has the Grassmann generator count of `base` when one is
    given, else `generators`, which also builds the default base point.
    Without `base` the orbit is classified once per (y0, ybar1, generators)
    and its parts kept on `spec`, as its tangent rows are: a repeat returns
    a new read-only `Orbit` on the same parts.
    """
    y0 = Fraction(y0)
    ybar1 = Fraction(ybar1)
    if base is not None:
        return Orbit(spec, base, _classify(spec, y0, ybar1, base.x[0].n if base.x else generators))
    key = y0, ybar1, generators
    parts = spec._orbit_parts.get(key)
    if parts is None:
        parts = spec._orbit_parts[key] = _classify(spec, y0, ybar1, generators)
    return Orbit(spec, OrbitPoint.base(spec, y0, ybar1, generators=generators), parts)


def _classify(spec: HeisenbergSpec, y0: Fraction, ybar1: Fraction, generators: int) -> Dict:
    """The parts of the orbit through (y0, ybar1), none of which refers to `spec`."""
    n = spec.dimension
    names = ambient_names(spec)
    eps_amb = ambient_parities(spec)
    t = tangent_matrix(spec, y0, ybar1)

    parts = dict(y0=y0, ybar1=ybar1, _memo={})
    if y0 == 0 and ybar1 == 0:
        return dict(parts, case="trivial", chart=None, coordinates=(), dimension=(0, 0), invariants=(),
                    tangent_fields=MappingProxyType({}), restrictions=MappingProxyType({}))
    case = "case_i" if ybar1 == 0 else "case_ii" if y0 == 0 else "case_iii"

    # one elimination of the moving tangent rows, taken as columns: the
    # pivots are the chart, ambient coordinates whose projection stays an
    # isomorphism onto the tangent space; every other moving coordinate is
    # a fixed combination of the pivots, read off its column, which gives
    # both a linear invariant and its restriction to the chart
    moving = [s for s in range(2 * n) if any(t[s])]
    m, pivots = linalg.rref(linalg.transpose([t[s] for s in moving]))
    selected = [moving[c] for c in pivots]
    even = tuple(names[s] for s in selected if eps_amb[s] == 0)
    odd = tuple(names[s] for s in selected if eps_amb[s] == 1)
    chart = Chart(f"orbit_{case}", even, odd, generators)

    invariants = []
    restrictions: Dict[int, Tuple[Tuple[str, Fraction], ...]] = {}
    for col, s in enumerate(moving):
        if col in pivots:
            continue
        combo = [(sel, m[r][col]) for r, sel in enumerate(selected) if not m[r][col].is_zero()]
        restrictions[s] = tuple((names[sel], c.re) for sel, c in combo)
        kernel = sorted([(s, GaussianRational(1))] + [(sel, -c) for sel, c in combo])
        invariants.append(" + ".join(f"({c})*{names[k]}" for k, c in kernel))

    # the fundamental field of e_j is column j of t
    fields = {j: _constant_field(spec, col, chart) for j, col in enumerate(linalg.transpose(t))}

    return dict(
        parts,
        case=case,
        chart=chart,
        coordinates=tuple(names[s] for s in selected),
        dimension=(len(even), len(odd)),
        invariants=tuple(invariants),
        tangent_fields=MappingProxyType(fields),
        restrictions=MappingProxyType(restrictions),
    )


def _solve_kks(orbit: Orbit) -> KForm:
    """Orbit symplectic form from omega(v*, w*) = y0 Omega^0(v,w) + ybar1 Omega^1(v,w)."""
    spec = orbit.spec
    n = spec.dimension
    chart = orbit.chart
    r = len(chart.coords)

    # M: the tangent components of the n generators on the chart's slots, as rows
    t = tangent_matrix(spec, orbit.y0, orbit.ybar1)
    names = ambient_names(spec)
    slots = [names.index(name) for name in chart.coords]
    m_rows = [[t[s][j] for s in slots] for j in range(n)]
    chosen = linalg.independent(m_rows)
    if len(chosen) != r:
        raise ValueError("tangent fields do not span the orbit chart")

    # Omega^0 vanishes on mixed pairs and Omega^1 on unmixed ones, so the
    # tangent rows a and n + a are -y0 Omega^0_a. and -ybar1 Omega^1_a.
    target = [[-t[a][b] - t[n + a][b] for b in range(n)] for a in range(n)]
    minv = linalg.inverse([m_rows[j] for j in chosen])
    w_target = [[target[a][b] for b in chosen] for a in chosen]
    wc = linalg.matmul(linalg.matmul(minv, w_target), linalg.transpose(minv))
    omega = form_from_contraction_matrix(chart, wc)
    # well defined: i_(v*) i_(w*) omega = (M W M^T)[v][w] is the target on
    # all n generators
    if linalg.matmul(linalg.matmul(m_rows, wc, r), linalg.transpose(m_rows), n) != target:
        raise ValueError("orbit pairing is inconsistent; form not well defined")
    return omega


def momentum_check(orbit: Orbit) -> dict:
    """Verify i_(v*) doubled-omega = d<v, J> and the strong-hamiltonian
    bracket identity on all basis pairs of the extended algebra, both read
    off the orbit's momentum fields."""
    hamiltonian_ok = orbit.hamiltonian()
    cocycle, constant = orbit.momentum_cocycle()
    return {
        "hamiltonian": hamiltonian_ok,
        "momentum_cocycle_zero": cocycle.is_zero(),
        "cocycle_constant": constant,
        "strongly_hamiltonian": hamiltonian_ok and cocycle.is_zero(),
    }
