from __future__ import annotations

from fractions import Fraction

import pytest

from supersymp import linalg
from supersymp.forms import contract, wedge
from supersymp.grassmann import DimensionError, GrassmannNumber
from supersymp.heisenberg import (
    GroupElement,
    HeisenbergSpec,
    OrbitPoint,
    algebra_of,
    ambient_chart,
    coad,
    coad_infinitesimal,
    fundamental_field,
    group_identity,
    group_inverse,
    group_mul,
    momentum_check,
    orbit_classify,
    tangent_matrix,
)
from supersymp.liecoh import jacobi_check
from supersymp.reference import d, heisenberg_33
from supersymp.scalars import GaussianRational
from supersymp.symplectic import is_symplectic

NG = 6


def gnum(val):
    return GrassmannNumber.scalar(val, NG)


def gen(k):
    return GrassmannNumber.generator(k, NG)


def random_element(rng, spec):
    """Group element with random Grassmann coordinates of the right parity."""
    a = []
    for i, e in enumerate(spec.parities):
        if e == 0:
            coord = gnum(rng.randint(-2, 2))
            if rng.random() < 0.5:
                coord = coord + gen(1) * gen(2) * rng.randint(-1, 1)
        else:
            coord = gen(rng.randint(1, NG)) * rng.randint(-2, 2)
        a.append(coord)
    b0 = gnum(rng.randint(-2, 2))
    b1 = gen(rng.randint(1, NG)) * rng.randint(-1, 1)
    return GroupElement(spec, a, b0, b1)


# ----------------------------------------------------------------------
# group law
# ----------------------------------------------------------------------


def test_coordinate_with_both_parities_is_named():
    spec = heisenberg_33()
    zero = gnum(0)
    a = [zero] * spec.dimension
    mixed = gnum(1) + gen(1)
    with pytest.raises(ValueError, match=r"^coordinate a\^1 must have parity 0$"):
        GroupElement(spec, [mixed] + a[1:], zero, zero)
    with pytest.raises(ValueError, match="^b0 must be even$"):
        GroupElement(spec, a, mixed, zero)
    with pytest.raises(ValueError, match="^b1 must be odd$"):
        GroupElement(spec, a, zero, mixed)


def test_neutral_element(rng):
    spec = heisenberg_33()
    g = random_element(rng, spec)
    e = group_identity(spec, NG)
    assert group_mul(e, g) == g
    assert group_mul(g, e) == g


def test_inverse(rng):
    spec = heisenberg_33()
    for _ in range(10):
        g = random_element(rng, spec)
        assert group_mul(g, group_inverse(g)) == group_identity(spec, NG)
        assert group_mul(group_inverse(g), g) == group_identity(spec, NG)


def test_associativity(rng):
    spec = heisenberg_33()
    for _ in range(10):
        g, h, k = (random_element(rng, spec) for _ in range(3))
        assert group_mul(group_mul(g, h), k) == group_mul(g, group_mul(h, k))


def test_group_mul_pairs_odd_coordinates_with_the_graded_sign():
    """b0 of g h is Omega0(a, a')/2 = -(4 a1 a1' + a1 a2' + a2 a1' + 5 a2 a2')/2
    on the odd-odd block [[4, 1], [1, 5]], expanded by hand."""
    omega0 = [[0, 0, 0], [0, 4, 1], [0, 1, 5]]
    omega1 = [[0, 2, 0], [-2, 0, 0], [0, 0, 0]]
    spec = HeisenbergSpec([0, 1, 1], omega0, omega1)
    zero = gnum(0)
    g = GroupElement(spec, [zero, gen(1), gen(2).scale(2)], zero, zero)
    h = GroupElement(spec, [zero, gen(3), gen(4) + gen(3) * gen(5) * gen(6)], zero, zero)
    # a1 a1' = th1 th3, a1 a2' = th1 th4 + th1 th3 th5 th6,
    # a2 a1' = 2 th2 th3, a2 a2' = 2 th2 th4 + 2 th2 th3 th5 th6
    expected = GrassmannNumber(
        NG,
        {
            (1, 3): -2,
            (1, 4): Fraction(-1, 2),
            (1, 3, 5, 6): Fraction(-1, 2),
            (2, 3): -1,
            (2, 4): -5,
            (2, 3, 5, 6): -5,
        },
    )
    gh = group_mul(g, h)
    assert gh.b0 == expected
    assert gh.b1.is_zero()
    assert gh.a == [zero, gen(1) + gen(3), gen(2).scale(2) + gen(4) + gen(3) * gen(5) * gen(6)]


def test_pairing_on_the_zero_space_is_zero():
    zero = GrassmannNumber.zero()
    pairing = HeisenbergSpec([], [], []).pairing_c([], [])
    assert pairing == (zero, zero)
    assert all(isinstance(c, GaussianRational) for c in pairing)


def random_kk_spec(rng, k):
    """A k|k pairing with small random entries on its parity pattern: Omega^0
    skew on even pairs and symmetric on odd ones, Omega^1 skew on mixed ones."""
    parities = [0] * k + [1] * k
    rng.shuffle(parities)
    n = 2 * k
    omega0 = [[0] * n for _ in range(n)]
    omega1 = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            if parities[i] != parities[j]:
                omega1[i][j], omega1[j][i] = v, -v
            elif parities[i]:
                omega0[i][j] = omega0[j][i] = v
            elif i != j:
                omega0[i][j], omega0[j][i] = v, -v
    return HeisenbergSpec(parities, omega0, omega1)


def tangent_field(orbit, v):
    """The constant field of column v of the orbit's tangent table on its
    chart, zero for c0 and c1."""
    column = orbit.tangent[v] if v < orbit.spec.dimension else ()
    return orbit.chart.vector_field(dict(zip(orbit.chart.coords, column)))


def scaled_tangent(orbit, k):
    """An orbit on the parts of `orbit` with its tangent table scaled by k
    and a memo that holds only its KKS form, which stays the true one."""
    from supersymp.heisenberg import Orbit

    tangent = tuple(tuple(k * c for c in column) for column in orbit.tangent)
    return Orbit(orbit.spec, orbit.base, dict(vars(orbit), tangent=tangent, _memo={"kks": orbit.kks_form()}))


def random_coordinates(rng, parities, generators, zero=False):
    """Grassmann numbers over N = generators, each of the given parity, with
    up to three terms of up to three generators (none when `zero`)."""
    out = []
    for e in parities:
        terms = {}
        for _ in range(0 if zero else rng.randint(0, 3)):
            size = rng.choice([s for s in range(4) if s % 2 == e])
            terms[tuple(sorted(rng.sample(range(1, generators + 1), size)))] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        out.append(GrassmannNumber(generators, terms))
    return out


def test_pairing_and_coad_kernels_match_the_dense_formula(rng):
    """pairing_c is a^T S b with S_ij = (-1)^(eps_i eps_j) Omega_ij and coad
    moves (x, xbar) by -t a, t the tangent matrix with t_sj = (-1)^eps_s y0
    Omega^0_js on x_s and ybar1 Omega^1_js on xbar_s, each a product of
    `linalg.matmul` built here from Omega; checked on random k|k pairings and
    the 3|3 one, with odd coordinates, N = 4..6 and zero vectors."""
    specs = [random_kk_spec(rng, k) for k in (1, 2, 3)] + [heisenberg_33()]
    for spec in specs:
        eps, n = spec.parities, spec.dimension
        signed = [[[omega[i][j] * (-1) ** (eps[i] * eps[j]) for j in range(n)] for i in range(n)]
                  for omega in (spec.omega0, spec.omega1)]
        for generators in (4, 5, 6):
            for trial in range(4):
                a, b = (random_coordinates(rng, eps, generators, zero=trial == z) for z in (1, 2))
                dense = tuple(linalg.matmul(linalg.matmul([a], s), [[y] for y in b])[0][0] for s in signed)
                pairing = spec.pairing_c(a, b)
                assert pairing == dense
                assert all(c.n == generators for c in pairing)

                y0, ybar1 = (rng.choice((0, 1, -2, Fraction(2, 3))) for _ in range(2))
                mu = OrbitPoint(spec, random_coordinates(rng, eps, generators),
                                random_coordinates(rng, [1 - e for e in eps], generators), y0, ybar1)
                zero = GrassmannNumber.zero(generators)
                t = [[(-1) ** eps[s] * y0 * spec.omega0[j][s] for j in range(n)] for s in range(n)]
                t += [[ybar1 * spec.omega1[j][s] for j in range(n)] for s in range(n)]
                shift = linalg.matmul(t, [[x] for x in a])
                moved = [c - s for c, (s,) in zip(mu.x + mu.xbar, shift)]
                assert coad(GroupElement(spec, a, zero, zero), mu) == OrbitPoint(spec, moved[:n], moved[n:], y0, ybar1)


def test_tangent_kernels_read_their_scalars_as_fractions():
    """tangent_matrix, fundamental_field and coad_infinitesimal read y0,
    ybar1 and the entries of v as Fraction does, strings included."""
    spec = heisenberg_33()
    half = Fraction(1, 2)
    assert tangent_matrix(spec, "1/2", "-3") == tangent_matrix(spec, half, -3)
    v = [Fraction(j + 1, 3) for j in range(spec.dimension)]
    text = [str(x) for x in v]
    assert fundamental_field(spec, text, "1/2", 1) == fundamental_field(spec, v, half, 1)
    mu = OrbitPoint.base(spec, half, 1)
    assert coad_infinitesimal(spec, text, mu) == coad_infinitesimal(spec, v, mu)


def test_pairing_and_coad_refuse_two_generator_counts():
    spec = heisenberg_33()
    ones = [GrassmannNumber.scalar(1, 6) if e == 0 else GrassmannNumber.generator(1, 6) for e in spec.parities]
    fours = [GrassmannNumber.scalar(1, 4) if e == 0 else GrassmannNumber.generator(1, 4) for e in spec.parities]
    with pytest.raises(DimensionError):
        spec.pairing_c(ones, fours)
    zero = GrassmannNumber.zero(6)
    with pytest.raises(DimensionError):
        coad(GroupElement(spec, ones, zero, zero), OrbitPoint.base(spec, 1, 1, generators=4))


def _plane():
    """A 2|0 pairing, to pair against the 3|3 one."""
    return HeisenbergSpec([0, 0], [[0, 1], [-1, 0]], [[0, 0], [0, 0]])


def test_group_mul_refuses_elements_on_two_pairings():
    """Before the check, the 3|3 element times the 2|0 one came back as a
    6-dimensional element with 2 coordinates."""
    g33, g2 = group_identity(heisenberg_33()), group_identity(_plane())
    for g, h in ((g33, g2), (g2, g33)):
        with pytest.raises(ValueError, match=r"^operands on different pairings: dimension (6 vs 2|2 vs 6)$"):
            group_mul(g, h)
    # equal pairings that are two objects still multiply
    assert group_mul(g33, group_identity(heisenberg_33())) == g33


def test_coad_refuses_an_element_on_another_pairing():
    """Before the check, a 2|0 element acting on a 3|3 point ended in a
    bare IndexError."""
    mu33 = OrbitPoint.base(heisenberg_33(), 1, 1)
    g2 = GroupElement(_plane(), [gnum(1), gnum(2)], gnum(0), gnum(0))
    with pytest.raises(ValueError, match=r"^operands on different pairings: dimension 2 vs 6$"):
        coad(g2, mu33)
    # an element on an equal pairing object acts
    assert coad(group_identity(heisenberg_33()), mu33) == mu33


def test_group_law_on_the_zero_space_keeps_the_generator_count():
    spec = HeisenbergSpec([], [], [])
    g = GroupElement(spec, [], GrassmannNumber.scalar(2, 3), GrassmannNumber.generator(1, 3))
    gg = group_mul(g, g)
    assert gg.b0 == GrassmannNumber.scalar(4, 3)
    assert gg.b1 == GrassmannNumber.generator(1, 3).scale(2)


def test_explicit_zero_generators_reach_the_result():
    spec = heisenberg_33()
    assert group_identity(spec, 0).b0.n == 0
    assert all(c.n == 0 for c in OrbitPoint.base(spec, 1, 0, generators=0).x)
    assert ambient_chart(spec, 0).generators == 0
    orbit = orbit_classify(spec, 1, 0, generators=0)
    assert orbit.chart.generators == 0
    assert orbit.base.x[0].n == 0


def test_orbit_classify_keeps_one_read_only_orbit_per_key():
    """Without a base point the orbit is classified once per (y0, ybar1,
    generators) on its spec: a repeat returns an orbit on the same parts,
    with the same KKS form and momentum cocycle; another generator count, an
    explicit base or another spec builds new parts, and no caller can change
    the shared ones."""
    spec = heisenberg_33()
    orbit = orbit_classify(spec, 1, 1, generators=NG)
    again = orbit_classify(spec, Fraction(1), Fraction(2, 2), generators=NG)
    assert again.kks_form() is orbit.kks_form() and again.symplectic_data() is orbit.symplectic_data()
    momentum_check(orbit)
    assert again.momentum_cocycle() is orbit.momentum_cocycle()
    assert again._memo is orbit._memo and again.tangent is orbit.tangent
    four = orbit_classify(spec, 1, 1, generators=4)
    assert four._memo is not orbit._memo and four.chart.generators == 4
    assert orbit_classify(spec, 1, 1, generators=4)._memo is four._memo
    based = orbit_classify(spec, 1, 1, base=OrbitPoint.base(spec, 1, 1, generators=NG))
    assert based._memo is not orbit._memo and based.kks_form() is not orbit.kks_form()
    assert orbit_classify(spec, 1, 1, base=based.base)._memo is not based._memo
    other = orbit_classify(heisenberg_33(), 1, 1, generators=NG)
    assert other._memo is not orbit._memo and other.kks_form() is not orbit.kks_form()
    with pytest.raises(AttributeError):
        orbit.case = "trivial"
    with pytest.raises(AttributeError):
        del orbit.chart
    with pytest.raises(TypeError):
        orbit.tangent[0] = orbit.tangent[1]
    slot = next(iter(orbit.restrictions))
    with pytest.raises(TypeError):
        orbit.restrictions[slot] = ()
    assert all(isinstance(r, tuple) for r in orbit.restrictions.values())
    with pytest.raises(TypeError):
        orbit.base.xbar[3] = orbit.base.xbar[0]
    with pytest.raises(AttributeError):
        orbit.base.y0 = 2


def test_orbit_parts_outlive_their_orbit_but_not_their_spec():
    """The spec keeps what an orbit computed after the caller drops the
    orbit, and nothing refers back to the spec: once the last reference
    goes, spec, orbits and caches are freed at once, with no reference
    cycle left for the garbage collector."""
    import gc
    import weakref

    spec = heisenberg_33()
    orbit = orbit_classify(spec, 1, 1, generators=NG)
    kks, rep = orbit.kks_form(), momentum_check(orbit)
    cocycle = orbit.momentum_cocycle()
    del orbit
    later = orbit_classify(spec, 1, 1, generators=NG)
    assert later.kks_form() is kks and later.momentum_cocycle() is cocycle
    assert momentum_check(later) == rep
    refs = [weakref.ref(x) for x in (spec, later, later.symplectic_data())]
    enabled = gc.isenabled()
    gc.disable()
    try:
        del spec, later
        assert [r() for r in refs] == [None] * 3
    finally:
        if enabled:
            gc.enable()


def test_orbit_chart_takes_the_generator_count_of_a_given_base_point():
    spec = heisenberg_33()
    mu = OrbitPoint.base(spec, 1, 0, x=[3, 4, 0, 0, 0, 0], generators=3)
    orbit = orbit_classify(spec, 1, 0, base=mu)
    assert orbit.base is mu
    assert orbit.chart.generators == 3
    assert orbit.symplectic_data().chart.generators == 3


# ----------------------------------------------------------------------
# the algebra
# ----------------------------------------------------------------------


def test_abelian_pairing_gives_abelian_algebra():
    n = 3
    zero = [[0] * n for _ in range(n)]
    spec = HeisenbergSpec((0, 0, 1), zero, zero)
    assert not algebra_of(spec).brackets


def test_33_algebra_brackets():
    """Brackets read from the pairing: [e1,e2] = -c0, [e1,e4] = -c1,
    [e3,e5] = -c1, [e5,e5] = c0, [e6,e6] = -c0 (0-based c0 = index 6)."""
    g = algebra_of(heisenberg_33())
    assert g.parities == (0, 0, 0, 1, 1, 1, 0, 1)
    assert g.bracket_basis(0, 1) == {6: Fraction(-1)}
    assert g.bracket_basis(0, 3) == {7: Fraction(-1)}
    assert g.bracket_basis(2, 4) == {7: Fraction(-1)}
    assert g.bracket_basis(4, 4) == {6: Fraction(1)}
    assert g.bracket_basis(5, 5) == {6: Fraction(-1)}
    assert g.bracket_basis(1, 0) == {6: Fraction(1)}
    # centre
    for m in (6, 7):
        for i in range(8):
            assert g.bracket_basis(m, i) == {}


def test_33_algebra_jacobi():
    ok, _ = jacobi_check(algebra_of(heisenberg_33()))
    assert ok


# ----------------------------------------------------------------------
# coadjoint action
# ----------------------------------------------------------------------


def test_coad_identity():
    spec = heisenberg_33()
    mu = OrbitPoint.base(spec, 1, 1, generators=NG)
    assert coad(group_identity(spec, NG), mu) == mu


def test_coad_matches_displayed_maps():
    """x1 -> x1 - y0 a2, x2 -> x2 + y0 a1, x5 -> x5 + y0 a5, x6 -> x6 - y0 a6;
    xb1 -> xb1 - yb1 a4, xb3 -> xb3 - yb1 a5, xb4 -> xb4 + yb1 a1,
    xb5 -> xb5 + yb1 a3."""
    spec = heisenberg_33()
    y0, yb1 = Fraction(2), Fraction(3)
    mu = OrbitPoint.base(spec, y0, yb1, generators=NG)
    a = [gnum(10), gnum(20), gnum(30), gen(1), gen(2), gen(3)]
    g = GroupElement(spec, a, gnum(0), GrassmannNumber.zero(NG))
    nu = coad(g, mu)
    assert nu.x[0] == -a[1] * y0
    assert nu.x[1] == a[0] * y0
    assert nu.x[4] == a[4] * y0
    assert nu.x[5] == -a[5] * y0
    assert nu.x[2] == gnum(0)
    assert nu.xbar[0] == -a[3] * yb1
    assert nu.xbar[2] == -a[4] * yb1
    assert nu.xbar[3] == a[0] * yb1
    assert nu.xbar[4] == a[2] * yb1
    assert nu.xbar[1] == gnum(0)
    assert nu.xbar[5] == gnum(0)
    assert (nu.y0, nu.ybar1) == (y0, yb1)


def test_coad_is_an_action(rng):
    spec = heisenberg_33()
    mu = OrbitPoint.base(spec, 1, 1, generators=NG)
    for _ in range(8):
        g = random_element(rng, spec)
        h = random_element(rng, spec)
        assert coad(g, coad(h, mu)) == coad(group_mul(g, h), mu)


# ----------------------------------------------------------------------
# fundamental fields
# ----------------------------------------------------------------------


def test_fundamental_field_zero_on_trivial_orbit():
    spec = heisenberg_33()
    fld = fundamental_field(spec, [1, 0, 0, 0, 0, 0], 0, 0)
    assert fld.is_zero()


def test_fundamental_field_displayed_33():
    """v* = y0 (v2 dx1 - v1 dx2 - v5 dxi5 + v6 dxi6)
         + yb1 (v4 dxib1 + v5 dxib3 - v1 dxb4 - v3 dxb5)."""
    spec = heisenberg_33()
    chart = ambient_chart(spec, NG)
    y0, yb1 = Fraction(1), Fraction(1)

    def unit(j):
        v = [Fraction(0)] * 6
        v[j] = Fraction(1)
        return fundamental_field(spec, v, y0, yb1, chart)

    assert unit(1) == chart.vector_field({"x1": 1})
    assert unit(0) == chart.vector_field({"x2": -1, "xb4": -1})
    assert unit(4) == chart.vector_field({"xi5": -1, "xib3": 1})
    assert unit(5) == chart.vector_field({"xi6": 1})
    assert unit(3) == chart.vector_field({"xib1": 1})
    assert unit(2) == chart.vector_field({"xb5": -1})


def test_fundamental_field_vanishes_iff_coad_rates_vanish(rng):
    spec = heisenberg_33()
    for _ in range(10):
        y0 = Fraction(rng.randint(0, 2))
        yb1 = Fraction(rng.randint(0, 2))
        mu = OrbitPoint.base(spec, y0, yb1, generators=NG)
        v = [Fraction(rng.randint(-2, 2)) for _ in range(6)]
        fld = fundamental_field(spec, v, y0, yb1)
        xdot, xbardot = coad_infinitesimal(spec, v, mu)
        rates_zero = all(r == 0 for r in xdot) and all(r == 0 for r in xbardot)
        assert fld.is_zero() == rates_zero


def test_field_map_is_a_morphism(rng):
    """[v,w]-field equals the graded commutator of the fields: the algebra
    is 2-step nilpotent, so both sides must vanish."""
    from supersymp.charts import vf_commutator

    spec = heisenberg_33()
    chart = ambient_chart(spec, NG)
    for _ in range(6):
        v = [Fraction(rng.randint(-2, 2)) for _ in range(6)]
        w = [Fraction(rng.randint(-2, 2)) for _ in range(6)]
        # restrict to homogeneous vectors
        par = rng.randrange(2)
        v = [c if spec.parities[i] == par else Fraction(0) for i, c in enumerate(v)]
        par_w = rng.randrange(2)
        w = [c if spec.parities[i] == par_w else Fraction(0) for i, c in enumerate(w)]
        fv = fundamental_field(spec, v, 1, 1, chart)
        fw = fundamental_field(spec, w, 1, 1, chart)
        # [v, w] lands in the centre, whose fundamental field vanishes
        assert vf_commutator(fv, fw).is_zero()


def test_pairing_duality(rng):
    """<v, coad(w) mu> = <[v,w], mu> for basis pairs at a real point."""
    from supersymp.heisenberg import coad_pairing

    spec = heisenberg_33()
    g = algebra_of(spec)
    y0, yb1 = Fraction(2), Fraction(5)
    mu = OrbitPoint.base(spec, y0, yb1, generators=NG)
    for v in range(6):
        for w in range(6):
            lhs = coad_pairing(spec, v, w, mu)
            vec = g.bracket_basis(v, w)
            rhs = vec.get(6, Fraction(0)) * y0 + vec.get(7, Fraction(0)) * yb1
            assert lhs == rhs


# ----------------------------------------------------------------------
# orbit classification and the three symplectic forms
# ----------------------------------------------------------------------


def test_trivial_orbit():
    orbit = orbit_classify(heisenberg_33(), 0, 0, generators=NG)
    assert orbit.case == "trivial"
    assert orbit.dimension == (0, 0)
    with pytest.raises(ValueError):
        orbit.kks_form()


def test_zero_pairing_orbit_checks_its_form(monkeypatch):
    """With a zero pairing the case-i orbit through y0 = 1 is a point: its
    chart has no coordinates, and the identity M W M^T = target is checked
    on 2 x 0 and 0 x 0 factors, against the 2 x 2 zero target."""
    products = []

    def recording(*args):
        products.append(matmul(*args))
        return products[-1]

    matmul = linalg.matmul
    monkeypatch.setattr(linalg, "matmul", recording)
    zero = [[0, 0], [0, 0]]
    orbit = orbit_classify(HeisenbergSpec([0, 0], zero, zero), 1, 0, generators=NG)
    assert (orbit.case, orbit.dimension, orbit.chart.coords) == ("case_i", (0, 0), ())
    omega = orbit.kks_form()
    assert omega.degree == 2 and omega.is_zero()
    assert products[-1] == zero


def test_case_i_classification():
    orbit = orbit_classify(heisenberg_33(), 1, 0, generators=NG)
    assert orbit.case == "case_i"
    assert orbit.coordinates == ("x1", "x2", "xi5", "xi6")
    assert orbit.dimension == (2, 2)


def test_case_ii_classification():
    orbit = orbit_classify(heisenberg_33(), 0, 1, generators=NG)
    assert orbit.case == "case_ii"
    assert set(orbit.coordinates) == {"xb4", "xb5", "xib1", "xib3"}
    assert orbit.dimension == (2, 2)


def test_case_iii_classification():
    orbit = orbit_classify(heisenberg_33(), 1, 1, generators=NG)
    assert orbit.case == "case_iii"
    assert orbit.coordinates == ("x1", "x2", "xi5", "xi6", "xib1", "xb5")
    assert orbit.dimension == (3, 3)
    # two invariant linear functions absorb xb4 and xib3
    assert len(orbit.invariants) == 2


def test_case_i_form():
    """omega = dx1^dx2 + (1/2) dxi5^dxi5 - (1/2) dxi6^dxi6 at y0 = 1."""
    orbit = orbit_classify(heisenberg_33(), 1, 0, generators=NG)
    omega = orbit.kks_form()
    c = orbit.chart
    expected = (
        wedge(d(c, "x1"), d(c, "x2"))
        + wedge(d(c, "xi5"), d(c, "xi5")).scale(Fraction(1, 2))
        - wedge(d(c, "xi6"), d(c, "xi6")).scale(Fraction(1, 2))
    )
    assert omega == expected
    rep = is_symplectic(omega, [{n: 0 for n in c.even}])
    assert rep["symplectic"] and rep["nondegenerate"]


def test_case_i_scaled_by_inverse_y0():
    orbit = orbit_classify(heisenberg_33(), 2, 0, generators=NG)
    omega = orbit.kks_form()
    c = orbit.chart
    expected = (
        wedge(d(c, "x1"), d(c, "x2"))
        + wedge(d(c, "xi5"), d(c, "xi5")).scale(Fraction(1, 2))
        - wedge(d(c, "xi6"), d(c, "xi6")).scale(Fraction(1, 2))
    ).scale(Fraction(1, 2))
    assert omega == expected


def test_case_ii_form():
    """omega = dxib1^dxb4 + dxib3^dxb5 at ybar1 = 1."""
    orbit = orbit_classify(heisenberg_33(), 0, 1, generators=NG)
    omega = orbit.kks_form()
    c = orbit.chart
    expected = wedge(d(c, "xib1"), d(c, "xb4")) + wedge(d(c, "xib3"), d(c, "xb5"))
    assert omega == expected
    rep = is_symplectic(omega, [{n: 0 for n in c.even}])
    assert rep["symplectic"]
    assert not rep["nondegenerate"] or rep["nondegenerate"]  # odd form on 2|2 is nondegenerate
    assert rep["homogeneously_nondegenerate"]


def test_case_iii_form():
    """omega = dx1^dx2 + dxib1^dx2 + dxb5^dxi5 + (1/2) dxi5^dxi5
             - (1/2) dxi6^dxi6 at y0 = ybar1 = 1 (hatted chart)."""
    orbit = orbit_classify(heisenberg_33(), 1, 1, generators=NG)
    omega = orbit.kks_form()
    c = orbit.chart
    expected = (
        wedge(d(c, "x1"), d(c, "x2"))
        + wedge(d(c, "xib1"), d(c, "x2"))
        + wedge(d(c, "xb5"), d(c, "xi5"))
        + wedge(d(c, "xi5"), d(c, "xi5")).scale(Fraction(1, 2))
        - wedge(d(c, "xi6"), d(c, "xi6")).scale(Fraction(1, 2))
    )
    assert omega == expected
    rep = is_symplectic(omega, [{n: 0 for n in c.even}])
    assert rep["closed"]
    assert not rep["nondegenerate"]  # mixed: combined pairing degenerate
    assert rep["homogeneously_nondegenerate"]


def test_case_iii_displayed_contractions():
    """<d/dx2, d/dx1> omega = 1, <d/dxi5, d/dxi5> omega = 1, ... at y0 = 1."""
    orbit = orbit_classify(heisenberg_33(), 1, 1, generators=NG)
    omega = orbit.kks_form()
    c = orbit.chart

    def pair(n1, n2):
        return contract(
            c.vector_field({n1: 1}), c.vector_field({n2: 1}), omega
        ).as_function()

    one = c.one()
    assert pair("x2", "x1") == one
    assert pair("x2", "xib1") == one
    assert pair("xi5", "xb5") == one
    assert pair("xi5", "xi5") == one
    assert pair("xi6", "xi6") == -one


@pytest.mark.parametrize("y0,yb1", [(1, 0), (0, 1), (1, 1), (2, 3)])
def test_kks_pairs_every_pair_of_fundamental_fields(y0, yb1):
    """The oracle of the well-definedness check: i_(v*) i_(w*) omega =
    y0 Omega^0(v,w) + ybar1 Omega^1(v,w) on all n^2 generator pairs, each
    contracted, with the fields rebuilt from the pairing."""
    spec = heisenberg_33()
    orbit = orbit_classify(spec, y0, yb1, generators=NG)
    kks = orbit.kks_form()
    chart = orbit.chart
    n = spec.dimension
    fields = []
    for a in range(n):
        unit = [Fraction(1 if j == a else 0) for j in range(n)]
        fields.append(fundamental_field(spec, unit, y0, yb1, chart))
        assert tangent_field(orbit, a) == fields[a]
    for a in range(n):
        for b in range(n):
            target = y0 * spec.omega0[a][b] + yb1 * spec.omega1[a][b]
            assert contract(fields[a], fields[b], kks).as_function() == chart.constant(target), (a, b)


def _degenerate_spec():
    """A 3|2 pairing whose third even and second odd generators repeat the
    rows of earlier ones, so their tangent fields are nonzero but not among
    the generators the KKS form is solved on."""
    omega0 = [[0, 1, 1, 0, 0], [-1, 0, 0, 0, 0], [-1, 0, 0, 0, 0], [0, 0, 0, 1, 1], [0, 0, 0, 1, 1]]
    omega1 = [[0] * 5 for _ in range(5)]
    omega1[0][3], omega1[3][0] = 1, -1
    return HeisenbergSpec((0, 0, 0, 1, 1), omega0, omega1)


@pytest.mark.parametrize("y0,yb1", [(1, 0), (1, 1), (2, 3)])
def test_kks_refuses_an_inconsistent_pairing(y0, yb1, monkeypatch):
    """Scaling the column of the tangent matrix of a generator outside the
    solved ones, which the target pairing is read from, breaks the pairing
    there, and the well-definedness check sees it."""
    from supersymp import heisenberg, linalg

    # well defined as built; on its own spec, since orbits are memoized per
    # spec and the first KKS form would be kept
    orbit_classify(_degenerate_spec(), y0, yb1, generators=NG).kks_form()
    spec = _degenerate_spec()
    orbit = orbit_classify(spec, y0, yb1, generators=NG)
    chosen = linalg.independent(orbit.tangent)
    moved = [a for a, column in enumerate(orbit.tangent) if a not in chosen and any(column)]
    assert moved
    t = heisenberg.tangent_matrix(spec, y0, yb1)
    scaled = tuple(tuple(2 * v if j == moved[0] else v for j, v in enumerate(row)) for row in t)
    monkeypatch.setattr(heisenberg, "tangent_matrix", lambda *args: scaled)
    with pytest.raises(ValueError, match="orbit pairing is inconsistent"):
        orbit.kks_form()


# ----------------------------------------------------------------------
# momentum map
# ----------------------------------------------------------------------


@pytest.mark.parametrize("y0,yb1", [(1, 0), (0, 1), (1, 1), (2, 3)])
def test_momentum_check(y0, yb1):
    orbit = orbit_classify(heisenberg_33(), y0, yb1, generators=NG)
    rep = momentum_check(orbit)
    assert rep["hamiltonian"]
    assert rep["cocycle_constant"]
    assert rep["momentum_cocycle_zero"]
    assert rep["strongly_hamiltonian"]


def test_momentum_check_solves_each_momentum_function_once(solve_calls):
    """Each momentum function is solved at most once, and in fact never: its
    fundamental field is checked against i_X doubled-omega = dJ, and the
    bracket of every pair of momentum functions is read off those fields."""
    orbit = orbit_classify(heisenberg_33(), 1, 1, generators=NG)
    orbit.symplectic_data()
    solve_calls.clear()
    assert momentum_check(orbit)["strongly_hamiltonian"]
    assert len(solve_calls) == 0


def test_momentum_check_refuses_a_wrong_tangent_field(solve_calls):
    """A tangent table scaled by 2 fails i_X doubled-omega = dJ: the check
    reports it as not hamiltonian without a solve, and the solver's field
    of each momentum function is half the wrong one."""
    from supersymp.symplectic import hamiltonian_field

    orbit = orbit_classify(heisenberg_33(), 1, 1, generators=NG)
    sd = orbit.symplectic_data()
    wrong = scaled_tangent(orbit, 2)
    rep = momentum_check(wrong)
    assert not rep["hamiltonian"] and not rep["strongly_hamiltonian"]
    assert len(solve_calls) == 0
    moving = [m for m, column in enumerate(wrong.tangent) if any(column)]
    assert moving
    for m in moving:
        assert hamiltonian_field(orbit.momentum_function(m), sd).field.scale(2) == tangent_field(wrong, m)


def test_momentum_check_refuses_a_degenerate_kks_form():
    """i_(v*) doubled-omega = dJ is checked on a homogeneously
    non-degenerate form only: an orbit whose KKS form is zero is refused."""
    from supersymp.forms import KForm
    from supersymp.heisenberg import Orbit
    from supersymp.symplectic import NotSymplectic

    orbit = orbit_classify(heisenberg_33(), 1, 1, generators=NG)
    degenerate = Orbit(orbit.spec, orbit.base, dict(vars(orbit), _memo={"kks": KForm.zero(orbit.chart, 2)}))
    with pytest.raises(NotSymplectic, match="^the KKS form is homogeneously degenerate$"):
        momentum_check(degenerate)


def form_route(orbit, k=1):
    """The momentum identities of an orbit through forms, the oracle of the
    tangent table: i_(v*) doubled-omega = d<v, J> by `ext_d` and `contract`
    on the fundamental fields of k e_v (zero for c0 and c1) and the doubled
    form of a fresh SymplecticData, and the cocycle of
    `liecoh.momentum_cocycle` with the brackets {J_i, J_j} = e_i*(J_j)
    applied as fields."""
    from supersymp.forms import ext_d
    from supersymp.liecoh import momentum_cocycle
    from supersymp.symplectic import SymplecticData

    spec, chart = orbit.spec, orbit.chart
    doubled = SymplecticData(orbit.kks_form(), [{name: 0 for name in chart.even}]).doubled
    n = spec.dimension
    fields = [fundamental_field(spec, [k if j == v else 0 for j in range(n)], orbit.y0, orbit.ybar1, chart)
              for v in range(n)] + [chart.vector_field({})] * 2
    hamiltonian = all(ext_d(orbit.momentum_function(v)) == contract(x, doubled) for v, x in enumerate(fields))
    cocycle = momentum_cocycle(orbit.algebra(), orbit.momentum_function,
                               lambda i, j: fields[i].apply(orbit.momentum_function(j)))
    return hamiltonian, cocycle


@pytest.mark.parametrize("scale", [1, 2])
@pytest.mark.parametrize("case", ["heis33_i", "heis33_ii", "heis33_iii", "heis33_-2_3", "random_kk1", "random_kk2", "random_kk3"])
def test_the_tangent_table_route_matches_the_form_route(case, scale, rng):
    """`hamiltonian` and `momentum_cocycle` read off the tangent table agree
    with the form route, on the true tangent table (where both identities
    hold) and on one scaled by 2 (where neither does, and the cocycle is a
    nonzero constant)."""
    if case.startswith("random_kk"):
        spec, (y0, yb1) = random_kk_spec(rng, int(case[-1])), rng.choice([(Fraction(2, 3), -2), (1, 0), (0, 3)])
    else:
        points = {"heis33_i": (1, 0), "heis33_ii": (0, 1), "heis33_iii": (1, 1), "heis33_-2_3": (-2, 3)}
        spec, (y0, yb1) = heisenberg_33(), points[case]
    orbit = scaled_tangent(orbit_classify(spec, y0, yb1, generators=NG), scale)
    hamiltonian, (cocycle, constant) = form_route(orbit, scale)
    assert constant and orbit.momentum_cocycle() == (cocycle, True)
    assert orbit.hamiltonian() is hamiltonian is (scale == 1)
    assert cocycle.is_zero() is (scale == 1)


@pytest.mark.parametrize("case", ["heis33_i", "heis33_ii", "heis33_iii", "random_kk"])
def test_momentum_cocycle_from_fields_matches_the_solver(case, rng):
    """The brackets e_i*(J_j) of the fields of the tangent table, and the
    cocycle read off that table, equal the Poisson brackets of the momentum
    functions and `liecoh.momentum_cocycle` on them, solved on a fresh
    SymplecticData of the same KKS form: the solver stays the independent
    reference."""
    from supersymp.liecoh import momentum_cocycle
    from supersymp.symplectic import SymplecticData, poisson_bracket

    if case == "random_kk":
        spec, (y0, yb1) = random_kk_spec(rng, 2), (Fraction(2, 3), -2)
    else:
        spec, (y0, yb1) = heisenberg_33(), {"heis33_i": (1, 0), "heis33_ii": (0, 1), "heis33_iii": (1, 1)}[case]
    orbit = orbit_classify(spec, y0, yb1, generators=NG)
    sd = SymplecticData(orbit.kks_form())
    size = orbit.algebra().dimension
    for i in range(size):
        for j in range(size):
            f, g = orbit.momentum_function(i), orbit.momentum_function(j)
            assert tangent_field(orbit, i).apply(g) == poisson_bracket(f, g, sd)
    solved = momentum_cocycle(orbit.algebra(), orbit.momentum_function,
                              lambda i, j: poisson_bracket(orbit.momentum_function(i), orbit.momentum_function(j), sd))
    assert orbit.momentum_cocycle() == solved
    assert orbit.hamiltonian()


def test_a_second_momentum_check_makes_no_contraction(monkeypatch):
    """The momentum identities are checked once per orbit parts: the first
    `momentum_check` reads the contraction matrices of the two parts of the
    doubled KKS form, and a second, on the same orbit or on a later one of
    the same key, reads none and returns the same report."""
    from supersymp import heisenberg

    calls = []
    contraction_matrix = heisenberg.contraction_matrix
    monkeypatch.setattr(heisenberg, "contraction_matrix", lambda *args: calls.append(1) or contraction_matrix(*args))
    spec = heisenberg_33()
    orbit = orbit_classify(spec, 1, 1, generators=NG)
    rep = momentum_check(orbit)
    assert rep["strongly_hamiltonian"] and len(calls) == 2
    calls.clear()
    assert momentum_check(orbit) == rep
    assert momentum_check(orbit_classify(spec, 1, 1, generators=NG)) == rep
    assert calls == []


def test_momentum_functions_are_built_once_per_orbit_parts(monkeypatch):
    """`momentum_check` reads the gradients of the momentum functions off
    the orbit and builds none of them; the n + 2 functions are built once
    for the parts of an orbit, a later orbit of the same key returns the
    same objects, and another spec or an explicit base point builds its own."""
    import weakref
    from supersymp.heisenberg import Orbit

    builds = []
    build = Orbit._momentum_functions
    monkeypatch.setattr(Orbit, "_momentum_functions", lambda self: builds.append(1) or build(self))
    spec = heisenberg_33()
    orbit = orbit_classify(spec, 1, 1, generators=NG)
    assert momentum_check(orbit)["strongly_hamiltonian"]
    assert builds == []
    functions = [orbit.momentum_function(m) for m in range(spec.dimension + 2)]
    assert len(builds) == 1
    gone = weakref.ref(orbit)
    del orbit
    assert gone() is None
    later = orbit_classify(spec, 1, 1, generators=NG)
    assert all(later.momentum_function(m) is f for m, f in enumerate(functions))
    assert len(builds) == 1
    for other in (orbit_classify(heisenberg_33(), 1, 1, generators=NG),
                  orbit_classify(spec, 1, 1, base=OrbitPoint.base(spec, 1, 1, generators=NG))):
        for m, f in enumerate(functions):
            assert other.momentum_function(m) is not f and other.momentum_function(m) == f
    assert len(builds) == 3


def test_trivial_orbit_momentum_vacuous():
    orbit = orbit_classify(heisenberg_33(), 0, 0, generators=NG)
    assert orbit.case == "trivial"
    # nothing to check: no chart, no form
    with pytest.raises(ValueError, match="no symplectic form"):
        momentum_check(orbit)
    with pytest.raises(ValueError, match="no symplectic form"):
        orbit.momentum_cocycle()


def test_pullback_cocycle_pattern():
    """At a point with y0 = 1, ybar1 = 2 the pullback cocycle is
    y0*Omega^0 + ybar1*Omega^1 split over (c0, c1)."""
    spec = heisenberg_33()
    orbit = orbit_classify(spec, 1, 2, generators=NG)
    c = orbit.pullback_cocycle()
    for i in range(6):
        for j in range(6):
            val = c.evaluate((i, j))
            assert val[0] == spec.omega0[i][j] * 1
            assert val[1] == spec.omega1[i][j] * 2
    # central directions pair to zero
    for m in (6, 7):
        for i in range(8):
            assert c.evaluate((m, i)) == (0, 0)


def test_pullback_same_orbit_difference_is_coboundary():
    from supersymp.liecoh import ce_coboundary, extension_equivalent

    spec = heisenberg_33()
    g = algebra_of(spec)
    o1 = orbit_classify(spec, 1, 0, generators=NG)
    # a second point on the same orbit: shift x-coordinates by a coadjoint move
    mu2 = OrbitPoint.base(spec, 1, 0, x=[5, -3, 0, 0, 0, 0], generators=NG)
    o2 = orbit_classify(spec, 1, 0, base=mu2, generators=NG)
    c1, c2 = o1.pullback_cocycle(), o2.pullback_cocycle()
    ok, witness = extension_equivalent(c1, c2, g)
    assert ok
    assert ce_coboundary(witness) == c1 - c2


def test_spec_rejects_entries_off_the_parity_pattern():
    zero = [[0, 0], [0, 0]]
    with pytest.raises(ValueError, match=r"^omega1 must vanish on even pairs \(0,1\)$"):
        HeisenbergSpec((0, 0), zero, [[0, 1], [-1, 0]])
    with pytest.raises(ValueError, match=r"^omega0 must vanish on odd pairs \(0,1\)$"):
        HeisenbergSpec((0, 1), [[0, 1], [-1, 0]], zero)


def test_the_pairing_is_read_only():
    """The cached tangent matrices, orbit parts and KKS forms are built from
    omega0 and omega1, so neither can be changed in place."""
    spec = heisenberg_33()
    for omega in (spec.omega0, spec.omega1):
        with pytest.raises(TypeError):
            omega[0][1] = 7
        with pytest.raises(TypeError):
            omega[0] = omega[1]
