from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest

from supersymp import linalg
from supersymp.charts import CFunction, Chart, vf_commutator
from supersymp.dsl import parse
from supersymp.forms import KForm, contract, ext_d, wedge
from supersymp.grassmann import GrassmannNumber
from supersymp.reference import ORIGIN, d, mixed_chart_21, mixed_counterexample, poisson_member_21
from supersymp.symplectic import (
    NotSymplectic,
    PoissonMembershipError,
    SymplecticData,
    contraction_matrix,
    darboux_normal_form,
    form_from_contraction_matrix,
    hamiltonian_field,
    is_symplectic,
    poisson_bracket,
    poisson_bracket_by_contraction,
    require_hamiltonian_field,
)

from conftest import random_scalar, random_superfunction

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


# ----------------------------------------------------------------------
# is_symplectic
# ----------------------------------------------------------------------


def test_mixed_2_2_form_is_nondegenerate():
    ex = mixed_counterexample(4)
    rep = is_symplectic(ex.omega, [ORIGIN])
    assert rep["closed"]
    assert rep["nondegenerate"]
    assert rep["homogeneously_nondegenerate"]


def test_mixed_2_1_form_degenerate_but_homogeneously_nondegenerate():
    data = mixed_chart_21(4)
    rep = is_symplectic(data.omega, [ORIGIN])
    assert rep["closed"]
    assert not rep["nondegenerate"]
    assert rep["homogeneously_nondegenerate"]


def test_missing_odd_pairing_not_symplectic():
    chart = Chart("N", ("x", "y"), ("xi",), 4)
    omega = wedge(d(chart, "x"), d(chart, "y"))
    rep = is_symplectic(omega, [ORIGIN])
    assert rep["closed"]
    assert not rep["homogeneously_nondegenerate"]


def test_non_real_point_rejected():
    data = mixed_chart_21(4)
    with pytest.raises(ValueError):
        is_symplectic(data.omega, [{"x": 0, "y": 0, "xi": 1}])


# ----------------------------------------------------------------------
# hamiltonian fields on the 2|1 chart
# ----------------------------------------------------------------------


@pytest.fixture
def sd21():
    data = mixed_chart_21(4)
    return data, SymplecticData(data.omega, [ORIGIN])


def test_hamiltonian_of_x_c0(sd21):
    data, sd = sd21
    chart = data.chart
    f = CFunction(chart.var("x"), chart.zero())
    res = hamiltonian_field(f, sd)
    assert res.status == "member"
    assert res.field == chart.vector_field({"y": -1})


def test_hamiltonian_uniqueness(sd21):
    """X_f is unique exactly when omega has no kernel on the ansatz: dx^dy
    on a 3|0 chart leaves d/dz free, the 2|1 form leaves nothing free."""
    chart = Chart("P", ("x", "y", "z"), ())
    sd = SymplecticData(wedge(d(chart, "x"), d(chart, "y")))
    res = hamiltonian_field(CFunction(chart.var("x"), chart.zero()), sd)
    assert (res.status, res.unique) == ("member", False)
    # the free d/dz component is set to zero
    assert res.field == chart.vector_field({"y": -1})
    data, sd = sd21
    res = hamiltonian_field(poisson_member_21(data, [0, 1], [2], [1]), sd)
    assert (res.status, res.unique) == ("member", True)


def test_hamiltonian_of_constant_is_zero(sd21):
    data, sd = sd21
    chart = data.chart
    f = CFunction(chart.constant(Fraction(5, 3)), chart.zero())
    res = hamiltonian_field(f, sd)
    assert res.status == "member"
    assert res.field.is_zero()


def test_y_squared_definitively_not_member(sd21):
    data, sd = sd21
    chart = data.chart
    y = chart.var("y")
    f = CFunction(y * y, chart.zero())
    res = hamiltonian_field(f, sd)
    assert res.status == "not_member"
    with pytest.raises(PoissonMembershipError):
        require_hamiltonian_field(f, sd)


def test_member_family_random(rng, sd21):
    data, sd = sd21
    for _ in range(10):
        coeffs = lambda: [Fraction(rng.randint(-3, 3)) for _ in range(4)]
        f = poisson_member_21(data, coeffs(), coeffs(), coeffs())
        res = hamiltonian_field(f, sd)
        assert res.status == "member"
        # defining equation holds exactly
        assert contract(res.field, sd.doubled) == ext_d(f)


def test_defining_conditions_displayed_form(sd21):
    """The 2|1 conditions: X^x dy - X^y dx = df0 and X^x dxi - X^xi dx = df1."""
    data, sd = sd21
    chart = data.chart
    f = poisson_member_21(data, [0, 2], [1], [0, 0, 3])
    x_f = require_hamiltonian_field(f, sd)
    df0, df1 = ext_d(f.f0), ext_d(f.f1)
    xx, xy, xxi = (x_f.component(n) for n in ("x", "y", "xi"))
    lhs0 = d(chart, "y").left_multiply(xx) - d(chart, "x").left_multiply(xy)
    lhs1 = d(chart, "xi").left_multiply(xx) - d(chart, "x").left_multiply(xxi)
    assert lhs0 == df0
    assert lhs1 == df1


def test_nilpotent_coefficient_member():
    """f = th1*x on dx^dy + dxi^dxi + deta^deta: X = -th1 d/dy solves
    i_X(doubled omega) = df, so the ansatz must reach the th1 block."""
    doc = parse("chart P even x,y odd xi,eta; form omega = dx^dy + dxi^dxi + deta^deta;")
    chart = doc.charts["P"]
    sd = SymplecticData(doc.forms["omega"], [{"x": 0, "y": 0}])
    f = doc.evaluate("th1*x*c0", chart)
    res = hamiltonian_field(f, sd)
    assert res.status == "member"
    assert contract(res.field, sd.doubled) == ext_d(f)
    th1 = GrassmannNumber.generator(1, chart.generators)
    assert res.field == chart.vector_field({"y": chart.constant(-th1)})


# ----------------------------------------------------------------------
# solver caches on SymplecticData
# ----------------------------------------------------------------------


def _variable_rank_form():
    """x dx^dy + dx^dxi + dy^deta on 2|2, as in tests/test_edge_cases.py."""
    chart = Chart("V", ("x", "y"), ("xi", "eta"), 4)
    omega = (
        wedge(d(chart, "x"), d(chart, "y")).right_multiply(chart.var("x"))
        + wedge(d(chart, "x"), d(chart, "xi"))
        + wedge(d(chart, "y"), d(chart, "eta"))
    )
    return chart, omega, [{"x": 1, "y": 0}]


def _cache_cases():
    """(omega, points, [(f, degree, status)]) on a constant 2|1 form, a
    constant 2|2 form with nilpotent coefficients in f, the variable-rank
    2|2 form and a non-constant 2|0 form."""
    data = mixed_chart_21(4)
    c = data.chart
    x, y = c.var("x"), c.var("y")
    cases = [
        (
            data.omega,
            [ORIGIN],
            [
                (CFunction(x, c.zero()), None, "member"),
                (CFunction(y * y, c.zero()), None, "not_member"),
                (poisson_member_21(data, [0, 1], [2], [1]), None, "member"),
                (poisson_member_21(data, [1, -2], [1], [0, 3]), 4, "member"),
            ],
        )
    ]
    doc = parse("chart P even x,y odd xi,eta; form omega = dx^dy + dxi^dxi + deta^deta;")
    p = doc.charts["P"]
    cases.append(
        (
            doc.forms["omega"],
            [{"x": 0, "y": 0}],
            [
                (doc.evaluate("th1*x*c0", p), None, "member"),
                (doc.evaluate("th1*th2*y*xi*c0 + x*y*c0", p), None, "member"),
                # the form is even, so its doubling has no c1 part
                (doc.evaluate("th2*eta*c1", p), None, "not_member"),
            ],
        )
    )
    v, omega, pts = _variable_rank_form()
    cases.append(
        (
            omega,
            pts,
            [
                (CFunction(v.var("y"), v.zero()), 3, "inconclusive"),
                (CFunction(v.var("y"), v.zero()), None, "inconclusive"),
                (CFunction(v.var("xi"), v.zero()), 2, "inconclusive"),
                (CFunction(v.constant(7), v.zero()), 1, "member"),
            ],
        )
    )
    h = Chart("H", ("x", "y"), (), 4)
    hx = h.var("x")
    cases.append(
        (
            wedge(d(h, "x"), d(h, "y")).right_multiply(1 + hx * hx),
            [ORIGIN],
            [
                (CFunction(hx + (hx * hx * hx).scale(Fraction(1, 3)), h.zero()), None, "member"),
                (CFunction(hx + (hx * hx * hx).scale(Fraction(1, 3)), h.zero()), 2, "member"),
                (CFunction(h.var("y"), hx), 1, "inconclusive"),
            ],
        )
    )
    return cases


def test_column_rule_matches_contract():
    """Each ansatz column read off i_(d/dz) of the doubled form by
    left-linearity equals the rows of the full contraction with its basis
    field m d/dz: on the fixture forms and the variable-rank 2|2 form, for
    every coordinate, every monomial up to degree 2 and the index sets (),
    (1,) and (1, 2).  Odd m meets odd words u, so a flipped sign fails."""
    from supersymp.charts import VectorField
    from supersymp.scalars import ONE
    from supersymp.symplectic import _all_monomials, _ckform_rows, _column

    forms = [_variable_rank_form()[1]]
    for name in ("mixed21", "mixed22", "even20"):
        doc = parse((FIXTURES / f"{name}.ssp").read_text())
        forms += [omega for omega in doc.forms.values() if omega.degree == 2]
    assert len(forms) == 4
    columns = odd_against_odd = 0
    for omega in forms:
        sd = SymplecticData(omega)
        chart = omega.chart
        for name in chart.coords:
            odd_words = any(parity for _, _, parity, _ in sd.contraction(name))
            for mono in _all_monomials(chart, 2):
                for idx in ((), (1,), (1, 2)):
                    m = chart.zero()._like({mono + (idx,): ONE})
                    full = _ckform_rows(contract(VectorField(chart, {name: m}), sd.doubled))
                    assert _column(sd, name, mono, idx) == full, (name, mono, idx)
                    columns += 1
                    odd_against_odd += bool(full) and odd_words and m.parity() == 1
    assert columns == 429
    assert odd_against_odd == 107


def test_warm_solver_agrees_with_fresh():
    """Results from a SymplecticData whose caches other functions filled
    equal those of a fresh one, for member, not_member and inconclusive."""
    statuses = set()
    for omega, pts, queries in _cache_cases():
        warm = SymplecticData(omega, pts)
        for f, deg, _ in reversed(queries):
            hamiltonian_field(f, warm, deg)
        for f, deg, status in queries:
            res = hamiltonian_field(f, warm, deg)
            assert res.status == status
            assert res == hamiltonian_field(f, SymplecticData(omega, pts), deg)
            if res:
                assert contract(res.field, warm.doubled) == ext_d(f)
            statuses.add(status)
    assert statuses == {"member", "not_member", "inconclusive"}


def test_repeated_call_returns_the_cached_result(sd21):
    data, sd = sd21
    chart = data.chart
    f = poisson_member_21(data, [0, 1], [2], [1])
    res = hamiltonian_field(f, sd)
    # an equal function built anew hits the same entry
    assert hamiltonian_field(poisson_member_21(data, [0, 1], [2], [1]), sd) is res
    # on a constant form the degree plays no part
    assert hamiltonian_field(f, sd, 1) is res and hamiltonian_field(f, sd, 5) is res
    bad = CFunction(chart.var("y") * chart.var("y"), chart.zero())
    assert hamiltonian_field(bad, sd) is hamiltonian_field(bad, sd)
    # a cached result cannot be changed by one caller under the others
    with pytest.raises(AttributeError):
        res.status = "not_member"
    assert res.status == "member" and hamiltonian_field(f, sd) is res


def test_constant_nondegenerate_form_solves_members_uniquely(rng):
    """On a constant, homogeneously nondegenerate form, with a declared point
    and without one, every member is solved with unique True, and a constant
    function with the df = 0 detail."""
    data = mixed_chart_21(4)
    chart = data.chart
    for pts in ([ORIGIN], []):
        coeffs = lambda: [Fraction(rng.randint(-3, 3)) for _ in range(4)]
        fs = [poisson_member_21(data, coeffs(), coeffs(), coeffs()) for _ in range(6)]
        fs.append(CFunction(chart.constant(Fraction(5, 3)), chart.zero()))
        for f in fs:
            res = hamiltonian_field(f, SymplecticData(data.omega, pts))
            assert res.status == "member" and res.unique
    assert res.detail == "df = 0"


def test_degenerate_constant_form_solves_with_unique_false(solve_calls):
    """dx^dy on a 3|0 chart, built without points, is constant but leaves
    d/dz free: fields with and without a d/dz part meet the equation
    exactly, and one solve returns the one without it, with unique False."""
    chart = Chart("P", ("x", "y", "z"), ())
    sd = SymplecticData(wedge(d(chart, "x"), d(chart, "y")))
    f = CFunction(chart.var("x"), chart.zero())
    for candidate in (chart.vector_field({"y": -1}), chart.vector_field({"y": -1, "z": 1})):
        assert contract(candidate, sd.doubled) == ext_d(f)
    res = hamiltonian_field(f, sd)
    assert len(solve_calls) == 1
    assert (res.status, res.unique, res.field) == ("member", False, chart.vector_field({"y": -1}))


def test_non_constant_form_member_is_found():
    """On (1 + x^2) dx^dy the ansatz finds the field of x + x^3/3, and a
    second SymplecticData of the form solves it alike."""
    h = Chart("H", ("x", "y"), (), 4)
    x = h.var("x")
    omega = wedge(d(h, "x"), d(h, "y")).right_multiply(1 + x * x)
    sd = SymplecticData(omega, [ORIGIN])
    f = CFunction(x + (x * x * x).scale(Fraction(1, 3)), h.zero())
    res = hamiltonian_field(f, SymplecticData(omega, [ORIGIN]))
    assert res.status == "member" and res.field == h.vector_field({"y": -1})
    assert hamiltonian_field(f, sd) == res


def test_default_degree_shares_the_explicit_entry():
    chart, omega, pts = _variable_rank_form()
    sd = SymplecticData(omega, pts)
    f = CFunction(chart.var("y"), chart.zero())
    res = hamiltonian_field(f, sd)
    assert res.detail == "no solution up to degree 2"
    assert hamiltonian_field(f, sd, 2) is res
    other = hamiltonian_field(f, sd, 3)
    assert other is not res and other.detail == "no solution up to degree 3"
    assert hamiltonian_field(f, sd, 1).detail == "no solution up to degree 1"


def test_function_on_another_chart_is_refused_after_caching(sd21):
    data, sd = sd21
    chart = data.chart
    f = CFunction(chart.var("x"), chart.zero())
    assert hamiltonian_field(f, sd).status == "member"
    twin = Chart("N2", chart.even, chart.odd, chart.generators)
    g = CFunction(twin.var("x"), twin.zero())
    assert g.terms[0].terms == f.terms[0].terms
    with pytest.raises(ValueError, match="different chart"):
        hamiltonian_field(g, sd)


def test_failed_solve_is_not_cached(monkeypatch, sd21):
    data, sd = sd21
    f = CFunction(data.chart.var("x"), data.chart.zero())

    def broken(rows, ncols):
        raise ArithmeticError("solver failed")

    monkeypatch.setattr(linalg, "solve_sparse", broken)
    with pytest.raises(ArithmeticError):
        hamiltonian_field(f, sd)
    monkeypatch.undo()
    assert hamiltonian_field(f, sd).status == "member"


def test_bracket_pair_solves_two_systems(solve_calls, sd21):
    data, sd = sd21
    f = poisson_member_21(data, [1, 2], [1], [3])
    g = poisson_member_21(data, [0, -1], [2], [0, 1])
    fg = poisson_bracket(f, g, sd)
    gf = poisson_bracket(g, f, sd)
    assert len(solve_calls) == 2
    assert fg == gf.scale(-1)


# ----------------------------------------------------------------------
# Poisson bracket
# ----------------------------------------------------------------------


def test_bracket_of_even_with_itself_vanishes(sd21):
    data, sd = sd21
    f = poisson_member_21(data, [1, 2], [], [3])
    assert poisson_bracket(f, f, sd).is_zero()


def test_bracket_two_routes_agree_on_plane():
    chart = Chart("P", ("x", "y"), (), 4)
    omega = wedge(d(chart, "x"), d(chart, "y"))
    sd = SymplecticData(omega, [ORIGIN])
    f = CFunction(chart.var("x"), chart.zero())
    g = CFunction(chart.var("y"), chart.zero())
    b1 = poisson_bracket(f, g, sd)
    b2 = poisson_bracket_by_contraction(f, g, sd)
    assert b1 == b2
    # frozen value: {x, y} = i_(X_x) d y-part ... = X_x y = -1
    assert b1 == CFunction(chart.constant(-1), chart.zero())


def test_bracket_two_routes_agree_21(rng, sd21):
    data, sd = sd21
    for _ in range(6):
        coeffs = lambda: [Fraction(rng.randint(-2, 2)) for _ in range(3)]
        f = poisson_member_21(data, coeffs(), coeffs(), coeffs())
        g = poisson_member_21(data, coeffs(), coeffs(), coeffs())
        assert poisson_bracket(f, g, sd) == poisson_bracket_by_contraction(f, g, sd)


def _random_member_homogeneous(rng, data, parity):
    """Random homogeneous member of the 2|1 Poisson algebra."""
    coeffs = lambda: [Fraction(rng.randint(-2, 2)) for _ in range(3)]
    if parity == 0:
        return poisson_member_21(data, coeffs(), [], coeffs())
    return poisson_member_21(data, [], coeffs(), [])


def test_bracket_graded_antisymmetry_and_jacobi(rng, sd21):
    data, sd = sd21
    for _ in range(8):
        pf, pg, ph = (rng.randrange(2) for _ in range(3))
        f = _random_member_homogeneous(rng, data, pf)
        g = _random_member_homogeneous(rng, data, pg)
        h = _random_member_homogeneous(rng, data, ph)
        bfg = poisson_bracket(f, g, sd)
        bgf = poisson_bracket(g, f, sd)
        sign = -1 if (pf * pg) % 2 else 1
        assert bfg == (bgf.scale(-sign))
        jac = (
            poisson_bracket(f, poisson_bracket(g, h, sd), sd).scale(-1 if (pf * ph) % 2 else 1)
            + poisson_bracket(g, poisson_bracket(h, f, sd), sd).scale(-1 if (pg * pf) % 2 else 1)
            + poisson_bracket(h, poisson_bracket(f, g, sd), sd).scale(-1 if (ph * pg) % 2 else 1)
        )
        assert jac.is_zero()


def test_graded_jacobi_sign_on_two_odd_members():
    """On dx^dy + dxi^dxi + deta^deta (2|2), the triple (x, y xi, xi) c0 of
    parities (0, 1, 1) has two odd members with a nonzero bracket, so the
    sign (-1)^(|h||g|) of the third cyclic term decides the sum: the graded
    sum vanishes, the sum without signs is -c0.  The 2|1 chart above has
    no such pair and cannot tell the two rules apart."""
    chart = Chart("S", ("x", "y"), ("xi", "eta"), 4)
    omega = wedge(d(chart, "x"), d(chart, "y")) + wedge(d(chart, "xi"), d(chart, "xi")) + wedge(d(chart, "eta"), d(chart, "eta"))
    sd = SymplecticData(omega, [ORIGIN])
    x, y, xi = (chart.var(n) for n in ("x", "y", "xi"))
    f, g, h = (CFunction(v, chart.zero()) for v in (x, y * xi, xi))
    cyclic = [poisson_bracket(a, poisson_bracket(b, c, sd), sd) for a, b, c in ((f, g, h), (g, h, f), (h, f, g))]
    assert (cyclic[0] + cyclic[1] - cyclic[2]).is_zero()
    assert cyclic[0] + cyclic[1] + cyclic[2] == CFunction(chart.constant(-1), chart.zero())


def test_field_morphism(rng, sd21):
    """[X_f, X_g] = X_{{f,g}} on the 2|1 chart."""
    data, sd = sd21
    for _ in range(6):
        coeffs = lambda: [Fraction(rng.randint(-2, 2)) for _ in range(3)]
        f = poisson_member_21(data, coeffs(), coeffs(), coeffs())
        g = poisson_member_21(data, coeffs(), coeffs(), coeffs())
        xf = require_hamiltonian_field(f, sd)
        xg = require_hamiltonian_field(g, sd)
        xfg = require_hamiltonian_field(poisson_bracket(f, g, sd), sd)
        assert vf_commutator(xf, xg) == xfg


def test_locally_hamiltonian_commutator_identity(rng):
    """i_[X,Y] (doubled) = d( i_X i_Y doubled ) for locally hamiltonian X, Y."""
    data = mixed_chart_21(4)
    sd = SymplecticData(data.omega, [ORIGIN])
    for _ in range(5):
        coeffs = lambda: [Fraction(rng.randint(-2, 2)) for _ in range(3)]
        f = poisson_member_21(data, coeffs(), coeffs(), coeffs())
        g = poisson_member_21(data, coeffs(), coeffs(), coeffs())
        x = require_hamiltonian_field(f, sd)
        y = require_hamiltonian_field(g, sd)
        lhs = contract(vf_commutator(x, y), sd.doubled)
        rhs = ext_d(contract(x, contract(y, sd.doubled)).as_cfunction())
        assert lhs == rhs


def test_naive_counterexample_commutator_not_locally_hamiltonian():
    """For the mixed 2|2 form the commutator of the naive hamiltonian pair
    contracts to a non-closed 1-form."""
    ex = mixed_counterexample(4)
    z = vf_commutator(ex.X, ex.Y)
    sigma = contract(z, ex.omega)
    assert not ext_d(sigma).is_zero()


# ----------------------------------------------------------------------
# contraction matrices
# ----------------------------------------------------------------------


def _full_contraction_matrix(omega, point=None):
    """All n^2 entries i_(d/dz_i) i_(d/dz_j) omega, each contracted."""
    chart = omega.chart
    basis = [chart.vector_field({name: 1}) for name in chart.coords]
    rows = []
    for x in basis:
        row = []
        for y in basis:
            f = contract(x, y, omega).as_function()
            row.append((f.constant_value() if point is None else f.evaluate(point)).body())
        rows.append(row)
    return rows


def _random_2form(rng, chart, constant):
    omega = KForm.zero(chart, 2)
    n = len(chart.coords)
    for i in range(n):
        for j in range(i, n):
            if rng.random() < 0.6:
                if constant:
                    g = chart.constant(random_scalar(rng, with_i=True))
                else:
                    g = random_superfunction(rng, chart, degree=2, terms=3)
                omega = omega + wedge(d(chart, chart.coords[i]), d(chart, chart.coords[j])).right_multiply(g)
    return omega


def test_contraction_matrix_equals_the_full_computation():
    """Contracting the entries with i <= j and filling in the rest by graded
    skew symmetry gives all n^2 contractions: on the fixture forms, and on
    random constant and point-evaluated forms on 2|2 and 3|3 charts, the
    parity parts included."""
    rng = random.Random(31)
    cases = []
    for name in ("mixed21", "mixed22", "even20"):
        doc = parse((FIXTURES / f"{name}.ssp").read_text())
        for omega in doc.forms.values():
            if omega.degree == 2:
                cases += [(omega, None), (omega, {v: Fraction(rng.randint(-3, 3), 2) for v in omega.chart.even})]
    for p, q in ((2, 2), (3, 3)):
        chart = Chart("R", tuple(f"x{i}" for i in range(p)), tuple(f"xi{i}" for i in range(q)), 2)
        for _ in range(4):
            cases.append((_random_2form(rng, chart, constant=True), None))
            omega = _random_2form(rng, chart, constant=False)
            point = {v: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for v in chart.even}
            cases += [(part, point) for part in (omega, omega.parity_part(0), omega.parity_part(1))]
    assert len(cases) == 38
    for omega, point in cases:
        assert contraction_matrix(omega, point) == _full_contraction_matrix(omega, point)


def _random_graded_skew(rng, p, q):
    """Seeded Q(i) matrix with W[j][i] = -(-1)^(|i||j|) W[i][j], written out
    here rather than taken from the engine's sign rule."""
    from supersymp.scalars import GaussianRational

    n = p + q
    w = [[GaussianRational(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if (i == j and i < p) or rng.random() < 0.3:
                continue
            w[i][j] = random_scalar(rng, with_i=True) / rng.randint(1, 3)
            if j > i:
                both_odd = i >= p and j >= p
                w[j][i] = w[i][j] if both_odd else -w[i][j]
    return w


def test_contraction_matrix_round_trip():
    """contraction_matrix(form_from_contraction_matrix(chart, w)) == w on
    seeded graded skew Q(i) matrices, and inputs off the pattern raise."""
    rng = random.Random(47)
    for p, q in ((0, 2), (2, 2), (3, 3)):
        chart = Chart("R", tuple(f"x{i}" for i in range(p)), tuple(f"xi{i}" for i in range(q)), 2)
        n = p + q
        for _ in range(8):
            w = _random_graded_skew(rng, p, q)
            assert contraction_matrix(form_from_contraction_matrix(chart, w)) == w
            # one entry below the diagonal off the pattern
            i = rng.randrange(n - 1)
            j = rng.randrange(i + 1, n)
            bad = [row[:] for row in w]
            bad[j][i] = bad[j][i] + 1
            with pytest.raises(ValueError, match="^matrix does not have the graded skew-symmetric pattern$"):
                form_from_contraction_matrix(chart, bad)
            if p:
                # a nonzero even diagonal entry wins over the broken pattern
                k = rng.randrange(p)
                for matrix in (w, bad):
                    diag = [row[:] for row in matrix]
                    diag[k][k] = random_scalar(rng, with_i=True) + 4
                    with pytest.raises(ValueError, match="^nonzero diagonal entry on an even coordinate$"):
                        form_from_contraction_matrix(chart, diag)


# ----------------------------------------------------------------------
# Darboux normal forms
# ----------------------------------------------------------------------


def test_darboux_even_fixed_point():
    # omega = dx^dy + dxi1^dxi1 + dxi2^dxi2 on 2|2, already canonical
    chart = Chart("D", ("x1", "y1"), ("xi1", "xi2"), 4)
    omega = (
        wedge(d(chart, "x1"), d(chart, "y1"))
        + wedge(d(chart, "xi1"), d(chart, "xi1"))
        + wedge(d(chart, "xi2"), d(chart, "xi2"))
    )
    w = contraction_matrix(omega)
    res = darboux_normal_form(w, (0, 0, 1, 1), 0)
    assert res.kind == "even" and res.k == 1 and res.ell == 2 and res.exact
    assert res.canonical_matrix == w


def test_darboux_rejects_entries_off_the_declared_homogeneity():
    # a graded skew mixed entry is odd, so an even form cannot hold it
    with pytest.raises(ValueError, match="^matrix entry violates the declared homogeneity$"):
        darboux_normal_form([[0, 1], [-1, 0]], (0, 1), 0)
    with pytest.raises(ValueError, match="^matrix entry violates the declared homogeneity$"):
        darboux_normal_form([[0, 1], [-1, 0]], (0, 0), 1)


def test_darboux_odd_rescales():
    chart = Chart("D", ("x",), ("xi",), 4)
    omega = wedge(d(chart, "x"), d(chart, "xi")).scale(2)
    w = contraction_matrix(omega)
    res = darboux_normal_form(w, (0, 1), 1)
    target = contraction_matrix(wedge(d(chart, "x"), d(chart, "xi")))
    assert res.canonical_matrix == target
    # transforming the input with the returned basis change gives the target
    assert _congruence(res.basis_change, w) == res.canonical_matrix


def test_darboux_negative_odd_square():
    chart = Chart("D", (), ("xi",), 4)
    omega = -wedge(d(chart, "xi"), d(chart, "xi"))
    w = contraction_matrix(omega)
    res = darboux_normal_form(w, (1,), 0)
    assert res.ell == 0 and res.exact
    assert res.odd_coefficients == (Fraction(-1),)


def test_darboux_odd_dimension_mismatch():
    with pytest.raises(NotSymplectic):
        darboux_normal_form([[0, 0], [0, 0]], (0, 0), 1)


def test_darboux_even_odd_p():
    with pytest.raises(NotSymplectic):
        darboux_normal_form([[0]], (0,), 0)


@pytest.mark.parametrize(
    "w, parities, coefficients",
    [([[0, 1], [1, 0]], (1, 1), (1, -1)), ([[8]], (1,), (1,))],
    ids=["zero_diagonal", "rational_square"],
)
def test_darboux_odd_block_reaches_plus_minus_one(w, parities, coefficients):
    """The zero-diagonal fix-up and the rational-square reduction of the
    symmetric block, against B W B^T and the inertia of W in sympy: the
    canonical matrix is diag(2c) with c = +-1 and ell positive entries."""
    sp = pytest.importorskip("sympy")
    res = darboux_normal_form(w, parities, 0)

    def exact(m):
        return sp.Matrix([[sp.Rational(x.re.numerator, x.re.denominator) for x in row] for row in m])

    b = exact(res.basis_change)
    assert all(x.im == 0 for row in res.basis_change + res.canonical_matrix for x in row)
    assert b * sp.Matrix(w) * b.T == exact(res.canonical_matrix) == sp.diag(*(2 * c for c in coefficients))
    positive = sum(m for v, m in sp.Matrix(w).eigenvals().items() if v > 0)
    assert (res.kind, res.k, res.ell, res.exact) == ("even", 0, positive, True)
    assert res.odd_coefficients == coefficients


def _congruence(p, w):
    """P W P^T."""
    return linalg.matmul(linalg.matmul(p, w), linalg.transpose(p))


def _random_canonical_even(rng, k, q):
    """Random even symplectic contraction matrix, built from a known form."""
    from supersymp.scalars import GaussianRational

    parities = [0] * (2 * k) + [1] * q
    n = 2 * k + q
    chart = Chart(
        "R", tuple(f"x{i}" for i in range(2 * k)), tuple(f"xi{i}" for i in range(q)), 2
    )
    omega = KForm.zero(chart, 2)
    for i in range(k):
        omega = omega + wedge(d(chart, f"x{i}"), d(chart, f"x{k + i}"))
    signs = [1 if rng.random() < 0.6 else -1 for _ in range(q)]
    for j in range(q):
        omega = omega + wedge(d(chart, f"xi{j}"), d(chart, f"xi{j}")).scale(signs[j])
    w = contraction_matrix(omega)
    # congruence by a random invertible parity-respecting matrix
    p_mat = [[GaussianRational(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j and parities[i] == parities[j]:
            c = GaussianRational.coerce(rng.choice([1, -1, 2, Fraction(1, 2)]))
            for col in range(n):
                p_mat[i][col] = p_mat[i][col] + p_mat[j][col] * c
    return parities, _congruence(p_mat, w), signs


def test_darboux_even_random(rng):
    from supersymp.symplectic import _reorder_even_first

    for _ in range(6):
        k = rng.randint(1, 2)
        q = rng.randint(0, 2)
        parities, w, signs = _random_canonical_even(rng, k, q)
        res = darboux_normal_form(w, parities, 0)
        assert res.k == k
        assert res.ell == sum(1 for s in signs if s > 0)
        # exact transform consistency
        assert _congruence(res.basis_change, _reorder_even_first(w, parities)) == res.canonical_matrix
