from __future__ import annotations

from fractions import Fraction

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
    hamiltonian_field,
    is_symplectic,
    poisson_bracket,
    poisson_bracket_by_contraction,
    require_hamiltonian_field,
)


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
