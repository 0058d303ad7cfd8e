from __future__ import annotations

from fractions import Fraction

import pytest

from supersymp.charts import SuperFunction, UnknownCoordinate, vf_apply, vf_commutator
from supersymp.grassmann import GrassmannNumber
from supersymp.scalars import GaussianRational

from conftest import random_field, random_homogeneous_function, random_superfunction


def test_left_derivative_strikes_leading_odd(chart22):
    xi, eta = chart22.var("xi"), chart22.var("eta")
    assert (xi * eta).partial("xi") == eta


def test_even_calculus(chart22):
    x, y = chart22.var("x"), chart22.var("y")
    assert (x * x * y).partial("x") == (x * y).scale(2)


def test_left_derivative_reorders_with_sign(chart22):
    xi, eta = chart22.var("xi"), chart22.var("eta")
    # d/deta (xi*eta): move eta left past xi, then strike it
    assert (xi * eta).partial("eta") == -xi
    # sign oracle: xi*eta == -eta*xi and d/deta(eta*xi) = xi
    assert xi * eta == -(eta * xi)
    assert (eta * xi).partial("eta") == xi


def test_unknown_coordinate(chart22):
    with pytest.raises(UnknownCoordinate):
        chart22.var("x").partial("z")


def test_partial_square_zero_and_graded_commutation(rng, chart22):
    for _ in range(15):
        f = random_superfunction(rng, chart22, degree=3, with_grassmann=True)
        for odd in chart22.odd:
            assert f.partial(odd).partial(odd).is_zero()
        for z in chart22.coords:
            for w in chart22.coords:
                sign = -1 if chart22.parity(z) * chart22.parity(w) else 1
                lhs = f.partial(w).partial(z)
                rhs = f.partial(z).partial(w)
                assert lhs == (rhs if sign > 0 else -rhs)


def test_graded_leibniz(rng, chart22):
    for _ in range(15):
        f = random_homogeneous_function(rng, chart22, rng.randrange(2), degree=3)
        g = random_superfunction(rng, chart22, degree=3)
        if f.is_zero():
            continue
        pf = f.parity()
        for z in chart22.coords:
            lhs = (f * g).partial(z)
            sign = -1 if chart22.parity(z) * pf else 1
            rhs = f.partial(z) * g + (f * g.partial(z) if sign > 0 else -(f * g.partial(z)))
            assert lhs == rhs


def test_vf_apply_basics(chart22):
    x = chart22.var("x")
    ddx = chart22.vector_field({"x": 1})
    assert vf_apply(ddx, x) == chart22.one()
    y = chart22.var("y")
    X = chart22.vector_field({"x": y.scale(2), "eta": -y.scale(2)})
    assert vf_apply(X, y * y).is_zero()


def test_vf_apply_term_by_term_oracle(chart22):
    xi, eta, y = chart22.var("xi"), chart22.var("eta"), chart22.var("y")
    Y = chart22.vector_field({"xi": -xi, "eta": eta, "y": xi})
    f = eta * xi
    expected = (-xi) * f.partial("xi") + eta * f.partial("eta") + xi * f.partial("y")
    assert vf_apply(Y, f) == expected


def test_commutator_constant_fields(chart22):
    ddx = chart22.vector_field({"x": 1})
    ddy = chart22.vector_field({"y": 1})
    assert vf_commutator(ddx, ddy).is_zero()


def test_commutator_mixed_example(chart22):
    """[2y d_x - 2y d_eta, -xi d_xi + eta d_eta + xi d_y] on the 2|2 chart."""
    y, xi, eta = chart22.var("y"), chart22.var("xi"), chart22.var("eta")
    X = chart22.vector_field({"x": y.scale(2), "eta": y.scale(-2)})
    Y = chart22.vector_field({"xi": -xi, "eta": eta, "y": xi})
    Z = vf_commutator(X, Y)
    expected = chart22.vector_field({"x": xi.scale(-2), "eta": y.scale(-2) - xi.scale(2)})
    assert Z == expected


def test_odd_self_commutator_is_twice_square(rng, chart22):
    xi = chart22.var("xi")
    X = chart22.vector_field({"x": xi})
    XX = vf_commutator(X, X)
    for _ in range(5):
        f = random_superfunction(rng, chart22, degree=3)
        assert vf_apply(XX, f) == vf_apply(X, vf_apply(X, f)).scale(2)


def test_commutator_is_derivation_action(rng, chart22):
    for _ in range(10):
        X = random_field(rng, chart22, parity=rng.randrange(2))
        Y = random_field(rng, chart22, parity=rng.randrange(2))
        f = random_superfunction(rng, chart22, degree=2, terms=2)
        px = X.parity() if not X.is_zero() else 0
        py = Y.parity() if not Y.is_zero() else 0
        sign = -1 if px * py else 1
        direct = vf_apply(vf_commutator(X, Y), f)
        composed = vf_apply(X, vf_apply(Y, f)) - vf_apply(Y, vf_apply(X, f)).scale(sign)
        assert direct == composed


def test_commutator_graded_antisymmetry_and_jacobi(rng, chart22):
    for _ in range(8):
        ps = [rng.randrange(2) for _ in range(3)]
        X, Y, Z = (random_field(rng, chart22, parity=p, degree=1) for p in ps)
        px, py, pz = ps
        # antisymmetry
        lhs = vf_commutator(X, Y)
        rhs = vf_commutator(Y, X)
        sign = -1 if px * py else 1
        assert lhs == (rhs.scale(-1) if sign > 0 else rhs)
        # graded Jacobi, cyclic form
        j = (
            vf_commutator(X, vf_commutator(Y, Z)).scale(-1 if (px * pz) % 2 else 1)
            + vf_commutator(Y, vf_commutator(Z, X)).scale(-1 if (py * px) % 2 else 1)
            + vf_commutator(Z, vf_commutator(X, Y)).scale(-1 if (pz * py) % 2 else 1)
        )
        assert j.is_zero()


def test_cfunction_pieces(chart21):
    from supersymp.charts import CFunction

    x, y, xi = chart21.var("x"), chart21.var("y"), chart21.var("xi")
    f = CFunction(x + y * xi, xi)
    assert f.piece(0, 0) == x
    assert f.piece(0, 1) == y * xi
    assert f.piece(1, 1) == xi
    # reconstruction (f^alpha)_beta = f^alpha_{alpha+beta}
    for alpha in (0, 1):
        for beta in (0, 1):
            assert f.component(alpha).parity_part(beta) == f.piece(alpha, beta)


def test_evaluate_real_point(chart22):
    x, y, xi = chart22.var("x"), chart22.var("y"), chart22.var("xi")
    f = x * x + y.scale(3) + xi * chart22.var("eta")
    v = f.evaluate({"x": 2, "y": 1})
    assert v == GrassmannNumber.scalar(7, chart22.generators)


def test_scalar_coefficients_are_lifted(chart22):
    x = chart22.var("x")
    key = next(iter(x.terms))
    for c in (1, Fraction(1), GaussianRational(1)):
        f = SuperFunction(chart22, {key: c})
        assert f.terms[key] == GrassmannNumber.scalar(1, chart22.generators)
        assert f.parity_part(0) == f == x
        assert f.parity_part(1).is_zero()
    assert SuperFunction(chart22, {key: GaussianRational(0)}).is_zero()
