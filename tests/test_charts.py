from __future__ import annotations

from fractions import Fraction

import pytest

from supersymp.charts import CFunction, SuperFunction, UnknownCoordinate, VectorField, vf_apply, vf_commutator
from supersymp.forms import KForm, word_parity
from supersymp.grassmann import DimensionError, GrassmannNumber, accumulate
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


# An oracle for the odd letters: a Lambda_N-valued superfunction is a
# polynomial in the even coordinates over Lambda_(N+q), with odd coordinate
# j the generator th_(N+1+j).  There every sign is a Grassmann product.


def embed(f):
    n, q = f.chart.generators, len(f.chart.odd)
    out = {}
    for (e, w), c in f.coefficients().items():
        letters = GrassmannNumber(n + q, {tuple(n + 1 + j for j in w): 1})
        accumulate(out, e, GrassmannNumber(n + q, c.terms) * letters)
    return out


def embedded_product(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            accumulate(out, tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
    return out


def generator_derivative(c, k):
    """Left derivative along th_k: th_k is moved to the front, then struck."""
    terms = {}
    for idx, v in c.terms.items():
        if k in idx:
            pos = idx.index(k)
            terms[idx[:pos] + idx[pos + 1:]] = -v if pos % 2 else v
    return GrassmannNumber(c.n, terms)


def test_product_and_odd_derivative_match_the_grassmann_embedding(rng, chart22):
    n = chart22.generators
    for _ in range(20):
        f = random_superfunction(rng, chart22, degree=3, with_grassmann=True)
        g = random_superfunction(rng, chart22, degree=3, with_grassmann=True)
        assert embed(f * g) == embedded_product(embed(f), embed(g))
        for j, name in enumerate(chart22.odd):
            expected = {}
            for e, c in embed(f).items():
                accumulate(expected, e, generator_derivative(c, n + 1 + j))
            assert embed(f.partial(name)) == expected


def test_involution_flips_the_odd_part(rng, chart22):
    for _ in range(10):
        f = random_superfunction(rng, chart22, degree=3, with_grassmann=True)
        X = random_field(rng, chart22, with_grassmann=True)
        c = sum(f.coefficients().values(), GrassmannNumber.zero(chart22.generators))
        for obj in (c, f, X):
            assert obj.involution() == obj.parity_part(0) - obj.parity_part(1)


def assert_parity(x, p):
    """x is homogeneous of parity p, by its own class's definition of a term's parity."""
    if isinstance(x, GrassmannNumber):
        assert all(len(idx) % 2 == p for idx in x.terms)
    elif isinstance(x, SuperFunction):
        assert all((len(w) + len(idx)) % 2 == p for _, w, idx in x.terms)
    else:
        # c_alpha, d/dz and the word dz_w add their parities to the coefficient's
        parity_of = {
            CFunction: lambda alpha: alpha,
            VectorField: x.chart.parity,
            KForm: lambda w: word_parity(x.chart, w),
        }[type(x)]
        for k, c in x.terms.items():
            assert_parity(c, p ^ parity_of(k))


def test_graded_protocol_agrees_with_homogeneous_parts(rng, chart22):
    words = [(0, 1), (0, 2), (1, 3), (2, 2), (2, 3), (3, 3)]
    for _ in range(10):
        f, g = (random_superfunction(rng, chart22, degree=3, with_grassmann=True) for _ in range(2))
        form = KForm(chart22, 2, {w: random_superfunction(rng, chart22, 2, True, 2) for w in rng.sample(words, 3)})
        samples = [
            sum(f.coefficients().values(), GrassmannNumber.zero(chart22.generators)),
            f,
            CFunction(f, g),
            random_field(rng, chart22, with_grassmann=True),
            form,
        ]
        for obj in samples:
            for x in (obj, obj.parity_part(0), obj.parity_part(1), obj - obj):
                zero = x - x
                parts = x.homogeneous_parts()
                assert sum(parts.values(), zero) == x
                for p, part in parts.items():
                    assert_parity(part, p)
                for p in (0, 1):
                    assert x.parity_part(p) == parts.get(p, zero)
                assert x.involution() == parts.get(0, zero) - parts.get(1, zero)
                assert x.is_homogeneous() == (len(parts) <= 1)
                if x.is_homogeneous():
                    assert x.parity() == next(iter(parts), 0)
                else:
                    with pytest.raises(ValueError):
                        x.parity()


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


def reference_commutator(x, y):
    """[X,Y] summed over homogeneous parts, X(Y^z) - (-1)^(|X| |Y|) Y(X^z) on each."""
    result = VectorField(x.chart, {})
    for px, xp in x.homogeneous_parts().items():
        for py, yp in y.homogeneous_parts().items():
            sign = -1 if px * py else 1
            comps = {z: xp.apply(yp.component(z)) - yp.apply(xp.component(z)).scale(sign) for z in x.chart.coords}
            result = result + VectorField(x.chart, comps)
    return result


def test_commutator_matches_the_sum_over_homogeneous_parts(rng, chart22):
    for _ in range(10):
        X = random_field(rng, chart22, with_grassmann=True)
        Y = random_field(rng, chart22, with_grassmann=True)
        assert vf_commutator(X, Y) == reference_commutator(X, Y)


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
    key = next(iter(x.coefficients()))
    for c in (1, Fraction(1), GaussianRational(1)):
        f = SuperFunction(chart22, {key: c})
        assert f.coefficients()[key] == GrassmannNumber.scalar(1, chart22.generators)
        assert f.parity_part(0) == f == x
        assert f.parity_part(1).is_zero()
    assert SuperFunction(chart22, {key: GaussianRational(0)}).is_zero()


def test_coefficients_over_another_generator_count_are_refused(chart22):
    key = ((0, 0), (0,))
    for n in (chart22.generators - 1, chart22.generators + 1):
        with pytest.raises(DimensionError):
            SuperFunction(chart22, {key: GrassmannNumber.generator(1, n)})
        with pytest.raises(DimensionError):
            chart22.constant(GrassmannNumber.scalar(2, n))
