from __future__ import annotations

import itertools

import pytest

from supersymp.charts import Chart, vf_apply, vf_commutator
from supersymp.forms import (
    CKForm,
    DegreeError,
    KForm,
    canonicalize_word,
    contract,
    double,
    ext_d,
    lie_derivative,
    lift_form,
    lift_function,
    undouble,
    wedge,
)
from supersymp.grassmann import graded_sort
from supersymp.reference import d, mixed_counterexample

from conftest import homogeneous_parts, random_field, random_superfunction


# ----------------------------------------------------------------------
# wedge
# ----------------------------------------------------------------------


def test_even_differential_squares_to_zero(chart22):
    assert wedge(d(chart22, "x"), d(chart22, "x")).is_zero()


def test_odd_differentials_symmetric(chart22):
    a = wedge(d(chart22, "xi"), d(chart22, "eta"))
    b = wedge(d(chart22, "eta"), d(chart22, "xi"))
    assert a == b
    assert not wedge(d(chart22, "xi"), d(chart22, "xi")).is_zero()


def test_even_differentials_antisymmetric(chart22):
    assert wedge(d(chart22, "x"), d(chart22, "y")) == -wedge(d(chart22, "y"), d(chart22, "x"))


def brute_sign(word, odd):
    """Oracle: sort a word by explicit adjacent transpositions; a swap costs
    -1 unless both letters are odd, a repeated letter kills unless odd."""
    letters = list(word)
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(letters) - 1):
            if letters[i] > letters[i + 1]:
                a, b = letters[i], letters[i + 1]
                sign *= 1 if odd(a) and odd(b) else -1
                letters[i], letters[i + 1] = b, a
                changed = True
    for i in range(len(letters) - 1):
        if letters[i] == letters[i + 1] and not odd(letters[i]):
            return 0, None
    return sign, tuple(letters)


def test_canonicalize_matches_oracle(chart22):
    p = len(chart22.even)
    n = len(chart22.coords)
    for length in range(5):
        for word in itertools.product(range(n), repeat=length):
            assert canonicalize_word(chart22, word) == brute_sign(word, lambda z: z >= p)
            # the all-anticommuting rule of Grassmann indices and simplices
            sign, letters = graded_sort(word)
            assert (sign, letters if sign else None) == brute_sign(word, lambda z: False)


def test_lift_to_reordered_odd_coordinates(rng, chart22):
    """Relabelling the odd coordinates in the other order is a ring
    isomorphism that commutes with d and wedge; the reordered words carry
    the sign.  So is relabelling the even ones, which reorders the words of
    the forms."""
    target = Chart("M'", ("x", "y"), ("eta", "xi"), 4)
    xi, eta = chart22.var("xi"), chart22.var("eta")
    assert lift_function(xi * eta, target) == -(target.var("eta") * target.var("xi"))
    for target in (target, Chart("M''", ("y", "x"), ("xi", "eta"), 4)):
        for _ in range(10):
            f = random_superfunction(rng, chart22)
            g = random_superfunction(rng, chart22)
            assert lift_function(f * g, target) == lift_function(f, target) * lift_function(g, target)
            assert lift_form(ext_d(f), target) == ext_d(lift_function(f, target))
            df_dg = wedge(ext_d(f), ext_d(g))
            assert lift_form(df_dg, target) == wedge(lift_form(ext_d(f), target), lift_form(ext_d(g), target))


def test_lift_onto_a_smaller_chart(chart22):
    """Coordinates map by name, so a function that does not depend on the
    coordinates the target lacks restricts to it; one that does is refused."""
    base = Chart("B", ("y",), ("eta",), 4)
    y, eta = chart22.var("y"), chart22.var("eta")
    assert lift_function(y * eta + y * y, base) == base.var("y") * base.var("eta") + base.var("y") * base.var("y")
    for f in (chart22.var("x") * y, chart22.var("xi") * eta):
        with pytest.raises(ValueError, match="function depends on a fiber coordinate"):
            lift_function(f, base)


def test_wedge_mixed_coefficients(chart22):
    # (x dxi) ^ (xi dy): move xi (odd) through dxi (odd): one sign
    x, xi = chart22.var("x"), chart22.var("xi")
    a = d(chart22, "xi").left_multiply(x)
    b = d(chart22, "y").left_multiply(xi)
    got = wedge(a, b)
    # dxi*(x) ^ dy*(xi) = - dxi^dy*(x*xi) = + dy^dxi*(x*xi)
    expected = wedge(d(chart22, "y"), d(chart22, "xi")).left_multiply(x * xi)
    assert got == expected


def _random_homog_form(rng, chart, degree, parity):
    out = KForm.zero(chart, degree)
    names = chart.coords
    if degree == 0:
        return KForm.from_function(random_superfunction(rng, chart, 2, terms=2).parity_part(parity))
    for n1 in names:
        for n2 in names:
            if degree == 2:
                base = wedge(d(chart, n1), d(chart, n2))
            else:
                base = d(chart, n1)
            if base.is_zero():
                continue
            coeff = random_superfunction(rng, chart, 1, terms=1).parity_part(
                (parity + base.parity()) % 2
            )
            if rng.random() < 0.4 and not coeff.is_zero():
                out = out + base.left_multiply(coeff)
            if degree == 1:
                break
    return out


def test_wedge_graded_commutativity(rng, chart22):
    """a ^ b = (-1)^(k1 k2 + p1 p2) b ^ a for homogeneous forms."""
    for _ in range(12):
        k1, k2 = rng.randint(0, 2), rng.randint(0, 2)
        p1, p2 = rng.randrange(2), rng.randrange(2)
        a = _random_homog_form(rng, chart22, k1, p1)
        b = _random_homog_form(rng, chart22, k2, p2)
        sign = -1 if (k1 * k2 + p1 * p2) % 2 else 1
        ab = wedge(a, b)
        ba = wedge(b, a)
        assert ab == (ba if sign > 0 else -ba)


def test_d_is_a_graded_derivation(rng, chart22):
    """d(a ^ b) = da ^ b + (-1)^(deg a) a ^ db."""
    for _ in range(12):
        k1, k2 = rng.randint(0, 2), rng.randint(0, 1)
        a = _random_homog_form(rng, chart22, k1, rng.randrange(2))
        b = _random_homog_form(rng, chart22, k2, rng.randrange(2))
        lhs = ext_d(wedge(a, b))
        rhs = wedge(ext_d(a), b) + wedge(a, ext_d(b)).scale(-1 if k1 % 2 else 1)
        assert lhs == rhs


def test_wedge_associative(rng, chart22):
    for _ in range(10):
        forms = []
        for _ in range(3):
            k = rng.randint(0, 2)
            if k == 0:
                forms.append(KForm.from_function(random_superfunction(rng, chart22, 2, terms=2)))
            else:
                w = KForm.zero(chart22, 1)
                for name in chart22.coords:
                    if rng.random() < 0.5:
                        w = w + d(chart22, name).left_multiply(
                            random_superfunction(rng, chart22, 1, terms=2)
                        )
                forms.append(w)
        a, b, c = forms
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


# ----------------------------------------------------------------------
# exterior derivative
# ----------------------------------------------------------------------


def test_d_of_x_dy(chart22):
    w = d(chart22, "y").left_multiply(chart22.var("x"))
    assert ext_d(w) == wedge(d(chart22, "x"), d(chart22, "y"))


def test_d_of_function_and_d_squared(chart22):
    y, xi = chart22.var("y"), chart22.var("xi")
    f = y * xi
    df = ext_d(f)
    expected = d(chart22, "y").left_multiply(xi) + d(chart22, "xi").left_multiply(y)
    assert df == expected
    assert ext_d(df).is_zero()


def test_d_squared_random(rng, chart22):
    for _ in range(20):
        f = random_superfunction(rng, chart22, degree=3, with_grassmann=True)
        assert ext_d(ext_d(f)).is_zero()
        w = KForm.zero(chart22, 1)
        for name in chart22.coords:
            if rng.random() < 0.6:
                w = w + d(chart22, name).left_multiply(random_superfunction(rng, chart22, 2, terms=2))
        assert ext_d(ext_d(w)).is_zero()


def test_d_of_a_c_valued_form_is_d_of_each_part(rng, chart22):
    for _ in range(5):
        f, g = (random_superfunction(rng, chart22, degree=2, with_grassmann=True) for _ in range(2))
        w = CKForm(d(chart22, "x").left_multiply(f), d(chart22, "xi").left_multiply(g))
        assert ext_d(w) == CKForm(ext_d(w.part0), ext_d(w.part1))


# ----------------------------------------------------------------------
# contraction: the 2|2 example pins every sign
# ----------------------------------------------------------------------


def test_elementary_contractions_of_mixed_form():
    ex = mixed_counterexample(4)
    c = ex.chart
    ddx = c.vector_field({"x": 1})
    ddy = c.vector_field({"y": 1})
    ddxi = c.vector_field({"xi": 1})
    ddeta = c.vector_field({"eta": 1})
    assert contract(ddx, ex.omega) == d(c, "y") + d(c, "xi")
    assert contract(ddy, ex.omega) == -d(c, "x")
    assert contract(ddxi, ex.omega) == d(c, "eta") - d(c, "x")
    assert contract(ddeta, ex.omega) == d(c, "xi")


def test_hamiltonian_contractions_of_mixed_fields():
    ex = mixed_counterexample(4)
    c = ex.chart
    y, eta, xi = c.var("y"), c.var("eta"), c.var("xi")
    assert contract(ex.X, ex.omega) == ext_d(y * y)
    assert contract(ex.Y, ex.omega) == ext_d(eta * xi)


def test_commutator_contraction_not_closed():
    """i_[X,Y] omega = -2( d(y xi) + 2 xi dxi ), whose d is -4 dxi^dxi != 0."""
    ex = mixed_counterexample(4)
    c = ex.chart
    y, xi = c.var("y"), c.var("xi")
    Z = vf_commutator(ex.X, ex.Y)
    sigma = contract(Z, ex.omega)
    two_xi_dxi = d(c, "xi").left_multiply(xi.scale(2))
    assert sigma == (ext_d(y * xi) + two_xi_dxi).scale(-2)
    dsigma = ext_d(sigma)
    assert not dsigma.is_zero()
    assert dsigma == wedge(d(c, "xi"), d(c, "xi")).scale(-4)


def test_nonclosed_candidate_one_form():
    # d( d(y xi) + 2 xi dxi ) = 2 dxi^dxi != 0
    ex = mixed_counterexample(4)
    c = ex.chart
    y, xi = c.var("y"), c.var("xi")
    candidate = ext_d(y * xi) + d(c, "xi").left_multiply(xi.scale(2))
    assert ext_d(candidate) == wedge(d(c, "xi"), d(c, "xi")).scale(2)


def test_contract_base_case(rng, chart22):
    ddx = chart22.vector_field({"x": 1})
    with pytest.raises(DegreeError):
        contract(ddx, KForm.from_function(chart22.one()))
    for _ in range(15):
        X = random_field(rng, chart22, degree=2)
        g = random_superfunction(rng, chart22, degree=3)
        assert contract(X, ext_d(g)) == KForm.from_function(vf_apply(X, g))


def test_contraction_degree_and_parity_shift(rng, chart22):
    for _ in range(10):
        a = rng.randrange(2)
        X = random_field(rng, chart22, parity=a, degree=1)
        if X.is_zero():
            continue
        w = KForm.zero(chart22, 2)
        for n1, n2 in itertools.combinations(chart22.coords, 2):
            w = w + wedge(d(chart22, n1), d(chart22, n2)).left_multiply(
                random_superfunction(rng, chart22, 1, terms=1).parity_part(rng.randrange(2))
            )
        for pw, wpart in homogeneous_parts(w).items():
            got = contract(X, wpart)
            assert got.degree == 1
            if not got.is_zero():
                assert got.parity() == (pw + a) % 2


# ----------------------------------------------------------------------
# Lie derivative and the displayed evaluation formulas
# ----------------------------------------------------------------------


def test_lie_derivative_on_functions(rng, chart22):
    for _ in range(10):
        X = random_field(rng, chart22, degree=2)
        f = random_superfunction(rng, chart22, degree=2)
        assert lie_derivative(X, f) == KForm.from_function(vf_apply(X, f))


def test_lie_derivative_homotopy_example(chart22):
    X = chart22.vector_field({"x": 1})
    w = wedge(d(chart22, "x"), d(chart22, "y")).left_multiply(chart22.var("x"))
    # both routes of the homotopy formula, frozen:
    # i_X dw + d i_X w = 0 + d(x dy) = dx^dy
    assert lie_derivative(X, w) == wedge(d(chart22, "x"), d(chart22, "y"))


def test_lie_derivative_kills_omega_for_naively_hamiltonian_field():
    ex = mixed_counterexample(4)
    assert lie_derivative(ex.X, ex.omega).is_zero()
    assert lie_derivative(ex.Y, ex.omega).is_zero()


def _scaled(form, sign):
    return form if sign > 0 else -form


def test_commutator_contraction_operator_identity(rng, chart22):
    """i_[X,Y] = [L(X), i_Y] = [i_X, L(Y)] on random 2-forms."""
    for _ in range(12):
        a, b = rng.randrange(2), rng.randrange(2)
        X = random_field(rng, chart22, parity=a, degree=1)
        Y = random_field(rng, chart22, parity=b, degree=1)
        w = KForm.zero(chart22, 2)
        for n1, n2 in itertools.combinations(chart22.coords, 2):
            if rng.random() < 0.6:
                w = w + wedge(d(chart22, n1), d(chart22, n2)).left_multiply(
                    random_superfunction(rng, chart22, 1, terms=1)
                )
        sign = -1 if (a * b) % 2 else 1
        left = contract(vf_commutator(X, Y), w) if not vf_commutator(X, Y).is_zero() else KForm.zero(chart22, 1)
        via_lx = lie_derivative(X, contract(Y, w)) - _scaled(contract(Y, lie_derivative(X, w)), sign)
        via_ly = contract(X, lie_derivative(Y, w)) - _scaled(lie_derivative(Y, contract(X, w)), sign)
        assert left == via_lx
        assert left == via_ly


def test_one_form_evaluation_formula(rng, chart22):
    """-i_{X,Y} d(sigma) = X<Y,sigma> - (-1)^(eps X eps Y) Y<X,sigma> - <[X,Y],sigma>."""
    for _ in range(12):
        a, b = rng.randrange(2), rng.randrange(2)
        X = random_field(rng, chart22, parity=a, degree=1)
        Y = random_field(rng, chart22, parity=b, degree=1)
        sigma = KForm.zero(chart22, 1)
        for name in chart22.coords:
            if rng.random() < 0.6:
                sigma = sigma + d(chart22, name).left_multiply(random_superfunction(rng, chart22, 2, terms=2))
        sign = -1 if (a * b) % 2 else 1
        lhs = -contract(X, Y, ext_d(sigma)).as_function()
        rhs = (
            vf_apply(X, contract(Y, sigma).as_function())
            - vf_apply(Y, contract(X, sigma).as_function()).scale(sign)
            - contract(vf_commutator(X, Y), sigma).as_function()
        )
        assert lhs == rhs


def test_two_form_evaluation_formula(rng, chart22):
    """The six-term formula for i_{X,Y,Z} d(omega) on random homogeneous fields."""
    for _ in range(12):
        pa, pb, pc = (rng.randrange(2) for _ in range(3))
        X = random_field(rng, chart22, parity=pa, degree=1)
        Y = random_field(rng, chart22, parity=pb, degree=1)
        Z = random_field(rng, chart22, parity=pc, degree=1)
        w = KForm.zero(chart22, 2)
        for n1, n2 in itertools.combinations(chart22.coords, 2):
            if rng.random() < 0.6:
                w = w + wedge(d(chart22, n1), d(chart22, n2)).left_multiply(
                    random_superfunction(rng, chart22, 1, terms=1)
                )
        def s(k):
            return -1 if k % 2 else 1

        lhs = contract(X, Y, Z, ext_d(w)).as_function()
        rhs = (
            vf_apply(X, contract(Y, Z, w).as_function())
            - vf_apply(Y, contract(X, Z, w).as_function()).scale(s(pa * pb))
            + vf_apply(Z, contract(X, Y, w).as_function()).scale(s(pc * (pa + pb)))
            - contract(vf_commutator(X, Y), Z, w).as_function()
            + contract(vf_commutator(X, Z), Y, w).as_function().scale(s(pb * pc))
            + contract(X, vf_commutator(Y, Z), w).as_function()
        )
        assert lhs == rhs


# ----------------------------------------------------------------------
# doubling
# ----------------------------------------------------------------------


def test_double_splits_parity():
    ex21_chart_like = mixed_counterexample(4)
    c = ex21_chart_like.chart
    w = wedge(d(c, "x"), d(c, "y")) + wedge(d(c, "x"), d(c, "xi"))
    cw = double(w)
    assert cw.part0 == wedge(d(c, "x"), d(c, "y"))
    assert cw.part1 == wedge(d(c, "x"), d(c, "xi"))


def test_forms_print_their_words_and_parts(chart22):
    zero_form = KForm.from_function(chart22.var("x"))
    assert (str(zero_form), repr(zero_form)) == ("(x)", "<0-form (x) on M>")
    w = double(wedge(d(chart22, "x"), d(chart22, "y")) + wedge(d(chart22, "x"), d(chart22, "xi")))
    assert str(w) == "(dx^dy) (x) c0 + (dx^dxi) (x) c1"


def test_double_of_even_form_has_no_part1(chart22):
    w = wedge(d(chart22, "x"), d(chart22, "y"))
    assert double(w).part1.is_zero()


def test_undouble_roundtrip(rng, chart22):
    for _ in range(10):
        w = KForm.zero(chart22, 2)
        for n1, n2 in itertools.combinations(chart22.coords, 2):
            w = w + wedge(d(chart22, n1), d(chart22, n2)).left_multiply(
                random_superfunction(rng, chart22, 2, terms=2, with_grassmann=True)
            )
        assert undouble(double(w)) == w
