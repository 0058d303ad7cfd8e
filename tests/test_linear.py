"""Property tests of the one sparse-sum core (`grassmann.Linear`) and of
the calculus built on it.

Every engine type is a finite sum over a basis with nonzero coefficients;
these tests draw random Grassmann-valued objects of each type on 2|2 and
3|3 charts and check the vector-space laws, the ==/hash contract, d^2 = 0,
i_X(df) = Xf, Cartan's formula, the graded Leibniz rules of d and i_X, and
graded antisymmetry and Jacobi of the Poisson bracket.  The profile is
derandomized, so the suite stays deterministic.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from supersymp.cech import CechCochain
from supersymp.charts import CFunction, Chart, ChartMismatch, SuperFunction, VectorField, vf_commutator
from supersymp.forms import CKForm, KForm, canonicalize_word, contract, ext_d, lie_derivative, wedge
from supersymp.grassmann import DimensionError, GrassmannNumber, Linear
from supersymp.liecoh import CECochain, SuperLieAlgebra, canonical_keys
from supersymp.prequant import Section
from supersymp.reference import sphere_nerve
from supersymp.scalars import GaussianRational
from supersymp.symplectic import SymplecticData, poisson_bracket

PROFILE = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=12,
    # a failing example is reported as drawn: shrinking one sign fault
    # through these nested strategies takes minutes per test
    phases=[phase for phase in Phase if phase is not Phase.shrink],
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

N = 3  # Grassmann generators: coefficients carry real nilpotents
CHARTS = {
    "2|2": Chart("A", ("x", "y"), ("xi", "eta"), N),
    "3|3": Chart("B", ("x", "y", "z"), ("xi", "eta", "zeta"), N),
}
NERVE = sphere_nerve()
ALGEBRA = SuperLieAlgebra((0, 0, 1, 1), {(0, 2): {2: 1}, (1, 3): {3: 1}, (2, 3): {0: 1, 1: 1}})

rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
scalars = st.builds(GaussianRational, rationals, st.integers(-2, 2))
grassmann = st.dictionaries(
    st.lists(st.integers(1, N), unique=True, max_size=N).map(lambda w: tuple(sorted(w))), scalars, max_size=4
).map(lambda terms: GrassmannNumber(N, terms))


def superfunctions(chart: Chart, terms: int = 3, coefficients=grassmann):
    exps = st.tuples(*[st.integers(0, 2)] * len(chart.even))
    words = st.lists(st.integers(0, len(chart.odd) - 1), unique=True, max_size=2).map(lambda w: tuple(sorted(w)))
    return st.dictionaries(st.tuples(exps, words), coefficients, max_size=terms).map(lambda t: SuperFunction(chart, t))


def fields(chart: Chart):
    return st.dictionaries(st.sampled_from(chart.coords), superfunctions(chart, 2), max_size=3).map(
        lambda comps: VectorField(chart, comps)
    )


def forms(chart: Chart, degree: int):
    letters = st.lists(st.integers(0, len(chart.coords) - 1), min_size=degree, max_size=degree)
    words = letters.map(lambda w: canonicalize_word(chart, tuple(w))[1]).filter(lambda w: w is not None)
    return st.dictionaries(words, superfunctions(chart, 2), max_size=3).map(lambda t: KForm(chart, degree, t))


def cech_cochains():
    return st.dictionaries(st.sampled_from(NERVE.simplices[1]), rationals).map(lambda v: CechCochain(NERVE, 1, v))


def ce_cochains():
    keys = canonical_keys(ALGEBRA.parities, 2)

    def value(key, v):
        return (0, v) if sum(ALGEBRA.parities[i] for i in key) % 2 else (v, 0)

    return st.dictionaries(st.sampled_from(keys), rationals).map(
        lambda vals: CECochain(ALGEBRA, 2, {k: value(k, v) for k, v in vals.items()})
    )


def kinds():
    """(id, strategy of one object, strategy of its scaling factors)."""
    out = [("grassmann", grassmann, scalars)]
    for label, chart in CHARTS.items():
        sf = superfunctions(chart)
        out += [
            (f"function {label}", sf, scalars),
            (f"field {label}", fields(chart), scalars),
            (f"1-form {label}", forms(chart, 1), scalars),
            (f"2-form {label}", forms(chart, 2), scalars),
            (f"C-function {label}", st.builds(CFunction, sf, sf), scalars),
            (f"C-form {label}", st.builds(CKForm, forms(chart, 1), forms(chart, 1)), scalars),
            (f"section {label}", st.builds(Section, sf), scalars),
        ]
    return out + [("cech cochain", cech_cochains(), rationals), ("CE cochain", ce_cochains(), rationals)]


KINDS = kinds()
IDS = [k[0] for k in KINDS]


@pytest.mark.parametrize("kind, objects, factors", KINDS, ids=IDS)
@PROFILE
@given(data=st.data())
def test_sum_is_a_vector_space(kind, objects, factors, data):
    a, b, c = (data.draw(objects) for _ in range(3))
    s = data.draw(factors)
    assert isinstance(a, Linear)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert (a - a).is_zero() and not (a - a)
    assert a - b == a + (-b) == -(b - a)
    assert (a + b).scale(s) == a.scale(s) + b.scale(s)
    assert all(coeff for coeff in (a + b).terms.values())


@pytest.mark.parametrize("kind, objects, factors", KINDS, ids=IDS)
@PROFILE
@given(data=st.data())
def test_equal_sums_hash_equal(kind, objects, factors, data):
    a, b = data.draw(objects), data.draw(objects)
    rebuilt = (b + a) - b  # same sum, terms inserted in another order
    assert rebuilt == a
    assert hash(rebuilt) == hash(a)
    assert hash(a + b) == hash(b + a)
    assert len({a, rebuilt, a + b, b + a}) == len({a, a + b})


@pytest.mark.parametrize("kind, objects, factors", KINDS, ids=IDS)
@PROFILE
@given(data=st.data())
def test_hash_is_kept_through_use(kind, objects, factors, data):
    """The hash is computed once, so using a sum must leave it unchanged."""
    a, b = data.draw(objects), data.draw(objects)
    s = data.draw(factors)
    terms, h = dict(a.terms), hash(a)
    used = [a + b, b + a, a - b, a.scale(s), -a]
    if hasattr(type(a), "__mul__"):
        used += [a * b, b * a, a * a]
    assert all(type(u) is type(a) for u in used)
    assert a.terms == terms and hash(a) == h
    assert hash((b + a) - b) == h


@pytest.mark.parametrize("kind, objects, factors", KINDS, ids=IDS)
@PROFILE
@given(data=st.data())
def test_equal_sums_built_by_other_routes_hash_equal(kind, objects, factors, data):
    a, b = data.draw(objects), data.draw(objects)
    doubled = a + a
    hash(doubled)
    routes = [a.scale(2), -(-a).scale(2), (a - b) + (b + a), a._map(lambda k, c: c + c)]
    assert all(r == doubled and hash(r) == hash(doubled) for r in routes)


@pytest.mark.parametrize("label", CHARTS)
@PROFILE
@given(data=st.data())
def test_scalar_coefficients_match_their_grassmann_scalars(label, data):
    chart = CHARTS[label]
    exps = st.tuples(*[st.integers(0, 2)] * len(chart.even))
    words = st.lists(st.integers(0, len(chart.odd) - 1), unique=True, max_size=2).map(lambda w: tuple(sorted(w)))
    coefficients = data.draw(st.dictionaries(st.tuples(exps, words), scalars | rationals | st.integers(-3, 3), max_size=4))
    direct = SuperFunction(chart, coefficients)
    lifted = SuperFunction(chart, {k: GrassmannNumber.scalar(c, N) for k, c in coefficients.items()})
    assert direct.terms == lifted.terms
    assert all(c for c in direct.terms.values())


def test_a_float_is_refused_as_a_scalar():
    with pytest.raises(TypeError):
        GrassmannNumber.scalar(0.5, N)
    with pytest.raises(TypeError):
        SuperFunction(CHARTS["2|2"], {((0, 0), ()): 0.5})


def test_grassmann_numbers_over_different_generator_counts_do_not_mix():
    a, b = GrassmannNumber.generator(1, 2), GrassmannNumber.generator(1, 3)
    for op in (lambda: a + b, lambda: a - b, lambda: a * b):
        with pytest.raises(DimensionError):
            op()
    assert a != b


def test_superfunctions_on_different_charts_do_not_mix():
    other = Chart("C", ("x", "y"), ("xi", "eta"), N)
    f, g = CHARTS["2|2"].var("x"), other.var("x")
    for op in (lambda: f + g, lambda: f - g, lambda: f * g):
        with pytest.raises(ChartMismatch):
            op()
    assert f != g


def test_equal_charts_that_are_distinct_objects_mix():
    first, second = Chart("D", ("x",), ("xi",), N), Chart("D", ("x",), ("xi",), N)
    assert first is not second
    f, g = first.var("x") * first.var("xi"), second.var("x") * second.var("xi")
    assert f == g and hash(f) == hash(g)
    assert (f + g).terms == f.scale(2).terms
    assert (f * g).is_zero() and (f - g).is_zero()


def test_ce_cochains_over_algebras_with_other_parities_do_not_mix():
    """Same degree and the same terms, but the parities differ: the frame
    of a CE cochain is its degree together with the algebra's parities."""
    even, mixed = SuperLieAlgebra((0, 0), {}), SuperLieAlgebra((0, 0, 1), {})
    a = CECochain(even, 2, {(0, 1): (1, 0)})
    b = CECochain(mixed, 2, {(0, 1): (1, 0)})
    assert a.terms == b.terms
    assert a != b and CECochain(even, 2) != CECochain(mixed, 2)
    for op in (lambda: a + b, lambda: a - b):
        with pytest.raises(ValueError):
            op()
    assert a + CECochain(SuperLieAlgebra((0, 0), {(0, 1): {0: 1}}), 2, {(0, 1): (1, 0)}) == a.scale(2)


@pytest.mark.parametrize("label", CHARTS)
@PROFILE
@given(data=st.data())
def test_d_squared_is_zero(label, data):
    chart = CHARTS[label]
    f = data.draw(superfunctions(chart))
    w = data.draw(forms(chart, 1))
    assert ext_d(ext_d(f)).is_zero()
    assert ext_d(ext_d(w)).is_zero()


@pytest.mark.parametrize("label", CHARTS)
@PROFILE
@given(data=st.data())
def test_grouped_coefficients_rebuild_the_function(label, data):
    chart = CHARTS[label]
    f = data.draw(superfunctions(chart, 5))
    for g in (f, f * f + f):
        grouped = g.coefficients()
        assert all(isinstance(c, GrassmannNumber) and c for c in grouped.values())
        assert SuperFunction(chart, grouped) == g


@pytest.mark.parametrize("label", CHARTS)
@PROFILE
@given(data=st.data())
def test_contraction_with_df_is_the_derivative(label, data):
    chart = CHARTS[label]
    f, x = data.draw(superfunctions(chart)), data.draw(fields(chart))
    assert contract(x, ext_d(f)).as_function() == x.apply(f)


def _sign(a: int, b: int) -> int:
    return -1 if (a * b) % 2 else 1


@pytest.mark.parametrize("label", CHARTS)
@PROFILE
@given(data=st.data())
def test_cartan_formula(label, data):
    """L_X = d i_X + i_X d; on functions it is X itself, and it satisfies
    L_X i_Y - (-1)^(|X||Y|) i_Y L_X = i_[X,Y] for homogeneous X and Y."""
    chart = CHARTS[label]
    px, py = data.draw(st.integers(0, 1)), data.draw(st.integers(0, 1))
    x, y = data.draw(fields(chart)).parity_part(px), data.draw(fields(chart)).parity_part(py)
    f = data.draw(superfunctions(chart))
    assert lie_derivative(x, f) == KForm.from_function(x.apply(f))
    for w in (data.draw(forms(chart, 1)), data.draw(forms(chart, 2))):
        assert lie_derivative(x, w) == ext_d(contract(x, w)) + contract(x, ext_d(w))
        commutator = lie_derivative(x, contract(y, w)) - contract(y, lie_derivative(x, w)).scale(_sign(px, py))
        assert commutator == contract(vf_commutator(x, y), w)


@pytest.mark.parametrize("label", CHARTS)
@PROFILE
@given(data=st.data())
def test_graded_leibniz_of_d_and_contraction(label, data):
    """d(a ^ b) = da ^ b + (-1)^k a ^ db, and i_X is a derivation of degree
    -1 and parity |X|: i_X(a ^ b) = i_X a ^ b + (-1)^(k + |X||a|) a ^ i_X b,
    for a homogeneous k-form a of parity |a|."""
    chart = CHARTS[label]
    pa, px = data.draw(st.integers(0, 1)), data.draw(st.integers(0, 1))
    x = data.draw(fields(chart)).parity_part(px)
    b = data.draw(forms(chart, 1))
    a = KForm.from_function(data.draw(superfunctions(chart)))
    assert ext_d(wedge(a, b)) == wedge(ext_d(a), b) + wedge(a, ext_d(b))
    for k in (1, 2):
        a = data.draw(forms(chart, k)).parity_part(pa)
        sign = (-1) ** k
        assert ext_d(wedge(a, b)) == wedge(ext_d(a), b) + wedge(a, ext_d(b)).scale(sign)
        assert contract(x, wedge(a, b)) == wedge(contract(x, a), b) + wedge(a, contract(x, b)).scale(sign * _sign(px, pa))


def _canonical_data(chart: Chart) -> SymplecticData:
    """The even form dx^dy + dxi^dxi + deta^deta on 2|2, the odd form
    dx^dxi + dy^deta + dz^dzeta on 3|3."""
    d = lambda name: KForm.differential(chart, name)  # noqa: E731
    if len(chart.even) == 2:
        return SymplecticData(wedge(d("x"), d("y")) + wedge(d("xi"), d("xi")) + wedge(d("eta"), d("eta")))
    return SymplecticData(sum((wedge(d(u), d(v)) for u, v in zip(chart.even, chart.odd)), KForm.zero(chart, 2)))


POISSON = {label: _canonical_data(chart) for label, chart in CHARTS.items()}


def members(chart: Chart):
    """Homogeneous C-valued functions whose component in the form's parity
    is arbitrary and whose other component is constant, so each is a
    member.  Their coefficients are scalars: the Hamiltonian solver's ansatz
    has Gaussian-rational coefficients."""
    even_form = len(chart.even) == 2
    free = superfunctions(chart, 2, scalars.map(lambda c: GrassmannNumber(N, {(): c})))
    constant = scalars.map(chart.constant)
    pairs = st.tuples(free, constant) if even_form else st.tuples(constant, free)
    return st.tuples(pairs, st.integers(0, 1)).map(lambda t: (CFunction(*t[0]).parity_part(t[1]), t[1]))


@pytest.mark.parametrize("label", CHARTS)
@PROFILE
@given(data=st.data())
def test_poisson_bracket_antisymmetry_and_jacobi(label, data):
    chart, sd = CHARTS[label], POISSON[label]
    (f, pf), (g, pg), (h, ph) = (data.draw(members(chart)) for _ in range(3))
    assert poisson_bracket(f, g, sd) == poisson_bracket(g, f, sd).scale(-_sign(pf, pg))
    jacobi = (
        poisson_bracket(f, poisson_bracket(g, h, sd), sd).scale(_sign(pf, ph))
        + poisson_bracket(g, poisson_bracket(h, f, sd), sd).scale(_sign(pg, pf))
        + poisson_bracket(h, poisson_bracket(f, g, sd), sd).scale(_sign(ph, pg))
    )
    assert jacobi.is_zero()
