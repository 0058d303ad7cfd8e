"""Property tests of the one sparse-sum core (`grassmann.Linear`).

Every engine type is a finite sum over a basis with nonzero coefficients;
these tests draw random Grassmann-valued objects of each type on 2|2 and
3|3 charts and check the vector-space laws, the ==/hash contract and two
calculus identities built on top of them.  The profile is derandomized, so
the suite stays deterministic.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from supersymp.cech import CechCochain
from supersymp.charts import CFunction, Chart, SuperFunction, VectorField
from supersymp.forms import CKForm, KForm, canonicalize_word, contract, ext_d
from supersymp.grassmann import GrassmannNumber, Linear
from supersymp.liecoh import CECochain, SuperLieAlgebra, canonical_keys
from supersymp.prequant import Section
from supersymp.reference import sphere_nerve
from supersymp.scalars import GaussianRational

PROFILE = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=12,
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


def superfunctions(chart: Chart, terms: int = 3):
    exps = st.tuples(*[st.integers(0, 2)] * len(chart.even))
    words = st.lists(st.integers(0, len(chart.odd) - 1), unique=True, max_size=2).map(lambda w: tuple(sorted(w)))
    return st.dictionaries(st.tuples(exps, words), grassmann, max_size=terms).map(lambda t: SuperFunction(chart, t))


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
def test_contraction_with_df_is_the_derivative(label, data):
    chart = CHARTS[label]
    f, x = data.draw(superfunctions(chart)), data.draw(fields(chart))
    assert contract(x, ext_d(f)).as_function() == x.apply(f)
