from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import pytest

from supersymp.charts import CFunction, vf_commutator
from supersymp.dsl import parse
from supersymp.forms import contract
from supersymp.grassmann import GrassmannNumber
from supersymp.prequant import PrequantChart, Section, quantum_op, rep_check
from supersymp.reference import ORIGIN, even_chart_20, mixed_chart_21
from supersymp.scalars import GaussianRational
from supersymp.symplectic import PoissonMembershipError, SymplecticData, hamiltonian_field, poisson_bracket

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture
def even_chart():
    data = even_chart_20(4)
    sd = SymplecticData(data.omega, [ORIGIN])
    return data, PrequantChart(sd, data.theta)


@pytest.fixture
def mixed_chart():
    data = mixed_chart_21(4)
    sd = SymplecticData(data.omega, [ORIGIN])
    return data, PrequantChart(sd, data.theta)


def c0_fn(chart, f):
    return CFunction(f, chart.zero())


def c1_fn(chart, f):
    return CFunction(chart.zero(), f)


# ----------------------------------------------------------------------
# eta fields
# ----------------------------------------------------------------------


def test_eta_of_constant_c0_generates_fiber_translation(even_chart):
    data, pq = even_chart
    chart = data.chart
    eta = pq.eta_field(c0_fn(chart, chart.one()))
    assert eta == pq.total.vector_field({"t": -1})


def test_eta_of_constant_c1(mixed_chart):
    data, pq = mixed_chart
    chart = data.chart
    eta = pq.eta_field(c1_fn(chart, chart.one()))
    assert eta == pq.total.vector_field({"tau": -1})


def test_eta_defining_property(even_chart, mixed_chart, rng):
    """i_(eta_f) doubled-alpha = -f, lifted to the total chart."""
    for data, pq in (even_chart, mixed_chart):
        chart = data.chart
        members = [
            c0_fn(chart, chart.var("x")),
            c0_fn(chart, chart.var("y")) if not chart.odd else CFunction(chart.var("y"), chart.var(chart.odd[0])),
            c0_fn(chart, chart.constant(3)),
        ]
        for f in members:
            eta = pq.eta_field(f)
            got = contract(eta, pq.alpha)
            from supersymp.forms import KForm, lift_function

            want0 = KForm.from_function(-lift_function(f.f0, pq.total))
            want1 = KForm.from_function(-lift_function(f.f1, pq.total))
            assert got.part0 == want0
            assert got.part1 == want1


def test_eta_projects_to_hamiltonian_field(even_chart):
    data, pq = even_chart
    chart = data.chart
    f = c0_fn(chart, chart.var("x"))
    eta = pq.eta_field(f)
    from supersymp.symplectic import require_hamiltonian_field

    assert pq.project_field(eta) == require_hamiltonian_field(f, pq.base)


def test_eta_is_symmetry(even_chart, mixed_chart):
    for data, pq in (even_chart, mixed_chart):
        chart = data.chart
        f = c0_fn(chart, chart.var("x"))
        assert pq.symmetry_check(pq.eta_field(f))
        # the fiber generator itself preserves alpha
        assert pq.symmetry_check(pq.total.vector_field({"t": 1}))


def test_uncorrected_lift_is_not_a_symmetry(even_chart):
    data, pq = even_chart
    chart = data.chart
    from supersymp.forms import lift_field
    from supersymp.symplectic import require_hamiltonian_field

    # f = y c0 has X_f = d/dx and correction f0 + <X_f, theta_0> = y != 0,
    # so the lift without fiber terms fails to preserve alpha
    f = c0_fn(chart, chart.var("y"))
    bare = lift_field(require_hamiltonian_field(f, pq.base), pq.total)
    assert not pq.symmetry_check(bare)
    assert pq.symmetry_check(pq.eta_field(f))
    # f = x c0 happens to need no correction: its bare lift does preserve alpha
    g = c0_fn(chart, chart.var("x"))
    bare_g = lift_field(require_hamiltonian_field(g, pq.base), pq.total)
    assert pq.symmetry_check(bare_g)


def test_eta_morphism(even_chart, mixed_chart):
    """[eta_f, eta_g] = eta_{{f,g}}."""
    for data, pq in (even_chart, mixed_chart):
        chart = data.chart
        if chart.odd:
            members = [
                c0_fn(chart, chart.var("x")),
                CFunction(chart.var("y"), chart.var("xi")),
                c1_fn(chart, chart.var("x")),
            ]
        else:
            members = [
                c0_fn(chart, chart.var("x")),
                c0_fn(chart, chart.var("y")),
                c0_fn(chart, chart.var("x") * chart.var("y")),
            ]
        for f in members:
            for g in members:
                lhs = vf_commutator(pq.eta_field(f), pq.eta_field(g))
                rhs = pq.eta_field(poisson_bracket(f, g, pq.base))
                assert lhs == rhs


# ----------------------------------------------------------------------
# quantum operators
# ----------------------------------------------------------------------


def test_q_of_real_c0_constant_is_scalar(even_chart, rng):
    data, pq = even_chart
    chart = data.chart
    r = Fraction(7, 2)
    f = c0_fn(chart, chart.constant(r))
    from conftest import random_superfunction

    for _ in range(5):
        s = Section(random_superfunction(rng, chart, degree=3))
        assert quantum_op(f, s, pq) == s.scale(r)


def test_q_of_c1_constant_annihilates(mixed_chart, rng):
    data, pq = mixed_chart
    chart = data.chart
    f = c1_fn(chart, chart.constant(5))
    from conftest import random_superfunction

    for _ in range(5):
        s = Section(random_superfunction(rng, chart, degree=2))
        assert quantum_op(f, s, pq).is_zero()


def test_q_rejects_non_members(mixed_chart):
    data, pq = mixed_chart
    chart = data.chart
    y = chart.var("y")
    with pytest.raises(PoissonMembershipError):
        quantum_op(c0_fn(chart, y * y), Section(chart.one()), pq)


def _fixture_prequant(name):
    doc = parse((FIXTURES / f"{name}.ssp").read_text())
    chart = next(iter(doc.charts.values()))
    return chart, PrequantChart(SymplecticData(doc.forms["omega"], [ORIGIN]), doc.forms["theta"])


def test_cached_quantum_op_equals_the_formula(rng):
    """On the fixtures with a potential, Q(f) s from the per-f cache equals
    -i X_f(s) + <X_f, theta_0> s + f0 s built afresh, on the first call
    and on repeats, for sections with and without Grassmann coefficients."""
    from conftest import random_superfunction

    th1 = GrassmannNumber.generator(1)
    cases = 0
    for name in ("mixed21", "even20"):
        chart, pq = _fixture_prequant(name)
        x, y = chart.var("x"), chart.var("y")
        fs = [c0_fn(chart, x), c0_fn(chart, x * th1 + chart.constant(3))]
        if chart.odd:
            xi = chart.var("xi")
            fs += [CFunction(y + x * y, xi + x * xi), c1_fn(chart, x)]
        else:
            fs += [c0_fn(chart, y), c0_fn(chart, x * y + y * y.scale(Fraction(1, 2)))]
        sections = [Section(random_superfunction(rng, chart, degree=2, with_grassmann=with_th)) for with_th in (False, True)]
        for f in fs:
            xf = hamiltonian_field(f, SymplecticData(pq.base.omega)).field
            pairing = contract(xf, pq.theta.parity_part(0)).as_function()
            for s in sections:
                expected = xf.apply(s.fun).scale(GaussianRational(0, -1)) + pairing * s.fun + f.f0 * s.fun
                assert quantum_op(f, s, pq).fun == expected
                assert quantum_op(f, s, pq).fun == expected
                cases += 1
        assert set(pq._operators) == set(fs)
    assert cases == 16


def test_non_member_raises_on_every_call():
    chart, pq = _fixture_prequant("mixed21")
    bad = c0_fn(chart, chart.var("y") * chart.var("y"))
    for _ in range(2):
        with pytest.raises(PoissonMembershipError):
            quantum_op(bad, Section(chart.one()), pq)
    assert bad not in pq._operators


def test_rep_check_constants(even_chart):
    data, pq = even_chart
    chart = data.chart
    f = c0_fn(chart, chart.constant(2))
    g = c0_fn(chart, chart.constant(-3))
    assert rep_check(f, g, pq, [Section(chart.one()), Section(chart.var("x"))])


def test_rep_check_coordinates_even_chart(even_chart, rng):
    data, pq = even_chart
    chart = data.chart
    f = c0_fn(chart, chart.var("x"))
    g = c0_fn(chart, chart.var("y"))
    from conftest import random_superfunction

    sections = [Section(random_superfunction(rng, chart, degree=3)) for _ in range(4)]
    sections.append(Section(chart.one()))
    assert rep_check(f, g, pq, sections)


def test_rep_check_explicit_commutator_value(even_chart):
    """[Q(x), Q(y)] s = -i Q({x,y}) s = i s for omega = dx^dy, theta = x dy."""
    data, pq = even_chart
    chart = data.chart
    f = c0_fn(chart, chart.var("x"))
    g = c0_fn(chart, chart.var("y"))
    s = Section(chart.var("x") * chart.var("y"))
    lhs = quantum_op(f, quantum_op(g, s, pq), pq) - quantum_op(g, quantum_op(f, s, pq), pq)
    assert lhs == s.scale(GaussianRational(0, 1))


def test_rep_check_mixed_chart(mixed_chart, rng):
    data, pq = mixed_chart
    chart = data.chart
    members = [
        c0_fn(chart, chart.var("x")),
        CFunction(chart.var("y"), chart.var("xi")),
        c1_fn(chart, chart.var("x")),
    ]
    from conftest import random_superfunction

    sections = [Section(random_superfunction(rng, chart, degree=2)) for _ in range(3)]
    sections.append(Section(chart.one()))
    for f in members:
        for g in members:
            assert rep_check(f, g, pq, sections)


def test_rep_check_uses_the_graded_commutator():
    """For the odd pair (xi c0, eta c0) on omega = dx^dy + dxi^dxi + deta^deta
    the identity holds with the graded commutator Q(f)Q(g) + Q(g)Q(f) and
    fails with the plain one, so the sign of rep_check is seen."""
    doc = parse(
        "chart V even x,y odd xi,eta;"
        "form omega = dx^dy + dxi^dxi + deta^deta;"
        "form theta = x*dy + xi*dxi + eta*deta;"
    )
    pq = PrequantChart(SymplecticData(doc.forms["omega"]), doc.forms["theta"])
    f, g = doc.evaluate("xi*c0"), doc.evaluate("eta*c0")
    sections = [Section(doc.evaluate(text)) for text in ("x", "xi", "eta", "xi*eta", "y*xi")]
    assert rep_check(f, g, pq, sections)
    s = sections[1]
    plain = quantum_op(f, quantum_op(g, s, pq), pq) - quantum_op(g, quantum_op(f, s, pq), pq)
    assert plain != quantum_op(poisson_bracket(f, g, pq.base), s, pq).scale(GaussianRational(0, -1))


def test_q_is_even_and_linear(mixed_chart, rng):
    data, pq = mixed_chart
    chart = data.chart
    f = CFunction(chart.var("y"), chart.var("xi"))
    from conftest import random_superfunction

    s1 = Section(random_superfunction(rng, chart, degree=2))
    s2 = Section(random_superfunction(rng, chart, degree=2))
    assert quantum_op(f, s1 + s2, pq) == quantum_op(f, s1, pq) + quantum_op(f, s2, pq)
    assert quantum_op(f, s1.scale(Fraction(3, 4)), pq) == quantum_op(f, s1, pq).scale(Fraction(3, 4))
