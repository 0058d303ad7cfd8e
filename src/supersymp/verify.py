"""Re-derivation of the bundled worked examples, organized by section.

Each check recomputes one displayed claim from scratch and compares
exactly.  The runner never weakens a comparison: one reference display
(the contraction of the commutator in the mixed 2|2 example) is
inconsistent with the others by a factor -2, and its check is expected to
report the mismatch rather than hide it; see that check's note.

A check is a function registered with ``@check(name, section)``; the name
and section are written only there.  It returns ``(ok, expected, got)`` or
``(ok, expected, got, note)``.  The report shows ``bool(ok)``,
``str(expected)`` and ``str(got)``, or ``str(ok)`` when ``got`` prints as
the empty string.  A check that raises is reported as failed, with
``"<Type>: <message>"`` as ``got``, and the run goes on to the next check.
The expected displays come from ``reference``, which the acceptance tests
share.
"""

from __future__ import annotations

import os
import traceback
from fractions import Fraction
from typing import Callable, List, Tuple

from .cech import (
    CechCochain,
    PeriodGroup,
    classify_prequantum,
    cocycle_from_potentials,
    normalize_to_periods,
    period_group,
    prequantum_exists,
    transition_data,
)
from .charts import CFunction, Chart, vf_commutator
from .forms import KForm, contract, ext_d, lie_derivative, lift_function, wedge
from .grassmann import GrassmannNumber, skew_sign
from .heisenberg import (
    GroupElement,
    OrbitPoint,
    algebra_of,
    ambient_chart,
    coad,
    coad_pairing,
    fundamental_field,
    group_identity,
    group_inverse,
    group_mul,
    momentum_check,
    orbit_classify,
)
from .liecoh import (
    CECochain,
    canonical_keys,
    ce_coboundary,
    central_extension,
    extension_equivalent,
    h2,
    jacobi_check,
    momentum_cocycle,
    tuple_parity,
)
from .prequant import Section, quantum_op, rep_check
from .reference import (
    ORIGIN,
    circle_nerve,
    d,
    even_chart_20,
    heisenberg_33,
    members_21,
    mixed_chart_21,
    mixed_counterexample,
    orbit_form,
    poisson_member_21,
    prequant_at_origin,
    sphere_cocycle,
    sphere_nerve,
)
from .symplectic import (
    SymplecticData,
    contraction_matrix,
    darboux_normal_form,
    hamiltonian_field,
    is_symplectic,
    poisson_bracket,
)


class CheckResult:
    def __init__(self, name: str, section: str, ok: bool, expected: str, got: str, note: str = ""):
        self.name, self.section, self.ok, self.expected, self.got, self.note = name, section, ok, expected, got, note

    def as_dict(self) -> dict:
        out = dict(vars(self))
        if not self.note:
            del out["note"]
        return out


_REGISTRY: List[Tuple[str, Callable[[], CheckResult]]] = []


def check(name: str, section: str):
    def wrap(fn: Callable[[], tuple]):
        def run() -> CheckResult:
            try:
                ok, expected, got, *note = fn()
                return CheckResult(name, section, bool(ok), str(expected), str(got) or str(ok), *note)
            except Exception as exc:  # one crashing check must not end the run
                frame = traceback.extract_tb(exc.__traceback__)[-1]
                where = f"raised at {os.path.basename(frame.filename)}:{frame.lineno} in {frame.name}"
                return CheckResult(name, section, False, "no exception", f"{type(exc).__name__}: {exc}", where)

        _REGISTRY.append((section, run))
        return fn

    return wrap


# ----------------------------------------------------------------------
# section 3: the mixed 2|2 counterexample and the 2|1 Poisson algebra
# ----------------------------------------------------------------------


@check("elementary contractions of the 2|2 form", "section3")
def _c_elementary():
    ex = mixed_counterexample()
    c = ex.chart
    got = {k: contract(c.vector_field({k: 1}), ex.omega) for k in ("x", "y", "xi", "eta")}
    want = {
        "x": d(c, "y") + d(c, "xi"),
        "y": -d(c, "x"),
        "xi": d(c, "eta") - d(c, "x"),
        "eta": d(c, "xi"),
    }
    return (
        got == want,
        "i_dx w = dy + dxi; i_dy w = -dx; i_dxi w = deta - dx; i_deta w = dxi",
        "; ".join(f"i_d{k} w = {v}" for k, v in got.items()),
    )


@check("i_X omega = d(y^2)", "section3")
def _c_ix():
    ex = mixed_counterexample()
    y = ex.chart.var("y")
    want, got = ext_d(y * y), contract(ex.X, ex.omega)
    return want == got, want, got


@check("i_Y omega = d(eta xi)", "section3")
def _c_iy():
    ex = mixed_counterexample()
    c = ex.chart
    want, got = ext_d(c.var("eta") * c.var("xi")), contract(ex.Y, ex.omega)
    return want == got, want, got


@check("[X,Y] = -2 xi d/dx - 2 y d/deta - 2 xi d/deta", "section3")
def _c_commutator():
    ex = mixed_counterexample()
    want, got = ex.XY_display, vf_commutator(ex.X, ex.Y)
    return want == got, want, got


@check("i_[X,Y] omega = d(y xi) + 2 xi dxi (reference display)", "section3")
def _c_commutator_contraction():
    ex = mixed_counterexample()
    displayed = ex.iXY_display
    got = contract(vf_commutator(ex.X, ex.Y), ex.omega)
    note = (
        "the display is inconsistent with the elementary contractions above: "
        "bilinearity forces i_[X,Y] omega = -2 (d(y xi) + 2 xi dxi), which is "
        "what the engine returns; the non-closedness conclusion is unaffected"
    )
    return got == displayed, displayed, got, note


@check("d(i_[X,Y] omega) = 2 dxi^dxi != 0 (reference display)", "section3")
def _c_not_closed_display():
    ex = mixed_counterexample()
    got = ext_d(contract(vf_commutator(ex.X, ex.Y), ex.omega))
    displayed = ex.diXY_display
    note = "engine value is -4 dxi^dxi: nonzero, so the commutator is still not locally hamiltonian"
    return got == displayed, displayed, got, note


@check("i_[X,Y] omega is not closed", "section3")
def _c_not_closed():
    ex = mixed_counterexample()
    got = ext_d(contract(vf_commutator(ex.X, ex.Y), ex.omega))
    return not got.is_zero(), "nonzero 2-form", got


@check("L(X) omega = 0", "section3")
def _c_lie():
    ex = mixed_counterexample()
    got = lie_derivative(ex.X, ex.omega)
    return got.is_zero(), "0", got


@check("2|2 form closed and non-degenerate", "section3")
def _c_22_nondeg():
    rep = is_symplectic(mixed_counterexample().omega, [ORIGIN])
    return (
        rep["closed"] and rep["nondegenerate"],
        "closed, nondegenerate",
        f"closed={rep['closed']} nondegenerate={rep['nondegenerate']}",
    )


@check("2|1 form degenerate but homogeneously non-degenerate", "section3")
def _c_21_homog():
    rep = is_symplectic(mixed_chart_21().omega, [ORIGIN])
    return (
        rep["closed"] and not rep["nondegenerate"] and rep["homogeneously_nondegenerate"],
        "closed, degenerate, homogeneously nondegenerate",
        f"closed={rep['closed']} nondeg={rep['nondegenerate']} homog={rep['homogeneously_nondegenerate']}",
    )


@check("2|1: hamiltonian field of x c0 is -d/dy", "section3")
def _c_21_xc0():
    data = mixed_chart_21()
    c = data.chart
    res = hamiltonian_field(CFunction(c.var("x"), c.zero()), SymplecticData(data.omega, [ORIGIN]))
    want, got = c.vector_field({"y": -1}), res.field if res else res.status
    return want == got, want, got


@check("2|1: y^2 c0 is definitively outside the Poisson algebra", "section3")
def _c_21_nonmember():
    data = mixed_chart_21()
    c = data.chart
    y = c.var("y")
    res = hamiltonian_field(CFunction(y * y, c.zero()), SymplecticData(data.omega, [ORIGIN]))
    return res.status == "not_member", "not_member", res.status


@check("2|1: members (a + y c) c0 + (b + xi c) c1 admit fields", "section3")
def _c_21_family():
    data = mixed_chart_21()
    sd = SymplecticData(data.omega, [ORIGIN])
    fams = [
        poisson_member_21(data, [1, 2], [0, 1], [3]),
        poisson_member_21(data, [0, 0, 1], [2], [0, 1]),
        poisson_member_21(data, [5], [1, 1, 1], [0, 0, 2]),
    ]
    ok = all(hamiltonian_field(f, sd).status == "member" for f in fams)
    return ok, "member x3", "member x3" if ok else "failure"


@check("graded Jacobi on three members, on 2|1 and on an odd pair of 2|2", "section3")
def _c_21_jacobi():
    data = mixed_chart_21()
    f = poisson_member_21(data, [], [], [1])  # even
    g = poisson_member_21(data, [], [], [0, 1])  # even
    h = poisson_member_21(data, [], [2, 0, 1], [])  # odd
    jac21 = _jacobi_sum(SymplecticData(data.omega, [ORIGIN]), (f, g, h), (0, 0, 1))
    # with parities (0, 0, 1) every sign is -1 and cannot tell a graded Jacobi rule from an
    # ungraded one; on dx^dy + dxi^dxi + deta^deta the triple (x, y xi, xi) c0 has an odd
    # pair with a nonzero bracket, and its sum without signs is -c0
    chart = Chart("S", ("x", "y"), ("xi", "eta"), 4)
    omega = wedge(d(chart, "x"), d(chart, "y")) + wedge(d(chart, "xi"), d(chart, "xi")) + wedge(d(chart, "eta"), d(chart, "eta"))
    x, y, xi = (chart.var(n) for n in ("x", "y", "xi"))
    members = [CFunction(v, chart.zero()) for v in (x, y * xi, xi)]
    jac22 = _jacobi_sum(SymplecticData(omega, [ORIGIN]), members, (0, 1, 1))
    return jac21.is_zero() and jac22.is_zero(), "0 on 2|1 and on 2|2", f"2|1: {jac21}; 2|2: {jac22}"


def _jacobi_sum(sd: SymplecticData, members, parities):
    """The sum over the cyclic orders (a, b, c) = (k, k + 1, k + 2) of
    (-1)^(|a||c|) {a, {b, c}}, up to one overall sign: zero by the graded
    Jacobi identity."""
    terms = []
    for k in range(3):
        a, b, c = members[k], members[k - 2], members[k - 1]
        terms.append(poisson_bracket(a, poisson_bracket(b, c, sd), sd).scale(skew_sign(parities[k], parities[k - 1])))
    return terms[0] + terms[1] + terms[2]


@check("darboux: 0|1 with omega = -dxi^dxi has signature 0", "section3")
def _c_darboux_01():
    chart = Chart("D", (), ("xi",))
    omega = -wedge(d(chart, "xi"), d(chart, "xi"))
    res = darboux_normal_form(contraction_matrix(omega), (1,), 0)
    return (
        res.ell == 0 and res.odd_coefficients == (Fraction(-1),),
        "ell = 0, coefficient -1",
        f"ell = {res.ell}, coefficients {res.odd_coefficients}",
    )


# ----------------------------------------------------------------------
# section 4: cohomology plumbing on the 3|3 extension
# ----------------------------------------------------------------------


@check("d.d = 0 on the 3|3 extension algebra", "section4")
def _c4_dd():
    g = algebra_of(heisenberg_33())
    vals = {}
    for t, key in enumerate(canonical_keys(g.parities, 1)):
        pair = [Fraction(0), Fraction(0)]
        pair[tuple_parity(g.parities, key)] = Fraction(t + 1)
        vals[key] = (pair[0], pair[1])
    got = ce_coboundary(ce_coboundary(CECochain(g, 1, vals)))
    return got.is_zero(), "0", repr(got)


@check("H2 of the 3|3 extension algebra (pinned dimensions)", "section4")
def _c4_h2():
    rep = h2(algebra_of(heisenberg_33()))
    want, got = (32, 18, 2, 16), (rep.dim_c2, rep.dim_z2, rep.dim_b2, rep.dim_h2)
    return want == got, want, got


@check("central extension Jacobi iff the cochain is closed", "section4")
def _c4_ext():
    g = algebra_of(heisenberg_33())
    closed = CECochain(g, 2, {(0, 1): (Fraction(1), Fraction(0))})
    ok1, _ = jacobi_check(central_extension(g, closed))
    open_c = CECochain(g, 2, {(0, 6): (Fraction(1), Fraction(0))})
    is_open = not ce_coboundary(open_c).is_zero()
    ok2, _ = jacobi_check(central_extension(g, open_c))
    return (
        ok1 == ce_coboundary(closed).is_zero() and (not is_open or not ok2),
        "Jacobi <-> d Omega = 0",
        f"closed case: {ok1}; non-closed case fails: {not ok2 if is_open else 'n/a'}",
    )


# ----------------------------------------------------------------------
# section 5 / 6: momentum maps on coadjoint orbits
# ----------------------------------------------------------------------


@check("coadjoint orbit momentum cocycle vanishes (J = id)", "section6")
def _c6_cocycle():
    orbit = orbit_classify(heisenberg_33(), 1, 0)
    cocycle, constant = orbit.momentum_cocycle()
    return orbit.hamiltonian() and constant and cocycle.is_zero(), "0 (constant)", repr(cocycle)


@check("shifted momentum map gives a constant, nonzero cocycle", "section5")
def _c5_shift():
    orbit = orbit_classify(heisenberg_33(), 1, 0)
    sd = orbit.symplectic_data()
    chart = orbit.chart

    # shifting a central component of J changes <[v,w], J> but not the
    # brackets {J_v, J_w}, so the cocycle becomes a nonzero constant
    def shifted(m):
        f = orbit.momentum_function(m)
        if m == 6:
            return CFunction(f.f0 + chart.constant(7), f.f1)
        return f

    cocycle, constant = momentum_cocycle(
        orbit.algebra(), shifted, lambda i, j: poisson_bracket(shifted(i), shifted(j), sd)
    )
    return constant and not cocycle.is_zero(), "constant, nonzero", repr(cocycle)


@check("strong hamiltonicity on all three orbit types", "section6")
def _c6_strong():
    results = []
    for y0, yb1 in ((1, 0), (0, 1), (1, 1)):
        rep = momentum_check(orbit_classify(heisenberg_33(), y0, yb1))
        results.append(rep["strongly_hamiltonian"])
    return all(results), "3x strongly hamiltonian", results


@check("<v, coad(w) mu> = <[v,w], mu> on basis pairs", "section6")
def _c6_duality():
    spec = heisenberg_33()
    g = algebra_of(spec)
    mu = OrbitPoint.base(spec, 2, 5)
    ok = True
    for v in range(6):
        for w in range(6):
            vec = g.bracket_basis(v, w)
            rhs = vec.get(6, Fraction(0)) * 2 + vec.get(7, Fraction(0)) * 5
            if coad_pairing(spec, v, w, mu) != rhs:
                ok = False
    return ok, "36 pairings equal", "all equal" if ok else "mismatch"


# ----------------------------------------------------------------------
# section 7: the 3|3 example end to end
# ----------------------------------------------------------------------


@check("group inverse of (a,b) is (-a,-b)", "section7")
def _c7_inverse():
    spec = heisenberg_33()
    n = 6
    a = [GrassmannNumber.scalar(2, n), GrassmannNumber.scalar(-1, n), GrassmannNumber.scalar(3, n)]
    a += [GrassmannNumber.generator(k, n) for k in (1, 2, 3)]
    g = GroupElement(spec, a, GrassmannNumber.scalar(5, n), GrassmannNumber.generator(4, n))
    ok = group_mul(g, group_inverse(g)) == group_identity(spec, n)
    return ok, "g g^-1 = e", ok


@check("3|3 coadjoint action matches the displayed coordinate maps", "section7")
def _c7_coad():
    spec = heisenberg_33()
    n = 6
    y0, yb1 = Fraction(1), Fraction(1)
    mu = OrbitPoint.base(spec, y0, yb1, generators=n)
    a = [GrassmannNumber.scalar(v, n) for v in (1, 2, 3)] + [
        GrassmannNumber.generator(k, n) for k in (1, 2, 3)
    ]
    g = GroupElement(spec, a, GrassmannNumber.scalar(0, n), GrassmannNumber.zero(n))
    nu = coad(g, mu)
    checks = [
        nu.x[0] == -a[1],
        nu.x[1] == a[0],
        nu.x[4] == a[4],
        nu.x[5] == -a[5],
        nu.xbar[0] == -a[3],
        nu.xbar[2] == -a[4],
        nu.xbar[3] == a[0],
        nu.xbar[4] == a[2],
    ]
    return all(checks), "8 coordinate maps", checks


@check("3|3 fundamental vector fields match the display", "section7")
def _c7_fields():
    spec = heisenberg_33()
    chart = ambient_chart(spec)

    def unit(j):
        v = [Fraction(0)] * 6
        v[j] = Fraction(1)
        return fundamental_field(spec, v, 1, 1, chart)

    ok = (
        unit(1) == chart.vector_field({"x1": 1})
        and unit(0) == chart.vector_field({"x2": -1, "xb4": -1})
        and unit(4) == chart.vector_field({"xi5": -1, "xib3": 1})
        and unit(5) == chart.vector_field({"xi6": 1})
        and unit(3) == chart.vector_field({"xib1": 1})
        and unit(2) == chart.vector_field({"xb5": -1})
    )
    return ok, "six displayed fields", ok


@check("orbit case (i): coordinates and even form", "section7")
def _c7_case_i():
    orbit = orbit_classify(heisenberg_33(), 1, 0)
    omega = orbit.kks_form()
    ok = (
        orbit.case == "case_i"
        and orbit.coordinates == ("x1", "x2", "xi5", "xi6")
        and orbit.dimension == (2, 2)
        and omega == orbit_form(orbit.chart, "case_i")
    )
    return ok, "dx1^dx2 + 1/2 dxi5^dxi5 - 1/2 dxi6^dxi6 on (x1,x2|xi5,xi6)", omega


@check("orbit case (ii): coordinates and odd form", "section7")
def _c7_case_ii():
    orbit = orbit_classify(heisenberg_33(), 0, 1)
    omega = orbit.kks_form()
    ok = orbit.case == "case_ii" and orbit.dimension == (2, 2) and omega == orbit_form(orbit.chart, "case_ii")
    return ok, "dxib1^dxb4 + dxib3^dxb5 on (xb4,xb5|xib1,xib3)", omega


@check("orbit case (iii): mixed form in the hatted chart", "section7")
def _c7_case_iii():
    orbit = orbit_classify(heisenberg_33(), 1, 1)
    omega = orbit.kks_form()
    c = orbit.chart
    rep = is_symplectic(omega, [{n: 0 for n in c.even}])
    ok = (
        orbit.case == "case_iii"
        and orbit.dimension == (3, 3)
        and omega == orbit_form(c, "case_iii")
        and rep["closed"]
        and rep["homogeneously_nondegenerate"]
        and not rep["nondegenerate"]
    )
    expected = (
        "dx1^dx2 + dxib1^dx2 + dxb5^dxi5 + 1/2 dxi5^dxi5 - 1/2 dxi6^dxi6, "
        "degenerate but homogeneously nondegenerate"
    )
    return ok, expected, omega


@check("trivial orbit at y0 = ybar1 = 0", "section7")
def _c7_trivial():
    orbit = orbit_classify(heisenberg_33(), 0, 0)
    return (
        orbit.case == "trivial" and orbit.dimension == (0, 0),
        "dimension 0|0",
        f"{orbit.case}, dimension {orbit.dimension}",
    )


@check("pullback cocycle is y0 Omega^0 + ybar1 Omega^1", "section7")
def _c7_pullback():
    spec = heisenberg_33()
    c = orbit_classify(spec, 1, 2).pullback_cocycle()
    ok = True
    for i in range(6):
        for j in range(6):
            if c.evaluate((i, j)) != (spec.omega0[i][j], 2 * spec.omega1[i][j]):
                ok = False
    return ok, "pattern on 36 pairs", "match" if ok else "mismatch"


@check("same-orbit pullback classes differ by a coboundary", "section7")
def _c7_class_difference():
    spec = heisenberg_33()
    g = algebra_of(spec)
    o1 = orbit_classify(spec, 1, 0)
    mu2 = OrbitPoint.base(spec, 1, 0, x=[3, 4, 0, 0, 0, 0])
    o2 = orbit_classify(spec, 1, 0, base=mu2)
    ok, witness = extension_equivalent(o1.pullback_cocycle(), o2.pullback_cocycle(), g)
    ok = ok and ce_coboundary(witness) == o1.pullback_cocycle() - o2.pullback_cocycle()
    return ok, "coboundary witness found", ok


# ----------------------------------------------------------------------
# section 8: finite cover machinery
# ----------------------------------------------------------------------


@check("sphere fixture: periods are 3Z", "section8")
def _c8_periods():
    got = period_group(sphere_cocycle()).generator
    return Fraction(3) == got, Fraction(3), got


@check("existence: d in {1, 3} works, d = 2 does not", "section8")
def _c8_exists():
    per = PeriodGroup(Fraction(3))
    got = (prequantum_exists(per, 1), prequantum_exists(per, 3), prequantum_exists(per, 2))
    return (True, True, False) == got, (True, True, False), got


@check("normalization lands in the period group", "section8")
def _c8_normalize():
    a0 = sphere_cocycle()
    nerve = a0.nerve
    noise = CechCochain(nerve, 1, {(0, 1): Fraction(3, 2), (2, 3): Fraction(-5, 4)})
    _, corrected, per = normalize_to_periods(a0 + cocycle_from_potentials(noise))
    ok = per.generator == 3 and all(
        per.contains(corrected.values.get(s, Fraction(0))) for s in nerve.simplices[2]
    )
    return ok, "all triangle values in 3Z", {s: str(v) for s, v in corrected.values.items()}


@check("classification: sphere trivial, circle one free loop", "section8")
def _c8_classify():
    rs = classify_prequantum(sphere_nerve(), 3)
    rc = classify_prequantum(circle_nerve(), 3)
    ok = rs["trivial"] and rc["free_rank"] == 1 and not rc["trivial"]
    return ok, "H1(sphere) = 0, H1(circle) = Q/3Z", f"sphere {rs}, circle {rc}"


@check("transition data closes mod d after normalization", "section8")
def _c8_transition():
    a0 = sphere_cocycle()
    f = CechCochain(a0.nerve, 1, {(0, 1): Fraction(1, 2), (1, 3): Fraction(7, 3)})
    bprime, corrected, per = normalize_to_periods(a0 + cocycle_from_potentials(f))
    # the f-part closes mod 3 up to the (3Z-valued) non-exact seed
    closes = transition_data(f - bprime, 3)["cocycle_mod_d"]
    ok = closes and all((v / 3).denominator == 1 for v in corrected.values.values())
    got = {s: str(v) for s, v in corrected.values.items()}
    return ok, "corrected cocycle 3Z-valued; transition data close mod 3", f"{got}; closes mod 3: {closes}"


# ----------------------------------------------------------------------
# section 9: connection symmetries and operators
# ----------------------------------------------------------------------


@check("eta of the constant c0 is minus the fiber generator", "section9")
def _c9_eta_c0():
    data = even_chart_20()
    pq = prequant_at_origin(data)
    want, got = pq.total.vector_field({"t": -1}), pq.eta_field(CFunction(data.chart.one(), data.chart.zero()))
    return want == got, want, got


@check("eta of the constant c1 is minus the odd fiber generator", "section9")
def _c9_eta_c1():
    data = mixed_chart_21()
    pq = prequant_at_origin(data)
    want, got = pq.total.vector_field({"tau": -1}), pq.eta_field(CFunction(data.chart.zero(), data.chart.one()))
    return want == got, want, got


@check("i_eta alpha = -f and eta preserves alpha", "section9")
def _c9_eta_defining():
    data = mixed_chart_21()
    pq = prequant_at_origin(data)
    ok = True
    for f in members_21(data):
        eta = pq.eta_field(f)
        got = contract(eta, pq.alpha)
        want0 = KForm.from_function(-lift_function(f.f0, pq.total))
        want1 = KForm.from_function(-lift_function(f.f1, pq.total))
        if got.part0 != want0 or got.part1 != want1 or not pq.symmetry_check(eta):
            ok = False
    return ok, "three members", ok


@check("Q(r c0) = r id and Q(r c1) = 0", "section9")
def _c9_constants():
    data = mixed_chart_21()
    pq = prequant_at_origin(data)
    chart = data.chart
    s = Section(chart.var("x") * chart.var("y") + chart.var("xi"))
    r = Fraction(5, 3)
    q0 = quantum_op(CFunction(chart.constant(r), chart.zero()), s, pq)
    q1 = quantum_op(CFunction(chart.zero(), chart.constant(r)), s, pq)
    ok = q0 == s.scale(r) and q1.is_zero()
    return ok, "scalar and zero", ok


@check("representation condition on the even and mixed charts", "section9")
def _c9_rep():
    data = even_chart_20()
    chart = data.chart
    f = CFunction(chart.var("x"), chart.zero())
    g = CFunction(chart.var("y"), chart.zero())
    secs = [Section(chart.one()), Section(chart.var("x")), Section(chart.var("x") * chart.var("y"))]
    ok = rep_check(f, g, prequant_at_origin(data), secs)

    data = mixed_chart_21()
    pq = prequant_at_origin(data)
    chart = data.chart
    members = members_21(data)
    secs = [Section(chart.one()), Section(chart.var("y") * chart.var("xi")), Section(chart.var("x"))]
    for a in members:
        for b in members:
            ok = ok and rep_check(a, b, pq, secs)
    return ok, "[Q(f),Q(g)] = -i Q({f,g}) on all pairs", ok


@check("eta is a morphism into the connection symmetries", "section9")
def _c9_eta_morphism():
    data = mixed_chart_21()
    pq = prequant_at_origin(data)
    members = members_21(data)
    ok = True
    for f in members:
        for g in members:
            lhs = vf_commutator(pq.eta_field(f), pq.eta_field(g))
            rhs = pq.eta_field(poisson_bracket(f, g, pq.base))
            if lhs != rhs:
                ok = False
    return ok, "[eta_f, eta_g] = eta_{{f,g}}", ok


# ----------------------------------------------------------------------
# runner
# ----------------------------------------------------------------------

SECTIONS = ("section3", "section4", "section5", "section6", "section7", "section8", "section9")


def run_section(section: str) -> List[CheckResult]:
    if section == "all":
        wanted = set(SECTIONS)
    else:
        if section not in SECTIONS:
            raise ValueError(f"unknown section {section!r}; choose from {', '.join(SECTIONS)} or 'all'")
        wanted = {section}
    return [run() for sec, run in _REGISTRY if sec in wanted]
