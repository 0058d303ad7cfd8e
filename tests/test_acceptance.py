"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

All comparisons are exact (rational arithmetic, zero tolerance).  Run with
``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.

Criterion 1 includes two sub-checks that assert the literal reference
displays for i_[X,Y] omega in the mixed 2|2 counterexample.  Those displays
are mutually inconsistent with the elementary contractions asserted by the
same criterion (off by an exact factor -2, see the note printed with the
failure), so this test is expected to fail on those two sub-checks and is
left failing on purpose: the engine refuses to reproduce an arithmetic
inconsistency.  Every other sub-check of criterion 1 passes, as do all
other criteria.
"""

from __future__ import annotations

import random
from fractions import Fraction

from supersymp import linalg
from supersymp.charts import CFunction, Chart, SuperFunction, vf_apply, vf_commutator
from supersymp.forms import KForm, contract, ext_d, lie_derivative, wedge
from supersymp.grassmann import GrassmannNumber
from supersymp.reference import (
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
)
from supersymp.scalars import GaussianRational
from supersymp.symplectic import (
    SymplecticData,
    contraction_matrix,
    darboux_normal_form,
    hamiltonian_field,
    is_symplectic,
    poisson_bracket,
    require_hamiltonian_field,
)

from conftest import random_ce_cochain


def _report(criterion: str, failures: list, detail: str = ""):
    status = "PASS" if not failures else "FAIL"
    line = f"[{criterion}] {status}"
    if detail:
        line += f" ({detail})"
    if failures:
        line += " :: failing sub-checks: " + "; ".join(failures)
    print(line)
    assert not failures, line


# ----------------------------------------------------------------------
# criterion 1: the mixed 2|2 counterexample, exact displays
# ----------------------------------------------------------------------


def test_criterion_01_mixed_counterexample():
    ex = mixed_counterexample()
    c = ex.chart
    y, xi, eta = c.var("y"), c.var("xi"), c.var("eta")
    failures = []

    if contract(ex.X, ex.omega) != ext_d(y * y):
        failures.append("i_X omega = d(y^2)")
    if contract(ex.Y, ex.omega) != ext_d(eta * xi):
        failures.append("i_Y omega = d(eta xi)")
    z = vf_commutator(ex.X, ex.Y)
    if z != ex.XY_display:
        failures.append("[X,Y] = -2 xi d/dx - 2 y d/deta - 2 xi d/deta")

    sigma = contract(z, ex.omega)
    if sigma != ex.iXY_display:
        failures.append(
            "i_[X,Y] omega = d(y xi) + 2 xi dxi "
            f"[engine: {sigma} = -2(d(y xi) + 2 xi dxi); display inconsistent by factor -2]"
        )
    dsigma = ext_d(sigma)
    if dsigma.is_zero():
        failures.append("d(i_[X,Y] omega) != 0")
    if dsigma != ex.diXY_display:
        failures.append(f"d(i_[X,Y] omega) = 2 dxi^dxi [engine: {dsigma}]")

    _report("criterion 1", failures, "mixed counterexample, exact displays")


# ----------------------------------------------------------------------
# criterion 2: the three orbit symplectic forms
# ----------------------------------------------------------------------


def test_criterion_02_orbit_forms():
    from supersymp.heisenberg import orbit_classify

    spec = heisenberg_33()
    failures = []

    orbit = orbit_classify(spec, 1, 0)
    c = orbit.chart
    if orbit.kks_form() != orbit_form(c, "case_i"):
        failures.append("case (i) form")
    rep = is_symplectic(orbit.kks_form(), [{n: 0 for n in c.even}])
    if not (rep["closed"] and rep["homogeneously_nondegenerate"]):
        failures.append("case (i) symplectic")

    orbit = orbit_classify(spec, 0, 1)
    c = orbit.chart
    if orbit.kks_form() != orbit_form(c, "case_ii"):
        failures.append("case (ii) form")
    rep = is_symplectic(orbit.kks_form(), [{n: 0 for n in c.even}])
    if not (rep["closed"] and rep["homogeneously_nondegenerate"]):
        failures.append("case (ii) symplectic")

    orbit = orbit_classify(spec, 1, 1)
    c = orbit.chart
    if orbit.kks_form() != orbit_form(c, "case_iii"):
        failures.append("case (iii) form with the hatted-chart coordinate change")
    rep = is_symplectic(orbit.kks_form(), [{n: 0 for n in c.even}])
    if not (rep["closed"] and rep["homogeneously_nondegenerate"]):
        failures.append("case (iii) homogeneously nondegenerate")
    if rep["nondegenerate"]:
        failures.append("case (iii) combined pairing should be degenerate")

    _report("criterion 2", failures, "three orbit forms at y0 = ybar1 = 1")


# ----------------------------------------------------------------------
# criterion 3: the 2|1 Poisson algebra membership
# ----------------------------------------------------------------------


def test_criterion_03_poisson_membership():
    rng = random.Random(31)
    data = mixed_chart_21()
    sd = SymplecticData(data.omega, [ORIGIN])
    c = data.chart
    failures = []
    for trial in range(10):
        coeffs = lambda: [Fraction(rng.randint(-4, 4)) for _ in range(4)]
        f = poisson_member_21(data, coeffs(), coeffs(), coeffs())
        res = hamiltonian_field(f, sd)
        if res.status != "member":
            failures.append(f"member instance {trial}")
        elif contract(res.field, sd.doubled) != ext_d(f):
            failures.append(f"defining equation, instance {trial}")
    y = c.var("y")
    res = hamiltonian_field(CFunction(y * y, c.zero()), sd)
    if res.status != "not_member":
        failures.append("y^2 c0 definitive non-membership")
    _report("criterion 3", failures, "10 random members + definitive non-member")


# ----------------------------------------------------------------------
# criterion 4: graded Lie structure of the Poisson algebra
# ----------------------------------------------------------------------


def _members_21(rng, data, parity):
    coeffs = lambda: [Fraction(rng.randint(-3, 3)) for _ in range(3)]
    if parity == 0:
        return poisson_member_21(data, coeffs(), [], coeffs())
    return poisson_member_21(data, [], coeffs(), [])


def _members_22(rng, ex, chart, parity):
    """Random homogeneous member of the mixed 2|2 algebra: rational
    combinations of the scanned monomial members."""
    x, y, xi = chart.var("x"), chart.var("y"), chart.var("xi")
    if parity == 0:
        basis = [
            CFunction(chart.one(), chart.zero()),
            CFunction(x, chart.zero()),
            CFunction(x * x, chart.zero()),
            CFunction(y, xi),
        ]
    else:
        basis = [
            CFunction(chart.zero(), chart.one()),
            CFunction(xi, chart.zero()),
            CFunction(x * xi, chart.zero()),
        ]
    out = CFunction(chart.zero(), chart.zero())
    for b in basis:
        out = out + b.scale(Fraction(rng.randint(-3, 3)))
    return out


def test_criterion_04_graded_lie_structure():
    rng = random.Random(41)
    failures = []

    data21 = mixed_chart_21()
    sd21 = SymplecticData(data21.omega, [ORIGIN])
    ex22 = mixed_counterexample()
    sd22 = SymplecticData(ex22.omega, [ORIGIN])

    for trial in range(20):
        use21 = trial % 2 == 0
        sd = sd21 if use21 else sd22
        ps = [rng.randrange(2) for _ in range(3)]
        if use21:
            f, g, h = (_members_21(rng, data21, p) for p in ps)
        else:
            f, g, h = (_members_22(rng, ex22, ex22.chart, p) for p in ps)
        pf, pg, ph = ps

        def pb(u, v):
            return poisson_bracket(u, v, sd)

        try:
            bfg = pb(f, g)
            if bfg != pb(g, f).scale(-1 if (pf * pg) % 2 == 0 else 1):
                failures.append(f"antisymmetry, trial {trial}")
            jac = (
                pb(f, pb(g, h)).scale(-1 if (pf * ph) % 2 else 1)
                + pb(g, pb(h, f)).scale(-1 if (pg * pf) % 2 else 1)
                + pb(h, pb(f, g)).scale(-1 if (ph * pg) % 2 else 1)
            )
            if not jac.is_zero():
                failures.append(f"graded Jacobi, trial {trial}")
            xf = require_hamiltonian_field(f, sd)
            xg = require_hamiltonian_field(g, sd)
            if vf_commutator(xf, xg) != require_hamiltonian_field(bfg, sd):
                failures.append(f"[X_f, X_g] = X_bracket, trial {trial}")
        except Exception as exc:  # pragma: no cover - diagnostic path
            failures.append(f"trial {trial} raised {exc}")

    _report("criterion 4", failures, "20 random homogeneous triples on 2|1 and 2|2")


# ----------------------------------------------------------------------
# criterion 5: exterior calculus identities, 50 randomized instances
# ----------------------------------------------------------------------


def _random_chart(rng, tag):
    p = rng.randint(1, 3)
    q = rng.randint(0, 3)
    return Chart(
        f"R{tag}", tuple(f"u{i}" for i in range(p)), tuple(f"v{j}" for j in range(q)), 3
    )


def _random_fun(rng, chart, degree=3, terms=3):
    f = chart.zero()
    pe, q = len(chart.even), len(chart.odd)
    for _ in range(terms):
        total = rng.randint(0, degree)
        exps = [0] * pe
        word = set()
        for _ in range(total):
            s = rng.randrange(pe + q)
            if s < pe:
                exps[s] += 1
            else:
                word.add(s - pe)
        key = (tuple(exps), tuple(sorted(word)))
        f = f + SuperFunction(chart, {key: GrassmannNumber.scalar(rng.randint(-3, 3), chart.generators)})
    return f


def _random_homog_field(rng, chart, parity):
    comps = {}
    for name in chart.coords:
        if rng.random() < 0.7:
            fn = _random_fun(rng, chart, degree=2, terms=2).parity_part(
                (parity + chart.parity(name)) % 2
            )
            if not fn.is_zero():
                comps[name] = fn
    return chart.vector_field(comps)


def _random_two_form(rng, chart):
    from itertools import combinations_with_replacement

    out = KForm.zero(chart, 2)
    names = chart.coords
    for n1, n2 in combinations_with_replacement(names, 2):
        if n1 == n2 and chart.parity(n1) == 0:
            continue
        if rng.random() < 0.5:
            out = out + wedge(
                KForm.differential(chart, n1), KForm.differential(chart, n2)
            ).left_multiply(_random_fun(rng, chart, degree=2, terms=1))
    return out


def test_criterion_05_exterior_calculus_identities():
    rng = random.Random(51)
    failures = []
    for trial in range(50):
        chart = _random_chart(rng, trial)
        w = _random_two_form(rng, chart)
        f = _random_fun(rng, chart)
        # d . d = 0
        if not ext_d(ext_d(f)).is_zero() or not ext_d(ext_d(w)).is_zero():
            failures.append(f"d.d = 0, trial {trial}")
            continue
        pa, pb, pc = (rng.randrange(2) for _ in range(3))
        X = _random_homog_field(rng, chart, pa)
        Y = _random_homog_field(rng, chart, pb)
        Z = _random_homog_field(rng, chart, pc)

        def s(k):
            return -1 if k % 2 else 1

        # six-term evaluation formula for d on 2-forms
        lhs = contract(X, Y, Z, ext_d(w)).as_function()
        rhs = (
            vf_apply(X, contract(Y, Z, w).as_function())
            - vf_apply(Y, contract(X, Z, w).as_function()).scale(s(pa * pb))
            + vf_apply(Z, contract(X, Y, w).as_function()).scale(s(pc * (pa + pb)))
            - contract(vf_commutator(X, Y), Z, w).as_function()
            + contract(vf_commutator(X, Z), Y, w).as_function().scale(s(pb * pc))
            + contract(X, vf_commutator(Y, Z), w).as_function()
        )
        if lhs != rhs:
            failures.append(f"two-form evaluation formula, trial {trial}")
        # i_[X,Y] = [L(X), i_Y]
        sign = s(pa * pb)
        left = contract(vf_commutator(X, Y), w) if not vf_commutator(X, Y).is_zero() else KForm.zero(chart, 1)
        right = lie_derivative(X, contract(Y, w)) - contract(Y, lie_derivative(X, w)).scale(sign)
        if left != right:
            failures.append(f"i_[X,Y] = [L(X), i_Y], trial {trial}")
    _report("criterion 5", failures, "50 randomized instances, p,q <= 3, degree <= 3")


# ----------------------------------------------------------------------
# criterion 6: Chevalley-Eilenberg cohomology and momentum cocycles
# ----------------------------------------------------------------------


def _random_small_algebra(rng):
    """Random 2-step nilpotent algebra of total dimension <= 5 (within 4|4)."""
    from supersymp.heisenberg import HeisenbergSpec, algebra_of

    n = rng.randint(2, 3)
    parities = [rng.randrange(2) for _ in range(n)]
    o0 = [[Fraction(0)] * n for _ in range(n)]
    o1 = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = Fraction(rng.randint(-2, 2))
            if v == 0:
                continue
            skew = -1 if (parities[i] * parities[j]) % 2 == 0 else 1
            if i == j and skew == -1:
                continue
            target = o0 if (parities[i] + parities[j]) % 2 == 0 else o1
            target[i][j] = v
            target[j][i] = skew * v
    return algebra_of(HeisenbergSpec(parities, o0, o1))


def _gl11():
    from supersymp.liecoh import SuperLieAlgebra

    return SuperLieAlgebra(
        (0, 0, 1, 1),
        {
            (0, 2): {2: 1},
            (0, 3): {3: -1},
            (1, 2): {2: -1},
            (1, 3): {3: 1},
            (2, 3): {0: 1, 1: 1},
        },
    )


def test_criterion_06_ce_cohomology():
    from supersymp.heisenberg import algebra_of, orbit_classify
    from supersymp.liecoh import (
        ce_coboundary,
        central_extension,
        extension_equivalent,
        jacobi_check,
    )

    rng = random.Random(61)
    failures = []

    # d^2 = 0 up to degree 3 on random algebras of dimension <= 4|4
    for trial in range(8):
        g = _random_small_algebra(rng) if trial % 2 else _gl11()
        for degree in (1, 2, 3):
            c = random_ce_cochain(rng, g, degree)
            if not ce_coboundary(ce_coboundary(c)).is_zero():
                failures.append(f"d^2 = 0, trial {trial}, degree {degree}")

    # central extension Jacobi <-> d Omega = 0, 20 instances each direction:
    # closed cochains are drawn from the kernel of the coboundary rows,
    # non-closed ones by rejection
    from supersymp.liecoh import CECochain, _indexed_rows

    closed_seen = open_seen = 0
    while closed_seen < 20:
        g = _gl11() if closed_seen % 2 else _random_small_algebra(rng)
        dof2, d2 = _indexed_rows(g, 2)
        kernel = linalg.kernel(list(d2.values()), len(dof2))
        if not kernel:
            continue
        vec = [GaussianRational(0)] * len(dof2)
        for kv in kernel:
            c = rng.randint(-2, 2)
            for j, v in kv.items():
                vec[j] = vec[j] + v * c
        om = CECochain(g, 2)._like({key: v.re for key, v in zip(dof2, vec) if v})
        if not ce_coboundary(om).is_zero():
            failures.append("kernel sampling produced a non-closed cochain")
            break
        ok, _ = jacobi_check(central_extension(g, om))
        if not ok:
            failures.append(f"closed cochain gave a non-Jacobi extension ({closed_seen})")
        closed_seen += 1
    attempts = 0
    while open_seen < 20 and attempts < 400:
        attempts += 1
        g = _gl11() if attempts % 3 else _random_small_algebra(rng)
        om = random_ce_cochain(rng, g, 2)
        if ce_coboundary(om).is_zero():
            continue
        ok, witness = jacobi_check(central_extension(g, om))
        if ok:
            failures.append(f"non-closed cochain gave a Jacobi extension (attempt {attempts})")
        open_seen += 1
    if open_seen < 20:
        failures.append(f"insufficient non-closed sampling: {open_seen}")

    # the 3|3 momentum cocycle with J = id vanishes
    orbit = orbit_classify(heisenberg_33(), 1, 0)
    cocycle, constant = orbit.momentum_cocycle()
    if not (constant and cocycle.is_zero()):
        failures.append("momentum cocycle of J = id is zero")

    # pullback classes at two points of one orbit differ by a coboundary
    from supersymp.heisenberg import OrbitPoint

    spec = heisenberg_33()
    g = algebra_of(spec)
    o1 = orbit_classify(spec, 1, 0)
    o2 = orbit_classify(spec, 1, 0, base=OrbitPoint.base(spec, 1, 0, x=[2, -7, 0, 0, 0, 0]))
    ok, witness = extension_equivalent(o1.pullback_cocycle(), o2.pullback_cocycle(), g)
    if not ok or ce_coboundary(witness) != o1.pullback_cocycle() - o2.pullback_cocycle():
        failures.append("same-orbit pullback difference is an explicit coboundary")

    _report("criterion 6", failures, "d^2, extension <-> cocycle, momentum, pullback")


# ----------------------------------------------------------------------
# criterion 7: Cech machinery and prequantization
# ----------------------------------------------------------------------


def test_criterion_07_cech_prequantization():
    from supersymp.cech import (
        CechCochain,
        classify_prequantum,
        cocycle_from_potentials,
        normalize_to_periods,
        period_group,
        prequantum_exists,
    )

    rng = random.Random(71)
    failures = []

    a0 = sphere_cocycle()
    sphere = a0.nerve

    per = period_group(a0)
    if per.generator != 3:
        failures.append(f"period group 3Z, got {per.generator}")
    for dval, expect in ((1, True), (3, True), (2, False)):
        if prequantum_exists(per, dval) != expect:
            failures.append(f"existence for d = {dval}")

    if not classify_prequantum(sphere, 3)["trivial"]:
        failures.append("sphere fixture classifies trivial")
    rep = classify_prequantum(circle_nerve(), 3)
    if rep["free_rank"] != 1 or rep["torsion"]:
        failures.append("circle fixture classifies as Q/dZ")

    edges = sphere.simplices[1]
    for trial in range(10):
        noise = CechCochain(
            sphere,
            1,
            {e: Fraction(rng.randint(-8, 8), rng.randint(1, 5)) for e in edges},
        )
        a = a0 + cocycle_from_potentials(noise)
        _, corrected, per2 = normalize_to_periods(a)
        if per2.generator != 3:
            failures.append(f"perturbed periods, trial {trial}")
        if not all(per2.contains(v) for v in corrected.values.values()):
            failures.append(f"normalization lands in Per, trial {trial}")

    _report("criterion 7", failures, "periods, existence, classification, normalization")


# ----------------------------------------------------------------------
# criterion 8: operators on the prequantum chart
# ----------------------------------------------------------------------


def test_criterion_08_operators():
    from supersymp.forms import lift_function
    from supersymp.prequant import Section, quantum_op, rep_check

    rng = random.Random(81)
    failures = []

    even = even_chart_20()
    pq_even = prequant_at_origin(even)
    mixed = mixed_chart_21()
    pq_mixed = prequant_at_origin(mixed)

    chart = mixed.chart
    r = Fraction(-7, 4)
    s = Section(chart.var("x") * chart.var("y") + chart.var("xi").scale(2))
    if quantum_op(CFunction(chart.constant(r), chart.zero()), s, pq_mixed) != s.scale(r):
        failures.append("Q(r c0) = r id")
    if not quantum_op(CFunction(chart.zero(), chart.constant(r)), s, pq_mixed).is_zero():
        failures.append("Q(r c1) = 0 on reduced sections")

    # representation condition: coordinate pair on the even chart
    ec = even.chart
    f_even = CFunction(ec.var("x"), ec.zero())
    g_even = CFunction(ec.var("y"), ec.zero())
    secs_even = [
        Section(ec.one()),
        Section(ec.var("x")),
        Section(ec.var("x") * ec.var("y") + ec.var("y")),
    ]
    if not rep_check(f_even, g_even, pq_even, secs_even):
        failures.append("rep condition, even chart coordinates")

    members = members_21(mixed)
    secs = [Section(chart.one()), Section(chart.var("x") * chart.var("xi")), Section(chart.var("y"))]
    for f in members:
        for g in members:
            if not rep_check(f, g, pq_mixed, secs):
                failures.append(f"rep condition, mixed chart pair ({f}, {g})")

    # i_eta alpha = -f and the eta morphism, on the same families
    for pq, fams in ((pq_even, [f_even, g_even]), (pq_mixed, members)):
        for f in fams:
            eta = pq.eta_field(f)
            got = contract(eta, pq.alpha)
            want0 = KForm.from_function(-lift_function(f.f0, pq.total))
            want1 = KForm.from_function(-lift_function(f.f1, pq.total))
            if got.part0 != want0 or got.part1 != want1:
                failures.append(f"i_eta alpha = -f for {f}")
        for f in fams:
            for g in fams:
                lhs = vf_commutator(pq.eta_field(f), pq.eta_field(g))
                rhs = pq.eta_field(poisson_bracket(f, g, pq.base))
                if lhs != rhs:
                    failures.append(f"[eta_f, eta_g] = eta_bracket for ({f}, {g})")

    _report("criterion 8", failures, "operators and symmetries on even and mixed charts")


# ----------------------------------------------------------------------
# criterion 9: Darboux normal forms
# ----------------------------------------------------------------------


def test_criterion_09_darboux():
    from supersymp.symplectic import _reorder_even_first

    def congruence(p, w):
        return linalg.matmul(linalg.matmul(p, w), linalg.transpose(p))

    rng = random.Random(91)
    failures = []

    for trial in range(10):
        k = rng.randint(1, 3)
        q = rng.randint(0, 3)
        parities = [0] * (2 * k) + [1] * q
        n = 2 * k + q
        chart = Chart(
            "RD", tuple(f"a{i}" for i in range(2 * k)), tuple(f"b{j}" for j in range(q)), 2
        )
        omega = KForm.zero(chart, 2)
        for i in range(k):
            omega = omega + wedge(d(chart, f"a{i}"), d(chart, f"a{k + i}"))
        signs = [1 if rng.random() < 0.5 else -1 for _ in range(q)]
        for j, sg in enumerate(signs):
            omega = omega + wedge(d(chart, f"b{j}"), d(chart, f"b{j}")).scale(sg)
        w = contraction_matrix(omega)
        p_mat = [[GaussianRational(1 if i == j else 0) for j in range(n)] for i in range(n)]
        for _ in range(3 * n):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j and parities[i] == parities[j]:
                cmul = GaussianRational.coerce(rng.choice([1, -1, 2, Fraction(1, 2), 3]))
                for col in range(n):
                    p_mat[i][col] = p_mat[i][col] + p_mat[j][col] * cmul
        w_scrambled = congruence(p_mat, w)
        res = darboux_normal_form(w_scrambled, parities, 0)
        if res.k != k:
            failures.append(f"even trial {trial}: k")
        if res.ell != sum(1 for sg in signs if sg > 0):
            failures.append(f"even trial {trial}: signature")
        # exact transform equality
        if congruence(res.basis_change, _reorder_even_first(w_scrambled, parities)) != res.canonical_matrix:
            failures.append(f"even trial {trial}: transform mismatch")
        # canonical pattern: skew block exactly sum dx^i ^ dy_i
        cm = res.canonical_matrix
        for i in range(k):
            if cm[i][k + i] != GaussianRational(-1) or cm[k + i][i] != GaussianRational(1):
                failures.append(f"even trial {trial}: canonical skew block")
        for a in range(2 * k):
            for b in range(2 * k, n):
                if not cm[a][b].is_zero():
                    failures.append(f"even trial {trial}: cross block")
        for a in range(2 * k, n):
            for b in range(2 * k, n):
                if a != b and not cm[a][b].is_zero():
                    failures.append(f"even trial {trial}: odd block not diagonal")

    for trial in range(10):
        p = rng.randint(1, 3)
        parities = [0] * p + [1] * p
        n = 2 * p
        # random invertible integer pairing
        while True:
            b_blk = [[Fraction(rng.randint(-3, 3)) for _ in range(p)] for _ in range(p)]
            if linalg.rank([[GaussianRational(v) for v in row] for row in b_blk]) == p:
                break
        w = [[Fraction(0)] * n for _ in range(n)]
        for i in range(p):
            for j in range(p):
                w[i][p + j] = b_blk[i][j]
                w[p + j][i] = -b_blk[i][j]
        res = darboux_normal_form(w, parities, 1)
        cm = res.canonical_matrix
        ok = all(
            cm[i][p + j] == GaussianRational(-1 if i == j else 0) for i in range(p) for j in range(p)
        )
        if not ok:
            failures.append(f"odd trial {trial}: canonical pairing")
        if congruence(res.basis_change, _reorder_even_first(w, parities)) != cm:
            failures.append(f"odd trial {trial}: transform mismatch")

    _report("criterion 9", failures, "10 even + 10 odd random normal forms")
