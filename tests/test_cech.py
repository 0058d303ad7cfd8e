from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import pytest

from supersymp import linalg
from supersymp.cech import (
    CechCochain,
    NerveError,
    PeriodGroup,
    build_nerve,
    classify_prequantum,
    coboundary,
    cocycle_from_potentials,
    load_cover,
    normalize_to_periods,
    period_group,
    prequantum_exists,
    transition_data,
    two_cycles,
)
from supersymp.reference import circle_nerve, sphere_nerve


def solid_triangle():
    return build_nerve([(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)])


# ----------------------------------------------------------------------
# nerve construction
# ----------------------------------------------------------------------


def test_triangle_nerve_boundaries():
    nerve = circle_nerve()
    assert nerve.simplices[2] == []
    b1 = nerve.boundary_matrix(1)
    assert len(b1) == 3 and len(b1[0]) == 3
    # each edge has boundary (head - tail)
    assert [row[0] for row in b1] == [-1, 1, 0]  # edge (0,1)


def test_tetrahedron_dd_zero():
    nerve = sphere_nerve()
    b2 = nerve.boundary_matrix(2)
    b1 = nerve.boundary_matrix(1)
    for c in range(4):
        for r in range(4):
            assert sum(b1[r][m] * b2[m][c] for m in range(6)) == 0


def test_missing_face_rejected():
    with pytest.raises(NerveError):
        build_nerve([(0,), (1,), (0, 1), (0, 1, 2)])


def test_cochain_skew_extension():
    nerve = circle_nerve()
    f = CechCochain(nerve, 1, {(0, 1): Fraction(3, 2)})
    assert f(0, 1) == Fraction(3, 2)
    assert f(1, 0) == Fraction(-3, 2)


def test_delta_delta_zero():
    nerve = sphere_nerve()
    f = CechCochain(nerve, 0, {(0,): Fraction(1), (2,): Fraction(-2)})
    assert coboundary(coboundary(f)).is_zero()


# ----------------------------------------------------------------------
# cocycles from potentials
# ----------------------------------------------------------------------


def test_zero_potentials_give_zero():
    nerve = sphere_nerve()
    f = CechCochain(nerve, 1)
    assert cocycle_from_potentials(f).is_zero()


def test_single_edge_potential():
    nerve = sphere_nerve()
    lam = Fraction(7, 3)
    f = CechCochain(nerve, 1, {(0, 1): lam})
    a = cocycle_from_potentials(f)
    # a(0,1,k) = f(1,k) - f(0,k) + f(0,1) = lam for k = 2, 3
    assert a(0, 1, 2) == lam
    assert a(0, 1, 3) == lam
    assert a(0, 2, 3) == 0
    assert a(1, 0, 2) == -lam  # skew consistency


# ----------------------------------------------------------------------
# periods
# ----------------------------------------------------------------------


def sphere_cocycle(lam):
    nerve = sphere_nerve()
    return nerve, CechCochain(nerve, 2, {(0, 1, 2): Fraction(lam)})


def test_zero_cocycle_trivial_periods():
    nerve, _ = sphere_cocycle(0)
    a = CechCochain(nerve, 2)
    assert period_group(a).is_trivial()


def test_sphere_periods():
    nerve, a = sphere_cocycle(3)
    cycles = two_cycles(nerve)
    assert len(cycles) == 1  # the fundamental cycle of the 2-sphere
    per = period_group(a)
    assert per.generator == 3


def test_coboundaries_have_no_periods():
    nerve = sphere_nerve()
    f = CechCochain(nerve, 1, {(0, 1): Fraction(5, 2), (1, 2): Fraction(-1, 3)})
    assert period_group(cocycle_from_potentials(f)).is_trivial()


def test_periods_invariant_under_potential_changes():
    nerve, a = sphere_cocycle(3)
    f = CechCochain(nerve, 1, {(0, 2): Fraction(9, 4), (2, 3): Fraction(1, 6)})
    shifted = a + cocycle_from_potentials(f)
    assert period_group(shifted).generator == period_group(a).generator
    phi = CechCochain(nerve, 0, {(1,): Fraction(2, 7)})
    f2 = f + coboundary(phi)
    shifted2 = a + cocycle_from_potentials(f2)
    assert period_group(shifted2).generator == 3


# ----------------------------------------------------------------------
# normalization (constructive divisibility argument)
# ----------------------------------------------------------------------


def test_normalize_already_per_valued():
    nerve, a = sphere_cocycle(3)
    bprime, corrected, per = normalize_to_periods(a)
    assert per.generator == 3
    for s in nerve.simplices[2]:
        assert per.contains(corrected.values.get(s, Fraction(0)))


def test_normalize_with_coboundary_noise(rng):
    nerve, a0 = sphere_cocycle(3)
    edges = nerve.simplices[1]
    for _ in range(10):
        noise = CechCochain(
            nerve,
            1,
            {e: Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for e in edges},
        )
        a = a0 + cocycle_from_potentials(noise)
        bprime, corrected, per = normalize_to_periods(a)
        assert per.generator == 3
        for s in nerve.simplices[2]:
            assert per.contains(corrected.values.get(s, Fraction(0)))
        assert corrected == a - coboundary(bprime)


def test_normalize_exact_cocycle_to_zero():
    nerve = sphere_nerve()
    f = CechCochain(nerve, 1, {(0, 1): Fraction(5, 2), (1, 3): Fraction(2)})
    a = cocycle_from_potentials(f)
    bprime, corrected, per = normalize_to_periods(a)
    assert per.is_trivial()
    assert corrected.is_zero()


# ----------------------------------------------------------------------
# existence and classification
# ----------------------------------------------------------------------


def test_prequantum_exists_integer_cases():
    per = PeriodGroup(Fraction(3))
    assert prequantum_exists(per, 3)
    assert prequantum_exists(per, 1)
    assert not prequantum_exists(per, 2)


def test_prequantum_exists_trivial_periods():
    assert prequantum_exists(PeriodGroup(Fraction(0)), 5)
    assert prequantum_exists(PeriodGroup(Fraction(0)), 0)


def test_prequantum_exists_rational_unit():
    per = PeriodGroup(Fraction(22, 7))
    assert prequantum_exists(per, Fraction(11, 7))
    assert not prequantum_exists(per, Fraction(4, 7))


def test_transition_data_pass_and_fail():
    nerve, a = sphere_cocycle(3)
    f = CechCochain(nerve, 1, {(0, 1): Fraction(6)})
    rep = transition_data(f, 3)
    assert rep["cocycle_mod_d"]
    assert rep["g"][(0, 1)] == 0
    f_bad = CechCochain(nerve, 1, {(0, 1): Fraction(3, 2)})
    rep_bad = transition_data(f_bad, 3)
    assert not rep_bad["cocycle_mod_d"]
    assert rep_bad["failures"]


def test_normalized_data_passes_pipeline(rng):
    nerve, a0 = sphere_cocycle(3)
    edges = nerve.simplices[1]
    noise = CechCochain(nerve, 1, {e: Fraction(rng.randint(-4, 4), 2) for e in edges})
    f = noise
    a = a0 + cocycle_from_potentials(f)
    bprime, corrected, per = normalize_to_periods(a)
    assert prequantum_exists(per, 3)
    f_norm = f - bprime
    # corrected cocycle = a0-part + delta(f_norm); all values in 3Z
    rep = transition_data(f_norm, 3)
    # the delta part mod 3 must close up to the non-exact a0-part, which is
    # itself 3Z-valued, so the combined cocycle condition holds mod 3
    total = corrected
    for s in nerve.simplices[2]:
        assert (total.values.get(s, Fraction(0)) / 3).denominator == 1


def test_classify_contractible():
    rep = classify_prequantum(solid_triangle(), 3)
    assert rep["trivial"]
    assert rep["free_rank"] == 0


def test_classify_circle():
    rep = classify_prequantum(circle_nerve(), 3)
    assert rep["free_rank"] == 1
    assert rep["torsion"] == []
    assert not rep["trivial"]
    assert rep["coefficients"] == "Q/3Z"


def test_classify_sphere():
    rep = classify_prequantum(sphere_nerve(), 3)
    assert rep["trivial"]
    assert rep["free_rank"] == 0


def torus_nerve(m, n):
    """Nerve of the consistently oriented triangulation of the m x n torus grid."""
    v = lambda i, j: (i % m) * n + (j % n)
    tris = []
    for i in range(m):
        for j in range(n):
            tris.append((v(i, j), v(i + 1, j), v(i + 1, j + 1)))
            tris.append((v(i, j), v(i + 1, j + 1), v(i, j + 1)))
    return build_nerve([face for t in tris for k in (1, 2, 3) for face in combinations(t, k)])


def _surface_pipeline(nerve, values):
    a = CechCochain(nerve, 2, values)
    per = period_group(a)
    return per, normalize_to_periods(a, nerve, per), classify_prequantum(nerve, 3)


def test_one_smith_form_per_boundary_degree(monkeypatch, rng):
    """The period group, the normalization and the classification share the
    Smith forms of their nerve: one per boundary degree on the 10x10 torus.
    Each gives the same result as on a fresh nerve of its own."""
    calls = []
    snf = linalg.smith_normal_form
    monkeypatch.setattr(linalg, "smith_normal_form", lambda a: calls.append(len(a)) or snf(a))
    nerve = torus_nerve(10, 10)
    assert len(nerve.simplices[2]) == 200
    per, _, rep = _surface_pipeline(nerve, {t: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for t in nerve.simplices[2]})
    # one Smith form of d_1 (100 vertex rows) and one of d_2 (300 edge rows)
    assert sorted(calls) == [100, 300]
    assert (rep["free_rank"], rep["torsion"]) == (2, [])

    nerve = torus_nerve(5, 5)
    values = {t: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for t in nerve.simplices[2]}
    per, normalized, rep = _surface_pipeline(nerve, values)
    assert period_group(CechCochain(torus_nerve(5, 5), 2, values)) == per
    assert normalize_to_periods(CechCochain(torus_nerve(5, 5), 2, values)) == normalized
    assert classify_prequantum(torus_nerve(5, 5), 3) == rep


# ----------------------------------------------------------------------
# cover files
# ----------------------------------------------------------------------


def test_load_cover_roundtrip():
    text = """
    # tetrahedron boundary with one seeded triangle value
    simplex 0 1 2
    simplex 0 1 3
    simplex 0 2 3
    simplex 1 2 3
    a 0 1 2 = 3
    f 0 1 = 1/2
    d = 3
    """
    cover = load_cover(text)
    assert cover.d == 3
    assert len(cover.nerve.simplices[2]) == 4
    assert cover.a(0, 1, 2) == 3
    assert cover.f(1, 0) == Fraction(-1, 2)
    total = cover.cocycle()
    per = period_group(total, cover.nerve)
    assert per.generator == 3


def test_load_cover_bad_line():
    with pytest.raises(NerveError):
        load_cover("simplex 0 1\nf 0 = 3\n")
