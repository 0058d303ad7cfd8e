from __future__ import annotations

import builtins
import json
import re
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from supersymp import cech, linalg
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

from conftest import torus_nerve


def solid_triangle():
    return build_nerve([(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)])


# ----------------------------------------------------------------------
# nerve construction
# ----------------------------------------------------------------------


def test_triangle_nerve_boundaries():
    nerve = circle_nerve()
    assert nerve.simplices[2] == []
    b1 = nerve.boundary(1)
    # 3 vertex rows over the 3 edge columns, no zero stored
    assert len(b1) == 3 and len(nerve.simplices[1]) == 3
    assert all(set(row) <= {0, 1, 2} and all(row.values()) for row in b1)
    # each edge has boundary (head - tail)
    assert [row.get(0, 0) for row in b1] == [-1, 1, 0]  # edge (0,1)


def test_tetrahedron_dd_zero():
    nerve = sphere_nerve()
    b2 = nerve.boundary(2)
    b1 = nerve.boundary(1)
    assert (len(b1), len(b2)) == (4, 6)
    for c in range(4):
        for r in range(4):
            assert sum(b1[r].get(m, 0) * b2[m].get(c, 0) for m in range(6)) == 0


def test_coboundary_of_a_top_degree_cochain_names_the_degree():
    """The solid tetrahedron's 3-simplex is the top degree: there is no
    4-simplex to take a coboundary on."""
    nerve = build_nerve([s for k in range(1, 5) for s in combinations(range(4), k)])
    assert len(nerve.simplices[3]) == 1
    for values in ({(0, 1, 2, 3): 1}, {}):
        with pytest.raises(NerveError, match=r"^no coboundary of a 3-cochain: the nerve stops at dimension 3$"):
            coboundary(CechCochain(nerve, 3, values))
    # one degree lower the coboundary is still read off d_3
    assert coboundary(CechCochain(nerve, 2, {(1, 2, 3): 1})).values == {(0, 1, 2, 3): 1}


def octahedron_simplices():
    """The octahedron, poles 0 and 5 over the square 1..4, closed downward."""
    ring = [1, 2, 3, 4]
    tris = [t for a, b in zip(ring, ring[1:] + ring[:1]) for t in ((0, a, b), (5, b, a))]
    return [face for t in tris for k in (1, 2, 3) for face in combinations(sorted(t), k)]


@pytest.mark.parametrize("flipped", [(0, 1, 2), (0, 1)])
def test_a_flipped_boundary_sign_is_rejected(monkeypatch, flipped):
    """d d = 0 is checked on every construction: with the sign of one face
    of one triangle or one edge flipped, the octahedron is refused."""
    assert len(build_nerve(octahedron_simplices()).simplices[2]) == 8
    faces = cech._faces

    def flip(s):
        out = list(faces(s))
        if s == flipped:
            sign, face = out[0]
            out[0] = (-sign, face)
        return out

    monkeypatch.setattr(cech, "_faces", flip)
    with pytest.raises(NerveError, match="^boundary of boundary is nonzero$"):
        build_nerve(octahedron_simplices())


def test_missing_face_rejected():
    with pytest.raises(NerveError):
        build_nerve([(0,), (1,), (0, 1), (0, 1, 2)])


def test_cochain_skew_extension():
    nerve = circle_nerve()
    f = CechCochain(nerve, 1, {(0, 1): Fraction(3, 2)})
    assert f(0, 1) == Fraction(3, 2)
    assert f(1, 0) == Fraction(-3, 2)
    assert f(0, 0) == 0  # a degenerate simplex
    assert repr(f) == "<1-cochain {(0, 1): Fraction(3, 2)}>"


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


@pytest.mark.parametrize(
    "make, count",
    [(sphere_nerve, 1), (lambda: torus_nerve(10, 10), 1), (lambda: rp2_nerve(), 0)],
    ids=["sphere", "torus_10x10", "rp2"],
)
def test_two_cycles_are_cycles(make, count):
    """Each column two_cycles returns is a nonzero integer 2-chain z with
    d_2 z = 0: one fundamental cycle on the sphere and the torus, none on RP^2."""
    nerve = make()
    cycles = two_cycles(nerve)
    assert len(cycles) == count
    for z in cycles:
        assert z and all(type(x) is int and x for x in z.values())
        assert set(z) <= set(range(len(nerve.simplices[2])))
        for row in nerve.boundary(2):
            assert sum(x * z.get(t, 0) for t, x in row.items()) == 0


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


def test_normalize_without_triangles_changes_nothing():
    nerve = circle_nerve()
    a = CechCochain(nerve, 2)
    bprime, corrected, per = normalize_to_periods(a)
    assert (bprime, corrected, per) == (CechCochain(nerve, 1), a, PeriodGroup(Fraction(0)))


# ----------------------------------------------------------------------
# existence and classification
# ----------------------------------------------------------------------


def test_prequantum_exists_integer_cases():
    per = PeriodGroup(Fraction(3))
    assert prequantum_exists(per, 3)
    assert prequantum_exists(per, 1)
    assert not prequantum_exists(per, 2)
    assert not prequantum_exists(per, 0)


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


def test_transition_data_with_d_zero_needs_an_exact_cocycle():
    """d = 0 means Q/0Z = Q: g is f itself, and the triangle values of df
    must vanish exactly rather than lie in dZ."""
    nerve = solid_triangle()
    exact = CechCochain(nerve, 1, {(0, 1): Fraction(1, 2), (1, 2): Fraction(3), (0, 2): Fraction(7, 2)})
    rep = transition_data(exact, 0)
    assert rep["g"] == {(0, 1): Fraction(1, 2), (0, 2): Fraction(7, 2), (1, 2): Fraction(3)}
    assert rep["cocycle_mod_d"] and rep["failures"] == []
    # df(0,1,2) = f12 - f02 + f01 = 1/2 + 3 - 4 = -1/2, in Z but not 0
    off = CechCochain(nerve, 1, {(0, 1): Fraction(1, 2), (1, 2): Fraction(3), (0, 2): Fraction(4)})
    rep = transition_data(off, 0)
    assert rep["g"][(0, 2)] == 4
    assert not rep["cocycle_mod_d"]
    assert rep["failures"] == [{"simplex": (0, 1, 2), "value": Fraction(-1, 2)}]
    assert transition_data(off, Fraction(1, 2))["cocycle_mod_d"]


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


def rp2_nerve():
    """The six-vertex real projective plane: 10 triangles, H_1 = Z/2."""
    tris = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1), (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3)]
    return build_nerve([face for t in tris for k in (1, 2, 3) for face in combinations(t, k)])


def test_rp2_torsion_and_normalization(rng):
    nerve = rp2_nerve()
    assert (len(nerve.simplices[1]), len(nerve.simplices[2])) == (15, 10)
    for d in (3, Fraction(1, 2), -2):
        rep = classify_prequantum(nerve, d)
        assert (rep["free_rank"], rep["torsion"], rep["trivial"]) == (0, [2], False)
    rep = classify_prequantum(nerve, 0)
    assert (rep["free_rank"], rep["torsion"], rep["trivial"]) == (0, [], True)
    # no integer 2-cycles, so every rational 2-cochain is a coboundary
    assert two_cycles(nerve) == []
    for _ in range(5):
        a = CechCochain(nerve, 2, {t: Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for t in nerve.simplices[2]})
        bprime, corrected, per = normalize_to_periods(a)
        assert per.is_trivial()
        assert corrected.is_zero()
        assert corrected == a - coboundary(bprime)


def test_torus_normalization_lands_in_the_periods(rng):
    nerve = torus_nerve(10, 10)
    for _ in range(3):
        a = CechCochain(nerve, 2, {t: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for t in nerve.simplices[2]})
        bprime, corrected, per = normalize_to_periods(a)
        assert corrected == a - coboundary(bprime)
        assert all(per.contains(v) for v in corrected.values.values())
        assert len(two_cycles(nerve)) == 1


def _surface_pipeline(nerve, values):
    a = CechCochain(nerve, 2, values)
    per = period_group(a)
    return per, normalize_to_periods(a, nerve, per), classify_prequantum(nerve, 3)


def test_only_d2_gets_a_smith_form(monkeypatch, rng):
    """The period group, the normalization and the classification share the
    one Smith form of d_2 of their nerve on the 10x10 torus; d_1 gets no
    Smith form, its rank is read off the connected components.  Each gives
    the same result as on a fresh nerve of its own."""
    calls = []
    snf = linalg.smith_normal_form
    monkeypatch.setattr(linalg, "smith_normal_form", lambda rows, ncols: calls.append(len(rows)) or snf(rows, ncols))
    nerve = torus_nerve(10, 10)
    assert len(nerve.simplices[2]) == 200
    per, _, rep = _surface_pipeline(nerve, {t: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for t in nerve.simplices[2]})
    # one Smith form of d_2 (300 edge rows), none of d_1 (100 vertex rows)
    assert sorted(calls) == [300]
    assert (rep["free_rank"], rep["torsion"]) == (2, [])

    nerve = torus_nerve(5, 5)
    values = {t: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for t in nerve.simplices[2]}
    per, normalized, rep = _surface_pipeline(nerve, values)
    assert period_group(CechCochain(torus_nerve(5, 5), 2, values)) == per
    assert normalize_to_periods(CechCochain(torus_nerve(5, 5), 2, values)) == normalized
    assert classify_prequantum(torus_nerve(5, 5), 3) == rep


def two_triangles_nerve():
    """Two disjoint solid triangles: two connected components."""
    return build_nerve([face for t in ((0, 1, 2), (3, 4, 5)) for k in (1, 2, 3) for face in combinations(t, k)])


@pytest.mark.parametrize(
    "make",
    [sphere_nerve, lambda: torus_nerve(3, 4), lambda: torus_nerve(10, 10), rp2_nerve, circle_nerve, two_triangles_nerve],
    ids=["sphere", "torus_3x4", "torus_10x10", "rp2", "circle", "two_triangles"],
)
def test_classify_reads_the_rank_of_d1_off_the_components(make):
    """The rank of d_1 that the classification uses, |vertices| -
    #components, is the number of invariant factors of d_1."""
    nerve = make()
    rep = classify_prequantum(nerve, 3)
    rank2 = len(nerve.smith_form(2)[0])
    rank1 = len(nerve.simplices[1]) - rep["free_rank"] - rank2
    assert rank1 == len(linalg.smith_normal_form(nerve.boundary(1), len(nerve.simplices[1]))[0])


def _fraction_normalization(a):
    """b' = sum_i ((a . V)_i / factor_i) U_i and a - delta b', in Fractions
    throughout, from a Smith form of d_2 of its own."""
    nerve = a.nerve
    edges, tris = nerve.simplices[1], nerve.simplices[2]
    factors, u, v = linalg.smith_normal_form(nerve.boundary(2), len(tris))
    b = {}
    for factor, column, row in zip(factors, v, u):
        c = sum((x * a(*tris[t]) for t, x in column.items()), Fraction(0)) / factor
        for e, y in row.items():
            b[e] = b.get(e, 0) + c * y
    bprime = CechCochain(nerve, 1, {edges[e]: b[e] for e in sorted(b)})
    return bprime, a - coboundary(bprime)


@pytest.mark.parametrize(
    "make, denominators",
    [(rp2_nerve, (1, 2, 3)), (lambda: torus_nerve(5, 5), (2,)), (lambda: torus_nerve(10, 10), (2, 3))],
    ids=["rp2", "torus_5x5", "torus_10x10"],
)
def test_integer_normalization_matches_the_fraction_formula(rng, make, denominators):
    """b' and the corrected cocycle, summed in integers over one common
    denominator, are exactly those of the Fraction formula, key order
    included; RP^2's d_2 has the invariant factor 2."""
    nerve = make()
    for _ in range(3):
        a = CechCochain(nerve, 2, {t: Fraction(rng.randint(-5, 5), rng.choice(denominators)) for t in nerve.simplices[2]})
        bprime, corrected, _ = normalize_to_periods(a)
        want_b, want_corrected = _fraction_normalization(a)
        assert list(bprime.terms.items()) == list(want_b.terms.items())
        assert list(corrected.terms.items()) == list(want_corrected.terms.items())
        assert all(type(x) is Fraction for x in bprime.terms.values())


def _rational_gcd(values):
    """The positive generator of the subgroup of Q the values generate."""
    g = Fraction(0)
    for x in values:
        g = Fraction(gcd(g.numerator * x.denominator, x.numerator * g.denominator), g.denominator * x.denominator)
    return g


GRID = torus_nerve(3, 3).simplices[2]
SUBCOMPLEX_EXAMPLES = 60


@settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=SUBCOMPLEX_EXAMPLES,
    phases=[phase for phase in Phase if phase is not Phase.shrink],
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    st.one_of(st.just(frozenset(range(len(GRID)))), st.frozensets(st.integers(0, len(GRID) - 1), min_size=1)),
    st.data(),
)
def test_normalization_on_random_subcomplexes_of_a_grid(chosen, data):
    """On subcomplexes of the 3x3 torus grid (the whole grid has a 2-cycle,
    every proper one none) with random rational 2-cochains: the corrected
    cocycle is a - delta b', lies in Per, and Per is generated by the
    pairings of a with the integer 2-cycles."""
    tris = [GRID[t] for t in sorted(chosen)]
    nerve = build_nerve([face for t in tris for k in (1, 2, 3) for face in combinations(t, k)])
    rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    a = CechCochain(nerve, 2, data.draw(st.dictionaries(st.sampled_from(tris), rationals)))
    bprime, corrected, per = normalize_to_periods(a)
    assert corrected == a - coboundary(bprime)
    assert all(per.contains(x) for x in corrected.terms.values())
    pairings = [sum((x * a(*nerve.simplices[2][t]) for t, x in z.items()), Fraction(0)) for z in two_cycles(nerve)]
    assert per.generator == _rational_gcd(pairings)
    assert len(pairings) == (len(tris) == len(GRID))


def test_normalize_checks_its_arguments_even_when_per_is_given():
    """Like period_group: a cochain on another nerve, or of another degree,
    is refused before any work, with or without the period group."""
    nerve, a = sphere_cocycle(3)
    per = period_group(a)
    other = CechCochain(sphere_nerve(), 2, {(0, 1, 2): 3})
    for args in ((other, nerve), (other, nerve, per)):
        with pytest.raises(NerveError, match="^cochain does not live on this nerve$"):
            normalize_to_periods(*args)
    f = CechCochain(nerve, 1, {(0, 1): 1})
    for args in ((f,), (f, nerve, per)):
        with pytest.raises(ValueError, match="^periods are computed from a 2-cochain$"):
            normalize_to_periods(*args)


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


def test_load_cover_refuses_an_unrecognized_directive():
    with pytest.raises(NerveError) as err:
        load_cover("simplex 0 1\ng 0 1 = 2\n")
    assert str(err.value) == "cover file line 2: unrecognized directive 'g'"


@pytest.mark.parametrize("line", ["simplex 0 1 0", "f 0 0 = 1", "a 0 1 0 = 2"], ids=["simplex", "f", "a"])
def test_load_cover_refuses_a_repeated_vertex(line):
    """A repeated vertex used to be dropped from a `simplex` line, so
    `simplex 0 1 0` loaded as the edge (0, 1), and to fail on an `f` line
    with the nerve's message and no line number."""
    verts = tuple(int(p) for p in line.split("=")[0].split()[1:])
    with pytest.raises(NerveError) as err:
        load_cover(f"simplex 0 1\n{line}\n")
    assert str(err.value) == f"cover file line 2: repeated vertex in {verts}"


BAD_COVER_LINES = [
    ("f 0 x = 1", "bad vertex 'x'"),
    ("simplex 0 1 = 2", "bad vertex '='"),
    ("a 0 1 2 = ", "missing value after '='"),
    ("d =", "missing value after '='"),
    ("f 0 1 = x", "bad value 'x'"),
]
BUILTIN_NAMES = [name for name in dir(builtins) if not name.startswith("_")]


@pytest.mark.parametrize("line, message", BAD_COVER_LINES)
def test_load_cover_names_the_bad_vertex_or_the_missing_value(line, message):
    """These lines used to report Python's own messages, such as
    "invalid literal for int() with base 10" or "list index out of range"."""
    with pytest.raises(NerveError) as err:
        load_cover(f"simplex 0 1\n{line}\n")
    assert str(err.value) == f"cover file line 2: {message}"
    assert not [name for name in BUILTIN_NAMES if re.search(rf"\b{name}\b", str(err.value))]


@pytest.mark.parametrize("line, message", BAD_COVER_LINES)
def test_cech_periods_exits_2_on_a_bad_cover_line(capsys, tmp_path, line, message):
    from supersymp.cli import main

    path = tmp_path / "bad.cov"
    path.write_text(f"simplex 0 1\n{line}\n")
    assert main(["cech", "periods", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == f"cover file line 2: {message}"


def test_a_conflict_found_by_sorting_is_reported_at_its_line(capsys, tmp_path):
    """f(1, 0) = 1 and f(0, 1) = 1 contradict each other only once sorted;
    the conflict used to be found after the loop, with no line number."""
    from supersymp.cli import main

    text = "simplex 0 1 2\nf 1 0 = 1\nf 0 1 = 1\n"
    with pytest.raises(NerveError, match=r"^cover file line 3: conflicting values on \(0, 1\)$"):
        load_cover(text)
    path = tmp_path / "bad.cov"
    path.write_text(text)
    assert main(["cech", "periods", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "cover file line 3: conflicting values on (0, 1)"


def test_build_nerve_refuses_the_empty_simplex():
    """The empty simplex used to raise a bare KeyError: -1."""
    with pytest.raises(NerveError, match=r"^empty simplex \(\)$"):
        build_nerve([(0,), ()])


def test_a_simplex_with_a_repeated_vertex_is_refused():
    with pytest.raises(NerveError, match=r"^degenerate simplex \(1, 0, 1\)$"):
        build_nerve([(0,), (1,), (0, 1), (1, 0, 1)])
    assert build_nerve([(1,), (0,), (1, 0)]).simplices[1] == [(0, 1)]


def test_a_key_out_of_vertex_order_is_skew():
    """f(1, 0) = 3/2 is f(0, 1) = -3/2, given to the constructor or as the
    cover-file line `f 1 0 = 3/2`; the same holds on a triangle."""
    for f in (CechCochain(solid_triangle(), 1, {(1, 0): Fraction(3, 2)}), load_cover("simplex 0 1 2\nf 1 0 = 3/2\n").f):
        assert f.terms == {(0, 1): Fraction(-3, 2)}
        assert (f(0, 1), f(1, 0)) == (Fraction(-3, 2), Fraction(3, 2))
    a = load_cover("a 0 2 1 = 5\n").a
    assert a.terms == {(0, 1, 2): Fraction(-5)}


@pytest.mark.parametrize("values", [
    {(0, 1): 0, (1, 0): 3},
    {(1, 0): 3, (0, 1): 0},
    {(0, 1): 1, (1, 0): 1},
])
def test_conflicting_cochain_values_are_refused(values):
    """Two values on one simplex must agree up to the key's sign, a zero
    included: (0, 1) = 0 then (1, 0) = 3 used to load as f(0, 1) = -3.  A
    cover file names the line of the second key, which it compares sorted."""
    with pytest.raises(NerveError, match=r"^conflicting values on \(0, 1\)$"):
        CechCochain(solid_triangle(), 1, values)
    text = "".join(f"f {i} {j} = {v}\n" for (i, j), v in values.items())
    with pytest.raises(NerveError, match=r"^cover file line 2: conflicting values on \(0, 1\)$"):
        load_cover(text)


@pytest.mark.parametrize("lines, message", [
    (["f 0 1 = 1", "f 0 1 = 2"], "line 2: conflicting values on (0, 1)"),
    (["f 0 1 = 0", "f 0 1 = 2"], "line 2: conflicting values on (0, 1)"),
    (["a 0 1 2 = 3", "a 0 1 2 = 0"], "line 2: conflicting values on (0, 1, 2)"),
    (["d = 3", "simplex 0 1", "d = 2"], "line 3: conflicting values on d"),
])
def test_load_cover_refuses_two_values_on_one_line_key(lines, message):
    """A repeated f, a or d line must repeat its value; it used to keep the
    last one."""
    with pytest.raises(NerveError) as err:
        load_cover("\n".join(lines))
    assert str(err.value) == f"cover file {message}"
    load_cover("\n".join(lines[:-1] + lines[:1]))  # an equal repeat is accepted
