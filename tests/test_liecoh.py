from __future__ import annotations

import re
from fractions import Fraction

import pytest

from supersymp.liecoh import (
    CECochain,
    SuperLieAlgebra,
    _coboundary_rows,
    canonical_keys,
    ce_coboundary,
    central_extension,
    extension_equivalent,
    h2,
    jacobi_check,
    momentum_cocycle,
    pullback_class,
    sort_with_sign,
    tuple_parity,
)

from conftest import random_ce_cochain


def abelian(parities):
    return SuperLieAlgebra(parities, {})


def gl11():
    """gl(1|1) with the supercommutator: a genuinely nonabelian check value."""
    # basis: h1 = E11, h2 = E22 (even), f1 = E12, f2 = E21 (odd)
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


def random_heisenberg_algebra(rng, n=4):
    from supersymp.heisenberg import HeisenbergSpec, algebra_of

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


# ----------------------------------------------------------------------
# jacobi_check
# ----------------------------------------------------------------------


def test_abelian_passes():
    ok, witness = jacobi_check(abelian((0, 0, 1)))
    assert ok and witness is None


def test_gl11_passes():
    ok, _ = jacobi_check(gl11())
    assert ok


def test_heisenberg_passes(rng):
    for _ in range(5):
        ok, _ = jacobi_check(random_heisenberg_algebra(rng))
        assert ok


def test_perturbed_heisenberg_fails(rng):
    g = random_heisenberg_algebra(rng, 4)
    while not g.brackets:
        g = random_heisenberg_algebra(rng, 4)
    n = g.dimension
    # make some bracket land on a non-central generator with compatible parity
    eps = g.parities
    i, j = 0, 1
    k = next(m for m in range(n) if eps[m] == (eps[i] + eps[j]) % 2)
    bad = {key: dict(vec) for key, vec in g.brackets.items() if key[0] <= key[1]}
    entry = bad.setdefault((i, j), {})
    entry[k] = entry.get(k, Fraction(0)) + 1
    if i == j:
        pytest.skip("degenerate pick")
    g_bad = SuperLieAlgebra(eps, bad)
    ok, witness = jacobi_check(g_bad)
    assert not ok and witness is not None


# ----------------------------------------------------------------------
# coboundary
# ----------------------------------------------------------------------


def reference_coboundary(c, g=None):
    """d by the per-term sweep: one `evaluate` of c per inserted bracket,
    with the repeated-contraction sign of the module docstring."""
    g = g or c.g
    eps = g.parities
    k = c.degree
    outer_sign = -1 if k % 2 else 1
    values = {}
    for key in canonical_keys(eps, k + 1):
        total = (Fraction(0), Fraction(0))
        for i in range(k + 1):
            for j in range(i + 1, k + 1):
                interior = sum(eps[key[p]] for p in range(i + 1, j)) * eps[key[j]]
                sign = outer_sign * (-1 if (j + interior) % 2 else 1)
                rest = key[:i] + key[i + 1:j] + key[j + 1:]
                for m, coeff in g.bracket_basis(key[i], key[j]).items():
                    val = c.evaluate(rest[:i] + (m,) + rest[i:])
                    total = tuple(t + sign * coeff * v for t, v in zip(total, val))
        values[key] = total
    return CECochain(g, k + 1, values)


def oracle_algebras(rng):
    from supersymp.heisenberg import algebra_of
    from supersymp.reference import heisenberg_33

    return [gl11(), algebra_of(heisenberg_33())] + [random_heisenberg_algebra(rng, rng.randint(2, 4)) for _ in range(3)]


def test_coboundary_over_abelian_vanishes(rng):
    g = abelian((0, 0, 1, 1))
    for degree in (1, 2):
        c = random_ce_cochain(rng, g, degree)
        assert ce_coboundary(c).is_zero()


def test_d_squared_zero(rng):
    algebras = [gl11()] + [random_heisenberg_algebra(rng, rng.randint(2, 4)) for _ in range(4)]
    for g in algebras:
        for degree in (1, 2, 3):
            c = random_ce_cochain(rng, g, degree)
            assert ce_coboundary(ce_coboundary(c)).is_zero()


def test_coboundary_of_one_cochain_is_bracket_evaluation(rng):
    g = gl11()
    f = random_ce_cochain(rng, g, 1)
    df = ce_coboundary(f)
    for key in canonical_keys(g.parities, 2):
        i, j = key
        expected = (Fraction(0), Fraction(0))
        for m, coeff in g.bracket_basis(i, j).items():
            val = f.evaluate((m,))
            expected = (expected[0] + coeff * val[0], expected[1] + coeff * val[1])
        assert df.evaluate(key) == expected


def test_coboundary_matches_the_per_term_sweep(rng):
    for g in oracle_algebras(rng):
        for degree in (0, 1, 2, 3):
            for _ in range(2):
                c = random_ce_cochain(rng, g, degree)
                assert ce_coboundary(c) == reference_coboundary(c)


def test_coboundary_rows_hold_the_images_of_basis_cochains(rng):
    for g in oracle_algebras(rng):
        for degree in (1, 2):
            rows = _coboundary_rows(g, degree)
            src = canonical_keys(g.parities, degree)
            dst = canonical_keys(g.parities, degree + 1)
            assert set(rows) <= set(dst)
            assert all(set(row) <= set(src) and all(row.values()) for row in rows.values())
            for key in src:
                unit = (Fraction(0), Fraction(1)) if tuple_parity(g.parities, key) else (Fraction(1), Fraction(0))
                image = reference_coboundary(CECochain(g, degree, {key: unit}))
                expected = [image.evaluate(t)[tuple_parity(g.parities, t)] for t in dst]
                assert [rows.get(t, {}).get(key, 0) for t in dst] == expected


def test_coboundary_rows_are_built_once_per_algebra_and_degree(rng):
    for g in oracle_algebras(rng):
        rows = {degree: _coboundary_rows(g, degree) for degree in (0, 1, 2)}
        fresh = SuperLieAlgebra(g.parities, g.brackets)
        for degree, built in rows.items():
            assert _coboundary_rows(g, degree) is built
            assert _coboundary_rows(fresh, degree) == built


def test_extension_equivalence_takes_only_2_cochains_on_its_algebra():
    g = gl11()
    u1 = CECochain(g, 1, {(0,): (1, 0)})
    u2 = CECochain(g, 1, {(1,): (5, 0)})
    with pytest.raises(ValueError, match="not from 1-cochains"):
        extension_equivalent(u1, u2, g)
    w1 = CECochain(g, 2, {(0, 1): (1, 0)})
    w2 = CECochain(g, 2, {(0, 1): (1, 0), (2, 2): (2, 0)})
    h = abelian((0, 1))
    for other in (h, abelian(g.parities)):
        with pytest.raises(ValueError, match="lives on another algebra"):
            extension_equivalent(w1, w2, other)
        with pytest.raises(ValueError, match="lives on another algebra"):
            central_extension(other, w1)
    # an equal algebra that is another object is the same algebra
    same = SuperLieAlgebra(g.parities, g.brackets)
    assert extension_equivalent(w1, w2, same) == extension_equivalent(w1, w2, g) == (False, None)
    ok, witness = extension_equivalent(w1, w1 + ce_coboundary(u2), same)
    assert ok and ce_coboundary(witness) == -ce_coboundary(u2)


def test_coboundary_takes_only_cochains_on_its_algebra():
    """An explicit g must be the cochain's algebra by value, in every degree:
    a cochain on `algebra h parities 0,1` is not read as one on gl(1|1)."""
    g, h = gl11(), abelian((0, 1))
    w = CECochain(h, 2, {(0, 1): (0, 1)})
    f = CECochain(h, 1, {(1,): (0, 1)})
    for c in (w, f):
        with pytest.raises(ValueError, match=f"^the {c.degree}-cochain lives on another algebra$"):
            ce_coboundary(c, g)
    # an equal algebra that is another object is the same algebra
    u = CECochain(g, 1, {(2,): (0, 1)})
    assert ce_coboundary(u, SuperLieAlgebra(g.parities, g.brackets)) == ce_coboundary(u)
    assert not ce_coboundary(u).is_zero()
    assert ce_coboundary(f, abelian((0, 1))) == ce_coboundary(f)


def test_skew_sorting():
    g = SuperLieAlgebra((0, 0, 1), {})
    # even swap flips the sign, odd diagonal survives
    assert sort_with_sign(g.parities, (1, 0)) == (-1, (0, 1))
    assert sort_with_sign(g.parities, (0, 0)) == (0, ())
    assert sort_with_sign(g.parities, (2, 2)) == (1, (2, 2))


def test_cochain_evenness_enforced():
    g = SuperLieAlgebra((0, 1), {})
    # the odd-odd diagonal is even: its c1 component must vanish
    with pytest.raises(ValueError):
        CECochain(g, 2, {(1, 1): (Fraction(0), Fraction(1))})
    # an even-odd pair is odd: its c0 component must vanish
    with pytest.raises(ValueError):
        CECochain(g, 2, {(0, 1): (Fraction(2), Fraction(0))})
    # a nonzero value on a vanishing tuple (repeated even index) is rejected
    with pytest.raises(ValueError):
        CECochain(g, 2, {(0, 0): (Fraction(1), Fraction(0))})
    # and a zero there is accepted
    assert CECochain(g, 2, {(0, 0): (0, 0)}).is_zero()


def test_cochain_constructor_errors():
    g = SuperLieAlgebra((0, 0, 1), {})
    with pytest.raises(ValueError, match=r"value on vanishing tuple \(0, 0\)"):
        CECochain(g, 2, {(0, 0): (1, 0)})
    with pytest.raises(ValueError, match=r"evenness violated on \(2, 0\): component c0 must vanish"):
        CECochain(g, 2, {(2, 0): (1, 0)})
    with pytest.raises(ValueError, match=r"conflicting values on tuple \(0, 1\)"):
        CECochain(g, 2, {(0, 1): (2, 0), (1, 0): (2, 0)})
    # a zero value conflicts too, in either order
    for values in ({(0, 1): (0, 0), (1, 0): (3, 0)}, {(1, 0): (3, 0), (0, 1): (0, 0)}):
        with pytest.raises(ValueError, match=r"conflicting values on tuple \(0, 1\)"):
            CECochain(g, 2, values)


@pytest.mark.parametrize("key", [(1,), (0, 1, 2), ()], ids=["short", "long", "empty"])
def test_a_cochain_key_must_have_degree_indices(key):
    """A key of another length used to be kept as a term no evaluation reads."""
    with pytest.raises(ValueError, match=rf"^tuple {re.escape(str(key))} needs 2 indices$"):
        CECochain(SuperLieAlgebra((0, 0, 1), {}), 2, {key: (0, 0)})


@pytest.mark.parametrize("key", [(0, 3), (-1, 0)], ids=["past_the_basis", "negative"])
def test_a_cochain_key_must_hold_basis_indices(key):
    """A key off the basis used to raise IndexError, or with a negative
    index to be kept as a term no evaluation reads."""
    with pytest.raises(ValueError, match=rf"^basis index out of range in tuple {re.escape(str(key))}$"):
        CECochain(SuperLieAlgebra((0, 0, 1), {}), 2, {key: (0, 1)})


def test_cochain_values_round_trip(rng):
    for g in oracle_algebras(rng):
        for degree in (0, 1, 2, 3):
            c = random_ce_cochain(rng, g, degree)
            assert CECochain(g, degree, c.values) == c
            for key, (v0, v1) in c.values.items():
                assert (v1 if tuple_parity(g.parities, key) else v0) != 0
                assert (v0 if tuple_parity(g.parities, key) else v1) == Fraction(0)


def test_cochain_evaluation_on_mixed_vectors(rng):
    g = gl11()
    c = CECochain(
        g,
        2,
        {(0, 1): (3, 0), (0, 3): (0, 2), (1, 2): (0, -1), (2, 3): (7, 0), (2, 2): (5, 0)},
    )
    u = {0: Fraction(2), 2: Fraction(3)}
    v = {1: Fraction(5), 2: Fraction(-1), 3: Fraction(1, 2)}
    for a, b in ((u, v), (v, u)):
        expected = (Fraction(0), Fraction(0))
        for i, x in a.items():
            for j, y in b.items():
                val = c.evaluate((i, j))
                expected = (expected[0] + x * y * val[0], expected[1] + x * y * val[1])
        got = c.evaluate_vectors([a, b])
        assert got == expected
        assert got[0] != 0 and got[1] != 0
    # degree 3 on random cochains and vectors, against the same hand sum
    for _ in range(5):
        c = random_ce_cochain(rng, g, 3)
        vecs = [{i: Fraction(rng.randint(-2, 2)) for i in rng.sample(range(4), 2)} for _ in range(3)]
        expected = (Fraction(0), Fraction(0))
        for i, x in vecs[0].items():
            for j, y in vecs[1].items():
                for k, z in vecs[2].items():
                    val = c.evaluate((i, j, k))
                    expected = (expected[0] + x * y * z * val[0], expected[1] + x * y * z * val[1])
        assert c.evaluate_vectors(vecs) == expected


def test_cochain_evaluation_on_vectors():
    g = gl11()
    c = CECochain(g, 2, {(0, 1): (Fraction(3), Fraction(0))})
    # bilinear extension over real coefficient vectors
    u = {0: Fraction(2), 1: Fraction(1)}
    v = {1: Fraction(5)}
    assert c.evaluate_vectors([u, v]) == (Fraction(30), Fraction(0))
    assert c.evaluate_vectors([v, u]) == (Fraction(-30), Fraction(0))


# ----------------------------------------------------------------------
# h2
# ----------------------------------------------------------------------


def test_h2_trivial_for_one_even_generator():
    rep = h2(abelian((0,)))
    assert rep.dim_h2 == 0


def test_h2_abelian_two_even():
    rep = h2(abelian((0, 0)))
    # a single even skew pairing; d == 0 in both degrees
    assert rep.dim_z2 == 1
    assert rep.dim_b2 == 0
    assert rep.dim_h2 == 1
    assert len(rep.representatives) == 1


def test_h2_dimension_by_rank_nullity(rng):
    for _ in range(3):
        g = random_heisenberg_algebra(rng, 3)
        rep = h2(g)
        assert rep.dim_h2 == rep.dim_z2 - rep.dim_b2
        assert len(rep.representatives) == rep.dim_h2


# ----------------------------------------------------------------------
# central extensions
# ----------------------------------------------------------------------


def test_zero_cocycle_gives_direct_sum():
    g = abelian((0, 1))
    ext = central_extension(g, CECochain(g, 2))
    assert not ext.brackets
    assert ext.parities == (0, 1, 0, 1)


def test_extension_by_cocycle_iff_jacobi(rng):
    bases = [abelian((0, 0, 1, 1)), gl11()]
    seen_fail = seen_pass = 0
    for _ in range(20):
        g = rng.choice(bases)
        om = random_ce_cochain(rng, g, 2)
        ext = central_extension(g, om)
        ok, _ = jacobi_check(ext)
        closed = ce_coboundary(om).is_zero()
        assert ok == closed
        seen_fail += not ok
        seen_pass += ok
    assert seen_pass  # zero cochains etc.


def test_extension_brackets_add_omega_on_the_central_vectors(rng):
    """[e_i, e_j] in g x C is [e_i, e_j] in g plus Omega(e_i, e_j) = c0 c_0 + c1 c_1
    on the appended c0, c1, for every ordered pair, read by `evaluate`."""
    for g in (abelian((0, 0, 1, 1)), gl11()):
        for _ in range(5):
            om = random_ce_cochain(rng, g, 2)
            ext = central_extension(g, om)
            n = g.dimension
            for i in range(n):
                for j in range(n):
                    expected = dict(g.bracket_basis(i, j))
                    for alpha, v in enumerate(om.evaluate((i, j))):
                        if v:
                            expected[n + alpha] = v
                    assert ext.bracket_basis(i, j) == expected


def test_extension_with_nonclosed_cocycle_fails_on_witness(rng):
    g = gl11()
    for _ in range(20):
        om = random_ce_cochain(rng, g, 2)
        if not ce_coboundary(om).is_zero():
            ext = central_extension(g, om)
            ok, witness = jacobi_check(ext)
            assert not ok and witness is not None
            return
    pytest.skip("no non-closed cochain drawn")


def test_extension_equivalent_reflexive(rng):
    g = gl11()
    om = random_ce_cochain(rng, g, 2)
    ok, f = extension_equivalent(om, om, g)
    assert ok and f.is_zero()


def test_extension_equivalent_by_construction(rng):
    g = gl11()
    for _ in range(5):
        om = random_ce_cochain(rng, g, 2)
        f = random_ce_cochain(rng, g, 1)
        shifted = om + ce_coboundary(f)
        ok, witness = extension_equivalent(shifted, om, g)
        assert ok
        assert ce_coboundary(witness) == shifted - om


def test_inequivalent_h2_representatives():
    g = abelian((0, 0, 0, 0))
    rep = h2(g)
    assert rep.dim_h2 >= 2
    a, b = rep.representatives[:2]
    ok, _ = extension_equivalent(a, b, g)
    assert not ok


def test_equivalent_cocycles_give_isomorphic_extensions(rng):
    g = gl11()
    om = random_ce_cochain(rng, g, 2)
    f = random_ce_cochain(rng, g, 1)
    shifted = om + ce_coboundary(f)
    ok, witness = extension_equivalent(shifted, om, g)
    assert ok
    assert ce_coboundary(witness) == shifted - om


# ----------------------------------------------------------------------
# pullback cocycles at points of the dual
# ----------------------------------------------------------------------


def test_pullback_zero_point():
    g = gl11()
    c = pullback_class(g, [0, 0, 0, 0], [0, 0, 0, 0])
    assert c.is_zero()


def test_pullback_rejects_non_real_points():
    g = gl11()
    with pytest.raises(ValueError):
        pullback_class(g, [0, 0, 1, 0], [0, 0, 0, 0])


def test_momentum_cocycle_keeps_only_rational_constants():
    """Each entry {<v,J>, <w,J>} - <[v,w], J> must be a constant: one that
    is not, or that has a Grassmann part, clears the flag and is left out,
    and an imaginary constant is refused."""
    from supersymp.charts import CFunction, Chart
    from supersymp.grassmann import GrassmannNumber
    from supersymp.scalars import I

    g = abelian((0, 0))
    m = Chart("M", ("x",), (), 4)

    def cocycle(entry):
        zero = CFunction(m.zero(), m.zero())
        return momentum_cocycle(g, lambda i: zero, lambda i, j: CFunction(entry, m.zero()))

    assert cocycle(m.constant(2)) == (CECochain(g, 2, {(0, 1): (2, 0)}), True)
    assert cocycle(m.var("x")) == (CECochain(g, 2), False)
    assert cocycle(m.constant(GrassmannNumber.generator(1, 4))) == (CECochain(g, 2), False)
    with pytest.raises(ValueError, match="^momentum cocycle has non-rational entries$"):
        cocycle(m.constant(I))


def test_class_difference_is_coboundary_on_gl11():
    g = gl11()
    p1 = ([1, 2, 0, 0], [0, 0, 1, 3])
    p2 = ([0, 1, 0, 0], [0, 0, 2, 0])
    c1, c2 = pullback_class(g, *p1), pullback_class(g, *p2)
    ok, witness = extension_equivalent(c1, c2, g)
    assert ok
    assert ce_coboundary(witness) == c1 - c2
