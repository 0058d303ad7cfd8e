from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from supersymp.charts import Chart
from supersymp import grassmann
from supersymp.grassmann import DimensionError, GrassmannNumber, NotInvertible, graded_sort
from supersymp.scalars import GaussianRational, Q


def th(*ks, n=4):
    out = GrassmannNumber.scalar(1, n)
    for k in ks:
        out = out * GrassmannNumber.generator(k, n)
    return out


def test_generator_product():
    assert th(1) * th(2) == th(1, 2)


def test_anticommutation():
    assert th(2) * th(1) == -th(1, 2)


def test_square_vanishes():
    assert (th(1) * th(1)).is_zero()


def brute_force_product(a, b, n):
    """Oracle: expand with explicit permutation-sign counting."""
    out = GrassmannNumber.zero(n)
    for ia, ca in a.terms.items():
        for ib, cb in b.terms.items():
            if set(ia) & set(ib):
                continue
            seq = list(ia) + list(ib)
            sign = 1
            for i, j in itertools.combinations(range(len(seq)), 2):
                if seq[i] > seq[j]:
                    sign = -sign
            coeff = ca * cb if sign > 0 else -(ca * cb)
            out = out + GrassmannNumber(n, {tuple(sorted(seq)): coeff})
    return out


def test_distributive_expansion_against_oracle():
    a = 1 + th(1)
    b = 1 + th(2)
    expected = 1 + th(1) + th(2) + th(1, 2)
    assert a * b == expected
    assert brute_force_product(a, b, 4) == expected


def test_random_products_match_oracle(rng):
    for _ in range(40):
        def rand(n=4):
            out = GrassmannNumber.zero(n)
            for _ in range(3):
                idx = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, n))))
                out = out + GrassmannNumber(n, {idx: GaussianRational(rng.randint(-3, 3), rng.randint(-1, 1))})
            return out

        a, b = rand(), rand()
        assert a * b == brute_force_product(a, b, 4)


def test_graded_commutativity_enumerated():
    # monomial-level check for N <= 6: ab = (-1)^(eps a eps b) ba
    n = 6
    monos = []
    for k in range(0, 3):
        monos.extend(itertools.combinations(range(1, n + 1), k))
    for ia, ib in itertools.product(monos, repeat=2):
        a = GrassmannNumber(n, {ia: Q(1)})
        b = GrassmannNumber(n, {ib: Q(1)})
        sign = -1 if (len(ia) * len(ib)) % 2 else 1
        assert a * b == (b * a if sign > 0 else -(b * a))


def test_dimension_mismatch():
    """Operands over different N are refused, a body-only factor included."""
    body, other = GrassmannNumber.scalar(Q(2, 1), 3), th(1, 2, n=4)
    for a, b in ((body, GrassmannNumber.scalar(1, 4)), (body, other), (other, body)):
        with pytest.raises(DimensionError):
            a * b


def double_loop_product(a, b):
    """The general product: every pair of terms, sorted with its sign."""
    terms = {}
    for ia, ca in a.terms.items():
        for ib, cb in b.terms.items():
            sign, idx = graded_sort(ia + ib)
            if sign:
                terms[idx] = terms.get(idx, 0) + (ca * cb if sign > 0 else -(ca * cb))
    return GrassmannNumber(a.n, terms)


def test_body_only_factor_scales_without_sorting(rng, monkeypatch):
    """A factor whose only term is the body, on the left, on the right or
    on both sides, gives the double-loop product without a graded sort."""
    n = 5

    def rand(terms):
        return GrassmannNumber(n, {
            tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, n)))):
                Q(Fraction(rng.randint(-9, 9), rng.randint(1, 6)), rng.randint(-2, 2))
            for _ in range(terms)
        })

    cases = []
    for _ in range(60):
        body = GrassmannNumber.scalar(Q(Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 6)), rng.randint(-2, 2)), n)
        other = rand(rng.randint(0, 6))
        cases += [(body, other), (other, body), (body, rand(1) if rng.random() < 0.3 else body)]
    want = [double_loop_product(a, b) for a, b in cases]

    def no_sort(*args, **kwargs):
        raise AssertionError("graded_sort called for a body-only factor")

    monkeypatch.setattr(grassmann, "graded_sort", no_sort)
    for (a, b), w in zip(cases, want):
        assert a * b == w and (a * b).n == n
    assert 3 * cases[0][1] == cases[0][1] * 3 == double_loop_product(GrassmannNumber.scalar(3, n), cases[0][1])


def test_gaussian_scalar_defers_to_the_reflected_operation():
    """A Gaussian rational on the left hands a Grassmann number or a
    superfunction to its reflected +, - or *; coerce still refuses both."""
    two = GaussianRational(2)
    th1 = th(1)
    f = Chart("A", ("x",), ("xi",), 4).var("x")
    assert two * th1 == 2 * th1 == th1 * two
    assert two + th1 == 2 + th1 and two - th1 == 2 - th1
    assert two + f == 2 + f == f + two
    assert two * f == f.scale(2) and two - f == -(f - 2)
    for x in (th1, f, "x"):
        with pytest.raises(TypeError, match="cannot coerce"):
            GaussianRational.coerce(x)
    with pytest.raises(TypeError):
        two + "x"


@pytest.mark.parametrize(
    "re, im",
    [(0, 0), (3, 0), (-4, 0), ("-7/3", 0), ("5/2", 0), (0, 1), (0, "-1/2"), (-2, 3), ("1/3", "-4/5")],
)
def test_gaussian_scalar_predicates_and_hash(re, im):
    """Zero tests, realness and hashing agree with Fraction arithmetic; a
    real value hashes like the Fraction it equals, so mixed dict keys and
    sets treat Q(q) and q as one key."""
    re, im = Fraction(re), Fraction(im)
    z = Q(re, im)
    assert z.is_zero() is (re == 0 and im == 0)
    assert bool(z) is not z.is_zero()
    assert z.is_rational() is (im == 0)
    assert hash(z) == hash(Q(re, im)) == hash(GaussianRational(re, im))
    if im == 0:
        assert hash(z) == hash(re) and z == re
        assert len({z, re}) == 1
        if re.denominator == 1:
            assert hash(z) == hash(int(re))
    else:
        assert z != re and len({z, Q(re, -im), Q(re)}) == 3


def test_scalar_inverse():
    two = GrassmannNumber.scalar(2, 4)
    assert two.inverse() == GrassmannNumber.scalar(Q("1/2"), 4)


def test_inverse_of_one_plus_nilpotent():
    a = 1 + th(1, 2)
    assert a.inverse() == 1 - th(1, 2)
    assert a * a.inverse() == GrassmannNumber.scalar(1, 4)


def test_inverse_random(rng):
    for _ in range(25):
        a = GrassmannNumber.scalar(rng.choice([1, 2, -3, Q("2/3")]), 4)
        for k in range(1, 5):
            if rng.random() < 0.5:
                idx = tuple(sorted(rng.sample(range(1, 5), rng.randint(1, 3))))
                a = a + GrassmannNumber(4, {idx: GaussianRational(rng.randint(-2, 2))})
        assert a * a.inverse() == GrassmannNumber.scalar(1, 4)


def test_not_invertible():
    with pytest.raises(NotInvertible):
        th(1).inverse()


def test_invertible_iff_nonzero_body(rng):
    for _ in range(20):
        soul = GrassmannNumber(4, {(1, 2): GaussianRational(rng.randint(-3, 3))})
        body = GaussianRational(rng.randint(-3, 3))
        a = GrassmannNumber.scalar(body, 4) + soul
        if body.is_zero():
            with pytest.raises(NotInvertible):
                a.inverse()
        else:
            assert a * a.inverse() == GrassmannNumber.scalar(1, 4)


@pytest.mark.parametrize("length", range(6))
def test_koszul_is_the_move_sign_of_graded_sort(length):
    # letter 0, of parity a, sits after the word 1..length; sorting moves it to the front
    for a in (0, 1):
        for word in itertools.product((0, 1), repeat=length):
            parity = (*word, a)
            sign, _ = graded_sort(tuple(range(1, length + 1)) + (0,), lambda x: parity[x - 1] == 1)
            assert grassmann.koszul(a, word) == sign


def test_involution_definition():
    assert (1 + th(1)).involution() == 1 - th(1)
    assert (3 + th(1, 2)).involution() == 3 + th(1, 2)


def test_involution_is_involutive(rng):
    for _ in range(20):
        a = GrassmannNumber.zero(4)
        for _ in range(4):
            idx = tuple(sorted(rng.sample(range(1, 5), rng.randint(0, 3))))
            a = a + GrassmannNumber(4, {idx: GaussianRational(rng.randint(-3, 3))})
        assert a.involution().involution() == a


def test_body_is_ring_homomorphism(rng):
    for _ in range(20):
        def rand():
            out = GrassmannNumber.scalar(GaussianRational(rng.randint(-3, 3), rng.randint(-1, 1)), 4)
            idx = tuple(sorted(rng.sample(range(1, 5), rng.randint(1, 2))))
            return out + GrassmannNumber(4, {idx: GaussianRational(rng.randint(-2, 2))})

        a, b = rand(), rand()
        assert (a * b).body() == a.body() * b.body()


def test_rendering():
    x = GrassmannNumber.scalar(Q("3/2"), 4) + GrassmannNumber(4, {(1, 3): Q(2)}) + GrassmannNumber(4, {(2,): -Q(0, 1)})
    assert str(x) == "3/2 - i*th2 + 2*th1*th3"
