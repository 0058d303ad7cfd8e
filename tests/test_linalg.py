"""linalg against sympy on seeded random small matrices: rank, kernel and
solve over Q(i), including rank-deficient matrices, products, transposes
and the choice of independent vectors, and the invariant factors of the
integer Smith normal form."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from supersymp import linalg
from supersymp.scalars import GaussianRational

sp = pytest.importorskip("sympy")
normalforms = pytest.importorskip("sympy.matrices.normalforms")


def _entry(rng):
    im = rng.randint(-2, 2) if rng.random() < 0.3 else 0
    return GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), im)


def _random_matrix(rng, m=None):
    """A random m x n matrix; four in ten are a product of k x n by m x k
    factors with k < min(m, n), so their rank is below full."""
    m = rng.randint(1, 5) if m is None else m
    n = rng.randint(1, 5)
    if rng.random() < 0.4:
        k = rng.randint(0, min(m, n) - 1)
        left = [[_entry(rng) for _ in range(k)] for _ in range(m)]
        right = [[_entry(rng) for _ in range(n)] for _ in range(k)]
        return [[_dot(left[i], [right[t][j] for t in range(k)]) for j in range(n)] for i in range(m)]
    return [[_entry(rng) for _ in range(n)] for _ in range(m)]


def _dot(u, v):
    out = GaussianRational(0)
    for a, b in zip(u, v):
        out = out + a * b
    return out


def _sympy(x: GaussianRational):
    return sp.Rational(x.re.numerator, x.re.denominator) + sp.I * sp.Rational(x.im.numerator, x.im.denominator)


def _sympy_matrix(rows):
    return sp.Matrix([[_sympy(x) for x in row] for row in rows])


def test_rank_nullspace_solve_against_sympy():
    rng = random.Random(7)
    deficient = 0
    for _ in range(80):
        a = _random_matrix(rng)
        m, n = len(a), len(a[0])
        ref = _sympy_matrix(a)
        r = ref.rank()
        deficient += r < min(m, n)
        assert linalg.rank(a) == r

        kernel = linalg.nullspace(a)
        assert len(kernel) == n - r
        for v in kernel:
            assert all(_dot(row, v).is_zero() for row in a)
        if kernel:
            assert _sympy_matrix(kernel).rank() == n - r

        x0 = [_entry(rng) for _ in range(n)]
        for b in ([_dot(row, x0) for row in a], [_entry(rng) for _ in range(m)]):
            x, rank = linalg.solve(a, b)
            assert rank == r
            consistent = ref.row_join(_sympy_matrix([[v] for v in b])).rank() == r
            assert (x is not None) == consistent
            if x is not None:
                assert [_dot(row, x) for row in a] == b
                # unique exactly when A has no kernel
                assert (rank == n) == (not kernel)
    assert deficient >= 20


def _greedy_independent(vectors):
    """Reference: keep each vector that raises the rank of those kept."""
    kept, chosen = [], []
    for i, v in enumerate(vectors):
        if linalg.rank(kept + [v]) > len(kept):
            kept.append(v)
            chosen.append(i)
    return chosen


def test_matmul_transpose_independent_against_sympy():
    rng = random.Random(13)
    deficient = 0
    for _ in range(60):
        a = _random_matrix(rng)
        b = _random_matrix(rng, len(a[0]))
        ref = _sympy_matrix(a)
        deficient += ref.rank() < min(ref.shape)
        assert _sympy_matrix(linalg.transpose(a)) == ref.T
        product = linalg.matmul(a, b)
        assert _sympy_matrix(product) == (ref * _sympy_matrix(b)).expand()
        assert all(type(x) is GaussianRational for row in product for x in row)
        for vectors in (a, linalg.transpose(a)):
            chosen = linalg.independent(vectors)
            assert chosen == _greedy_independent(vectors)
            assert len(chosen) == ref.rank()
    assert deficient >= 15


def test_matmul_keeps_the_scalar_type():
    assert linalg.matmul([[0, 2]], [[1], [3]]) == [[6]]
    (zero,), = linalg.matmul([[0, 0]], [[Fraction(1)], [Fraction(2)]])
    assert type(zero) is Fraction and zero == 0
    assert linalg.matmul([], [[1]]) == []


def test_invariant_factors_against_sympy():
    rng = random.Random(11)
    for _ in range(60):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        if m > 1 and rng.random() < 0.4:
            a[-1] = [rng.randint(-2, 2) * v for v in a[0]]
        want = [abs(int(f)) for f in normalforms.invariant_factors(sp.Matrix(a), domain=sp.ZZ) if f != 0]
        assert linalg.invariant_factors(a) == want

        d, u, v = linalg.smith_normal_form(a)
        assert sp.Matrix(u) * sp.Matrix(a) * sp.Matrix(v) == sp.Matrix(d)
        assert abs(sp.Matrix(u).det()) == 1 and abs(sp.Matrix(v).det()) == 1
