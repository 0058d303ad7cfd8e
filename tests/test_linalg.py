"""linalg against sympy on seeded random matrices: rank, kernel and solve
over Q(i), including rank-deficient matrices, the exact reduced row
echelon form of sparse tall matrices and degenerate shapes, products,
transposes and the choice of independent vectors, and the invariant
factors of the integer Smith normal form."""

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


def _sparse_matrix(rng, m, n, density):
    """An m x n matrix with about density * m * n nonzero entries, some of
    its rows and columns left entirely zero."""
    rows = [[GaussianRational(0)] * n for _ in range(m)]
    for _ in range(max(1, round(density * m * n))):
        rows[rng.randrange(m)][rng.randrange(n)] = _entry(rng)
    return rows


def _shapes_and_sparse_matrices(rng):
    """Degenerate shapes (0 x n, 1 x n, n x 1, all zero, zero rows and
    columns), then tall sparse matrices at 1-2 % density."""
    for n in (1, 3, 5):
        yield [], n
        yield [[_entry(rng) for _ in range(n)]], n
        yield [[_entry(rng)] for _ in range(n)], 1
        yield [[GaussianRational(0)] * n for _ in range(3)], n
    a = _random_matrix(rng, 4)
    n = len(a[0])
    yield [a[0], [GaussianRational(0)] * n, a[1], a[2], [GaussianRational(0)] * n, a[3]], n
    yield [row[:1] + [GaussianRational(0)] + row[1:] + [GaussianRational(0)] for row in a], n + 2
    for _ in range(12):
        m, n = rng.randint(60, 120), rng.randint(20, 40)
        yield _sparse_matrix(rng, m, n, rng.choice((0.01, 0.02))), n


def _sympy_rref(rows, ncols):
    """sympy's reduced row echelon form, entries in the form re + i*im."""
    ref, pivots = sp.Matrix(len(rows), ncols, [_sympy(x) for row in rows for x in row]).rref()
    return ref.applyfunc(sp.expand_complex), list(pivots)


def test_rref_entries_and_pivots_against_sympy():
    rng = random.Random(17)
    tall = 0
    for a, n in _shapes_and_sparse_matrices(rng):
        tall += len(a) >= 60
        ref, ref_pivots = _sympy_rref(a, n)
        m, pivots = linalg.rref(a)
        assert pivots == ref_pivots
        assert len(m) == len(a) and all(len(row) == n for row in m)
        assert all(type(x) is GaussianRational for row in m for x in row)
        assert sp.Matrix(len(a), n, [_sympy(x) for row in m for x in row]) == ref
        assert linalg.rank(a) == len(ref_pivots)
    assert tall == 12


def test_solve_sets_free_variables_to_zero_like_sympy():
    """On underdetermined systems the solution is read off sympy's RREF of
    [A | b]: each pivot variable takes the last entry of its row, every
    free variable is zero."""
    rng = random.Random(19)
    underdetermined = 0
    for _ in range(40):
        m = rng.randint(1, 6)
        n = rng.randint(m + 1, m + 6)
        a = _sparse_matrix(rng, m, n, rng.choice((0.2, 0.5))) if rng.random() < 0.5 else _random_matrix(rng, m)
        n = len(a[0])
        x0 = [_entry(rng) for _ in range(n)]
        b = [_dot(row, x0) for row in a]
        ref, pivots = _sympy_rref([row + [y] for row, y in zip(a, b)], n + 1)
        want = [0] * n
        for r, c in enumerate(pivots):
            want[c] = ref[r, n]
        x, rank = linalg.solve(a, b)
        assert rank == len(pivots) and n not in pivots
        assert [_sympy(v) for v in x] == want
        underdetermined += rank < n
    assert underdetermined >= 30


def test_sparse_integer_matmul_against_sympy():
    rng = random.Random(23)
    for _ in range(20):
        m, k, n = rng.randint(1, 40), rng.randint(1, 40), rng.randint(1, 40)
        a = [[rng.choice((-2, -1, 1, 3)) if rng.random() < 0.05 else 0 for _ in range(k)] for _ in range(m)]
        b = [[rng.choice((-1, 1, 2)) if rng.random() < 0.05 else 0 for _ in range(n)] for _ in range(k)]
        product = linalg.matmul(a, b)
        assert sp.Matrix(product) == sp.Matrix(a) * sp.Matrix(b)
        assert all(type(x) is int for row in product for x in row)


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
