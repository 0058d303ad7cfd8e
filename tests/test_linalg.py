"""linalg against sympy on seeded random matrices: rank, kernel, pivots
and solve over Q(i), as sparse rows in any order, including
rank-deficient and inconsistent systems, the exact reduced row
echelon form of sparse tall matrices and degenerate shapes, products,
transposes and the choice of independent vectors, and the invariant
factors of the integer Smith normal form."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from supersymp import linalg
from supersymp.scalars import GaussianRational

from conftest import torus_nerve

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


def test_parity_violation_finds_the_first_entry_off_the_pattern():
    parities = (0, 1, 0)
    even = [[0, 0, 1], [0, 2, 0], [-1, 0, 0]]
    assert linalg.parity_violation(even, parities, 0) is None
    assert linalg.parity_violation(even, parities, 1) == (0, 2)
    odd = [[0, GaussianRational(0, 1), 0], [GaussianRational(0, 1), 0, 3], [0, 3, 0]]
    assert linalg.parity_violation(odd, parities, 1) is None
    assert linalg.parity_violation(odd, parities, 0) == (0, 1)
    assert linalg.parity_violation([row[:] for row in even], parities, 2) is None


def _dicts(rows):
    """The rows of a dense matrix as dicts column -> nonzero entry."""
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def test_rank_kernel_solve_against_sympy():
    rng = random.Random(7)
    deficient = 0
    for _ in range(80):
        a = _random_matrix(rng)
        m, n = len(a), len(a[0])
        ref = _sympy_matrix(a)
        r = ref.rank()
        deficient += r < min(m, n)
        assert linalg.rank(a) == r

        kernel = linalg.kernel(_dicts(a), n)
        assert len(kernel) == n - r
        assert all(all(v.values()) for v in kernel)
        kernel = [[v.get(j, GaussianRational(0)) for j in range(n)] for v in kernel]
        for v in kernel:
            assert all(_dot(row, v).is_zero() for row in a)
        if kernel:
            assert _sympy_matrix(kernel).rank() == n - r

        x0 = [_entry(rng) for _ in range(n)]
        for b in ([_dot(row, x0) for row in a], [_entry(rng) for _ in range(m)]):
            x, rank = linalg.solve_sparse(_dicts([row + [y] for row, y in zip(a, b)]), n)
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


def test_matmul_with_an_empty_dimension():
    """n x 0 times 0 x m is the n x m zero matrix; m must be given, as a
    factor without rows has no row length to read it off."""
    product = linalg.matmul([[], []], [], 3)
    assert product == [[0, 0, 0], [0, 0, 0]]
    assert product == [[GaussianRational(0)] * 3] * 2
    assert linalg.matmul([[], []], []) == [[], []]
    # an empty outer dimension: n x k times k x 0, and 0 x k times k x m
    assert linalg.matmul([[1, 2]], [[], []]) == [[]]
    assert linalg.matmul([], [[], []], 0) == []


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
        assert pivots == ref_pivots == linalg.pivot_columns(_dicts(a), n)
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
        x, rank = linalg.solve_sparse(_dicts([row + [y] for row, y in zip(a, b)]), n)
        assert rank == len(pivots) and n not in pivots
        assert [_sympy(v) for v in x] == want
        underdetermined += rank < n
    assert underdetermined >= 30


def test_solve_sparse_and_kernel_are_the_same_in_any_row_order():
    """The rows of [A | b] as dicts, shuffled and each with its entries in
    shuffled order, give the solution, rank and inconsistency of the rows
    in order, the rows of A the same kernel, and the caller's dicts are
    left as they were."""
    rng = random.Random(29)
    deficient = inconsistent = 0
    for _ in range(100):
        if rng.random() < 0.5:
            a = _random_matrix(rng)
        else:
            a = _sparse_matrix(rng, rng.randint(1, 8), rng.randint(1, 6), rng.choice((0.2, 0.4)))
        m, n = len(a), len(a[0])
        if rng.random() < 0.5:
            x0 = [_entry(rng) for _ in range(n)]
            b = [_dot(row, x0) for row in a]
        else:
            b = [_entry(rng) if rng.random() < 0.6 else GaussianRational(0) for _ in range(m)]
        rows = []
        for row, y in zip(a, b):
            entries = [(j, v) for j, v in enumerate(row + [y]) if v]
            rng.shuffle(entries)
            rows.append(dict(entries))
        rng.shuffle(rows)
        kept = [dict(row) for row in rows]
        x, rank = linalg.solve_sparse(rows, n)
        assert (x, rank) == linalg.solve_sparse(_dicts([row + [y] for row, y in zip(a, b)]), n)
        assert rows == kept
        without_b = [{j: v for j, v in row.items() if j != n} for row in rows]
        assert linalg.kernel(without_b, n) == linalg.kernel(_dicts(a), n)
        assert without_b == [{j: v for j, v in row.items() if j != n} for row in kept]
        ref = _sympy_matrix(a)
        r = ref.rank()
        consistent = ref.row_join(_sympy_matrix([[v] for v in b])).rank() == r
        assert rank == r and (x is not None) == consistent
        if x is not None:
            assert [_dot(row, x) for row in a] == b
        deficient += r < min(m, n)
        inconsistent += not consistent
    assert deficient >= 20 and inconsistent >= 20


def test_sparse_integer_matmul_against_sympy():
    rng = random.Random(23)
    for _ in range(20):
        m, k, n = rng.randint(1, 40), rng.randint(1, 40), rng.randint(1, 40)
        a = [[rng.choice((-2, -1, 1, 3)) if rng.random() < 0.05 else 0 for _ in range(k)] for _ in range(m)]
        b = [[rng.choice((-1, 1, 2)) if rng.random() < 0.05 else 0 for _ in range(n)] for _ in range(k)]
        product = linalg.matmul(a, b)
        assert sp.Matrix(product) == sp.Matrix(a) * sp.Matrix(b)
        assert all(type(x) is int for row in product for x in row)


def _sparse_rows(a):
    """The rows of a dense integer matrix as dicts column -> nonzero entry."""
    return [{j: x for j, x in enumerate(row) if x} for row in a]


def _dense_smith_form(rows, ncols):
    """smith_normal_form of sparse rows, with D, U and V made dense after
    checking the shapes and that no stored entry is zero."""
    nrows = len(rows)
    factors, u, v = linalg.smith_normal_form(rows, ncols)
    assert len(factors) <= min(nrows, ncols) and len(u) == nrows and len(v) == ncols
    assert all(set(row) <= set(range(nrows)) and all(row.values()) for row in u)
    assert all(set(col) <= set(range(ncols)) and all(col.values()) for col in v)
    d = [[factors[i] if i == j and i < len(factors) else 0 for j in range(ncols)] for i in range(nrows)]
    return d, [[row.get(j, 0) for j in range(nrows)] for row in u], [[col.get(i, 0) for col in v] for i in range(ncols)]


def test_invariant_factors_against_sympy():
    rng = random.Random(11)
    for _ in range(60):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        if m > 1 and rng.random() < 0.4:
            a[-1] = [rng.randint(-2, 2) * v for v in a[0]]
        want = [abs(int(f)) for f in normalforms.invariant_factors(sp.Matrix(a), domain=sp.ZZ) if f != 0]
        assert linalg.smith_normal_form(_sparse_rows(a), n)[0] == want

        d, u, v = _dense_smith_form(_sparse_rows(a), n)
        assert sp.Matrix(u) * sp.Matrix(a) * sp.Matrix(v) == sp.Matrix(d)
        assert abs(sp.Matrix(u).det()) == 1 and abs(sp.Matrix(v).det()) == 1


def _assert_smith_form(a, d, u, v):
    """D = U A V with D diagonal, nonnegative, each nonzero entry dividing
    the next and the zeros last."""
    m, n = len(a), len(a[0])
    assert linalg.matmul(linalg.matmul(u, a), v) == d
    assert all(d[i][j] == 0 for i in range(m) for j in range(n) if i != j)
    diag = [d[i][i] for i in range(min(m, n))]
    nonzero = [x for x in diag if x]
    assert diag == nonzero + [0] * (len(diag) - len(nonzero))
    assert all(x > 0 for x in nonzero)
    assert all(y % x == 0 for x, y in zip(nonzero, nonzero[1:]))


def _unimodular_scramble(rng, a):
    """P A Q for random products P, Q of elementary integer operations."""
    m, n = len(a), len(a[0])
    a = [list(row) for row in a]
    for _ in range(3 * (m + n)):
        i, j = rng.sample(range(m), 2)
        k = rng.choice((-2, -1, 1, 2))
        a[i] = [x + k * y for x, y in zip(a[i], a[j])]
        i, j = rng.sample(range(n), 2)
        k = rng.choice((-2, -1, 1, 2))
        for row in a:
            row[i] += k * row[j]
    return a


def test_sparse_smith_form_against_sympy():
    """Sparse integer matrices up to 30 x 40 at 5-15 % density, with zero
    rows and columns, and scrambled diagonal matrices that need the
    divisibility fix-up."""
    rng = random.Random(29)
    cases = []
    for _ in range(40):
        m, n = rng.randint(1, 30), rng.randint(1, 40)
        density = rng.choice((0.05, 0.1, 0.15))
        a = [[rng.choice((-3, -2, -1, 1, 2, 3)) if rng.random() < density else 0 for _ in range(n)] for _ in range(m)]
        a[rng.randrange(m)] = [0] * n
        for row in a:
            row[rng.randrange(n)] = 0
        cases.append(a)
    for diag, want in (((2, 3), [1, 6]), ((4, 6), [2, 12]), ((6, 4, 0), [2, 12]), ((2, 3, 5, 4), [1, 1, 2, 60])):
        a = [[x if i == j else 0 for j in range(len(diag) + 1)] for i, x in enumerate(diag)]
        for _ in range(3):
            scrambled = _unimodular_scramble(rng, a)
            assert linalg.smith_normal_form(_sparse_rows(scrambled), len(scrambled[0]))[0] == want
            cases.append(scrambled)
    zero_rows_cols = 0
    for a in cases:
        zero_rows_cols += not all(any(row) for row in a) and not all(any(col) for col in zip(*a))
        want = [abs(int(f)) for f in normalforms.invariant_factors(sp.Matrix(a), domain=sp.ZZ) if f != 0]
        assert linalg.smith_normal_form(_sparse_rows(a), len(a[0]))[0] == want
        d, u, v = _dense_smith_form(_sparse_rows(a), len(a[0]))
        _assert_smith_form(a, d, u, v)
        assert {abs(sp.Matrix(w).to_DM(domain=sp.ZZ).det()) for w in (u, v)} == {1}
    assert zero_rows_cols >= 20


def test_smith_form_of_the_torus_boundaries():
    """The 10 x 10 torus: d_1 (100 x 300) has 99 unit invariant factors and
    d_2 (300 x 200) has 199."""
    nerve = torus_nerve(10, 10)
    for k, shape, rank in ((1, (100, 300), 99), (2, (300, 200), 199)):
        rows, ncols = nerve.boundary(k), len(nerve.simplices[k])
        before = [dict(row) for row in rows]
        assert (len(rows), ncols) == shape
        a = [[row.get(j, 0) for j in range(ncols)] for row in rows]
        d, u, v = _dense_smith_form(rows, ncols)
        _assert_smith_form(a, d, u, v)
        assert [d[i][i] for i in range(min(shape))] == [1] * rank + [0] * (min(shape) - rank)
        assert linalg.smith_normal_form(rows, ncols) == linalg.smith_normal_form(rows, ncols)
        assert rows == before


def _rescan_pivot(heap, rows, holders, active):
    """The pivot rule read off every active entry: least (|value|,
    Markowitz cost, row, column)."""
    best = min(
        (abs(x), (len(rows[i]) - 1) * (len(holders[j]) - 1), i, j)
        for i in active
        for j, x in rows[i].items()
    )
    return best[2], best[3]


def test_smith_form_pivots_match_a_full_rescan(monkeypatch):
    """Each pivot the heap gives is the one a full rescan of the active
    entries chooses, so U and V are those of the rescanning kernel."""
    rng = random.Random(31)
    cases = []
    for _ in range(30):
        m, n = rng.randint(1, 25), rng.randint(1, 30)
        density = rng.choice((0.05, 0.15, 0.4))
        a = [[rng.choice((-6, -3, -2, -1, 1, 2, 4)) if rng.random() < density else 0 for _ in range(n)] for _ in range(m)]
        cases.append((_sparse_rows(a), n))
    for size in ((3, 4), (10, 10)):
        nerve = torus_nerve(*size)
        cases += [(nerve.boundary(k), len(nerve.simplices[k])) for k in (1, 2)]
    fast = linalg._next_pivot
    steps = []

    def checked(heap, rows, holders, active):
        want = _rescan_pivot(heap, rows, holders, active)
        got = fast(heap, rows, holders, active)
        steps.append(got == want)
        return got

    for rows, ncols in cases:
        monkeypatch.setattr(linalg, "_next_pivot", checked)
        result = linalg.smith_normal_form(rows, ncols)
        monkeypatch.setattr(linalg, "_next_pivot", _rescan_pivot)
        assert linalg.smith_normal_form(rows, ncols) == result
    assert all(steps) and len(steps) > 500
