"""Dense exact linear algebra: the one module that handles a matrix.

Matrices are plain lists of lists; everything is copied before elimination.

* `transpose` and `matmul` for any scalar type that adds and multiplies
  (Q(i), Fraction, int, Grassmann numbers);
* Gaussian elimination over Q(i): `rref`, and on top of it `rank`,
  `solve`, `nullspace`, `inverse` and `independent`, the first vectors of
  a list that are linearly independent, read off one elimination;
* Smith normal form over Z for the integer chain complexes of the finite
  cover machinery.

Every elimination passes through `rref` or `smith_normal_form`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .scalars import GaussianRational

Matrix = List[List[GaussianRational]]
Vector = List[GaussianRational]


def transpose(rows: Sequence[Sequence]) -> List[list]:
    return [list(col) for col in zip(*rows)]


def matmul(left: Sequence[Sequence], right: Sequence[Sequence]) -> List[list]:
    """The product left . right.

    Zero entries of the left factor are skipped, and every entry starts
    from a zero of the product's type, so the result keeps the operands'
    scalar type.
    """
    if not left or not right:
        return [[] for _ in left]
    zero = left[0][0] * right[0][0] * 0
    cols = list(zip(*right))
    return [[sum((a * b for a, b in zip(row, col) if a), zero) for col in cols] for row in left]


def _copy(rows: Sequence[Sequence[GaussianRational]]) -> Matrix:
    return [[GaussianRational.coerce(x) for x in row] for row in rows]


def rref(rows: Sequence[Sequence[GaussianRational]]) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    m = _copy(rows)
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for rr in range(r, nrows):
            if not m[rr][c].is_zero():
                pivot_row = rr
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = m[r][c].inverse()
        m[r] = [x * inv for x in m[r]]
        for rr in range(nrows):
            if rr != r and not m[rr][c].is_zero():
                factor = m[rr][c]
                m[rr] = [a - factor * b for a, b in zip(m[rr], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rank(rows: Sequence[Sequence[GaussianRational]]) -> int:
    if not rows:
        return 0
    return len(rref(rows)[1])


def solve(rows: Sequence[Sequence[GaussianRational]], rhs: Sequence[GaussianRational]) -> Tuple[Optional[Vector], int]:
    """One solution of A x = b, or None when the system is inconsistent,
    together with the rank of A.

    Free variables are set to zero.  A consistent system has a unique
    solution exactly when the rank equals the number of columns.
    """
    nrows = len(rows)
    if nrows == 0:
        return [], 0
    ncols = len(rows[0])
    aug = [list(row) + [rhs[i]] for i, row in enumerate(rows)]
    m, pivots = rref(aug)
    if ncols in pivots:
        return None, len(pivots) - 1
    x = [GaussianRational(0) for _ in range(ncols)]
    for r, c in enumerate(pivots):
        x[c] = m[r][ncols]
    return x, len(pivots)


def nullspace(rows: Sequence[Sequence[GaussianRational]]) -> List[Vector]:
    """Basis of the right kernel of A."""
    nrows = len(rows)
    if nrows == 0:
        return []
    ncols = len(rows[0])
    m, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [GaussianRational(0) for _ in range(ncols)]
        v[fc] = GaussianRational(1)
        for r, c in enumerate(pivots):
            v[c] = -m[r][fc]
        basis.append(v)
    return basis


def inverse(rows: Sequence[Sequence[GaussianRational]]) -> Matrix:
    """Inverse of a square matrix; raises ValueError when singular."""
    n = len(rows)
    aug = [
        [GaussianRational.coerce(x) for x in row]
        + [GaussianRational(1 if i == j else 0) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    m, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in m[:n]]


def independent(vectors: Sequence[Vector]) -> List[int]:
    """Indices of the vectors that are not combinations of earlier ones:
    the pivot columns of the matrix whose columns are the vectors."""
    return rref(transpose(vectors))[1]


# ----------------------------------------------------------------------
# Integer Smith normal form
# ----------------------------------------------------------------------


def smith_normal_form(a: Sequence[Sequence[int]]) -> Tuple[List[List[int]], List[List[int]], List[List[int]]]:
    """Return (D, U, V) with D = U A V, U and V unimodular, D in SNF."""
    m = [list(map(int, row)) for row in a]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    v = [[int(i == j) for j in range(ncols)] for i in range(ncols)]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, k):
        # row_dst += k * row_src
        m[dst] = [x + k * y for x, y in zip(m[dst], m[src])]
        u[dst] = [x + k * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, k):
        for row in m:
            row[dst] += k * row[src]
        for row in v:
            row[dst] += k * row[src]

    def negate_row(i):
        m[i] = [-x for x in m[i]]
        u[i] = [-x for x in u[i]]

    s = 0
    while s < min(nrows, ncols):
        # find a pivot: nonzero entry of minimal absolute value in m[s:, s:]
        pivot = None
        best = None
        for i in range(s, nrows):
            for j in range(s, ncols):
                x = m[i][j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(s, pivot[0])
        swap_cols(s, pivot[1])
        # clear the s-th row and column
        dirty = True
        while dirty:
            dirty = False
            for i in range(s + 1, nrows):
                if m[i][s] != 0:
                    add_row(i, s, -(m[i][s] // m[s][s]))
                    if m[i][s] != 0:
                        swap_rows(s, i)
                        dirty = True
            for j in range(s + 1, ncols):
                if m[s][j] != 0:
                    add_col(j, s, -(m[s][j] // m[s][s]))
                    if m[s][j] != 0:
                        swap_cols(s, j)
                        dirty = True
        # divisibility fix-up: m[s][s] must divide every later entry
        fixed = False
        for i in range(s + 1, nrows):
            for j in range(s + 1, ncols):
                if m[i][j] % m[s][s] != 0:
                    add_row(s, i, 1)
                    fixed = True
                    break
            if fixed:
                break
        if fixed:
            continue
        if m[s][s] < 0:
            negate_row(s)
        s += 1
    return m, u, v


def integer_kernel(a: Sequence[Sequence[int]]) -> List[List[int]]:
    """Basis (columns) of the integer kernel of A."""
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    if ncols == 0:
        return []
    if nrows == 0:
        return [[int(i == j) for i in range(ncols)] for j in range(ncols)]
    d, _u, v = smith_normal_form(a)
    r = sum(1 for i in range(min(nrows, ncols)) if d[i][i] != 0)
    return transpose(v)[r:]


def invariant_factors(a: Sequence[Sequence[int]]) -> List[int]:
    if not a or not a[0]:
        return []
    d, _u, _v = smith_normal_form(a)
    out = []
    for i in range(min(len(a), len(a[0]))):
        if d[i][i] != 0:
            out.append(abs(d[i][i]))
    return out


def fraction_gcd(values: Sequence[Fraction]) -> Fraction:
    """gcd of rationals: the positive generator of the group they generate."""
    vals = [Fraction(v) for v in values if v != 0]
    if not vals:
        return Fraction(0)
    from math import gcd, lcm

    denom = 1
    for v in vals:
        denom = lcm(denom, v.denominator)
    g = 0
    for v in vals:
        g = gcd(g, abs(int(v * denom)))
    return Fraction(g, denom)
