"""Exact linear algebra: the one module that handles a matrix.

Matrices enter and leave as plain lists of lists.

* `transpose` and `matmul` for any scalar type that adds and multiplies
  (Q(i), Fraction, int, Grassmann numbers); `matmul` walks only the
  nonzero entries of both factors;
* sparse Gauss-Jordan elimination over Q(i): `rref`, and on top of it
  `rank`, `solve`, `nullspace`, `inverse` and `independent`, the first
  vectors of a list that are linearly independent, read off one
  elimination;
* Smith normal form over Z for the integer chain complexes of the finite
  cover machinery.

Every elimination passes through `rref` or `smith_normal_form`.  `rref`
keeps each row as a dict column -> nonzero entry and indexes each column
by the rows that are nonzero there, so an elimination step touches only
the rows that hold the pivot column and only the nonzeros of the pivot
row.  Pivot columns are taken left to right; within a pivot column the
shortest candidate row is the pivot, the Markowitz rule of sparse direct
methods, which keeps fill-in low.  The reduced row echelon form is
unique, so the choice of pivot row changes no entry of the result.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .scalars import ONE, ZERO, GaussianRational

Matrix = List[List[GaussianRational]]
Vector = List[GaussianRational]


def transpose(rows: Sequence[Sequence]) -> List[list]:
    return [list(col) for col in zip(*rows)]


def _dense(row: Dict[int, object], ncols: int, zero) -> list:
    out = [zero] * ncols
    for j, v in row.items():
        out[j] = v
    return out


def matmul(left: Sequence[Sequence], right: Sequence[Sequence]) -> List[list]:
    """The product left . right.

    Only nonzero entries of both factors are multiplied, in the order of
    the inner index, and every entry starts from a zero of the product's
    type, so the result keeps the operands' scalar type.
    """
    if not left or not right:
        return [[] for _ in left]
    zero = left[0][0] * right[0][0] * 0
    ncols = len(right[0])
    right_nonzero = [[(j, b) for j, b in enumerate(row) if b] for row in right]
    out = []
    for row in left:
        acc: Dict[int, object] = {}
        for a, nonzero in zip(row, right_nonzero):
            if a:
                for j, b in nonzero:
                    acc[j] = acc.get(j, zero) + a * b
        out.append(_dense(acc, ncols, zero))
    return out


def rref(rows: Sequence[Sequence[GaussianRational]]) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    # the shared ZERO that fills a sparse system is skipped without a test
    sparse = [{j: GaussianRational.coerce(x) for j, x in enumerate(row) if x is not ZERO and x} for row in rows]
    holders: List[Set[int]] = [set() for _ in range(ncols)]
    for i, row in enumerate(sparse):
        for j in row:
            holders[j].add(i)
    unused = set(range(nrows))
    pivots: List[int] = []
    reduced: List[Dict[int, GaussianRational]] = []
    for c in range(ncols):
        candidates = holders[c] & unused
        if not candidates:
            continue
        p = min(candidates, key=lambda i: (len(sparse[i]), i))
        unused.discard(p)
        prow = sparse[p]
        inv = prow.pop(c).inverse()
        for j, v in prow.items():
            prow[j] = v * inv
        for i in holders[c]:
            if i == p:
                continue
            row = sparse[i]
            neg = -row.pop(c)
            for j, v in prow.items():
                old = row.get(j)
                new = neg * v if old is None else old + neg * v
                if new:
                    row[j] = new
                    holders[j].add(i)
                else:
                    del row[j]
                    holders[j].discard(i)
        holders[c] = {p}
        prow[c] = ONE
        pivots.append(c)
        reduced.append(prow)
        if len(pivots) == nrows:
            break
    out = [_dense(row, ncols, ZERO) for row in reduced]
    out.extend([ZERO] * ncols for _ in range(nrows - len(reduced)))
    return out, pivots


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
    m, pivots = rref([list(row) + [rhs[i]] for i, row in enumerate(rows)])
    if ncols in pivots:
        return None, len(pivots) - 1
    x = [ZERO] * ncols
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
        v = [ZERO] * ncols
        v[fc] = ONE
        for r, c in enumerate(pivots):
            v[c] = -m[r][fc]
        basis.append(v)
    return basis


def inverse(rows: Sequence[Sequence[GaussianRational]]) -> Matrix:
    """Inverse of a square matrix; raises ValueError when singular."""
    n = len(rows)
    m, pivots = rref([list(row) + [ONE if i == j else ZERO for j in range(n)] for i, row in enumerate(rows)])
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
