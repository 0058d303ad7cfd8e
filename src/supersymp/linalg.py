"""Exact linear algebra: the one module that handles a matrix.

Matrices enter and leave as plain lists of lists, except in the sparse
solvers, which take the rows of a matrix as dicts column -> nonzero entry,
so a caller that already holds its matrix sparse never builds the dense one.

* `transpose` and `matmul` for any scalar type that adds and multiplies
  (Q(i), Fraction, int, Grassmann numbers); `matmul` walks only the
  nonzero entries of both factors;
* `skew_violation`, the first entry of a matrix that breaks graded skew
  symmetry W[j][i] = -(-1)^(|i||j|) W[i][j] under given parities, and
  `parity_violation`, the first nonzero entry off the block pattern of a
  homogeneous matrix;
* sparse Gauss-Jordan elimination over Q(i): on sparse rows,
  `solve_sparse`, `kernel` and `pivot_columns`; on the small dense
  matrices of the Darboux, KKS and orbit code, `rref`, `rank`, `inverse`
  and `independent`, the first vectors of a list that are linearly
  independent, read off one elimination;
* sparse Smith normal form over Z, `smith_normal_form`: sparse integer
  rows in, (invariant factors, U as sparse rows, V as sparse columns)
  out, for the integer chain complexes of the finite cover machinery.

Every elimination passes through one of two sparse kernels: `_reduce`,
under `rref`, `solve_sparse`, `kernel` and `pivot_columns`, or
`smith_normal_form`.  Both keep each row as a dict column -> nonzero entry
and index each column by the rows that are nonzero there, so an
elimination step touches only the rows that hold the pivot column and
only the nonzeros of the pivot row.

`_reduce` takes pivot columns left to right; within a pivot column the
shortest candidate row is the pivot, the Markowitz rule of sparse direct
methods, which keeps fill-in low.  The reduced row echelon form is
unique, so neither the choice of pivot row nor the order of the rows
changes any entry of the result.

`smith_normal_form` (after Dumas, Saunders and Villard, J. Symbolic
Comput. 32 (2001)) takes as pivot the entry of least absolute value, ties
broken by the Markowitz cost (row nonzeros - 1) (column nonzeros - 1) and
then by (row, column), so its U and V are the same on every run.  U and V
are not unique; D is.  The keys wait in a heap, and a step pushes fresh
keys only for the rows and columns it touched, so no step rescans the
matrix to find its pivot.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .grassmann import skew_sign
from .scalars import ONE, ZERO, GaussianRational

Matrix = List[List[GaussianRational]]
Vector = List[GaussianRational]
SparseRow = Dict[int, GaussianRational]


def transpose(rows: Sequence[Sequence]) -> List[list]:
    return [list(col) for col in zip(*rows)]


def skew_violation(w: Sequence[Sequence], parities: Sequence[int]) -> Optional[Tuple[int, int]]:
    """The first (i, j), row by row, with W[j][i] != -(-1)^(|i||j|) W[i][j],
    or None when the square matrix W is graded skew-symmetric.  The rule
    is symmetric in i and j, so the first violation has i <= j."""
    n = len(parities)
    for i in range(n):
        for j in range(i, n):
            if w[j][i] != skew_sign(parities[i], parities[j]) * w[i][j]:
                return i, j
    return None


def parity_violation(w: Sequence[Sequence], parities: Sequence[int], parity: int) -> Optional[Tuple[int, int]]:
    """The first (i, j), row by row, with W[i][j] nonzero although
    |i| + |j| != parity (mod 2), or None when the square matrix W is
    homogeneous of that parity."""
    n = len(parities)
    for i in range(n):
        for j in range(n):
            if (parities[i] + parities[j]) % 2 != parity % 2 and w[i][j]:
                return i, j
    return None


def _dense(row: Dict[int, object], ncols: int, zero) -> list:
    out = [zero] * ncols
    for j, v in row.items():
        out[j] = v
    return out


def matmul(left: Sequence[Sequence], right: Sequence[Sequence], ncols: Optional[int] = None) -> List[list]:
    """The product left . right, with `ncols` columns: the length of the
    rows of `right`, which must be given when `right` has no rows.

    Only nonzero entries of both factors are multiplied, in the order of
    the inner index, and every entry starts from a zero of the product's
    type, so the result keeps the operands' scalar type.  An n x 0 times
    0 x m product has no term to take a type from; it is the n x m
    matrix of int 0.
    """
    if ncols is None:
        ncols = len(right[0]) if right else 0
    if not left or not right or not ncols:
        return [[0] * ncols for _ in left]
    zero = left[0][0] * right[0][0] * 0
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


def _reduce(sparse: List[SparseRow], ncols: int) -> Tuple[List[SparseRow], List[int]]:
    """The elimination kernel: the reduced rows, one per pivot in pivot
    order, and the pivot columns.  `sparse` holds no zero entry and is
    reduced in place."""
    nrows = len(sparse)
    holders: List[Set[int]] = [set() for _ in range(ncols)]
    for i, row in enumerate(sparse):
        for j in row:
            holders[j].add(i)
    unused = set(range(nrows))
    pivots: List[int] = []
    reduced: List[SparseRow] = []
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
    return reduced, pivots


def rref(rows: Sequence[Sequence[GaussianRational]]) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    # the shared ZERO that fills a dense matrix is skipped without a test
    sparse = [{j: GaussianRational.coerce(x) for j, x in enumerate(row) if x is not ZERO and x} for row in rows]
    reduced, pivots = _reduce(sparse, ncols)
    out = [_dense(row, ncols, ZERO) for row in reduced]
    out.extend([ZERO] * ncols for _ in range(nrows - len(reduced)))
    return out, pivots


def rank(rows: Sequence[Sequence[GaussianRational]]) -> int:
    return len(rref(rows)[1])


def solve_sparse(rows: Sequence[SparseRow], ncols: int) -> Tuple[Optional[Vector], int]:
    """One solution of A x = b, or None when the system is inconsistent,
    together with the rank of A, from the rows of [A | b] as dicts
    column -> nonzero entry, b in column `ncols`.

    The rows may come in any order, and the caller's dicts are left as
    they are.  Free variables are set to zero, so the solution is the
    same for every row order.  A consistent system has a unique solution
    exactly when the rank equals `ncols`.
    """
    reduced, pivots = _reduce([dict(row) for row in rows], ncols + 1)
    if pivots and pivots[-1] == ncols:
        return None, len(pivots) - 1
    x = [ZERO] * ncols
    for row, c in zip(reduced, pivots):
        x[c] = row.get(ncols, ZERO)
    return x, len(pivots)


def kernel(rows: Sequence[SparseRow], ncols: int) -> List[SparseRow]:
    """A basis of the right kernel of A, from its rows as in `solve_sparse`:
    per free column f, 1 at f and, at each reduced row's pivot, minus its entry at f."""
    reduced, pivots = _reduce([dict(row) for row in rows], ncols)
    basis = {f: {f: ONE} for f in range(ncols)}
    for row, c in zip(reduced, pivots):
        del basis[c]
        for f, v in row.items():
            if f != c:
                basis[f][c] = -v
    return list(basis.values())


def pivot_columns(rows: Sequence[SparseRow], ncols: int) -> List[int]:
    """The columns of A that are not combinations of earlier ones, from
    its rows as in `solve_sparse`."""
    return _reduce([dict(row) for row in rows], ncols)[1]


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


def _add_multiple(dst: Dict[int, int], src: Dict[int, int], k: int, holders=None, owner: int = 0) -> None:
    """dst += k * src on sparse integer vectors; when given, holders[j] keeps
    the set of vectors (named by owner) that are nonzero at j."""
    for j, s in src.items():
        new = dst.get(j, 0) + k * s
        if new:
            dst[j] = new
            if holders is not None:
                holders[j].add(owner)
        elif j in dst:
            del dst[j]
            if holders is not None:
                holders[j].discard(owner)


def _combination(x: Dict[int, int], a: int, y: Dict[int, int], b: int) -> Dict[int, int]:
    """a * x + b * y as a new sparse vector."""
    out: Dict[int, int] = {}
    _add_multiple(out, x, a)
    _add_multiple(out, y, b)
    return out


def _bezout(a: int, b: int) -> Tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) > 0 and s a + t b = g."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1, t0, t1 = s1, s0 - q * s1, t1, t0 - q * t1
    return (a, s0, t0) if a > 0 else (-a, -s0, -t0)


def _pivot_key(rows, holders, i: int, j: int) -> Tuple[int, int, int, int]:
    """(|value|, Markowitz cost, row, column) of the entry (i, j); the
    pivot is the entry of least key."""
    row = rows[i]
    return abs(row[j]), (len(row) - 1) * (len(holders[j]) - 1), i, j


def _next_pivot(heap, rows, holders, active) -> Tuple[int, int]:
    """The active entry of least key.

    `heap` holds the current key of every active entry, and possibly
    stale keys of entries that have changed or gone since they were
    pushed; stale keys are dropped as they surface.
    """
    while True:
        _, _, i, j = key = heap[0]
        if i in active and j in rows[i] and _pivot_key(rows, holders, i, j) == key:
            return i, j
        heappop(heap)


def smith_normal_form(rows: Sequence[Dict[int, int]], ncols: int) -> Tuple[List[int], List[Dict[int, int]], List[Dict[int, int]]]:
    """Return (factors, U, V) with U A V = D in Smith normal form, U and V
    unimodular, for the integer matrix A given as its rows, dicts column ->
    nonzero entry, like the rows of `solve_sparse`.

    `factors` are the nonzero diagonal entries of D, each dividing the
    next; the rest of D is zero.  U comes as its rows and V as its
    columns, both dicts index -> nonzero entry, in the order of D's
    diagonal, so the columns of V past the factors span the kernel of A.
    The caller's dicts are left as they are.

    A is kept as sparse rows with a column index.  The pivot's column is
    cleared by row operations, then its row by column operations, which
    touch only the pivot row of A once the column is clear.  A nonzero
    remainder is a Euclid step: the loop picks a new, smaller pivot.  The
    non-unit pivots are then made a divisibility chain pairwise by the
    Bezout transform diag(a, b) -> diag(g, ab/g); the pivots are put in
    place, units first, and made positive through U.
    """
    nrows = len(rows)
    rows = [dict(row) for row in rows]
    holders: List[Set[int]] = [set() for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j in row:
            holders[j].add(i)
    u = [{i: 1} for i in range(nrows)]
    v = [{j: 1} for j in range(ncols)]
    active = {i for i, row in enumerate(rows) if row}
    pivots: List[Tuple[int, int]] = []
    heap: List[Tuple[int, int, int, int]] = []
    dirty_rows, dirty_cols = active, ()
    while active:
        # a step changes the keys of the entries in the rows and the
        # columns it touches, and of no other entry; each gets one new key
        for i in dirty_rows:
            if i in active:
                for j in rows[i]:
                    heappush(heap, _pivot_key(rows, holders, i, j))
        for j in dirty_cols:
            for i in holders[j]:
                if i in active and i not in dirty_rows:
                    heappush(heap, _pivot_key(rows, holders, i, j))
        p, c = _next_pivot(heap, rows, holders, active)
        prow = rows[p]
        dirty_rows, dirty_cols = set(holders[c]), list(prow)
        x = prow[c]
        for i in list(holders[c]):
            if i != p:
                q = rows[i][c] // x
                _add_multiple(rows[i], prow, -q, holders, i)
                _add_multiple(u[i], u[p], -q)
        # only the rows this step's row operations emptied leave `active`
        active.difference_update([i for i in dirty_rows if not rows[i]])
        if len(holders[c]) > 1:
            continue
        for j in [j for j in prow if j != c]:
            q = prow[j] // x
            if prow[j] == q * x:
                del prow[j]
                holders[j].discard(p)
            else:
                prow[j] -= q * x
            _add_multiple(v[j], v[c], -q)
        if len(prow) > 1:
            continue
        pivots.append((p, c))
        active.discard(p)
    diag = [rows[p][c] for p, c in pivots]
    units = [k for k, x in enumerate(diag) if abs(x) == 1]
    chain = [k for k, x in enumerate(diag) if abs(x) != 1]
    for t, k in enumerate(chain):
        for k2 in chain[t + 1:]:
            (p1, c1), (p2, c2), x, y = pivots[k], pivots[k2], diag[k], diag[k2]
            if y % x:
                g, s1, t1 = _bezout(x, y)
                # [[s1, t1], [-y/g, x/g]] diag(x, y) [[1, -t1 y/g], [1, s1 x/g]] = diag(g, xy/g)
                u[p1], u[p2] = _combination(u[p1], s1, u[p2], t1), _combination(u[p1], -y // g, u[p2], x // g)
                v[c1], v[c2] = _combination(v[c1], 1, v[c2], 1), _combination(v[c1], -t1 * y // g, v[c2], s1 * x // g)
                diag[k], diag[k2] = g, x * y // g
    for (p, _), x in zip(pivots, diag):
        if x < 0:
            u[p] = {j: -y for j, y in u[p].items()}
    order = units + chain
    row_order = [pivots[k][0] for k in order]
    col_order = [pivots[k][1] for k in order]
    row_order += sorted(set(range(nrows)) - set(row_order))
    col_order += sorted(set(range(ncols)) - set(col_order))
    return [abs(diag[k]) for k in order], [u[i] for i in row_order], [v[c] for c in col_order]

