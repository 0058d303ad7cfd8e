"""Symplectic structure tests, hamiltonian fields, Poisson brackets, Darboux.

A mixed 2-form is symplectic when it is closed and homogeneously
non-degenerate: the even and odd parts may each be degenerate as long as
their kernels only meet in zero.  Membership in the C-valued Poisson algebra
is decided by exact linear algebra on a polynomial ansatz; for forms with
constant coefficients the monomial blocks of the system decouple, so both
membership and non-membership are decided definitively.

A constant 2-form is its contraction matrix W[i][j] = i_(d/dz_i) i_(d/dz_j)
omega, and the two convert through one table (`_weight`) without any
contraction: the word dz_i^dz_j * g with i < j is W[i][j] = -(-1)^(|i||j|) g
and W[j][i] = g, and dz_i^dz_i * g is W[i][i] = 2g.  The sign is
`grassmann.skew_sign`; `linalg.skew_violation` checks the pattern.

Each `SymplecticData` owns the solver's state: its caches live and die
with it.  A column is a sparse dict keyed by `RowKey`, read off one
contraction per coordinate (`_column`), so the coefficient system of a
solve is gathered row by row from the cached columns and `_ckform_rows(df)`
and handed to `linalg.solve_sparse` as it is: no dense matrix is built and
no row key is sorted.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from . import linalg
from .charts import CFunction, Chart, ExpKey, ReadOnly, SuperFunction, VectorField
from .forms import CKForm, DegreeError, KForm, Word, contract, double, ext_d, word_parity
from .grassmann import GrassmannNumber, Index, skew_sign
from .scalars import ONE, ZERO, GaussianRational


class NotSymplectic(ValueError):
    pass


class PoissonMembershipError(ValueError):
    """Raised when an operation needs f in the Poisson algebra and it is not."""


class MembershipUndecided(PoissonMembershipError):
    """Raised instead when no field was found but nothing proves that f is not a member."""


# ----------------------------------------------------------------------
# contraction matrices
# ----------------------------------------------------------------------


def _weight(parities: Sequence[int], i: int, j: int) -> int:
    """W[i][j] = weight * g for the normal-ordered word dz_i^dz_j * g."""
    return 2 if i == j else skew_sign(parities[i], parities[j])


def contraction_matrix(omega: KForm, point: Optional[Mapping[str, object]] = None):
    """W[i][j] = i_(d/dz_i) i_(d/dz_j) omega at a real point, read off the
    words of omega; with point=None the form must have constant coefficients."""
    if omega.degree != 2:
        raise DegreeError("a contraction matrix needs a 2-form")
    chart = omega.chart
    n = len(chart.coords)
    parities = [chart.parity(name) for name in chart.coords]
    rows = [[ZERO] * n for _ in range(n)]
    for (i, j), g in sorted(omega.terms.items()):
        value = g.constant_value() if point is None else g.evaluate(point)
        if not value.soul().is_zero():
            raise ValueError("contraction matrix has nilpotent entries")
        rows[i][j] = _weight(parities, i, j) * value.body()
        if i < j:
            rows[j][i] = value.body()
    return rows


def form_from_contraction_matrix(chart: Chart, w) -> KForm:
    """Constant-coefficient 2-form with the given contraction matrix."""
    n = len(chart.coords)
    parities = [chart.parity(name) for name in chart.coords]
    w = [[GaussianRational.coerce(w[i][j]) for j in range(n)] for i in range(n)]
    if any(w[i][i] for i in range(len(chart.even))):
        raise ValueError("nonzero diagonal entry on an even coordinate")
    if linalg.skew_violation(w, parities) is not None:
        raise ValueError("matrix does not have the graded skew-symmetric pattern")
    terms = {(i, j): chart.constant(w[i][j] / _weight(parities, i, j))
             for i in range(n) for j in range(i, n) if w[i][j]}
    return KForm(chart, 2, terms)


# ----------------------------------------------------------------------
# symplectic reports
# ----------------------------------------------------------------------


class PointEvaluation:
    def __init__(self, point: Dict[str, Fraction], nondegenerate: bool, homogeneously_nondegenerate: bool):
        self.point = point
        self.nondegenerate = nondegenerate
        self.homogeneously_nondegenerate = homogeneously_nondegenerate


def _validate_real_point(chart: Chart, point: Mapping[str, object]) -> Dict[str, Fraction]:
    clean: Dict[str, Fraction] = {}
    for name in chart.even:
        v = point.get(name, 0)
        if isinstance(v, GrassmannNumber) or isinstance(v, GaussianRational) and not v.is_rational():
            raise ValueError(f"base point must be real: coordinate {name}")
        clean[name] = Fraction(v if not isinstance(v, GaussianRational) else v.re)
    for name, v in point.items():
        if name in chart.odd and Fraction(v) != 0:
            raise ValueError(f"base point must be real: odd coordinate {name} nonzero")
        if name not in chart.coords:
            raise KeyError(f"unknown coordinate {name}")
    return clean


def evaluate_at_point(omega: KForm, point: Mapping[str, object]) -> PointEvaluation:
    chart = omega.chart
    clean = _validate_real_point(chart, point)
    n = len(chart.coords)
    m0 = contraction_matrix(omega.parity_part(0), clean)
    m1 = contraction_matrix(omega.parity_part(1), clean)
    stacked = [m0[i] + m1[i] for i in range(n)]
    total = [[m0[i][j] + m1[i][j] for j in range(n)] for i in range(n)]
    return PointEvaluation(
        point=clean,
        nondegenerate=linalg.rank(total) == n,
        homogeneously_nondegenerate=linalg.rank(stacked) == n,
    )


def is_symplectic(omega: KForm, points: Sequence[Mapping[str, object]] = ()) -> dict:
    """Report closedness and (homogeneous) non-degeneracy at base points."""
    if omega.degree != 2:
        raise NotSymplectic("symplectic test expects a 2-form")
    closed = ext_d(omega).is_zero()
    evals = [evaluate_at_point(omega, pt) for pt in points]
    return {
        "closed": closed,
        "points": evals,
        "nondegenerate": all(e.nondegenerate for e in evals),
        "homogeneously_nondegenerate": all(e.homogeneously_nondegenerate for e in evals),
        "symplectic": closed and all(e.homogeneously_nondegenerate for e in evals),
    }


class SymplecticData:
    """A closed 2-form together with its C-valued doubling.

    `hamiltonian_field` fills three caches on the instance, each entry on
    first use, so construction builds none of them:
    - `contraction(z)`, the terms of i_(d/dz) of the doubled form, one
      `contract` per coordinate z;
    - the contraction column of each ansatz basis field, keyed by
      (coordinate, monomial, Grassmann index set) and held as a sparse
      dict RowKey -> nonzero entry, read off `contraction(z)` by
      `_column` and shared by every later system;
    - the result for each function it has solved.
    """

    def __init__(self, omega: KForm, points: Sequence[Mapping[str, object]] = ()):
        if omega.degree != 2:
            raise NotSymplectic("need a 2-form")
        if not ext_d(omega).is_zero():
            raise NotSymplectic("form is not closed")
        self.omega = omega
        self.doubled: CKForm = double(omega)
        for pt in points:
            rep = evaluate_at_point(omega, pt)
            if not rep.homogeneously_nondegenerate:
                raise NotSymplectic(f"homogeneously degenerate at {rep.point}")
        self._constant = all(g.is_constant() and g.constant_value().is_scalar() for g in omega.terms.values())
        self._contractions: Dict[str, List[Tuple[int, Word, int, SuperFunction]]] = {}
        self._columns: Dict[Tuple[str, ExpKey, Index], Dict[RowKey, GaussianRational]] = {}
        self._fields: Dict[object, HamiltonianResult] = {}

    @property
    def chart(self) -> Chart:
        return self.omega.chart

    def contraction(self, name: str) -> List[Tuple[int, Word, int, SuperFunction]]:
        """The terms (alpha, u, |u|, g) of i_(d/dz) doubled-omega for the
        coordinate z = name: the word u times g in part alpha."""
        table = self._contractions.get(name)
        if table is None:
            chart = self.chart
            cw = contract(VectorField(chart, {name: chart.one()}), self.doubled)
            table = self._contractions[name] = [
                (alpha, u, word_parity(chart, u), g) for alpha, part in cw.terms.items() for u, g in part.terms.items()
            ]
        return table

    def has_constant_coefficients(self) -> bool:
        return self._constant


# ----------------------------------------------------------------------
# hamiltonian vector fields
# ----------------------------------------------------------------------


class HamiltonianResult(ReadOnly):
    """Read-only, since `hamiltonian_field` hands one cached result to every caller."""

    def __init__(self, status: str, field: Optional[VectorField] = None, unique: bool = True, detail: str = ""):
        # status: "member" | "not_member" | "inconclusive"
        vars(self).update(status=status, field=field, unique=unique, detail=detail)

    def __eq__(self, other):
        return isinstance(other, HamiltonianResult) and vars(self) == vars(other)

    def __bool__(self):
        return self.status == "member"


RowKey = Tuple[int, Tuple[int, ...], tuple, Tuple[int, ...]]


def _ckform_rows(w: CKForm) -> Dict[RowKey, GaussianRational]:
    """Flatten a C-valued 1-form into scalar rows for linear algebra."""
    rows: Dict[RowKey, GaussianRational] = {}
    for alpha, part in ((0, w.part0), (1, w.part1)):
        for word, g in part.terms.items():
            for (e, odd, gidx), scal in g.terms.items():
                rows[(alpha, word, (e, odd), gidx)] = scal
    return rows


def _column(data: SymplecticData, name: str, mono: ExpKey, idx: Index) -> Dict[RowKey, GaussianRational]:
    """The rows of i_(m d/dz) doubled-omega for the monomial m = th_I x^a xi_w
    and the coordinate z = name, by left-linearity of the contraction:

        i_(m d/dz) omega = sum_u (-1)^(|m| |u|) m (i_(d/dz) omega)_u,

    m moved through the odd rest u of a word being its involution (the sign
    rule of `contract`).  Each (alpha, u) occurs once in the table, so each
    row is written once.
    """
    m = data.chart.zero()._like({mono + (idx,): ONE})
    moved = (m, m.involution())
    column: Dict[RowKey, GaussianRational] = {}
    for alpha, u, u_parity, g in data.contraction(name):
        for (e, w, gidx), c in (moved[u_parity] * g).terms.items():
            column[(alpha, u, (e, w), gidx)] = c
    return column


def _all_monomials(chart: Chart, degree: int):
    """The monomials x^a xi_w of total degree at most `degree`, by total
    degree, then odd word, then exponent vector ascending."""
    p, q = len(chart.even), len(chart.odd)
    by_total: Dict[int, List[Tuple[int, ...]]] = {}
    for exps in product(range(degree + 1), repeat=p):
        by_total.setdefault(sum(exps), []).append(exps)
    return [(exps, word) for total in range(degree + 1) for odd_len in range(min(q, total) + 1)
            for word in combinations(range(q), odd_len) for exps in by_total.get(total - odd_len, ())]


def hamiltonian_field(f: CFunction, data: SymplecticData, ansatz_degree: Optional[int] = None) -> HamiltonianResult:
    """Solve i_X (doubled omega) = df for X by equating coefficients.

    The ansatz runs over polynomial components th_I * z^a d/dz with
    Gaussian-rational coefficients, for every Grassmann index set I that
    occurs in the coefficients of df.  When omega has constant scalar
    coefficients the linear system decouples monomial by monomial and
    index set by index set, so a failure is a proof of non-membership;
    otherwise failures are only conclusive up to the degree bound, which
    defaults to one more than the total degree of f.

    Results are cached on `data`: per f when omega has constant scalar
    coefficients (the degree plays no part there), else per f and
    effective degree.  The same result object is returned on a repeat.
    A solve also fills the `contraction` table of each coordinate and the
    column of each ansatz unknown on `data`; every solved field is still
    rechecked against its defining equation by a full `contract`.
    """
    if f.chart != data.chart:
        raise ValueError("function lives on a different chart")
    if data.has_constant_coefficients():
        key = f
    else:
        if ansatz_degree is None:
            ansatz_degree = max(f.f0.total_degree(), f.f1.total_degree()) + 1
        key = (f, ansatz_degree)
    res = data._fields.get(key)
    if res is None:
        res = data._fields[key] = _solve_hamiltonian(f, data, ansatz_degree)
    return res


def _solve_hamiltonian(f: CFunction, data: SymplecticData, ansatz_degree: Optional[int]) -> HamiltonianResult:
    chart = data.chart
    df = ext_d(f)
    # rows are keyed (alpha, word, monomial, Grassmann index set)
    rhs_rows = _ckform_rows(df)
    constant = data.has_constant_coefficients()
    if constant:
        support = sorted({key[2] for key in rhs_rows})
        if not support:
            return HamiltonianResult("member", VectorField(chart, {}), True, "df = 0")
    else:
        support = _all_monomials(chart, ansatz_degree)
    indices = sorted({key[3] for key in rhs_rows}, key=lambda idx: (len(idx), idx)) or [()]

    unknowns = []
    columns = []
    for name in chart.coords:
        for mono in support:
            for idx in indices:
                unknown = (name, mono, idx)
                column = data._columns.get(unknown)
                if column is None:
                    column = data._columns[unknown] = _column(data, name, mono, idx)
                unknowns.append(unknown)
                columns.append(column)

    # the rows of [A | b], gathered from its sparse columns with b last
    rows: Dict[RowKey, linalg.SparseRow] = {}
    for j, column in enumerate(columns + [rhs_rows]):
        for key, value in column.items():
            row = rows.get(key)
            if row is None:
                rows[key] = {j: value}
            else:
                row[j] = value
    ncols = len(columns)
    solution, rank = linalg.solve_sparse(list(rows.values()), ncols)
    if solution is None:
        if constant:
            return HamiltonianResult("not_member", None, True, "coefficient system inconsistent (degree-independent)")
        return HamiltonianResult("inconclusive", None, True, f"no solution up to degree {ansatz_degree}")

    comps: Dict[str, Dict] = {}
    for (name, mono, idx), value in zip(unknowns, solution):
        if value:
            comps.setdefault(name, {})[mono + (idx,)] = value
    x = VectorField(chart, {name: chart.zero()._like(terms) for name, terms in comps.items()})
    # the defining equation is rechecked exactly
    if contract(x, data.doubled) != df:
        raise AssertionError("internal error: solved field fails its defining equation")
    return HamiltonianResult("member", x, rank == ncols, "")


def require_hamiltonian_field(f: CFunction, data: SymplecticData, ansatz_degree: Optional[int] = None) -> VectorField:
    res = hamiltonian_field(f, data, ansatz_degree)
    if not res:
        raise (MembershipUndecided if res.status == "inconclusive" else PoissonMembershipError)(res.detail or res.status)
    return res.field


def poisson_bracket(f: CFunction, g: CFunction, data: SymplecticData, ansatz_degree: Optional[int] = None) -> CFunction:
    """{f, g} = i_(X_f) i_(X_g) doubled-omega = X_f g."""
    xf = require_hamiltonian_field(f, data, ansatz_degree)
    # membership of g is part of the contract
    require_hamiltonian_field(g, data, ansatz_degree)
    return xf.apply(g)


def poisson_bracket_by_contraction(f: CFunction, g: CFunction, data: SymplecticData) -> CFunction:
    """Independent route: the double contraction i_(X_f) i_(X_g) of doubled omega."""
    xf = require_hamiltonian_field(f, data)
    xg = require_hamiltonian_field(g, data)
    return contract(xf, contract(xg, data.doubled)).as_cfunction()


# ----------------------------------------------------------------------
# pointwise Darboux normal form
# ----------------------------------------------------------------------


class DarbouxResult:
    def __init__(self, kind: str, parities: Tuple[int, ...], basis_change: list, canonical_matrix: list,
                 k: int = 0, ell: int = 0, odd_coefficients: Tuple[Fraction, ...] = (), exact: bool = True):
        self.kind = kind  # "even" | "odd"
        self.parities = parities
        self.basis_change = basis_change  # rows: new frame vectors in the old frame
        self.canonical_matrix = canonical_matrix  # contraction matrix in the new frame
        self.k, self.ell, self.odd_coefficients, self.exact = k, ell, odd_coefficients, exact

    def canonical_chart(self) -> Chart:
        p = sum(1 for e in self.parities if e == 0)
        q = len(self.parities) - p
        if self.kind == "even":
            even = tuple(f"x{i+1}" for i in range(self.k)) + tuple(f"y{i+1}" for i in range(self.k))
        else:
            even = tuple(f"x{i+1}" for i in range(p))
        odd = tuple(f"xi{i+1}" for i in range(q))
        return Chart("darboux", even, odd)

    def canonical_form(self) -> KForm:
        chart = self.canonical_chart()
        return form_from_contraction_matrix(chart, _reorder_even_first(self.canonical_matrix, self.parities))


def _reorder_even_first(w, parities):
    order = [i for i, e in enumerate(parities) if e == 0] + [i for i, e in enumerate(parities) if e == 1]
    return [[w[a][b] for b in order] for a in order]


def _bilinear(blk):
    """The form (u, v) -> u . blk . v of a square block."""
    return lambda u, v: linalg.matmul([u], linalg.matmul(blk, [[x] for x in v]))[0][0]


def _is_square_fraction(x: Fraction) -> Optional[Fraction]:
    from math import isqrt

    if x <= 0:
        return None
    num, den = x.numerator, x.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def darboux_normal_form(matrix, parities: Sequence[int], homogeneity: int) -> DarbouxResult:
    """Pointwise normal form of a constant homogeneous 2-form.

    `matrix` is the contraction matrix W[i][j] = i_(d_i) i_(d_j) omega at a
    real point; `homogeneity` is the parity of the form.  The even case
    yields sum dx^i ^ dy_i plus a diagonal odd block with signature ell;
    diagonal entries are reduced by rational squares, so they land on +-1
    exactly whenever that is possible in exact arithmetic.  The odd case
    yields sum dx^i ^ dxi^i exactly.
    """
    n = len(parities)
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise ValueError(f"matrix must be {n} x {n}, one row and column per parity")
    w = [[GaussianRational.coerce(matrix[i][j]) for j in range(n)] for i in range(n)]
    if linalg.skew_violation(w, parities) is not None:
        raise ValueError("matrix is not graded skew-symmetric")
    if linalg.parity_violation(w, parities, homogeneity) is not None:
        raise ValueError("matrix entry violates the declared homogeneity")
    evens = [i for i, e in enumerate(parities) if e == 0]
    odds = [i for i, e in enumerate(parities) if e == 1]
    p, q = len(evens), len(odds)

    if homogeneity % 2 == 0:
        if p % 2:
            raise NotSymplectic("even case needs an even number of even coordinates")
        a_blk = [[w[i][j] for j in evens] for i in evens]
        s_blk = [[w[i][j] for j in odds] for i in odds]
        if p and linalg.rank(a_blk) != p:
            raise NotSymplectic("even-even block is degenerate")
        if q and linalg.rank(s_blk) != q:
            raise NotSymplectic("odd-odd block is degenerate")

        # symplectic Gram-Schmidt on the skew block
        apply_a = _bilinear(a_blk)
        pool = [[GaussianRational(1 if i == j else 0) for j in range(p)] for i in range(p)]
        us, vs = [], []
        while pool:
            u = pool.pop(0)
            partner = None
            for idx, v in enumerate(pool):
                if not apply_a(u, v).is_zero():
                    partner = idx
                    break
            if partner is None:
                raise NotSymplectic("skew block degenerated during reduction")
            v = pool.pop(partner)
            v = [x * (-(apply_a(u, v).inverse())) for x in v]  # A(u, v) = -1
            rest = []
            for wvec in pool:
                coef_u = apply_a(u, wvec)
                coef_v = apply_a(v, wvec)
                # subtract components so that A(u, w) = A(v, w) = 0
                wvec = [x + cu * y for x, cu, y in zip(wvec, [coef_u] * p, v)]
                wvec = [x - cv * y for x, cv, y in zip(wvec, [coef_v] * p, u)]
                rest.append(wvec)
            pool = rest
            us.append(u)
            vs.append(v)
        even_rows = us + vs

        # congruence diagonalization of the symmetric block
        apply_s = _bilinear(s_blk)
        pool = [[GaussianRational(1 if i == j else 0) for j in range(q)] for i in range(q)]
        diag_rows: List[Tuple[Fraction, list]] = []
        while pool:
            pivot = None
            for idx, u in enumerate(pool):
                if not apply_s(u, u).is_zero():
                    pivot = idx
                    break
            if pivot is None:
                u0, found = pool[0], None
                for idx in range(1, len(pool)):
                    if not apply_s(u0, pool[idx]).is_zero():
                        found = idx
                        break
                if found is None:
                    raise NotSymplectic("symmetric block degenerated during reduction")
                pool[0] = [a + b for a, b in zip(u0, pool[found])]
                continue
            u = pool.pop(pivot)
            d = apply_s(u, u)
            rest = []
            for wvec in pool:
                c = apply_s(u, wvec) / d
                rest.append([x - c * y for x, y in zip(wvec, u)])
            pool = rest
            # reduce by rational squares: the form coefficient is d/2
            coeff = Fraction(d.re) / 2
            root = _is_square_fraction(abs(coeff))
            if root is not None and root != 1:
                u = [x * GaussianRational(1 / root) for x in u]
                d = apply_s(u, u)
                coeff = Fraction(d.re) / 2
            diag_rows.append((coeff, u))
        diag_rows.sort(key=lambda t: (0 if t[0] > 0 else 1))
        ell = sum(1 for c, _ in diag_rows if c > 0)
        odd_rows = [u for _, u in diag_rows]
        odd_coeffs = tuple(c for c, _ in diag_rows)
        exact = all(abs(c) == 1 for c in odd_coeffs)
        extra = dict(kind="even", k=p // 2, ell=ell, odd_coefficients=odd_coeffs, exact=exact)
    else:
        if p != q:
            raise NotSymplectic("odd case needs equal numbers of even and odd coordinates")
        try:
            binv = linalg.inverse([[w[i][j] for j in odds] for i in evens])
        except ValueError:
            raise NotSymplectic("even-odd pairing is singular") from None
        even_rows = [[-x for x in row] for row in binv]
        odd_rows = [[GaussianRational(1 if i == j else 0) for j in range(q)] for i in range(q)]
        extra = dict(kind="odd", k=p)

    # frame rows in the even-first order of the coordinates
    zero = GaussianRational(0)
    frame = [row + [zero] * q for row in even_rows] + [[zero] * p + row for row in odd_rows]
    canon = linalg.matmul(linalg.matmul(frame, _reorder_even_first(w, parities)), linalg.transpose(frame))
    return DarbouxResult(parities=tuple([0] * p + [1] * q), basis_change=frame, canonical_matrix=canon, **extra)
