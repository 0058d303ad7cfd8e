"""Symplectic structure tests, hamiltonian fields, Poisson brackets, Darboux.

A mixed 2-form is symplectic when it is closed and homogeneously
non-degenerate: the even and odd parts may each be degenerate as long as
their kernels only meet in zero.  Membership in the C-valued Poisson algebra
is decided by exact linear algebra on a polynomial ansatz; for forms with
constant coefficients the monomial blocks of the system decouple, so both
membership and non-membership are decided definitively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from . import linalg
from .charts import CFunction, Chart, SuperFunction, VectorField
from .forms import CKForm, KForm, contract, double, ext_d
from .grassmann import GrassmannNumber
from .scalars import ZERO, GaussianRational


class NotSymplectic(ValueError):
    pass


class PoissonMembershipError(ValueError):
    """Raised when an operation needs f in the Poisson algebra and it is not."""


# ----------------------------------------------------------------------
# contraction matrices
# ----------------------------------------------------------------------


def contraction_matrix(omega: KForm, point: Optional[Mapping[str, object]] = None):
    """W[i][j] = i_(d/dz_i) i_(d/dz_j) omega, evaluated at a real point.

    With point=None the form must have constant coefficients.
    """
    chart = omega.chart
    n = len(chart.coords)
    basis = [chart.vector_field({name: 1}) for name in chart.coords]
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            f = contract(basis[i], basis[j], omega).as_function()
            if point is None:
                value = f.constant_value()
            else:
                value = f.evaluate(point)
            if not value.soul().is_zero():
                raise ValueError("contraction matrix has nilpotent entries")
            row.append(value.body())
        rows.append(row)
    return rows


def form_from_contraction_matrix(chart: Chart, w) -> KForm:
    """Constant-coefficient 2-form with the given contraction matrix."""
    n = len(chart.coords)
    p = len(chart.even)
    from .forms import wedge

    out = KForm.zero(chart, 2)
    for i in range(n):
        for j in range(i, n):
            v = GaussianRational.coerce(w[i][j])
            if v.is_zero():
                continue
            term = wedge(KForm.differential(chart, chart.coords[i]), KForm.differential(chart, chart.coords[j]))
            if i == j:
                if i < p:
                    raise ValueError("nonzero diagonal entry on an even coordinate")
                out = out + term.scale(v / 2)
            elif i >= p and j >= p:
                out = out + term.scale(v)
            else:
                out = out + term.scale(-v)
    # consistency of the graded-skew pattern
    check = contraction_matrix(out)
    for i in range(n):
        for j in range(n):
            if check[i][j] != GaussianRational.coerce(w[i][j]):
                raise ValueError("matrix does not have the graded skew-symmetric pattern")
    return out


# ----------------------------------------------------------------------
# symplectic reports
# ----------------------------------------------------------------------


@dataclass
class PointEvaluation:
    point: Dict[str, Fraction]
    m0: list
    m1: list
    nondegenerate: bool
    homogeneously_nondegenerate: bool


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
        m0=m0,
        m1=m1,
        nondegenerate=linalg.rank(total) == n,
        homogeneously_nondegenerate=linalg.rank(stacked) == n,
    )


def is_symplectic(omega: KForm, points: Sequence[Mapping[str, object]] = ()) -> dict:
    """Report closedness and (homogeneous) non-degeneracy at base points."""
    if omega.degree != 2:
        raise ValueError("symplectic test expects a 2-form")
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
    """A closed 2-form together with its C-valued doubling."""

    def __init__(self, omega: KForm, points: Sequence[Mapping[str, object]] = ()):
        if omega.degree != 2:
            raise NotSymplectic("need a 2-form")
        if not ext_d(omega).is_zero():
            raise NotSymplectic("form is not closed")
        self.omega = omega
        self.doubled: CKForm = double(omega)
        self.point_reports = [evaluate_at_point(omega, pt) for pt in points]
        for rep in self.point_reports:
            if not rep.homogeneously_nondegenerate:
                raise NotSymplectic(f"homogeneously degenerate at {rep.point}")

    @property
    def chart(self) -> Chart:
        return self.omega.chart

    def has_constant_coefficients(self) -> bool:
        for g in self.omega.terms.values():
            if not g.is_constant():
                return False
            if not g.constant_value().is_scalar():
                return False
        return True


# ----------------------------------------------------------------------
# hamiltonian vector fields
# ----------------------------------------------------------------------


@dataclass
class HamiltonianResult:
    status: str  # "member" | "not_member" | "inconclusive"
    field: Optional[VectorField] = None
    unique: bool = True
    detail: str = ""

    def __bool__(self):
        return self.status == "member"


RowKey = Tuple[int, Tuple[int, ...], tuple, Tuple[int, ...]]


def _ckform_rows(w: CKForm) -> Dict[RowKey, GaussianRational]:
    """Flatten a C-valued 1-form into scalar rows for linear algebra."""
    rows: Dict[RowKey, GaussianRational] = {}
    for alpha, part in ((0, w.part0), (1, w.part1)):
        for word, g in part.terms.items():
            for (e, odd), coeff in g.terms.items():
                for gidx, scal in coeff.terms.items():
                    rows[(alpha, word, (e, odd), gidx)] = scal
    return rows


def _monomials_of(w: CKForm):
    monos = set()
    for part in (w.part0, w.part1):
        for g in part.terms.values():
            monos.update(g.terms.keys())
    return monos


def _all_monomials(chart: Chart, degree: int):
    from itertools import combinations

    p, q = len(chart.even), len(chart.odd)
    out = []
    for total in range(degree + 1):
        for odd_len in range(min(q, total) + 1):
            for word in combinations(range(q), odd_len):
                rest = total - odd_len
                for exps in _compositions(rest, p):
                    out.append((tuple(exps), word))
    return out


def _compositions(total: int, slots: int):
    if slots == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, slots - 1):
            yield (first,) + rest


def _grassmann_indices(w: CKForm):
    """The Grassmann index sets that occur in the coefficients of w."""
    indices = set()
    for part in (w.part0, w.part1):
        for g in part.terms.values():
            for coeff in g.terms.values():
                indices.update(coeff.terms)
    return sorted(indices, key=lambda idx: (len(idx), idx))


def hamiltonian_field(f: CFunction, data: SymplecticData, ansatz_degree: Optional[int] = None) -> HamiltonianResult:
    """Solve i_X (doubled omega) = df for X by equating coefficients.

    The ansatz runs over polynomial components th_I * z^a d/dz with
    Gaussian-rational coefficients, for every Grassmann index set I that
    occurs in the coefficients of df.  When omega has constant scalar
    coefficients the linear system decouples monomial by monomial and
    index set by index set, so a failure is a proof of non-membership;
    otherwise failures are only conclusive up to the degree bound.
    """
    chart = data.chart
    if f.chart != chart:
        raise ValueError("function lives on a different chart")
    df = ext_d(f)
    constant = data.has_constant_coefficients()
    if constant:
        support = sorted(_monomials_of(df))
        if not support:
            return HamiltonianResult("member", VectorField(chart, {}), True, "df = 0")
    else:
        if ansatz_degree is None:
            ansatz_degree = max(f.f0.total_degree(), f.f1.total_degree()) + 1
        support = _all_monomials(chart, ansatz_degree)
    indices = _grassmann_indices(df) or [()]

    unknowns = []
    columns = []
    for name in chart.coords:
        for mono in support:
            for idx in indices:
                coeff = GrassmannNumber(chart.generators, {idx: 1})
                basis_field = VectorField(chart, {name: SuperFunction(chart, {mono: coeff})})
                unknowns.append((name, mono, idx))
                columns.append(_ckform_rows(contract(basis_field, data.doubled)))

    rhs_rows = _ckform_rows(df)
    row_keys = sorted(set(rhs_rows) | {k for col in columns for k in col})
    a = [[col.get(key, ZERO) for col in columns] for key in row_keys]
    b = [rhs_rows.get(key, ZERO) for key in row_keys]

    solution, rank = linalg.solve(a, b)
    if solution is None:
        if constant:
            return HamiltonianResult("not_member", None, True, "coefficient system inconsistent (degree-independent)")
        return HamiltonianResult("inconclusive", None, True, f"no solution up to degree {ansatz_degree}")

    comps: Dict[str, SuperFunction] = {}
    for (name, mono, idx), value in zip(unknowns, solution):
        if value.is_zero():
            continue
        add = SuperFunction(chart, {mono: GrassmannNumber(chart.generators, {idx: value})})
        comps[name] = comps.get(name, chart.zero()) + add
    x = VectorField(chart, {k: v for k, v in comps.items() if not v.is_zero()})
    # the defining equation is rechecked exactly
    if contract(x, data.doubled) != df:
        raise AssertionError("internal error: solved field fails its defining equation")
    return HamiltonianResult("member", x, rank == len(columns), "")


def require_hamiltonian_field(f: CFunction, data: SymplecticData, ansatz_degree: Optional[int] = None) -> VectorField:
    res = hamiltonian_field(f, data, ansatz_degree)
    if not res:
        raise PoissonMembershipError(res.detail or res.status)
    return res.field


def poisson_bracket(f: CFunction, g: CFunction, data: SymplecticData, ansatz_degree: Optional[int] = None) -> CFunction:
    """{f, g} = i_(X_f) i_(X_g) doubled-omega = X_f g."""
    xf = require_hamiltonian_field(f, data, ansatz_degree)
    # membership of g is part of the contract
    require_hamiltonian_field(g, data, ansatz_degree)
    return xf.apply(g)


def poisson_bracket_by_contraction(f: CFunction, g: CFunction, data: SymplecticData, ansatz_degree: Optional[int] = None) -> CFunction:
    """Independent route: the double contraction i_(X_f) i_(X_g) of doubled omega."""
    xf = require_hamiltonian_field(f, data, ansatz_degree)
    xg = require_hamiltonian_field(g, data, ansatz_degree)
    return contract(xf, contract(xg, data.doubled)).as_cfunction()


# ----------------------------------------------------------------------
# pointwise Darboux normal form
# ----------------------------------------------------------------------


@dataclass
class DarbouxResult:
    kind: str  # "even" | "odd"
    parities: Tuple[int, ...]
    basis_change: list  # rows: new frame vectors in the old frame
    canonical_matrix: list  # contraction matrix in the new frame
    k: int = 0
    ell: int = 0
    odd_coefficients: Tuple[Fraction, ...] = ()
    exact: bool = True

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
    for i in range(n):
        for j in range(n):
            sign = -1 if (parities[i] * parities[j]) % 2 == 0 else 1
            if w[i][j] != (w[j][i] if sign > 0 else -w[j][i]):
                raise ValueError("matrix is not graded skew-symmetric")
            if (parities[i] + parities[j]) % 2 != homogeneity % 2 and not w[i][j].is_zero():
                raise ValueError("matrix entry violates the declared homogeneity")
    evens = [i for i, e in enumerate(parities) if e == 0]
    odds = [i for i, e in enumerate(parities) if e == 1]
    p, q = len(evens), len(odds)

    identity = [[GaussianRational(1 if a == b else 0) for b in range(n)] for a in range(n)]

    if homogeneity % 2 == 0:
        if p % 2:
            raise NotSymplectic("even case needs an even number of even coordinates")
        a_blk = [[w[i][j] for j in evens] for i in evens]
        s_blk = [[w[i][j] for j in odds] for i in odds]
        if p and linalg.rank(a_blk) != p:
            raise NotSymplectic("even-even block is degenerate")
        if q and linalg.rank(s_blk) != q:
            raise NotSymplectic("odd-odd block is degenerate")
        k = p // 2

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

        basis = []
        for row in even_rows:
            vec = [GaussianRational(0)] * n
            for col, val in zip(evens, row):
                vec[col] = val
            basis.append(vec)
        for row in odd_rows:
            vec = [GaussianRational(0)] * n
            for col, val in zip(odds, row):
                vec[col] = val
            basis.append(vec)
        new_parities = tuple([0] * p + [1] * q)
        perm = evens + odds

        w_perm = [[w[i][j] for j in perm] for i in perm]
        p_rows = [[basis[a][perm[b]] for b in range(n)] for a in range(n)]
        canon = linalg.matmul(linalg.matmul(p_rows, w_perm), linalg.transpose(p_rows))
        exact = all(abs(c) == 1 for c in odd_coeffs)
        return DarbouxResult(
            kind="even",
            parities=new_parities,
            basis_change=p_rows,
            canonical_matrix=canon,
            k=k,
            ell=ell,
            odd_coefficients=odd_coeffs,
            exact=exact,
        )

    # odd case
    if p != q:
        raise NotSymplectic("odd case needs equal numbers of even and odd coordinates")
    b_blk = [[w[i][j] for j in odds] for i in evens]
    try:
        binv = linalg.inverse(b_blk)
    except ValueError:
        raise NotSymplectic("even-odd pairing is singular") from None
    p_rows = []
    for a in range(p):
        vec = [GaussianRational(0)] * n
        for bcol in range(p):
            vec[evens[bcol]] = -binv[a][bcol]
        p_rows.append(vec)
    for j in odds:
        vec = [GaussianRational(0)] * n
        vec[j] = GaussianRational(1)
        p_rows.append(vec)
    perm = evens + odds
    w_perm = [[w[i][j] for j in perm] for i in perm]
    p_mat = [[p_rows[a][perm[b]] for b in range(n)] for a in range(n)]
    canon = linalg.matmul(linalg.matmul(p_mat, w_perm), linalg.transpose(p_mat))
    return DarbouxResult(
        kind="odd",
        parities=tuple([0] * p + [1] * q),
        basis_change=p_mat,
        canonical_matrix=canon,
        k=p,
        ell=0,
        odd_coefficients=(),
        exact=True,
    )
