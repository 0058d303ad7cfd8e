"""Super Lie algebras by structure constants and their cohomology with
values in the trivial 1|1-dimensional module C.

Chains are even left multilinear graded skew-symmetric maps; a k-chain is
stored by its values on non-decreasing basis tuples (repetitions allowed on
odd indices only).  Evenness puts the value on a tuple of parity alpha in
c_alpha, so each tuple stores one rational, its c_alpha component.  The
coboundary uses the repeated-contraction convention:

    (dc)(v0..vk) = (-1)^k sum_{i<j} (-1)^(j + sum_{i<p<j} eps_p eps_j)
                                   c(v0 .. v_{i-1} [v_i,v_j] v_{i+1} .. ^v_j .. vk)

whose degree-2 instance is exactly the graded Jacobi obstruction of the
central extension built from a 2-cochain.  Its sign is the Koszul rule,
koszul(0, v_i .. v_k) * koszul(eps_j, v_(i+1) .. v_(j-1)) with
`grassmann.koszul` over the parities of the letters.  One sweep over the
canonical (k+1)-tuples writes d as sparse rows over the canonical
k-tuples; a bracket preserves parity, so a row and its entries share one
C-component, and the same rows serve `ce_coboundary` and, indexed by
the place of each tuple among the canonical ones, the sparse eliminations
of `h2` and `extension_equivalent`; no dense matrix is built.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement, product
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from . import linalg
from .grassmann import Linear, accumulate, graded_sort, koszul, skew_sign
from .scalars import GaussianRational

Key = Tuple[int, ...]


class SuperLieAlgebra:
    """Finite-dimensional super Lie algebra given by structure constants.

    brackets[(i, j)] maps basis index k to the coefficient of e_k in
    [e_i, e_j]; entries for (j, i) are filled in by graded skew-symmetry.
    """

    def __init__(self, parities: Sequence[int], brackets: Mapping[Tuple[int, int], Mapping[int, Fraction]]):
        self.parities = tuple(int(p) % 2 for p in parities)
        n = len(self.parities)
        table: Dict[Tuple[int, int], Dict[int, Fraction]] = {}
        for (i, j), vec in brackets.items():
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"basis index out of range in bracket ({i},{j})")
            clean = {k: Fraction(v) for k, v in vec.items() if Fraction(v) != 0}
            for k in clean:
                if (self.parities[i] + self.parities[j]) % 2 != self.parities[k]:
                    raise ValueError(f"parity mismatch in [e{i},e{j}] -> e{k}")
            if clean:
                table[(i, j)] = clean
        # graded skew closure: [e_j, e_i] = -(-1)^(eps_i eps_j) [e_i, e_j]
        full: Dict[Tuple[int, int], Dict[int, Fraction]] = {}
        for (i, j), vec in table.items():
            sign = skew_sign(self.parities[i], self.parities[j])
            mirror = {k: sign * v for k, v in vec.items()}
            if (j, i) in table:
                if table[(j, i)] != mirror:
                    raise ValueError(f"brackets ({i},{j}) and ({j},{i}) are not graded skew")
            full[(i, j)] = dict(vec)
            full[(j, i)] = mirror
        self.brackets = full
        self._rows: Dict[int, Dict[Key, Dict[Key, Fraction]]] = {}  # _coboundary_rows by degree

    @property
    def dimension(self) -> int:
        return len(self.parities)

    def bracket_basis(self, i: int, j: int) -> Dict[int, Fraction]:
        return self.brackets.get((i, j), {})

    def bracket(self, u: Mapping[int, Fraction], v: Mapping[int, Fraction]) -> Dict[int, Fraction]:
        out: Dict[int, Fraction] = {}
        for i, a in u.items():
            for j, b in v.items():
                for k, c in self.bracket_basis(i, j).items():
                    accumulate(out, k, a * b * c)
        return out


def jacobi_check(g: SuperLieAlgebra) -> Tuple[bool, Optional[Tuple[int, int, int]]]:
    """Graded Jacobi identity; returns (ok, first violating triple)."""
    n = g.dimension
    eps = g.parities
    for i in range(n):
        for j in range(n):
            for k in range(n):
                acc: Dict[int, Fraction] = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    sign = skew_sign(eps[a], eps[c])  # (-1)^(eps_a eps_c) up to one overall sign
                    for m, val in g.bracket({a: Fraction(1)}, g.bracket_basis(b, c)).items():
                        accumulate(acc, m, sign * val)
                if acc:
                    return False, (i, j, k)
    return True, None


# ----------------------------------------------------------------------
# cochains
# ----------------------------------------------------------------------


def sort_with_sign(parities: Sequence[int], key: Iterable[int]) -> Tuple[int, Key]:
    """Sort a basis tuple, tracking the graded skew sign.

    An adjacent swap of distinct entries a, b costs -(-1)^(eps_a eps_b);
    a repeated even entry kills the tuple (sign 0).  See `graded_sort`.
    """
    return graded_sort(key, lambda i: parities[i] == 1)


def canonical_keys(parities: Sequence[int], degree: int) -> List[Key]:
    """Sorted basis tuples that `sort_with_sign` does not kill."""
    return [
        key
        for key in combinations_with_replacement(range(len(parities)), degree)
        if sort_with_sign(parities, key)[0]
    ]


def tuple_parity(parities: Sequence[int], key: Iterable[int]) -> int:
    """Parity of a basis tuple: the C-component an even cochain fills on it."""
    return sum(parities[i] for i in key) % 2


def _pair(alpha: int, v: Fraction) -> Tuple[Fraction, Fraction]:
    """The value v c_alpha as the pair (c0, c1)."""
    return (Fraction(0), v) if alpha else (v, Fraction(0))


class CochainKeyError(ValueError):
    """A key of another length or off the basis, a value the key's parity or
    sign forbids, or one that contradicts an earlier key once both are
    sorted, refused at the key given."""

    def __init__(self, message: str, key: Key):
        super().__init__(message)
        self.key = key


class CECochain(Linear):
    """Even C-valued k-cochain on a super Lie algebra.

    Built from (c0, c1) values on basis tuples; `terms` keeps, for each
    canonical tuple, the one component that evenness allows, c_alpha with
    alpha the tuple's parity.  `values`, `evaluate` and `evaluate_vectors`
    give (c0, c1) pairs."""

    __slots__ = ("g", "degree", "terms")
    _FRAME = ("degree",)
    _CARRY = ("g",)
    _scalar = Fraction

    def __init__(self, g: SuperLieAlgebra, degree: int, values: Mapping[Key, Tuple[Fraction, Fraction]] | None = None):
        self.g = g
        self.degree = degree
        self.terms: Dict[Key, Fraction] = {}
        if values:
            given: Dict[Key, Fraction] = {}  # zeros included, so a later key cannot contradict one
            for key, val in values.items():
                if len(key) != degree:
                    raise CochainKeyError(f"tuple {tuple(key)} needs {degree} indices", key)
                if not all(0 <= i < len(g.parities) for i in key):
                    raise CochainKeyError(f"basis index out of range in tuple {tuple(key)}", key)
                sign, canon = sort_with_sign(g.parities, key)
                if sign == 0:
                    if val != (0, 0):
                        raise CochainKeyError(f"value on vanishing tuple {key}", key)
                    continue
                val = (Fraction(val[0]), Fraction(val[1]))
                parity = tuple_parity(g.parities, canon)
                if val[1 - parity] != 0:
                    raise CochainKeyError(f"evenness violated on {key}: component c{1 - parity} must vanish", key)
                v = val[parity] * sign
                if given.setdefault(canon, v) != v:
                    raise CochainKeyError(f"conflicting values on tuple {canon}", key)
                if v:
                    self.terms[canon] = v

    @property
    def values(self) -> Dict[Key, Tuple[Fraction, Fraction]]:
        eps = self.g.parities
        return {key: _pair(tuple_parity(eps, key), v) for key, v in self.terms.items()}

    def _frame(self) -> tuple:
        return self.degree, self.g.parities

    def evaluate(self, key: Sequence[int]) -> Tuple[Fraction, Fraction]:
        sign, canon = sort_with_sign(self.g.parities, key)
        return _pair(tuple_parity(self.g.parities, key), sign * self.terms.get(canon, Fraction(0)))

    def evaluate_vectors(self, vectors: Sequence[Mapping[int, Fraction]]) -> Tuple[Fraction, Fraction]:
        """Evaluate on rational-coefficient vectors (real coefficients)."""
        eps = self.g.parities
        total = [Fraction(0), Fraction(0)]
        for picks in product(*(v.items() for v in vectors)):
            sign, canon = sort_with_sign(eps, [i for i, _ in picks])
            v = sign * self.terms.get(canon, 0)
            if v:
                for _, c in picks:
                    v *= c
                total[tuple_parity(eps, canon)] += v
        return total[0], total[1]

    def __repr__(self):
        inner = ", ".join(f"{k}: ({v[0]},{v[1]})" for k, v in sorted(self.values.items()))
        return f"<{self.degree}-cochain {{{inner}}}>"


def _coboundary_rows(g: SuperLieAlgebra, degree: int) -> Dict[Key, Dict[Key, Fraction]]:
    """d: C^degree -> C^(degree+1) as sparse rows, with the
    repeated-contraction sign: (dc)[key] = sum row[src] * c[src] over the
    canonical degree-tuples src, for each canonical (degree+1)-tuple key.
    Built once per (algebra, degree) and kept on `g`, whose table never
    changes after `__init__`: do not modify the rows."""
    if degree in g._rows:
        return g._rows[degree]
    eps = g.parities
    k = degree
    rows: Dict[Key, Dict[Key, Fraction]] = {}
    for key in canonical_keys(eps, k + 1):
        row: Dict[Key, Fraction] = {}
        word = [eps[v] for v in key]
        for i in range(k + 1):
            for j in range(i + 1, k + 1):
                # [v_i, v_j] in the place of v_i, v_j struck, with the sign of an
                # even letter moved past v_i .. v_k and v_j moved left past
                # v_(i+1) .. v_(j-1); a zero bracket costs no sign
                for m, coeff in g.bracket_basis(key[i], key[j]).items():
                    s, src = sort_with_sign(eps, key[:i] + (m,) + key[i + 1:j] + key[j + 1:])
                    if s:
                        sign = s * koszul(0, word[i:]) * koszul(word[j], word[i + 1:j])
                        accumulate(row, src, sign * coeff)
        if row:
            rows[key] = row
    g._rows[degree] = rows
    return rows


def ce_coboundary(c: CECochain, g: SuperLieAlgebra | None = None) -> CECochain:
    """Coboundary C^k -> C^(k+1) with the repeated-contraction sign; a given
    g must be c's algebra or equal to it by value."""
    g = c.g if g is None else _require_on(g, c)
    terms: Dict[Key, Fraction] = {}
    for key, row in _coboundary_rows(g, c.degree).items():
        total = sum((coeff * c.terms[src] for src, coeff in row.items() if src in c.terms), Fraction(0))
        if total:
            terms[key] = total
    return CECochain(g, c.degree + 1)._like(terms)


# ----------------------------------------------------------------------
# H^2 and central extensions
# ----------------------------------------------------------------------


def _indexed_rows(g: SuperLieAlgebra, degree: int) -> Tuple[List[Key], Dict[Key, Dict[int, GaussianRational]]]:
    """The canonical degree-tuples and the rows of d by target tuple, each a
    dict (place of a source tuple among those) -> nonzero Q(i) entry."""
    src = canonical_keys(g.parities, degree)
    column = {key: c for c, key in enumerate(src)}
    rows = _coboundary_rows(g, degree)
    return src, {key: {column[s]: GaussianRational(v) for s, v in row.items()} for key, row in rows.items()}


def _require_on(g: SuperLieAlgebra, c: CECochain) -> SuperLieAlgebra:
    """g, or a ValueError unless c lives on g or on an algebra with g's parities and brackets."""
    if c.g is not g and (c.g.parities, c.g.brackets) != (g.parities, g.brackets):
        raise ValueError(f"the {c.degree}-cochain lives on another algebra")
    return g


def require_2_cochain(g: SuperLieAlgebra, *omegas: CECochain) -> None:
    """A ValueError unless each omega is a 2-cochain on g or on an algebra
    with g's parities and brackets."""
    for omega in omegas:
        if omega.degree != 2:
            raise ValueError(f"central extensions are built from 2-cochains, not from {omega.degree}-cochains")
        _require_on(g, omega)


class H2Report:
    def __init__(self, dim_c2: int, dim_z2: int, dim_b2: int, dim_h2: int, representatives: List[CECochain]):
        self.dim_c2, self.dim_z2, self.dim_b2, self.dim_h2 = dim_c2, dim_z2, dim_b2, dim_h2
        self.representatives = representatives


def h2(g: SuperLieAlgebra) -> H2Report:
    """Second cohomology with values in C, with representative cocycles."""
    keys1, d1 = _indexed_rows(g, 1)
    keys2, d2 = _indexed_rows(g, 2)
    z_basis = linalg.kernel(list(d2.values()), len(keys2))
    # one elimination of [coboundaries | cocycles], a row per 2-tuple: the
    # coboundary pivots span B^2, and the cocycle pivots are the
    # representatives, independent modulo B^2 and each other
    nb = len(keys1)
    rows = [d1.get(key, {}) for key in keys2]
    for z, vec in enumerate(z_basis):
        for c, v in vec.items():
            rows[c][nb + z] = v
    pivots = linalg.pivot_columns(rows, nb + len(z_basis))
    dim_b = sum(1 for c in pivots if c < nb)
    reps = [CECochain(g, 2)._like({keys2[c]: v.re for c, v in z_basis[p - nb].items()}) for p in pivots[dim_b:]]
    return H2Report(
        dim_c2=len(keys2),
        dim_z2=len(z_basis),
        dim_b2=dim_b,
        dim_h2=len(z_basis) - dim_b,
        representatives=reps,
    )


def central_extension(g: SuperLieAlgebra, omega: CECochain) -> SuperLieAlgebra:
    """g x C with bracket [(v,e),(w,f)] = ([v,w], Omega(v,w)).

    The central basis vectors c0, c1 are appended at indices n and n+1.
    The result satisfies Jacobi exactly when d(omega) = 0; build it and
    check, a failure is a reported outcome, not an exception.
    """
    require_2_cochain(g, omega)
    n = g.dimension
    parities = g.parities + (0, 1)
    brackets: Dict[Tuple[int, int], Dict[int, Fraction]] = {}
    for (i, j), vec in g.brackets.items():
        brackets[(i, j)] = dict(vec)
    for key, v in sorted(omega.terms.items()):  # each pair i <= j with Omega(e_i, e_j) = v c_alpha
        brackets.setdefault(key, {})[n + tuple_parity(g.parities, key)] = v
    cleaned = {k: v for k, v in brackets.items() if k[0] <= k[1]}
    return SuperLieAlgebra(parities, cleaned)


def extension_equivalent(omega1: CECochain, omega2: CECochain, g: SuperLieAlgebra) -> Tuple[bool, Optional[CECochain]]:
    """Solvability of omega1 - omega2 = dF for an even 1-cochain F, with
    F when it exists; both omegas must pass `require_2_cochain` on g."""
    require_2_cochain(g, omega1, omega2)
    keys1, rows = _indexed_rows(g, 1)
    n = len(keys1)
    for key, v in (omega1 - omega2).terms.items():
        rows.setdefault(key, {})[n] = GaussianRational(v)
    sol, _ = linalg.solve_sparse(list(rows.values()), n)
    if sol is None:
        return False, None
    return True, CECochain(g, 1)._like({keys1[c]: x.re for c, x in enumerate(sol) if x})


# ----------------------------------------------------------------------
# cocycles from geometry
# ----------------------------------------------------------------------


def pullback_class(g: SuperLieAlgebra, x: Sequence[Fraction], xbar: Sequence[Fraction]) -> CECochain:
    """The 2-cocycle (v,w) -> <[v,w], mu> at a real point mu of the dual.

    mu is given by its 2n real coordinates: x_i (nonzero only on even
    slots) and xbar_i (nonzero only on odd slots).
    """
    eps = g.parities
    n = g.dimension
    x = [Fraction(v) for v in x]
    xbar = [Fraction(v) for v in xbar]
    for i in range(n):
        if eps[i] == 1 and x[i] != 0:
            raise ValueError(f"non-real point: odd coordinate x_{i} nonzero")
        if eps[i] == 0 and xbar[i] != 0:
            raise ValueError(f"non-real point: odd coordinate xbar_{i} nonzero")
    vals: Dict[Key, Tuple[Fraction, Fraction]] = {}
    for key in canonical_keys(eps, 2):
        i, j = key
        c0 = Fraction(0)
        c1 = Fraction(0)
        for m, coeff in g.bracket_basis(i, j).items():
            c0 += coeff * x[m]
            c1 += coeff * xbar[m]
        if c0 or c1:
            vals[key] = (c0, c1)
    return CECochain(g, 2, vals)


def momentum_cocycle(g: SuperLieAlgebra, momentum, bracket) -> Tuple[CECochain, bool]:
    """Cocycle  Omega_J(v,w) = {<v,J>, <w,J>} - <[v,w], J>  on basis pairs.

    `momentum` maps a basis index to the C-valued function <e_i, J> on some
    chart; `bracket(i, j)` is the Poisson bracket {<e_i, J>, <e_j, J>}.  Returns
    the cochain of constant values and a flag reporting whether every entry
    really was coordinate-independent.
    """
    eps = g.parities
    moments = [momentum(i) for i in range(g.dimension)]
    vals: Dict[Key, Tuple[Fraction, Fraction]] = {}
    constant = True
    for key in canonical_keys(eps, 2):
        i, j = key
        f = bracket(i, j)
        for m, coeff in g.bracket_basis(i, j).items():
            f = f - moments[m].scale(coeff)
        if not f.is_constant():
            constant = False
            continue
        v0 = f.f0.constant_value()
        v1 = f.f1.constant_value()
        if not (v0.is_scalar() and v1.is_scalar()):
            constant = False
            continue
        c0, c1 = v0.body(), v1.body()
        if not c0.is_rational() or not c1.is_rational():
            raise ValueError("momentum cocycle has non-rational entries")
        if c0.re or c1.re:
            vals[key] = (c0.re, c1.re)
    return CECochain(g, 2, vals), constant
