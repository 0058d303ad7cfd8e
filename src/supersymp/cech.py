"""Finite-cover Cech machinery for D-prequantization.

A cover enters as an abstract nerve: simplices up to dimension 3 with
integer boundaries, kept as sparse rows.  Only d_2 gets a Smith normal
form; rank d_1 is read off the connected components of the 1-skeleton.
Potential data is carried by rational cochains: f on edges (differences
of local primitives), a on triangles (the obstruction cocycle, a = delta f
when it comes from potentials).  The group of periods of a is its image on
integer 2-cycles; it and the normalization b' are integer sums over the
one common denominator of a.  Existence of a D-prequantum structure for
D = d Z is the inclusion Per into D, and the inequivalent choices are
counted by H^1 with coefficients Q/dZ.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .grassmann import Linear, graded_sort
from . import linalg

Simplex = Tuple[int, ...]

MAX_DIM = 3


class NerveError(ValueError):
    pass


def _combine(pairs: Iterable[Tuple[int, object]], rows: Sequence[Dict[int, int]]) -> Dict[int, object]:
    """The sum of x * rows[i] over the pairs (i, x), as a dict index -> value."""
    out: Dict[int, object] = {}
    for i, x in pairs:
        for j, y in rows[i].items():
            out[j] = out.get(j, 0) + x * y
    return out


def _faces(s: Simplex) -> Iterable[Tuple[int, Simplex]]:
    """(sign, face) of a simplex's boundary: (-1)^j for the face without vertex j."""
    return (((-1) ** j, s[:j] + s[j + 1:]) for j in range(len(s)))


class NerveComplex:
    """Abstract nerve: sorted simplices per dimension, integer boundaries."""

    def __init__(self, simplices: Iterable[Sequence[int]]):
        by_dim: Dict[int, set] = {k: set() for k in range(MAX_DIM + 1)}
        for s in simplices:
            canon = tuple(sorted(s))
            if len(set(canon)) < len(canon):
                raise NerveError(f"degenerate simplex {tuple(s)}")
            k = len(canon) - 1
            if not 0 <= k <= MAX_DIM:
                raise NerveError(f"simplex dimension {k} exceeds {MAX_DIM}" if canon else "empty simplex ()")
            by_dim[k].add(canon)
        # closure check: all faces must be present
        for k in range(MAX_DIM, 0, -1):
            for s in by_dim[k]:
                for face in combinations(s, k):
                    if face not in by_dim[k - 1]:
                        raise NerveError(f"missing face {face} of {s}")
        self.simplices: Dict[int, List[Simplex]] = {
            k: sorted(by_dim[k]) for k in range(MAX_DIM + 1)
        }
        self.index: Dict[int, Dict[Simplex, int]] = {
            k: {s: i for i, s in enumerate(self.simplices[k])} for k in range(MAX_DIM + 1)
        }
        self._boundary: Dict[int, List[Dict[int, int]]] = {}
        self._smith: Dict[int, tuple] = {}

    def boundary(self, k: int) -> List[Dict[int, int]]:
        """d_k: C_k -> C_(k-1) as sparse rows, one per (k-1)-simplex, each a
        dict k-simplex index -> sign.  Built once per nerve and shared: do
        not modify it."""
        if k not in self._boundary:
            rows: List[Dict[int, int]] = [{} for _ in self.simplices[k - 1]]
            for c, s in enumerate(self.simplices[k]):
                for sign, face in _faces(s):
                    rows[self.index[k - 1][face]][c] = sign
            self._boundary[k] = rows
        return self._boundary[k]

    def smith_form(self, k: int) -> tuple:
        """(factors, U, V) of d_k from `linalg.smith_normal_form`, computed
        once per nerve.  Only d_2 gets one, shared by the period group,
        the normalization and the classification."""
        if k not in self._smith:
            self._smith[k] = linalg.smith_normal_form(self.boundary(k), len(self.simplices[k]))
        return self._smith[k]


def build_nerve(simplices: Iterable[Sequence[int]]) -> NerveComplex:
    nerve = NerveComplex(simplices)
    # d d = 0, rechecked on every construction
    for k in range(2, MAX_DIM + 1):
        if not nerve.simplices[k]:
            continue
        outer = nerve.boundary(k)
        if any(any(_combine(row.items(), outer).values()) for row in nerve.boundary(k - 1)):
            raise NerveError("boundary of boundary is nonzero")
    return nerve


class CechCochain(Linear):
    """Rational k-cochain: skew-symmetric values on ordered simplices, a sum
    over the sorted k-simplices."""

    __slots__ = ("nerve", "degree", "terms")
    _FRAME = ("degree",)
    _CARRY = ("nerve",)
    _scalar = Fraction

    def __init__(self, nerve: NerveComplex, degree: int, values: Mapping[Sequence[int], Fraction] | None = None):
        self.nerve = nerve
        self.degree = degree
        self.terms: Dict[Simplex, Fraction] = {}
        if values:
            given: Dict[Simplex, Fraction] = {}  # zeros included, so a later key cannot contradict one
            for key, val in values.items():
                sign, canon = graded_sort(key)
                if sign == 0:
                    raise NerveError(f"degenerate simplex {tuple(key)}")
                if canon not in nerve.index[degree]:
                    raise NerveError(f"simplex {canon} is not in the nerve")
                val = Fraction(val) * sign
                if given.setdefault(canon, val) != val:
                    raise NerveError(f"conflicting values on {canon}")
                if val != 0:
                    self.terms[canon] = val

    @property
    def values(self) -> Dict[Simplex, Fraction]:
        return self.terms

    def __call__(self, *simplex: int) -> Fraction:
        sign, canon = graded_sort(simplex)
        if sign == 0:
            return Fraction(0)
        return self.values.get(canon, Fraction(0)) * sign

    def __repr__(self):
        return f"<{self.degree}-cochain {self.values}>"


def coboundary(h: CechCochain) -> CechCochain:
    """(delta h)(s) = h(boundary s), read off the rows of d_(k+1) at the
    nonzero terms of h."""
    nerve = h.nerve
    k = h.degree
    if k >= MAX_DIM:
        raise NerveError(f"no coboundary of a {k}-cochain: the nerve stops at dimension {MAX_DIM}")
    totals = _combine(((nerve.index[k][face], x) for face, x in h.terms.items()), nerve.boundary(k + 1))
    cofaces = nerve.simplices[k + 1]
    return CechCochain(nerve, k + 1)._like({cofaces[c]: totals[c] for c in sorted(totals) if totals[c]})


def cocycle_from_potentials(f: CechCochain) -> CechCochain:
    """a = delta f on 2-simplices: a(i,j,k) = f(j,k) - f(i,k) + f(i,j)."""
    if f.degree != 1:
        raise ValueError("potential differences form a 1-cochain")
    return coboundary(f)


class PeriodGroup:
    """Per = lambda Z, with lambda = 0 encoding the trivial group."""

    def __init__(self, generator: Fraction):
        self.generator = generator

    def __eq__(self, other):
        return isinstance(other, PeriodGroup) and self.generator == other.generator

    def contains(self, value: Fraction) -> bool:
        value = Fraction(value)
        if self.generator == 0:
            return value == 0
        return (value / self.generator).denominator == 1

    def subgroup_of(self, d: Fraction) -> bool:
        """Per subset of dZ."""
        d = Fraction(d)
        if self.generator == 0:
            return True
        if d == 0:
            return False
        return (self.generator / d).denominator == 1

    def is_trivial(self) -> bool:
        return self.generator == 0


def two_cycles(nerve: NerveComplex) -> List[Dict[int, int]]:
    """Integer basis of ker d_2, each cycle a dict triangle index ->
    nonzero coefficient: the columns of V past the invariant factors in
    D = U d_2 V, shared with the nerve: do not modify them."""
    factors, _, v = nerve.smith_form(2)
    return v[len(factors):]


def _numerators(a: CechCochain, nerve: Optional[NerveComplex]) -> Tuple[NerveComplex, int, Dict[int, int]]:
    """(nerve, L, numerators) with a = numerators / L on the triangles: L
    the lcm of a's denominators, numerators a dict triangle index -> integer."""
    nerve = nerve or a.nerve
    if a.nerve is not nerve:
        raise NerveError("cochain does not live on this nerve")
    if a.degree != 2:
        raise ValueError("periods are computed from a 2-cochain")
    den = lcm(*(x.denominator for x in a.terms.values()))
    index = nerve.index[2]
    return nerve, den, {index[s]: x.numerator * (den // x.denominator) for s, x in a.terms.items()}


def _dot(column: Dict[int, int], nums: Dict[int, int]) -> int:
    return sum(x * nums.get(t, 0) for t, x in column.items())


def period_group(a: CechCochain, nerve: Optional[NerveComplex] = None) -> PeriodGroup:
    """Image of a on integer 2-cycles, as a cyclic subgroup of Q: the gcd
    of the integer pairings <numerators, z> over L."""
    nerve, den, nums = _numerators(a, nerve)
    return PeriodGroup(Fraction(gcd(*(_dot(z, nums) for z in two_cycles(nerve))), den))


def normalize_to_periods(a: CechCochain, nerve: Optional[NerveComplex] = None, per: Optional[PeriodGroup] = None):
    """Correction b' with (a - delta b') valued in Per on every 2-simplex.

    Constructive version of the divisible-module argument: in the Smith
    normal coordinates of d_2, the image components are matched exactly and
    the kernel components already lie in Per by definition of the period
    group.  With a = numerators / L and F the lcm of the factors, b' is
    one integer sum over the rows of U and one fraction over F L per edge.
    Returns (b_prime, corrected_a, per).
    """
    nerve, den, nums = _numerators(a, nerve)
    per = per or period_group(a, nerve)
    edges = nerve.simplices[1]
    tris = nerve.simplices[2]
    if not tris:
        return CechCochain(nerve, 1), a, per
    if not edges:
        raise NerveError("triangles without edges")
    factors, u, v = nerve.smith_form(2)
    # b' = c . U with c_i = (a . V)_i / factor_i = w_i (F / factor_i) / (F L),
    # the components of a in the Smith coordinates of C_2 matched on the image of d_2
    top = lcm(*factors)
    bvals = _combine(((i, _dot(column, nums) * (top // factor)) for i, (factor, column) in enumerate(zip(factors, v))), u)
    bprime = CechCochain(nerve, 1)._like({edges[e]: Fraction(bvals[e], top * den) for e in sorted(bvals) if bvals[e]})
    corrected = a - coboundary(bprime)
    # a zero value lies in every Per, so only the nonzero terms are checked
    if not all(per.contains(x) for x in corrected.terms.values()):
        raise AssertionError("normalization failed to land in the period group")
    return bprime, corrected, per


def prequantum_exists(per: PeriodGroup, d) -> bool:
    """Per subset of dZ: the existence criterion at the cocycle level."""
    return per.subgroup_of(Fraction(d))


def transition_data(f: CechCochain, d) -> dict:
    """g_ij = f_ij mod d, with the cocycle condition checked mod d."""
    if f.degree != 1:
        raise ValueError("transition data comes from a 1-cochain")
    d = Fraction(d)
    nerve = f.nerve
    a = coboundary(f)

    def mod_d(x: Fraction) -> Fraction:
        if d == 0:
            return x
        return x - (x / d).__floor__() * d

    g = {s: mod_d(f.values.get(s, Fraction(0))) for s in nerve.simplices[1]}
    periods = PeriodGroup(d)
    failures = []
    for s in nerve.simplices[2]:
        val = a.values.get(s, Fraction(0))
        if not periods.contains(val):
            failures.append({"simplex": s, "value": val})
    return {"g": g, "cocycle_mod_d": not failures, "failures": failures}


def _rank_d1(nerve: NerveComplex) -> int:
    """|vertices| - #components, by union-find over the edges: the
    vertices that end up below another one."""
    root = {v: v for (v,) in nerve.simplices[0]}

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v

    for i, j in nerve.simplices[1]:
        root[find(i)] = find(j)
    return sum(root[v] != v for v in root)


def classify_prequantum(nerve: NerveComplex, d) -> dict:
    """H^1(nerve, Q/dZ) from the Smith normal form of d_2 and the rank of
    d_1, |vertices| - #components: the invariant factors of a graph's
    incidence matrix are all 1, so d_1 needs no Smith form.

    For d != 0 the answer is (Q/dZ)^b1 plus the torsion of H_1; for d = 0
    the coefficients are Q and the torsion disappears.
    """
    d = Fraction(d)
    factors = nerve.smith_form(2)[0]
    torsion = [fct for fct in factors if fct != 1]
    free_rank = len(nerve.simplices[1]) - _rank_d1(nerve) - len(factors)
    return {
        "free_rank": free_rank,
        "torsion": torsion if d != 0 else [],
        "coefficients": "Q" if d == 0 else f"Q/{d}Z",
        "trivial": free_rank == 0 and (not torsion or d == 0),
    }


# ----------------------------------------------------------------------
# cover files
# ----------------------------------------------------------------------


class Cover:
    def __init__(self, nerve: NerveComplex, f: CechCochain, a: CechCochain, d: Optional[Fraction]):
        self.nerve, self.f, self.a, self.d = nerve, f, a, d

    def cocycle(self) -> CechCochain:
        """a-data if given directly, else delta f: a zero a adds no term and
        keeps the key order of delta f."""
        return self.a + cocycle_from_potentials(self.f)


def _vertex(word: str) -> int:
    try:
        return int(word)
    except ValueError:
        raise ValueError(f"bad vertex {word!r}") from None


def _value(parts: List[str], eq: int) -> Fraction:
    """The number after the "=" at parts[eq]."""
    if eq + 1 == len(parts):
        raise ValueError("missing value after '='")
    try:
        return Fraction(parts[eq + 1])
    except ValueError:
        raise ValueError(f"bad value {parts[eq + 1]!r}") from None


def load_cover(text: str) -> Cover:
    """Line format: `simplex 0 1 2`, `f 0 1 = 3/2`, `a 0 1 2 = 3`, `d = 3`.

    Simplices are closed downward automatically; `#` starts a comment.
    """
    simplices: List[Tuple[int, ...]] = []
    f_vals: Dict[Tuple[int, ...], Fraction] = {}
    a_vals: Dict[Tuple[int, ...], Fraction] = {}
    d: Optional[Fraction] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "simplex" or parts[0] in ("f", "a") and "=" in parts:
                eq = len(parts) if parts[0] == "simplex" else parts.index("=")
                verts = tuple(_vertex(p) for p in parts[1:eq])
                sign, canon = graded_sort(verts)
                if not sign:
                    raise ValueError(f"repeated vertex in {verts}")
            if parts[0] == "simplex":
                simplices.append(verts)
            elif parts[0] in ("f", "a") and "=" in parts:
                val = _value(parts, eq) * sign
                expect = 2 if parts[0] == "f" else 3
                if len(verts) != expect:
                    raise ValueError(f"{parts[0]}-line needs {expect} vertices")
                # checked on the sorted key, so (1, 0) = 1 then (0, 1) = 1 conflict at their line
                if (f_vals if parts[0] == "f" else a_vals).setdefault(canon, val) != val:
                    raise ValueError(f"conflicting values on {canon}")
            elif parts[0] == "d" and parts[1:2] == ["="]:
                val = _value(parts, 1)
                if val < 0:
                    raise ValueError("d must be >= 0")
                if d is not None and d != val:
                    raise ValueError("conflicting values on d")
                d = val
            else:
                raise ValueError(f"unrecognized directive {parts[0]!r}")
        except ValueError as exc:
            raise NerveError(f"cover file line {lineno}: {exc}") from exc
        except ZeroDivisionError as exc:
            raise NerveError(f"cover file line {lineno}: division by zero") from exc
    closure = set()
    for s in simplices + list(f_vals) + list(a_vals):
        canon = tuple(sorted(s))
        for k in range(1, len(canon) + 1):
            closure.update(combinations(canon, k))
    nerve = build_nerve(sorted(closure))
    return Cover(
        nerve,
        CechCochain(nerve, 1, f_vals),
        CechCochain(nerve, 2, a_vals),
        d,
    )
