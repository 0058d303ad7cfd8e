"""Finite-cover Cech machinery for D-prequantization.

A cover enters as an abstract nerve: simplices up to dimension 3 with
integer boundary matrices.  Potential data is carried by rational cochains:
f on edges (differences of local primitives), a on triangles (the
obstruction cocycle, a = delta f when it comes from potentials).  The group
of periods of a is its image on integer 2-cycles; existence of a
D-prequantum structure for D = d Z is the inclusion Per into D, and the
inequivalent choices are counted by H^1 with coefficients Q/dZ.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .grassmann import Linear, graded_sort
from . import linalg
from .linalg import fraction_gcd, matmul, transpose

Simplex = Tuple[int, ...]

MAX_DIM = 3


class NerveError(ValueError):
    pass


class NerveComplex:
    """Abstract nerve: sorted simplices per dimension, integer boundaries."""

    def __init__(self, simplices: Iterable[Sequence[int]]):
        by_dim: Dict[int, set] = {k: set() for k in range(MAX_DIM + 1)}
        for s in simplices:
            sign, canon = graded_sort(s)
            if sign == 0:
                raise NerveError(f"degenerate simplex {tuple(s)}")
            k = len(canon) - 1
            if k > MAX_DIM:
                raise NerveError(f"simplex dimension {k} exceeds {MAX_DIM}")
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
        self._boundary: Dict[int, List[List[int]]] = {}
        self._smith: Dict[int, tuple] = {}

    def boundary_matrix(self, k: int) -> List[List[int]]:
        """Matrix of d_k: C_k -> C_(k-1); rows (k-1)-simplices, columns
        k-simplices.  Built once per nerve and shared: do not modify it."""
        if k not in self._boundary:
            rows = self.simplices[k - 1]
            cols = self.simplices[k]
            out = [[0] * len(cols) for _ in rows]
            for c, s in enumerate(cols):
                for j in range(len(s)):
                    out[self.index[k - 1][s[:j] + s[j + 1:]]][c] += (-1) ** j
            self._boundary[k] = out
        return self._boundary[k]

    def smith_form(self, k: int) -> tuple:
        """(D, U, V) with D = U d_k V in Smith normal form, computed once
        per nerve and shared by the period group, the normalization and the
        classification."""
        if k not in self._smith:
            self._smith[k] = linalg.smith_normal_form(self.boundary_matrix(k))
        return self._smith[k]

    def invariant_factors(self, k: int) -> List[int]:
        """The nonzero invariant factors of d_k; their number is its rank."""
        if not self.simplices[k] or not self.simplices[k - 1]:
            return []
        d = self.smith_form(k)[0]
        return [d[i][i] for i in range(min(len(d), len(d[0]))) if d[i][i]]


def build_nerve(simplices: Iterable[Sequence[int]]) -> NerveComplex:
    nerve = NerveComplex(simplices)
    # d d = 0, rechecked on every construction
    for k in range(2, MAX_DIM + 1):
        if not nerve.simplices[k]:
            continue
        if any(any(row) for row in matmul(nerve.boundary_matrix(k - 1), nerve.boundary_matrix(k))):
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
            for key, val in values.items():
                sign, canon = graded_sort(key)
                if sign == 0:
                    raise NerveError(f"degenerate simplex {tuple(key)}")
                if canon not in nerve.index[degree]:
                    raise NerveError(f"simplex {canon} is not in the nerve")
                val = Fraction(val) * sign
                if canon in self.terms and self.terms[canon] != val:
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

    def vector(self) -> List[Fraction]:
        return [self.values.get(s, Fraction(0)) for s in self.nerve.simplices[self.degree]]

    def __repr__(self):
        return f"<{self.degree}-cochain {self.values}>"


def coboundary(h: CechCochain) -> CechCochain:
    """(delta h)(s) = h(boundary s)."""
    nerve = h.nerve
    k = h.degree
    out = CechCochain(nerve, k + 1)
    for s in nerve.simplices[k + 1]:
        total = Fraction(0)
        for j in range(len(s)):
            face = s[:j] + s[j + 1:]
            total += (-1) ** j * h(*face)
        if total != 0:
            out.terms[s] = total
    return out


def cocycle_from_potentials(f: CechCochain) -> CechCochain:
    """a = delta f on 2-simplices: a(i,j,k) = f(j,k) - f(i,k) + f(i,j)."""
    if f.degree != 1:
        raise ValueError("potential differences form a 1-cochain")
    return coboundary(f)


@dataclass
class PeriodGroup:
    """Per = lambda Z, with lambda = 0 encoding the trivial group."""

    generator: Fraction

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


def two_cycles(nerve: NerveComplex) -> List[List[int]]:
    """Integer basis of ker d_2: the last columns of V in D = U d_2 V."""
    ntris = len(nerve.simplices[2])
    if not nerve.simplices[1]:
        return [[int(i == j) for i in range(ntris)] for j in range(ntris)]
    if not ntris:
        return []
    return transpose(nerve.smith_form(2)[2])[len(nerve.invariant_factors(2)):]


def period_group(a: CechCochain, nerve: Optional[NerveComplex] = None) -> PeriodGroup:
    """Image of a on integer 2-cycles, as a cyclic subgroup of Q."""
    nerve = nerve or a.nerve
    if a.nerve is not nerve:
        raise NerveError("cochain does not live on this nerve")
    if a.degree != 2:
        raise ValueError("periods are computed from a 2-cochain")
    periods = matmul(two_cycles(nerve), [[v] for v in a.vector()])
    return PeriodGroup(fraction_gcd([p for (p,) in periods]))


def normalize_to_periods(a: CechCochain, nerve: Optional[NerveComplex] = None, per: Optional[PeriodGroup] = None):
    """Correction b' with (a - delta b') valued in Per on every 2-simplex.

    Constructive version of the divisible-module argument: in the Smith
    normal coordinates of d_2, the image components are matched exactly and
    the kernel components already lie in Per by definition of the period
    group.  Returns (b_prime, corrected_a, per).
    """
    nerve = nerve or a.nerve
    per = per or period_group(a, nerve)
    edges = nerve.simplices[1]
    tris = nerve.simplices[2]
    if not tris:
        return CechCochain(nerve, 1), a, per
    if not edges:
        raise NerveError("triangles without edges")
    _d, u, v = nerve.smith_form(2)
    # a' = a . V  (components in the Smith coordinates of C_2)
    (aprime,) = matmul([a.vector()], v)
    c = [Fraction(0)] * len(edges)
    for i, factor in enumerate(nerve.invariant_factors(2)):
        c[i] = aprime[i] / factor
    # b' = c . U
    (bvals,) = matmul([c], u)
    bprime = CechCochain(nerve, 1, dict(zip(edges, bvals)))
    corrected = a - coboundary(bprime)
    for s in tris:
        if not per.contains(corrected.values.get(s, Fraction(0))):
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
    failures = []
    for s in nerve.simplices[2]:
        val = a.values.get(s, Fraction(0))
        if d == 0:
            ok = val == 0
        else:
            ok = (val / d).denominator == 1
        if not ok:
            failures.append({"simplex": s, "value": val})
    return {"g": g, "cocycle_mod_d": not failures, "failures": failures}


def classify_prequantum(nerve: NerveComplex, d) -> dict:
    """H^1(nerve, Q/dZ) via Smith normal form of the boundary matrices.

    For d != 0 the answer is (Q/dZ)^b1 plus the torsion of H_1; for d = 0
    the coefficients are Q and the torsion disappears.
    """
    d = Fraction(d)
    factors = nerve.invariant_factors(2)
    torsion = [fct for fct in factors if fct != 1]
    free_rank = len(nerve.simplices[1]) - len(nerve.invariant_factors(1)) - len(factors)
    return {
        "free_rank": free_rank,
        "torsion": torsion if d != 0 else [],
        "coefficients": "Q" if d == 0 else f"Q/{d}Z",
        "trivial": free_rank == 0 and (not torsion or d == 0),
    }


# ----------------------------------------------------------------------
# cover files
# ----------------------------------------------------------------------


@dataclass
class Cover:
    nerve: NerveComplex
    f: CechCochain
    a: CechCochain
    d: Optional[Fraction]

    def cocycle(self) -> CechCochain:
        """a-data if given directly, else delta f."""
        if not self.a.is_zero():
            return self.a + cocycle_from_potentials(self.f)
        return cocycle_from_potentials(self.f)


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
            if parts[0] == "simplex":
                simplices.append(tuple(int(p) for p in parts[1:]))
            elif parts[0] in ("f", "a") and "=" in parts:
                eq = parts.index("=")
                verts = tuple(int(p) for p in parts[1:eq])
                val = Fraction(parts[eq + 1])
                expect = 2 if parts[0] == "f" else 3
                if len(verts) != expect:
                    raise ValueError(f"{parts[0]}-line needs {expect} vertices")
                (f_vals if parts[0] == "f" else a_vals)[verts] = val
            elif parts[0] == "d" and parts[1] == "=":
                d = Fraction(parts[2])
            else:
                raise ValueError(f"unrecognized directive {parts[0]!r}")
        except (ValueError, IndexError) as exc:
            raise NerveError(f"cover file line {lineno}: {exc}") from exc
    closure = set()
    for s in simplices + list(f_vals) + list(a_vals):
        canon = tuple(sorted(set(s)))
        for k in range(1, len(canon) + 1):
            closure.update(combinations(canon, k))
    nerve = build_nerve(sorted(closure))
    return Cover(
        nerve,
        CechCochain(nerve, 1, f_vals),
        CechCochain(nerve, 2, a_vals),
        d,
    )
