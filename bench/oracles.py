"""Correctness oracles, computed apart from the program.

Each check compares a result with work done here (sympy polynomials and
ranks, a small Grassmann product, the homology of the generated surfaces)
or with a property the method must have.  None compares with a capture of
the program's own output.  How each expected value is derived is written
up in README.md.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Dict, List, Tuple

import sympy as sp

from inputs import canonical_pairs

x, y, xi, eta, c0, c1 = sp.symbols("x y xi eta c0 c1")
NAMES = {"x": x, "y": y, "xi": xi, "eta": eta, "c0": c0, "c1": c1, "I": sp.I}


def sym(text: str):
    """A DSL or program-printed expression as a sympy expression."""
    text = re.sub(r"\bi\b", "I", text).replace("^", "**")
    return sp.sympify(text, locals=NAMES)


def parts(text: str):
    """(f0, f1) of a C-valued function text."""
    e = sp.expand(sym(text))
    return e.coeff(c0), e.coeff(c1)


def zero(e) -> bool:
    return sp.expand(e) == 0


# ----------------------------------------------------------------------
# poisson
# ----------------------------------------------------------------------


def in_family_21(text: str) -> bool:
    """Is f = (a + y c) c0 + (b + xi c) c1 with a, b, c polynomials in x?"""
    f0, f1 = parts(text)
    p0 = sp.Poly(f0, x, y, xi)
    p1 = sp.Poly(f1, x, y, xi)
    if p0.degree(xi) > 0 or p0.degree(y) > 1 or p1.degree(y) > 0 or p1.degree(xi) > 1:
        return False
    c = sp.expand(f0).coeff(y, 1)
    return zero(sp.expand(f1).coeff(xi, 1) - c)


def check_poisson(inp: dict, op: dict, s: dict) -> List[str]:
    kind, chart = op["kind"], op["chart"]
    k = sp.Rational(inp["charts"]["P"]["scale"])
    bad = []
    if kind == "ham":
        if chart == "N":
            expect = "member" if in_family_21(op["f"]) else "not_member"
            if s["status"] != expect:
                bad.append(f"2|1 membership {s['status']}, family says {expect}")
        elif op["expect"] == "member" and s["status"] != "member":
            bad.append(f"known member reported {s['status']}")
        elif op["expect"] != "member" and s["status"] == "member":
            bad.append("known non-member reported member")
        if chart == "P" and s["status"] == "member":
            f0, _ = parts(op["f"])
            want = {"x": sp.diff(f0, y) / k, "y": -sp.diff(f0, x) / k}
            for name, val in want.items():
                if not zero(sym(s["field"].get(name, "0")) - val):
                    bad.append(f"X_f^{name} differs from the canonical field")
    elif kind == "sweep":
        if op["expect"] == "member" and s["status"] != "member":
            bad.append(f"known member reported {s['status']} at degree {op['degree']}")
        if op["expect"] == "nonmember" and s["status"] == "member":
            bad.append("known non-member reported member")
    elif kind == "bracket" and chart == "P":
        f0, _ = parts(op["f"]["text"])
        g0, _ = parts(op["g"]["text"])
        want = (sp.diff(f0, y) * sp.diff(g0, x) - sp.diff(f0, x) * sp.diff(g0, y)) / k
        b0, b1 = (sym(t) for t in s["bracket"])
        if not zero(b0 - want) or not zero(b1):
            bad.append("even-chart bracket differs from the canonical bracket")
    elif kind == "qop":
        f0, _ = parts(op["f"])
        sec = sym(op["section"])
        want = (
            -sp.I * (sp.diff(f0, y) * sp.diff(sec, x) - sp.diff(f0, x) * sp.diff(sec, y)) / k
            - x * sp.diff(f0, x) * sec
            + f0 * sec
        )
        if not zero(sym(s["result"]) - want):
            bad.append("Q(f)s differs from -i X_f s + <X_f, theta> s + f s")
    elif kind == "repcheck" and not s["holds"]:
        bad.append("[Q(f),Q(g)] != -i Q({f,g})")
    return bad


# ----------------------------------------------------------------------
# graded skew pairings, super Lie algebras and their H^2
# ----------------------------------------------------------------------


def spec_of(inp: dict, name: str):
    spec = inp["specs"][name]
    return spec["parities"], [[Fraction(v) for v in r] for r in spec["omega0"]], [[Fraction(v) for v in r] for r in spec["omega1"]]


def orbit_case(y0: Fraction, y1: Fraction) -> str:
    if y0 == 0 and y1 == 0:
        return "trivial"
    if y1 == 0:
        return "case_i"
    return "case_ii" if y0 == 0 else "case_iii"


def orbit_dimension(par, om0, om1, y0, y1) -> Tuple[int, int]:
    """Ranks of the fundamental-field matrix restricted to even and to odd
    ambient coordinates (x_i has parity eps_i, xbar_i has 1 - eps_i)."""
    n = len(par)
    rows = {0: [], 1: []}
    for i in range(n):
        sign = -1 if par[i] else 1
        rows[par[i]].append([sign * y0 * om0[j][i] for j in range(n)])
        rows[1 - par[i]].append([y1 * om1[j][i] for j in range(n)])
    return tuple(sp.Matrix(rows[p]).rank() if rows[p] else 0 for p in (0, 1))


class Algebra:
    """Structure constants [e_i, e_j] = sum_m c[i,j][m] e_m, graded skew."""

    def __init__(self, par, brackets: Dict[Tuple[int, int], Dict[int, Fraction]]):
        self.par = list(par)
        self.n = len(par)
        full: Dict[Tuple[int, int], Dict[int, Fraction]] = {}
        for (i, j), vec in brackets.items():
            full[(i, j)] = dict(vec)
            skew = 1 if par[i] * par[j] % 2 else -1
            full[(j, i)] = {m: skew * c for m, c in vec.items()}
        self.br = full
        self.pairs = canonical_pairs(par)
        self.index = {p: k for k, p in enumerate(self.pairs)}

    def pair_coeff(self, a: int, b: int) -> Tuple[int, int]:
        """w(e_a, e_b) = sign * w[canonical pair]; sign 0 when it vanishes."""
        if a == b and self.par[a] == 0:
            return 0, -1
        if a <= b:
            return 1, self.index[(a, b)]
        return (1 if self.par[a] * self.par[b] % 2 else -1), self.index[(b, a)]

    def cocycle_rows(self) -> List[List[Fraction]]:
        """Graded Jacobi of the central extension by w, as linear equations:
        sum over cyclic (i,j,k) of (-1)^(eps_i eps_k) w(e_i, [e_j, e_k]) = 0."""
        rows = []
        n = self.n
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    row = [Fraction(0)] * len(self.pairs)
                    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                        sign = -1 if self.par[a] * self.par[c] % 2 else 1
                        for m, coeff in self.br.get((b, c), {}).items():
                            s, col = self.pair_coeff(a, m)
                            if s:
                                row[col] += sign * s * coeff
                    if any(row):
                        rows.append(row)
        return rows

    def coboundary_cols(self) -> List[List[Fraction]]:
        """Columns dF for F = the dual of e_m: (dF)(e_a, e_b) = F([e_a, e_b])."""
        return [[self.br.get(p, {}).get(m, Fraction(0)) for p in self.pairs] for m in range(self.n)]

    def vector(self, values: Dict[Tuple[int, int], Fraction]) -> List[Fraction]:
        vec = [Fraction(0)] * len(self.pairs)
        for (a, b), v in values.items():
            s, col = self.pair_coeff(a, b)
            vec[col] += s * v
        return vec

    def is_cocycle(self, vec) -> bool:
        return all(sum((r * v for r, v in zip(row, vec)), Fraction(0)) == 0 for row in self.cocycle_rows())

    def h2_dims(self) -> List[int]:
        c2 = len(self.pairs)
        rows = self.cocycle_rows()
        z2 = c2 - (sp.Matrix(rows).rank() if rows else 0)
        b2 = sp.Matrix(self.coboundary_cols()).rank()
        return [c2, z2, b2, z2 - b2]

    def in_b2(self, vec) -> bool:
        cols = self.coboundary_cols()
        return sp.Matrix(cols).rank() == sp.Matrix(cols + [vec]).rank()


def algebra_from_inputs(data: dict) -> Algebra:
    br: Dict[Tuple[int, int], Dict[int, Fraction]] = {}
    for i, j, m, c in data["brackets"]:
        br.setdefault((i, j), {})[m] = Fraction(c)
    return Algebra(data["parities"], br)


def _plain_cochain(d: Dict[str, List[str]], par) -> Dict[Tuple[int, int], Fraction]:
    out = {}
    for key, (v0, v1) in d.items():
        a, b = (int(t) for t in key.split(","))
        out[(a, b)] = Fraction(v1 if (par[a] + par[b]) % 2 else v0)
    return out


# ----------------------------------------------------------------------
# a small Grassmann algebra: {sorted generator tuple: Fraction}
# ----------------------------------------------------------------------


def g_mul(a: Dict[tuple, Fraction], b: Dict[tuple, Fraction]) -> Dict[tuple, Fraction]:
    out: Dict[tuple, Fraction] = {}
    for ia, ca in a.items():
        for ib, cb in b.items():
            if set(ia) & set(ib):
                continue
            word = list(ia) + list(ib)
            inversions = sum(1 for p in range(len(word)) for q in range(p + 1, len(word)) if word[p] > word[q])
            key = tuple(sorted(word))
            out[key] = out.get(key, Fraction(0)) + (-1) ** inversions * ca * cb
    return {k: v for k, v in out.items() if v}


def g_add(a, b, s=Fraction(1)):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, Fraction(0)) + s * v
    return {k: v for k, v in out.items() if v}


def g_from_terms(terms) -> Dict[tuple, Fraction]:
    out: Dict[tuple, Fraction] = {}
    for c, gens in terms:
        out = g_add(out, {tuple(gens): Fraction(c)})
    return out


def g_from_plain(d: Dict[str, List[str]]):
    """The program's Grassmann number, which must be real here."""
    out = {}
    for key, (re_, im) in d.items():
        if Fraction(im) != 0:
            return None
        out[tuple(int(t) for t in key.split(",")) if key else ()] = Fraction(re_)
    return {k: v for k, v in out.items() if v}


# ----------------------------------------------------------------------
# algebra
# ----------------------------------------------------------------------


def _cech_values(surf: dict) -> Dict[Tuple[int, ...], Fraction]:
    """The a-cochain on sorted triangles, from the oriented generated values."""
    out = {}
    for i, j, k, v in surf["values"]:
        word = [i, j, k]
        inv = sum(1 for p in range(3) for q in range(p + 1, 3) if word[p] > word[q])
        out[tuple(sorted(word))] = (-1) ** inv * Fraction(v)
    return out


def check_algebra(inp: dict, op: dict, s: dict, cache: dict) -> List[str]:
    kind = op["kind"]
    bad = []
    if kind in ("orbit", "kks", "momentum"):
        par, om0, om1 = spec_of(inp, op["spec"])
        y0, y1 = (Fraction(v) for v in op["point"])
        case = orbit_case(y0, y1)
        if s["case"] != case:
            bad.append(f"orbit case {s['case']}, signs of (y0, ybar1) give {case}")
        dim = (0, 0) if case == "trivial" else orbit_dimension(par, om0, om1, y0, y1)
        if tuple(s["dimension"]) != tuple(dim):
            bad.append(f"orbit dimension {s['dimension']}, ranks give {list(dim)}")
        if kind == "momentum" and not (s["momentum"]["hamiltonian"] and s["momentum"]["strongly_hamiltonian"]):
            bad.append("coadjoint momentum map not (strongly) hamiltonian")
    elif kind == "coad":
        par, om0, om1 = spec_of(inp, op["spec"])
        n = len(par)
        y0, y1 = (Fraction(v) for v in op["point"])
        a1, a2 = ([g_from_terms(c["terms"]) for c in g] for g in op["g"])
        a = [g_add(u, v) for u, v in zip(a1, a2)]
        b0, b1 = {}, {}
        for i in range(n):
            for j in range(n):
                prod = g_mul(a1[i], a2[j])
                sign = -1 if par[i] * par[j] % 2 else 1
                b0 = g_add(b0, prod, sign * om0[i][j] / 2)
                b1 = g_add(b1, prod, sign * om1[i][j] / 2)
        xs, xbars = [], []
        for i in range(n):
            sign = -1 if par[i] else 1
            shift0, shift1 = {}, {}
            for j in range(n):
                shift0 = g_add(shift0, a[j], om0[j][i])
                shift1 = g_add(shift1, a[j], om1[j][i])
            xs.append({k: -sign * y0 * v for k, v in shift0.items() if y0})
            xbars.append({k: -y1 * v for k, v in shift1.items() if y1})
        got = {key: ([g_from_plain(v) for v in s[key]] if isinstance(s[key], list) else g_from_plain(s[key])) for key in ("a", "b0", "b1", "x", "xbar")}
        want = {"a": a, "b0": b0, "b1": b1, "x": xs, "xbar": xbars}
        for key in want:
            if got[key] != want[key]:
                bad.append(f"group law / coadjoint action: {key} differs")
    elif kind in ("h2", "extend", "equiv"):
        name = op["algebra"]
        data = inp["algebras"][name]
        if name not in cache:
            cache[name] = algebra_from_inputs(data)
        g = cache[name]
        par = data["parities"]
        cochains = {t: g.vector({(i, j): Fraction(v) for i, j, v in vals}) for t, vals in data["cochains"].items()}
        if kind == "h2":
            dims = g.h2_dims()
            if s["dims"] != dims:
                bad.append(f"H2 dims {s['dims']}, sympy ranks give {dims}")
            reps = [g.vector(_plain_cochain(r, par)) for r in s["reps"]]
            if len(reps) != dims[3] or not all(g.is_cocycle(r) for r in reps):
                bad.append("H2 representatives are not dim H2 cocycles")
            elif reps and sp.Matrix(g.coboundary_cols() + reps).rank() != dims[2] + len(reps):
                bad.append("H2 representatives are not independent modulo coboundaries")
        elif kind == "extend":
            if s["jacobi"] != g.is_cocycle(cochains[op["cocycle"]]):
                bad.append("central extension Jacobi verdict differs from the cocycle condition")
        else:
            w1, w2 = (cochains[t] for t in op["pair"])
            diff = [u - v for u, v in zip(w1, w2)]
            if s["equivalent"] != g.in_b2(diff):
                bad.append("extension equivalence differs from the coboundary test")
            if s["equivalent"]:
                F = [Fraction(0)] * g.n
                for m, (v0, v1) in s["witness"].items():
                    F[int(m)] = Fraction(v1 if par[int(m)] else v0)
                dF = [sum((col[p] * F[m] for m, col in enumerate(g.coboundary_cols())), Fraction(0)) for p in range(len(g.pairs))]
                if dF != diff:
                    bad.append("equivalence witness F fails w1 - w2 = dF")
    elif kind.startswith("cech_"):
        surf = inp["surfaces"][op["surface"]]
        per = abs(Fraction(surf["signed_sum"])) if surf["oriented"] else Fraction(0)
        if kind == "cech_load" and s["triangles"] != len(surf["values"]):
            bad.append("cover has the wrong number of triangles")
        if kind in ("cech_periods", "cech_normalize") and Fraction(s["per"]) != per:
            bad.append(f"period generator {s['per']}, expected {per}")
        if kind == "cech_normalize":
            a = _cech_values(surf)
            b = {tuple(int(t) for t in key.split(",")): Fraction(v) for key, v in s["b"].items()}
            corr = {tuple(int(t) for t in key.split(",")): Fraction(v) for key, v in s["corrected"].items()}
            for t in a:
                i, j, k = t
                db = b.get((j, k), 0) - b.get((i, k), 0) + b.get((i, j), 0)
                if a[t] - corr.get(t, Fraction(0)) != db:
                    bad.append(f"a - corrected != delta b on {t}")
                    break
            for v in corr.values():
                if (per == 0 and v != 0) or (per != 0 and (v / per).denominator != 1):
                    bad.append("normalized cocycle leaves the period group")
                    break
        if kind == "cech_classify" and (s["free_rank"], s["torsion"]) != (surf["free_rank"], surf["torsion"]):
            bad.append(f"H1 ({s['free_rank']}, {s['torsion']}), homology gives ({surf['free_rank']}, {surf['torsion']})")
    return bad


# ----------------------------------------------------------------------
# cli
# ----------------------------------------------------------------------

GL11 = Algebra(
    [0, 0, 1, 1],
    {
        (0, 2): {2: Fraction(1)},
        (0, 3): {3: Fraction(-1)},
        (1, 2): {2: Fraction(-1)},
        (1, 3): {3: Fraction(1)},
        (2, 3): {0: Fraction(1), 1: Fraction(1)},
    },
)  # fixtures/algebra.ssp (gl(1|1)), 0-based
GL11_W1 = {(0, 1): Fraction(1)}
GL11_W2 = {(0, 1): Fraction(1), (2, 2): Fraction(2)}
SPHERE_PERIOD = Fraction(3)  # fixtures/sphere.cov: one triangle of the tetrahedron carries 3


def check_cli(op: dict, code: int, out: str, heis33) -> Tuple[bool, List[str]]:
    """(failed, problems) for one command; failed means the documented exit
    code 2 for malformed input was not met."""
    if op.get("malformed"):
        return code != 2, []
    try:
        r = json.loads(out)
    except ValueError:
        return False, [f"no JSON report (exit {code})"]
    tag = op["tag"]
    want_code = 0
    bad: List[str] = []

    def expect(key, value):
        if r.get(key) != value:
            bad.append(f"{key} = {r.get(key)!r}, expected {value!r}")

    if tag == "check":
        for key, value in (("closed", True), ("nondegenerate", False), ("homogeneously_nondegenerate", True), ("symplectic", True)):
            expect(key, value)
    elif tag == "ham_member":
        expect("status", "member")
    elif tag == "ham_nonmember":
        expect("status", "not_member")
        want_code = 1
    elif tag == "poisson20":
        f, g = (sym(t) for t in op["fg"])
        want = sp.diff(f, y) * sp.diff(g, x) - sp.diff(f, x) * sp.diff(g, y)
        b0, b1 = parts(r.get("bracket", "0"))
        if not zero(b0 - want) or not zero(b1):
            bad.append("bracket differs from the canonical bracket")
    elif tag == "darboux":
        a = Fraction(op["a"])
        w = [[Fraction(0), a], [-a, Fraction(0)]]
        expect("kind", "even")
        expect("k", 1)
        expect("ell", 0)
        canon = [[Fraction(v) for v in row] for row in r.get("canonical_matrix", [])]
        bmat = [[Fraction(v) for v in row] for row in r.get("basis_change", [])]
        if canon != [[0, -1], [1, 0]]:
            bad.append("canonical matrix is not [[0,-1],[1,0]]")
        elif [[sum(bmat[k][i] * w[k][l] * bmat[l][j] for k in range(2) for l in range(2)) for j in range(2)] for i in range(2)] != canon:
            bad.append("B^T W B != canonical matrix")
    elif tag == "h2":
        dims = GL11.h2_dims()
        for key, val in zip(("dim_c2", "dim_z2", "dim_b2", "dim_h2"), dims):
            expect(key, val)
    elif tag == "extend":
        closed = GL11.is_cocycle(GL11.vector(GL11_W1))
        expect("closed", closed)
        expect("jacobi", closed)
        want_code = 0 if closed else 1
    elif tag == "equiv":
        equivalent = GL11.in_b2([u - v for u, v in zip(GL11.vector(GL11_W1), GL11.vector(GL11_W2))])
        expect("equivalent", equivalent)
        want_code = 0 if equivalent else 1
    elif tag in ("orbit", "kks", "momentum"):
        par, om0, om1 = heis33
        y0 = Fraction(op["args"][op["args"].index("--y0") + 1])
        y1 = Fraction(op["args"][op["args"].index("--ybar1") + 1])
        expect("case", orbit_case(y0, y1))
        if tag == "orbit":
            p, qq = orbit_dimension(par, om0, om1, y0, y1)
            expect("dimension", f"{p}|{qq}")
        elif tag == "kks":
            for key, value in (("closed", True), ("homogeneously_nondegenerate", True), ("nondegenerate", False)):
                expect(key, value)
        else:
            expect("hamiltonian", True)
            expect("strongly_hamiltonian", True)
    elif tag == "periods":
        expect("per", str(SPHERE_PERIOD))
        expect("trivial", False)
    elif tag == "prequantize":
        d = Fraction(op["d"])
        exists = (SPHERE_PERIOD / d).denominator == 1
        expect("per", str(SPHERE_PERIOD))
        expect("exists", exists)
        want_code = 0 if exists else 1
        if exists and any((Fraction(v) / SPHERE_PERIOD).denominator != 1 for v in r.get("normalized_cocycle", {}).values()):
            bad.append("normalized cocycle leaves 3Z")
    elif tag == "classify":
        expect("free_rank", 1)
        expect("torsion", [])
        expect("coefficients", f"Q/{Fraction(op['d'])}Z")
        expect("trivial", False)
    elif tag == "eta":
        expect("preserves_connection", True)
    elif tag == "qop":
        f, sec = sym(op["f"]), sym(op["s"])
        want = -sp.I * (sp.diff(f, y) * sp.diff(sec, x) - sp.diff(f, x) * sp.diff(sec, y)) - x * sp.diff(f, x) * sec + f * sec
        if not zero(sym(r.get("result", "0")) - want):
            bad.append("Q(f)s differs from -i X_f s + <X_f, theta> s + f s")
    elif tag == "repcheck":
        expect("holds", True)
    elif tag in ("verify_section", "verify_all"):
        section = op.get("section", "all")
        failed = [c for c in r.get("checks", []) if not c.get("ok")]
        known = all(c["section"] == "section3" and "(reference display)" in c["name"] for c in failed)
        n_known = 2 if section in ("section3", "all") else 0
        if len(failed) != n_known or not known:
            bad.append(f"failed checks {[c['name'] for c in failed]}, expected the {n_known} section3 reference displays")
        if section == "all":
            expect("passed", 40)
            expect("total", 42)
        want_code = 1 if n_known else 0
    if code != want_code:
        bad.append(f"exit {code}, expected {want_code}")
    return False, bad
