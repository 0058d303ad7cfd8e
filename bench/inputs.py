"""Seeded inputs of the three workloads, as plain text and plain data.

Nothing here imports supersymp: the program only ever sees the DSL text,
cover files and CLI arguments built below.  Every workload keeps the same
shape for every seed (the same operations, monomials, matrix patterns and
surface sizes); the seed draws the values, the signs and the order.  That
keeps the cost of a round nearly independent of the seed, so runs with
different seeds measure the same amount of work.
"""

from __future__ import annotations

import json
import os
import random
import re
from fractions import Fraction
from typing import Dict, List, Tuple

# ----------------------------------------------------------------------
# small helpers
# ----------------------------------------------------------------------


def q(value) -> str:
    """A rational as DSL text, parenthesised so that it binds as one factor."""
    value = Fraction(value)
    if value.denominator == 1:
        return f"({value.numerator})"
    return f"({value.numerator}/{value.denominator})"


def small(rng: random.Random) -> Fraction:
    """A nonzero small integer."""
    return Fraction(rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)))


def tall(rng: random.Random) -> Fraction:
    """A nonzero rational of large height (numerator ~1e9, denominator ~1e5)."""
    num = rng.randrange(10**8, 10**9) * rng.choice((-1, 1))
    den = rng.randrange(10**4, 10**5)
    while Fraction(num, den).denominator < 1000:
        den += 1
    return Fraction(num, den)


def mixed(rng: random.Random, is_tall: bool) -> Fraction:
    return tall(rng) if is_tall else small(rng)


def poly(rng: random.Random, monomials: List[str], tall_first: bool = True) -> str:
    """Sum of the given monomials with seeded nonzero coefficients; the
    first coefficient has large height when `tall_first`, the rest are small."""
    parts = []
    for k, mono in enumerate(monomials):
        c = q(mixed(rng, tall_first and k == 0))
        parts.append(c if mono == "1" else f"{c}*{mono}")
    return " + ".join(parts)


def cfn(f0: str, f1: str) -> str:
    return f"({f0 or '0'})*c0 + ({f1 or '0'})*c1"


# ----------------------------------------------------------------------
# poisson
# ----------------------------------------------------------------------

# monomial shapes of the function pools; the seed only draws coefficients
P_SHAPES = [
    ["(x^2)*y", "(y^3)", "x"],
    ["x*(y^2)", "y", "1"],
    ["(x^3)", "x*y", "(y^2)"],
    ["(x^2)", "(y^2)*x", "y"],
    ["x*y", "(x^2)*(y^2)"],
    ["(y^2)", "x"],
]
SECTION_SHAPES = [["x*y", "1"], ["(y^2)", "x"], ["(x^2)", "y*x", "1"]]
X_SHAPES = [["1", "x"], ["x", "(x^2)"], ["1", "(x^2)"]]  # polynomials a(x), b(x), c(x)


def _member21(rng: random.Random, parity: int, k: int) -> dict:
    """Homogeneous member (a + y c) c0 + (b + xi c) c1 of the 2|1 algebra."""
    if parity == 0:
        a = poly(rng, X_SHAPES[k % 3])
        c = poly(rng, X_SHAPES[(k + 1) % 3], False)
        text = cfn(f"{a} + y*({c})", f"xi*({c})")
    else:
        b = poly(rng, X_SHAPES[k % 3])
        text = cfn("", b)
    return {"text": text, "parity": parity}


def _member22(rng: random.Random, parity: int) -> dict:
    """Rational combination of known members of the mixed 2|2 algebra:
    c0, x c0, x^2 c0, y c0 + xi c1 (even) and c1, xi c0, x xi c0 (odd)."""
    r = [mixed(rng, i == 1) for i in range(4)]
    if parity == 0:
        text = cfn(f"{q(r[0])} + {q(r[1])}*x + {q(r[2])}*(x^2) + {q(r[3])}*y", f"{q(r[3])}*xi")
    else:
        text = cfn(f"{q(r[1])}*xi + {q(r[2])}*x*xi", q(r[0]))
    return {"text": text, "parity": parity}


def poisson(seed: int) -> dict:
    rng = random.Random(seed)
    k = rng.choice([Fraction(2), Fraction(-2), Fraction(3), Fraction(-3)])
    ha = rng.choice([Fraction(2), Fraction(3), Fraction(5)])
    hb = rng.choice([Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)])
    h = f"({q(ha)} + {q(hb)}*(x^2))"
    document = "\n".join(
        [
            "chart P even x,y;",
            f"form om20 = {q(k)}*dx^dy;",
            f"form th20 = {q(k)}*x*dy;",
            "chart N even x,y odd xi;",
            "form om21 = dx^dy + dx^dxi;",
            "form th21 = x*dy + x*dxi;",
            "chart M even x,y odd xi,eta;",
            "form om22 = dx^dy + dxi^deta + dx^dxi;",
            "chart V even x,y odd xi,eta;",
            "form omv = x*dx^dy + dx^dxi + dy^deta;",
            "chart W even x,y;",
            f"form omw = {h}*dx^dy;",
            "chart U even x,y odd xi;",
            f"form omu = {h}*dx^dy + dx^dxi;",
        ]
    )
    charts = {
        "P": {"form": "om20", "theta": "th20", "point": {"x": 0, "y": 0}, "scale": str(k)},
        "N": {"form": "om21", "theta": "th21", "point": {"x": 0, "y": 0}},
        "M": {"form": "om22", "point": {"x": 0, "y": 0}},
        "V": {"form": "omv", "point": {"x": 1, "y": 0}},
        "W": {"form": "omw", "point": {"x": 0, "y": 0}},
        "U": {"form": "omu", "point": {"x": 0, "y": 0}},
    }

    pools: Dict[str, List[dict]] = {}
    pools["P"] = [{"text": cfn(poly(rng, shape), ""), "parity": 0} for shape in P_SHAPES]
    pools["N"] = [_member21(rng, p, i) for i, p in enumerate((0, 0, 0, 1, 1, 1))]
    pools["M"] = [_member22(rng, p) for p in (0, 0, 0, 1, 1, 1)]
    sections = [poly(rng, shape, False) for shape in SECTION_SHAPES]

    # known non-members: y^2 is outside the 2|1 family; on the 2|1 and 2|2
    # constant forms these are refuted degree-independently
    a = poly(rng, ["1", "x"])
    c = poly(rng, ["x"])
    nonmembers = {
        "N": [
            cfn(f"{a} + {q(small(rng))}*(y^2)", ""),
            cfn(f"{a} + y*({c})", f"xi*({c} + {q(small(rng))})"),
            cfn("", f"{q(small(rng))}*y"),
        ],
        "M": [cfn(f"{q(small(rng))}*y", ""), cfn("", f"{q(small(rng))}*eta"), cfn(f"{q(small(rng))}*(y^2)", "")],
    }
    # non-constant forms: members and non-members with hand-derived verdicts
    # (see README); sweeps run one ansatz degree each
    wmember = cfn(f"{q(ha)}*x + {q(hb / 3)}*(x^3)", "")
    sweep_fns = {
        "V": [
            ("nonmember", cfn("xi", "")),
            ("nonmember", cfn("y", "")),
            ("open", cfn(f"{q(small(rng))}*(x^2)", f"{q(small(rng))}*eta")),
        ],
        "W": [("member", wmember), ("nonmember", cfn("y", "")), ("open", cfn(f"{h}*y", ""))],
        "U": [("member", wmember), ("nonmember", cfn("y", "")), ("open", cfn("x*y", f"{q(small(rng))}*xi"))],
    }

    # which pool members each query uses is fixed; the seed draws the values
    # and the order, so every seed does the same amount of work
    pairs = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3), (1, 4), (2, 5)]
    triples = [(0, 1, 3), (1, 2, 4), (2, 0, 5), (3, 4, 0), (5, 3, 1)]
    ops: List[dict] = []
    for i in range(14):
        ops.append({"kind": "ham", "chart": "P", "f": pools["P"][i % 6]["text"], "expect": "member"})
    for chart in ("N", "M"):
        for i in range(10):
            ops.append({"kind": "ham", "chart": chart, "f": pools[chart][i % 6]["text"], "expect": "member"})
        for text in nonmembers[chart]:
            ops.append({"kind": "ham", "chart": chart, "f": text, "expect": "not_member"})
    for chart, n in (("P", 9), ("N", 8), ("M", 8)):
        for i, j in pairs[:n]:
            ops.append({"kind": "bracket", "chart": chart, "f": pools[chart][i], "g": pools[chart][j]})
    for chart in ("N", "M"):
        for t in triples:
            ops.append({"kind": "jacobi", "chart": chart, "fgh": [pools[chart][i] for i in t]})
    for i in range(15):
        ops.append({"kind": "qop", "chart": "P", "f": pools["P"][i % 6]["text"], "section": sections[i % 3]})
    for chart in ("P", "N"):
        for i, j in ((0, 3), (1, 4), (2, 5)):
            f, g = pools[chart][i], pools[chart][j]
            secs = ["1", "x*y", "xi"] if chart == "N" else ["1"] + sections[:2]
            ops.append({"kind": "repcheck", "chart": chart, "f": f["text"], "g": g["text"], "sections": secs})
    for chart, fns in sweep_fns.items():
        for degree, (verdict, text) in zip((1, 2, 3), fns):
            ops.append({"kind": "sweep", "chart": chart, "f": text, "degree": degree, "expect": verdict})
        verdict, text = fns[0]
        ops.append({"kind": "sweep", "chart": chart, "f": text, "degree": 2, "expect": verdict})
    rng.shuffle(ops)
    for i, op in enumerate(ops):
        op["id"] = i
    return {"documents": {"poisson": document}, "charts": charts, "ops": ops}


# ----------------------------------------------------------------------
# algebra
# ----------------------------------------------------------------------


def pairing(rng: random.Random, k: int) -> Tuple[List[int], List[List[Fraction]], List[List[Fraction]]]:
    """Graded skew pairing on a k|k space with a fixed pattern: every
    admissible entry is nonzero with a fixed magnitude and a seeded sign,
    and the odd-odd and mixed blocks are diagonally dominant, so the ranks
    (hence the orbit dimensions) and the work do not depend on the seed."""
    n = 2 * k
    par = [0] * k + [1] * k
    om0 = [[Fraction(0)] * n for _ in range(n)]
    om1 = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if j == i or j == i + k:
                mag = 4 + par[i]  # diagonal of the mixed block 4, of the odd-odd block 5
            elif par[j] == 0:
                mag = 1 + (i + j) % 2  # even-even block
            else:
                mag = 1
            v = Fraction(mag * rng.choice((-1, 1)))
            if par[i] == par[j] == 0:
                if i != j:
                    om0[i][j], om0[j][i] = v, -v
            elif par[i] == par[j] == 1:
                om0[i][j] = om0[j][i] = v
            else:
                om1[i][j], om1[j][i] = v, -v
    return par, om0, om1


def _matrix(m) -> str:
    return "[" + ",".join("[" + ",".join(q(v).strip("()") for v in row) + "]" for row in m) + "]"


def extension_brackets(par, om0, om1) -> Dict[Tuple[int, int], Dict[int, Fraction]]:
    """Structure constants of the central extension E x C (c0, c1 appended)."""
    n = len(par)
    out: Dict[Tuple[int, int], Dict[int, Fraction]] = {}
    for i in range(n):
        for j in range(i, n):
            vec = {}
            if om0[i][j]:
                vec[n] = om0[i][j]
            if om1[i][j]:
                vec[n + 1] = om1[i][j]
            if vec:
                out[(i, j)] = vec
    return out


def _algebra_decl(name: str, par, brackets) -> str:
    items = []
    for (i, j), vec in sorted(brackets.items()):
        terms = " + ".join(f"{q(c).strip('()')}*e{m + 1}" for m, c in sorted(vec.items()))
        items.append(f"[{i + 1},{j + 1}] = {terms}")
    text = f"algebra {name} parities {','.join(map(str, par))}"
    return text + (" bracket " + ", ".join(items) if items else "") + ";"


def canonical_pairs(par) -> List[Tuple[int, int]]:
    """Index pairs i <= j that a graded skew 2-cochain is stored on
    (i == j only for odd e_i)."""
    n = len(par)
    return [(i, j) for i in range(n) for j in range(i, n) if i != j or par[i] == 1]


def _cochain_decl(name: str, alg: str, values: Dict[Tuple[int, int], Fraction], par) -> str:
    items = []
    for (i, j), v in sorted(values.items()):
        if v:
            cidx = (par[i] + par[j]) % 2
            items.append(f"[{i + 1},{j + 1}] = {q(v).strip('()')}*c{cidx}")
    body = (" values " + ", ".join(items)) if items else ""
    return f"cocycle {name} on {alg} degree 2{body};"


def _coboundary_of(par, brackets, F: List[Fraction]) -> Dict[Tuple[int, int], Fraction]:
    """(dF)(e_i, e_j) = F([e_i, e_j]) for an even 1-cochain F."""
    out = {}
    for (i, j) in canonical_pairs(par):
        out[(i, j)] = sum((c * F[m] for m, c in brackets.get((i, j), {}).items()), Fraction(0))
    return out


TORI = [(5, 5), (10, 10)]  # 50 and 200 triangles


def torus(m: int, n: int) -> List[Tuple[int, int, int]]:
    """Consistently oriented triangulation of the m x n torus grid."""
    v = lambda i, j: (i % m) * n + (j % n)
    tris = []
    for i in range(m):
        for j in range(n):
            tris.append((v(i, j), v(i + 1, j), v(i + 1, j + 1)))
            tris.append((v(i, j), v(i + 1, j + 1), v(i, j + 1)))
    return tris


def octahedron() -> List[Tuple[int, int, int]]:
    """Oriented boundary of the octahedron: poles 0, 5 over the square 1..4."""
    ring = [1, 2, 3, 4]
    tris = []
    for a, b in zip(ring, ring[1:] + ring[:1]):
        tris.append((0, a, b))
        tris.append((5, b, a))
    return tris


# minimal six-vertex triangulation of the real projective plane
RP2 = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1), (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3)]


def _relabel(rng: random.Random, tris):
    verts = sorted({v for t in tris for v in t})
    perm = verts[:]
    rng.shuffle(perm)
    mp = dict(zip(verts, perm))
    return [tuple(mp[v] for v in t) for t in tris]


def surface(rng: random.Random, kind: str, tris) -> dict:
    tris = _relabel(rng, tris)
    values = {t: small(rng) for t in tris}
    if sum(values.values()) == 0:  # keep the period group of an orientable surface nontrivial
        values[tris[0]] += 1
    lines = [f"# {kind}"] + [f"simplex {t[0]} {t[1]} {t[2]}" for t in tris]
    lines += [f"a {t[0]} {t[1]} {t[2]} = {q(v).strip('()')}" for t, v in values.items() if v]
    homology = {"sphere": (0, []), "torus": (2, []), "rp2": (0, [2])}[kind]
    return {
        "kind": kind,
        "text": "\n".join(lines) + "\n",
        "oriented": kind != "rp2",
        "signed_sum": str(sum(values.values(), Fraction(0))),
        "values": [[*t, str(v)] for t, v in values.items()],
        "free_rank": homology[0],
        "torsion": homology[1],
        "d": str(rng.choice([Fraction(1), Fraction(3), Fraction(1, 2)])),
    }


def algebra(seed: int, paper_pairing: str) -> dict:
    rng = random.Random(seed)
    specs = {}
    decls = ["chart G even s;", paper_pairing.strip()]
    for k in (1, 2, 3):
        par, om0, om1 = pairing(rng, k)
        name = f"K{k}"
        specs[name] = {"parities": par, "omega0": [[str(v) for v in r] for r in om0], "omega1": [[str(v) for v in r] for r in om1]}
        decls.append(f"heisenberg {name} parities {','.join(map(str, par))} omega0 {_matrix(om0)} omega1 {_matrix(om1)};")
    specs["H"] = paper_spec(paper_pairing)

    # extension algebras of the seeded pairings, with seeded 2-cochains:
    # w_a arbitrary, w_b = w_a + dF (equivalent), w_c = w_b changed on one
    # pair, w_d = dF (a coboundary, so its central extension satisfies Jacobi)
    algebras = {}
    for k in (1, 2, 3):
        spec = specs[f"K{k}"]
        par = spec["parities"] + [0, 1]
        br = extension_brackets(spec["parities"], *[[[Fraction(v) for v in r] for r in spec[m]] for m in ("omega0", "omega1")])
        name = f"g{k}"
        decls.append(_algebra_decl(name, par, br))
        pairs = canonical_pairs(par)
        wa = {p: (small(rng) if i % 3 == 0 else Fraction(0)) for i, p in enumerate(pairs)}
        F = [small(rng) for _ in par]
        dF = _coboundary_of(par, br, F)
        wb = {p: wa[p] + dF[p] for p in pairs}
        shift = rng.choice(pairs)
        wc = dict(wb)
        wc[shift] += small(rng)
        cochains = (("a", wa), ("b", wb), ("c", wc), ("d", dF))
        for tag, w in cochains:
            decls.append(_cochain_decl(f"w{k}{tag}", name, w, par))
        algebras[name] = {
            "parities": par,
            "brackets": [[i, j, m, str(c)] for (i, j), v in br.items() for m, c in v.items()],
            "cochains": {f"w{k}{t}": [[i, j, str(v)] for (i, j), v in w.items() if v] for t, w in cochains},
        }

    surfaces = [surface(rng, "sphere", octahedron())]
    surfaces += [surface(rng, "torus", torus(m, n)) for m, n in TORI]
    surfaces.append(surface(rng, "rp2", RP2))

    signs = [(1, 0), (0, 1), (1, 1), (-1, 1)]
    ops: List[dict] = []
    for name in ("K1", "K2", "K3", "H"):
        for s0, s1 in signs:
            # fixed magnitudes, seeded signs: the work of an orbit depends on
            # the heights of y0 and ybar1, its case only on their signs
            y0 = s0 * 2 * rng.choice((-1, 1))
            y1 = s1 * 3 * rng.choice((-1, 1))
            point = [str(y0), str(y1)]
            ops.append({"kind": "orbit", "spec": name, "point": point})
            ops.append({"kind": "kks", "spec": name, "point": point})
            ops.append({"kind": "momentum", "spec": name, "point": point})
        ops.append({"kind": "orbit", "spec": name, "point": ["0", "0"]})
        # the larger pairings get more coadjoint actions: this puts the
        # median operation inside a dense block of similar costs, where it
        # moves little with the machine's load
        for i in range(9 if name in ("K2", "H") else 6):
            s0, s1 = signs[i % 4]
            point = [str(s0 * abs(small(rng))), str(s1 * abs(small(rng)))]
            ops.append({"kind": "coad", "spec": name, "point": point, "g": [_group_coords(rng, name, specs) for _ in range(2)]})
    for k in (1, 2, 3):
        name = f"g{k}"
        ops.append({"kind": "h2", "algebra": name})
        ops.append({"kind": "extend", "algebra": name, "cocycle": f"w{k}{'d' if k == 2 else 'a'}"})
        for x, y in (("a", "b"), ("b", "c"), ("a", "c")):
            ops.append({"kind": "equiv", "algebra": name, "pair": [f"w{k}{x}", f"w{k}{y}"]})
    for i in range(len(surfaces)):
        for step in ("load", "periods", "normalize", "classify"):
            ops.append({"kind": "cech_" + step, "surface": i})
    # cech steps of one surface stay in order; everything else is shuffled
    cech = [op for op in ops if op["kind"].startswith("cech_")]
    rest = [op for op in ops if not op["kind"].startswith("cech_")]
    rng.shuffle(rest)
    slots = sorted(rng.sample(range(len(rest) + 1), len(surfaces)))
    ordered: List[dict] = []
    for pos in range(len(rest) + 1):
        for s, slot in enumerate(slots):
            if slot == pos:
                ordered.extend(cech[4 * s: 4 * s + 4])
        if pos < len(rest):
            ordered.append(rest[pos])
    for i, op in enumerate(ordered):
        op["id"] = i
    return {
        "documents": {"algebra": "\n".join(decls)},
        "specs": specs,
        "algebras": algebras,
        "surfaces": surfaces,
        "ops": ordered,
    }


def _group_coords(rng: random.Random, name: str, specs) -> List[dict]:
    """Group coordinates a^i: even slots get a body plus a nilpotent even
    part, odd slots a nilpotent odd combination.  Each coordinate is kept
    as DSL text for the program and as terms [coefficient, generators] for
    the oracle."""
    out = []
    for e in specs[name]["parities"]:
        gens = [[1, 2], [3, 4]] if e == 0 else [[1], [3], [2, 3, 4]]
        terms = [[str(small(rng)), g] for g in gens]
        if e == 0:
            terms.insert(0, [str(small(rng)), []])
        text = " + ".join(f"{q(c)}" + "".join(f"*th{k}" for k in g) for c, g in terms)
        out.append({"text": text, "terms": terms})
    return out


PAPER_MATRIX = re.compile(r"omega([01])\s*(\[\[.*?\]\])", re.S)


def paper_spec(text: str) -> dict:
    """Parities and matrices of the bundled 3|3 pairing, read from its file."""
    mats = {m.group(1): json.loads(m.group(2)) for m in PAPER_MATRIX.finditer(text)}
    par = [int(p) for p in re.search(r"parities\s+([\d,\s]+?)\s+omega0", text).group(1).replace(" ", "").split(",")]
    return {"parities": par, "omega0": [[str(v) for v in r] for r in mats["0"]], "omega1": [[str(v) for v in r] for r in mats["1"]]}


# ----------------------------------------------------------------------
# cli
# ----------------------------------------------------------------------

DEEP = "(" * 2000 + "x" + ")" * 2000


def cli(seed: int) -> dict:
    """One round of commands: every subcommand of the README with seeded
    arguments, verify-paper on one seeded section and on all, and the three
    malformed inputs whose documented exit code is 2."""
    rng = random.Random(seed)

    def point():
        return f"x={rng.randint(-9, 9)}/{rng.randint(1, 9)},y={rng.randint(-9, 9)}"

    def xpoly(shape):
        return poly(rng, shape, False)

    a, b, c = xpoly(["1", "x"]), xpoly(["x"]), xpoly(["1", "(x^2)"])
    member21 = cfn(f"{a} + y*({c})", f"{b} + xi*({c})")
    even_a, even_b = xpoly(["1", "x"]), xpoly(["x"])
    p20 = [poly(rng, ["(x^2)*y", "x"], False), poly(rng, ["x*(y^2)", "y"], False)]
    section = poly(rng, ["x*y", "(y^2)"], False)
    darboux = small(rng) * rng.choice((1, Fraction(1, 2), Fraction(1, 3)))
    y0, y1 = abs(small(rng)), abs(small(rng))
    d_sphere = rng.choice(["1", "3", "3/2", "1/2", "3/4"])  # divides the period 3
    d_circle = rng.choice(["1", "3", "5/2"])
    cmds = [
        {"tag": "check", "args": ["symplectic", "check", "fixtures/mixed21.ssp", "--point", point()]},
        {"tag": "ham_member", "args": ["symplectic", "hamiltonian", "fixtures/mixed21.ssp", "--f", member21, "--point", "x=0,y=0"]},
        {"tag": "ham_nonmember", "args": ["symplectic", "hamiltonian", "fixtures/mixed21.ssp", "--f", f"{q(small(rng))}*(y^2)*c0", "--point", "x=0,y=0"]},
        {"tag": "poisson20", "args": ["symplectic", "poisson", "fixtures/even20.ssp", "--f", f"({p20[0]})*c0", "--g", f"({p20[1]})*c0", "--point", "x=0,y=0"], "fg": p20},
        {"tag": "darboux", "args": ["symplectic", "darboux", "--matrix", f'[[0,"{darboux}"],["{-darboux}",0]]', "--parities", "0,0", "--even"], "a": str(darboux)},
        {"tag": "h2", "args": ["liecoh", "h2", "fixtures/algebra.ssp"]},
        {"tag": "extend", "args": ["liecoh", "extend", "fixtures/algebra.ssp", "--cocycle", "w1"]},
        {"tag": "equiv", "args": ["liecoh", "equiv", "fixtures/algebra.ssp", "--cocycle", "w1", "--cocycle2", "w2"]},
        {"tag": "orbit", "args": ["heisenberg", "orbit", "fixtures/heis33.ssp", "--y0", str(y0 * rng.choice((1, -1))), "--ybar1", "0"]},
        {"tag": "kks", "args": ["heisenberg", "kks", "fixtures/heis33.ssp", "--y0", str(y0), "--ybar1", str(y1)]},
        {"tag": "momentum", "args": ["heisenberg", "momentum", "fixtures/heis33.ssp", "--y0", "0", "--ybar1", str(y1)]},
        {"tag": "periods", "args": ["cech", "periods", "fixtures/sphere.cov"]},
        {"tag": "prequantize", "args": ["cech", "prequantize", "fixtures/sphere.cov", "--d", d_sphere], "d": d_sphere},
        {"tag": "prequantize", "args": ["cech", "prequantize", "fixtures/sphere.cov", "--d", "2"], "d": "2"},
        {"tag": "classify", "args": ["cech", "classify", "fixtures/circle.cov", "--d", d_circle], "d": d_circle},
        {"tag": "eta", "args": ["prequant", "eta", "fixtures/mixed21.ssp", "--f", member21, "--point", "x=0,y=0"]},
        {"tag": "qop", "args": ["prequant", "qop", "fixtures/even20.ssp", "--f", f"({even_a} + {even_b}*y)*c0", "--section", section, "--point", "x=0,y=0"], "f": f"{even_a} + {even_b}*y", "s": section},
        {"tag": "repcheck", "args": ["prequant", "repcheck", "fixtures/mixed21.ssp", "--f", cfn(f"{a} + y*({c})", f"xi*({c})"), "--g", cfn("", b), "--sections", "1; x*y; xi", "--point", "x=0,y=0"]},
        {"tag": "verify_section", "args": ["verify-paper", "section7"], "section": "section7"},
        {"tag": "verify_all", "args": ["verify-paper", "all"]},
        # malformed input: the documented exit code is 2
        {"tag": "bad_point", "args": ["symplectic", "check", "fixtures/mixed21.ssp", "--point", "x=1/0"], "malformed": True},
        {"tag": "deep_nesting", "args": ["symplectic", "hamiltonian", "fixtures/mixed21.ssp", "--f", f"{DEEP}*c0", "--point", "x=0,y=0"], "malformed": True},
        {"tag": "darboux_shape", "args": ["symplectic", "darboux", "--matrix", "[[0,2],[-2,0]]", "--parities", "0", "--even"], "malformed": True},
    ]
    rng.shuffle(cmds)
    for i, op in enumerate(cmds):
        op["id"] = i
        op["kind"] = op["tag"]
    return {"ops": cmds}


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def make(workload: str, seed: int) -> dict:
    if workload == "poisson":
        return poisson(seed)
    if workload == "algebra":
        with open(os.path.join(ROOT, "fixtures", "heis33.ssp"), encoding="utf-8") as fh:
            return algebra(seed, fh.read())
    if workload == "cli":
        return cli(seed)
    raise ValueError(f"unknown workload {workload!r}")
