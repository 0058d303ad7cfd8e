"""In-process operations of the `poisson` and `algebra` workloads.

`build` turns the generated documents into program objects (the timed
set-up); `run_op` is one timed operation; `summarize` (untimed) reduces its
result to plain strings for the oracles and checks the properties that
need the program's own objects, such as i_X omega~ = df.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List


def build(workload: str, inp: dict):
    """Import the package, parse the workload's documents and build the
    SymplecticData / HeisenbergSpec objects the operations use."""
    from supersymp.dsl import parse
    from supersymp.symplectic import SymplecticData

    docs = {name: parse(text) for name, text in inp["documents"].items()}
    session = {"docs": docs, "cech": {}, "surfaces": inp.get("surfaces")}
    if workload == "poisson":
        from supersymp.prequant import PrequantChart

        doc = docs["poisson"]
        charts = {}
        for cname, spec in inp["charts"].items():
            chart = doc.charts[cname]
            sd = SymplecticData(doc.forms[spec["form"]], [spec["point"]])
            pq = PrequantChart(sd, doc.forms[spec["theta"]]) if "theta" in spec else None
            charts[cname] = (chart, sd, pq)
        session["charts"] = charts
    else:
        doc = docs["algebra"]
        session["specs"] = dict(doc.heisenbergs)
        session["gchart"] = doc.charts["G"]
    return session


# ----------------------------------------------------------------------
# poisson
# ----------------------------------------------------------------------


def _fn(doc, text, chart):
    from supersymp.charts import CFunction, SuperFunction

    value = doc.evaluate(text, chart)
    if isinstance(value, CFunction):
        return value
    if not isinstance(value, SuperFunction):
        value = chart.constant(value)
    return value


def _poisson(session, op):
    from supersymp.prequant import Section, quantum_op, rep_check
    from supersymp.symplectic import hamiltonian_field, poisson_bracket

    doc = session["docs"]["poisson"]
    chart, sd, pq = session["charts"][op["chart"]]
    kind = op["kind"]
    if kind == "ham":
        f = _fn(doc, op["f"], chart)
        return f, hamiltonian_field(f, sd)
    if kind == "sweep":
        f = _fn(doc, op["f"], chart)
        return f, hamiltonian_field(f, sd, op["degree"])
    if kind == "bracket":
        f, g = (_fn(doc, x["text"], chart) for x in (op["f"], op["g"]))
        return poisson_bracket(f, g, sd), poisson_bracket(g, f, sd)
    if kind == "jacobi":
        f, g, h = (_fn(doc, x["text"], chart) for x in op["fgh"])

        def pb(u, v):
            return poisson_bracket(u, v, sd)

        return pb(f, pb(g, h)), pb(g, pb(h, f)), pb(h, pb(f, g))
    if kind == "qop":
        f = _fn(doc, op["f"], chart)
        return quantum_op(f, Section(_fn(doc, op["section"], chart)), pq)
    if kind == "repcheck":
        f, g = _fn(doc, op["f"], chart), _fn(doc, op["g"], chart)
        return rep_check(f, g, pq, [Section(_fn(doc, s, chart)) for s in op["sections"]])
    raise ValueError(f"unknown poisson operation {kind}")


def _summarize_poisson(session, op, out) -> dict:
    from supersymp.forms import contract, ext_d

    chart, sd, _ = session["charts"][op["chart"]]
    kind = op["kind"]
    problems: List[str] = []
    if kind in ("ham", "sweep"):
        f, res = out
        summary = {"status": res.status, "field": {}}
        if res.status == "member":
            summary["field"] = {k: str(v) for k, v in res.field.components.items()}
            if contract(res.field, sd.doubled) != ext_d(f):
                problems.append("returned field fails i_X omega~ = df")
        return {"summary": summary, "problems": problems}
    if kind == "bracket":
        bfg, bgf = out
        pf, pg = op["f"]["parity"], op["g"]["parity"]
        sign = -1 if (pf * pg) % 2 else 1
        if bfg != bgf.scale(-sign):
            problems.append("bracket is not graded-antisymmetric")
        return {"summary": {"bracket": [str(bfg.f0), str(bfg.f1)]}, "problems": problems}
    if kind == "jacobi":
        a, b, c = out
        pf, pg, ph = (x["parity"] for x in op["fgh"])
        jac = (
            a.scale(-1 if (pf * ph) % 2 else 1)
            + b.scale(-1 if (pg * pf) % 2 else 1)
            + c.scale(-1 if (ph * pg) % 2 else 1)
        )
        if not jac.is_zero():
            problems.append("graded Jacobi fails")
        return {"summary": {"terms": [str(x) for x in out]}, "problems": problems}
    if kind == "qop":
        return {"summary": {"result": str(out.fun)}, "problems": problems}
    if kind == "repcheck":
        return {"summary": {"holds": bool(out)}, "problems": problems}
    raise ValueError(kind)


# ----------------------------------------------------------------------
# algebra
# ----------------------------------------------------------------------


def gr_plain(g) -> Dict[str, List[str]]:
    """A Grassmann number as {'1,2': [re, im]} with 1-based generators."""
    return {",".join(map(str, idx)): [str(c.re), str(c.im)] for idx, c in sorted(g.terms.items())}


def _algebra(session, op):
    from supersymp import cech, heisenberg, liecoh

    doc = session["docs"]["algebra"]
    kind = op["kind"]
    if kind in ("orbit", "kks", "momentum"):
        spec = session["specs"][op["spec"]]
        orbit = heisenberg.orbit_classify(spec, Fraction(op["point"][0]), Fraction(op["point"][1]))
        if kind == "orbit":
            return orbit
        if kind == "kks":
            return orbit, orbit.kks_form()
        return orbit, heisenberg.momentum_check(orbit)
    if kind == "coad":
        spec = session["specs"][op["spec"]]
        chart = session["gchart"]
        zero = chart.zero().constant_value()
        elems = []
        for coords in op["g"]:
            a = [doc.evaluate(c["text"], chart).constant_value() for c in coords]
            elems.append(heisenberg.GroupElement(spec, a, zero, zero))
        g1, g2 = elems
        mu = heisenberg.OrbitPoint.base(spec, Fraction(op["point"][0]), Fraction(op["point"][1]), generators=chart.generators)
        h = heisenberg.group_mul(g1, g2)
        return h, heisenberg.coad(h, mu), heisenberg.coad(g1, heisenberg.coad(g2, mu))
    if kind == "h2":
        return liecoh.h2(doc.algebras[op["algebra"]])
    if kind == "extend":
        g = doc.algebras[op["algebra"]]
        return liecoh.jacobi_check(liecoh.central_extension(g, doc.cocycles[op["cocycle"]]))
    if kind == "equiv":
        g = doc.algebras[op["algebra"]]
        w1, w2 = (doc.cocycles[n] for n in op["pair"])
        return liecoh.extension_equivalent(w1, w2, g)
    state = session["cech"]
    surf = op["surface"]
    if kind == "cech_load":
        state[surf] = {"cover": cech.load_cover(session["surfaces"][surf]["text"])}
        return state[surf]["cover"]
    st = state[surf]
    cover = st["cover"]
    if kind == "cech_periods":
        st["a"] = cover.cocycle()
        st["per"] = cech.period_group(st["a"], cover.nerve)
        return st["per"]
    if kind == "cech_normalize":
        return cech.normalize_to_periods(st["a"], cover.nerve, st["per"])
    if kind == "cech_classify":
        return cech.classify_prequantum(cover.nerve, Fraction(session["surfaces"][surf]["d"]))
    raise ValueError(f"unknown algebra operation {kind}")


def _cochain_plain(c) -> Dict[str, List[str]]:
    return {",".join(map(str, k)): [str(v[0]), str(v[1])] for k, v in sorted(c.values.items())}


def _summarize_algebra(session, op, out) -> dict:
    from supersymp.charts import VectorField
    from supersymp.forms import contract

    kind = op["kind"]
    problems: List[str] = []
    if kind in ("orbit", "kks", "momentum"):
        orbit = out if kind == "orbit" else out[0]
        summary = {"case": orbit.case, "dimension": list(orbit.dimension), "coordinates": list(orbit.coordinates)}
        if kind == "kks":
            omega = out[1]
            summary["form"] = str(omega)
            # the fundamental fields rebuilt from the pairing, independently
            # of the orbit's own tangent fields
            spec = orbit.spec
            n = spec.dimension
            chart = orbit.chart
            names = [f"x{i+1}" if e == 0 else f"xi{i+1}" for i, e in enumerate(spec.parities)]
            names += [f"xb{i+1}" if e == 1 else f"xib{i+1}" for i, e in enumerate(spec.parities)]
            y0, y1 = orbit.y0, orbit.ybar1
            fields = []
            for j in range(n):
                comps = {}
                for i in range(n):
                    sign = -1 if spec.parities[i] else 1
                    for name, val in ((names[i], sign * y0 * spec.omega0[j][i]), (names[n + i], y1 * spec.omega1[j][i])):
                        if val and name in chart.coords:
                            comps[name] = chart.constant(val)
                fields.append(VectorField(chart, comps))
            for a in range(n):
                for b in range(n):
                    lhs = contract(fields[a], fields[b], omega).as_function()
                    if lhs != chart.constant(y0 * spec.omega0[a][b] + y1 * spec.omega1[a][b]):
                        problems.append(f"omega(v*, w*) != y0 Omega0 + ybar1 Omega1 at ({a},{b})")
        if kind == "momentum":
            summary["momentum"] = {k: bool(v) for k, v in out[1].items()}
        return {"summary": summary, "problems": problems}
    if kind == "coad":
        h, m1, m2 = out
        if [m1.x, m1.xbar] != [m2.x, m2.xbar] or (m1.y0, m1.ybar1) != (m2.y0, m2.ybar1):
            problems.append("coad(g1 g2) != coad(g1) coad(g2)")
        summary = {
            "a": [gr_plain(x) for x in h.a],
            "b0": gr_plain(h.b0),
            "b1": gr_plain(h.b1),
            "x": [gr_plain(x) for x in m1.x],
            "xbar": [gr_plain(x) for x in m1.xbar],
            "y": [str(m1.y0), str(m1.ybar1)],
        }
        return {"summary": summary, "problems": problems}
    if kind == "h2":
        summary = {
            "dims": [out.dim_c2, out.dim_z2, out.dim_b2, out.dim_h2],
            "reps": [_cochain_plain(c) for c in out.representatives],
        }
        return {"summary": summary, "problems": problems}
    if kind == "extend":
        return {"summary": {"jacobi": bool(out[0])}, "problems": problems}
    if kind == "equiv":
        ok, witness = out
        summary = {"equivalent": bool(ok), "witness": None}
        if ok:
            summary["witness"] = {str(k[0]): [str(v[0]), str(v[1])] for k, v in witness.values.items()}
        return {"summary": summary, "problems": problems}
    if kind == "cech_load":
        return {"summary": {"triangles": len(out.nerve.simplices[2])}, "problems": problems}
    if kind == "cech_periods":
        return {"summary": {"per": str(out.generator)}, "problems": problems}
    if kind == "cech_normalize":
        bprime, corrected, per = out
        summary = {
            "b": {",".join(map(str, k)): str(v) for k, v in sorted(bprime.values.items())},
            "corrected": {",".join(map(str, k)): str(v) for k, v in sorted(corrected.values.items())},
            "per": str(per.generator),
        }
        return {"summary": summary, "problems": problems}
    if kind == "cech_classify":
        return {"summary": {"free_rank": out["free_rank"], "torsion": list(out["torsion"])}, "problems": problems}
    raise ValueError(kind)


def run_op(workload: str, session, op):
    return _poisson(session, op) if workload == "poisson" else _algebra(session, op)


def summarize(workload: str, session, op, out) -> dict:
    if workload == "poisson":
        return _summarize_poisson(session, op, out)
    return _summarize_algebra(session, op, out)
