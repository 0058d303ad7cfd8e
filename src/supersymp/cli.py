"""Command-line front end.

Subcommands mirror the library: symplectic checks, hamiltonian fields and
Poisson brackets, Darboux normal forms, Lie algebra cohomology, Heisenberg
orbits, finite-cover periods and prequantization, connection operators, and
the bundled-example verifier.  Output is a single JSON report on stdout.

Exit codes: 0 when the requested claims are verified, 1 when a computation
ran but refuted a claim, 2 on errors (parse failures, bad options, input the
engine cannot compute with) and on a membership it cannot decide.  The
modules a command needs are imported by its handler, so a cold process
loads only those.

SUPERSYMP_GENERATORS (default 6) sets the number N of Grassmann generators of
every chart; it is read here and nowhere else in the package.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .grassmann import DEFAULT_GENERATORS
from .scalars import GaussianRational

if TYPE_CHECKING:
    from .charts import CFunction, SuperFunction
    from .dsl import Document


class CliError(Exception):
    pass


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _generator_count() -> int:
    raw = os.environ.get("SUPERSYMP_GENERATORS", str(DEFAULT_GENERATORS))
    if not raw.isdecimal():
        raise CliError(f"SUPERSYMP_GENERATORS must be an integer >= 0, got {raw!r}")
    return int(raw)


def _load_document(args) -> Document:
    from .dsl import parse

    return parse(_read(args.file), args.generators)


def _unique(table: dict, kind: str, name, prefer: str = "omega"):
    if name is not None:
        if name not in table:
            raise CliError(f"no {kind} named {name!r} in the document")
        return table[name]
    if len(table) == 1:
        return next(iter(table.values()))
    if prefer in table:
        return table[prefer]
    raise CliError(f"document has {len(table)} {kind}s; pick one with --name")


def _fmt(value):
    """JSON-friendly rendering with rationals as 'p/q' strings."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, GaussianRational):
        return str(value)
    if isinstance(value, dict):
        return {str(k): _fmt(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    if isinstance(value, (int, str, bool)) or value is None:
        return value
    return str(value)


def _emit(report: dict, ok) -> int:
    """Print the report; exit 0 if `ok` is true, 1 (refuted) if it is false,
    2 if it is None: the engine could not decide the claim."""
    print(json.dumps(_fmt(report), indent=2, sort_keys=False))
    return 2 if ok is None else 0 if ok else 1


def _number(text: str, where: str, kind=Fraction):
    """`text` read as a `kind` (Fraction or int); a CliError naming `where` if it is not one."""
    try:
        return kind(text)
    except (ValueError, ZeroDivisionError):
        raise CliError(f"{where}: {text!r} is not {'an integer' if kind is int else 'a rational number'}") from None


def _parse_point(text: str) -> dict:
    point = {}
    if not text:
        return point
    for chunk in text.split(","):
        name, eq, value = chunk.partition("=")
        if not eq:
            raise CliError(f"--point component {chunk!r}: use name=value")
        point[name.strip()] = _number(value.strip(), f"--point component {chunk!r}")
    return point


def _parse_matrix(text: str) -> list:
    try:
        rows = json.loads(text)
    except ValueError as exc:
        raise CliError(f"--matrix: not JSON ({exc})") from None
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise CliError("--matrix: not a JSON list of rows")
    return [[_number(str(v), "--matrix entry") for v in row] for row in rows]


def _cfunction(doc: Document, expr: str, chart) -> CFunction:
    from .charts import CFunction
    from .dsl import _as_function

    value = doc.evaluate(expr, chart)
    f = _as_function(value, chart)
    if f is not None:
        return CFunction(f, chart.zero())
    if not isinstance(value, CFunction):
        raise CliError(f"expression {expr!r} is not a C-valued function")
    return value


def _superfunction(doc: Document, expr: str, chart, error: str) -> SuperFunction:
    """The superfunction `expr` on `chart`, a scalar lifted to a constant."""
    from .dsl import _as_function

    f = _as_function(doc.evaluate(expr, chart), chart)
    if f is None:
        raise CliError(error)
    return f


# ----------------------------------------------------------------------
# subcommand handlers
# ----------------------------------------------------------------------


def cmd_symplectic_check(args) -> int:
    from .symplectic import is_symplectic

    doc = _load_document(args)
    omega = _unique(doc.forms, "form", args.name)
    points = [_parse_point(p) for p in args.point] or [{}]
    rep = is_symplectic(omega, points)
    report = {
        "command": "symplectic check",
        "form": str(omega),
        "closed": rep["closed"],
        "nondegenerate": rep["nondegenerate"],
        "homogeneously_nondegenerate": rep["homogeneously_nondegenerate"],
        "symplectic": rep["symplectic"],
        "points": [
            {
                "point": e.point,
                "nondegenerate": e.nondegenerate,
                "homogeneously_nondegenerate": e.homogeneously_nondegenerate,
            }
            for e in rep["points"]
        ],
    }
    return _emit(report, rep["symplectic"])


def cmd_symplectic_hamiltonian(args) -> int:
    from .symplectic import SymplecticData, hamiltonian_field

    doc = _load_document(args)
    omega = _unique(doc.forms, "form", args.name)
    sd = SymplecticData(omega, [_parse_point(p) for p in args.point])
    f = _cfunction(doc, args.f, omega.chart)
    res = hamiltonian_field(f, sd, args.degree)
    report = {
        "command": "symplectic hamiltonian",
        "f": str(f),
        "status": res.status,
        "field": str(res.field) if res.field is not None else None,
        "unique": res.unique,
        "detail": res.detail,
    }
    return _emit(report, None if res.status == "inconclusive" else res.status == "member")


def cmd_symplectic_poisson(args) -> int:
    from .symplectic import MembershipUndecided, PoissonMembershipError, SymplecticData, poisson_bracket

    doc = _load_document(args)
    omega = _unique(doc.forms, "form", args.name)
    sd = SymplecticData(omega, [_parse_point(p) for p in args.point])
    f = _cfunction(doc, args.f, omega.chart)
    g = _cfunction(doc, args.g, omega.chart)
    try:
        bracket = poisson_bracket(f, g, sd, args.degree)
    except PoissonMembershipError as exc:
        undecided = isinstance(exc, MembershipUndecided)
        error = f"undecided: {exc}" if undecided else f"not in the Poisson algebra: {exc}"
        return _emit({"command": "symplectic poisson", "error": error}, None if undecided else False)
    report = {
        "command": "symplectic poisson",
        "f": str(f),
        "g": str(g),
        "bracket": str(bracket),
    }
    return _emit(report, True)


def cmd_symplectic_darboux(args) -> int:
    from .symplectic import NotSymplectic, darboux_normal_form

    matrix = _parse_matrix(args.matrix)
    parities = [_number(p, "--parities entry", int) for p in args.parities.split(",")]
    if not set(parities) <= {0, 1}:
        raise CliError(f"--parities: each entry must be 0 or 1, got {args.parities!r}")
    homogeneity = 1 if args.odd else 0
    try:
        res = darboux_normal_form(matrix, parities, homogeneity)
    except NotSymplectic as exc:
        return _emit({"command": "symplectic darboux", "error": str(exc)}, False)
    report = {
        "command": "symplectic darboux",
        "kind": res.kind,
        "k": res.k,
        "ell": res.ell,
        "odd_coefficients": [str(c) for c in res.odd_coefficients],
        "exact": res.exact,
        "basis_change": [[str(v) for v in row] for row in res.basis_change],
        "canonical_matrix": [[str(v) for v in row] for row in res.canonical_matrix],
        "canonical_form": str(res.canonical_form()),
    }
    return _emit(report, True)


def cmd_liecoh_h2(args) -> int:
    from .liecoh import h2

    doc = _load_document(args)
    g = _unique(doc.algebras, "algebra", args.name)
    rep = h2(g)
    report = {
        "command": "liecoh h2",
        "dim_c2": rep.dim_c2,
        "dim_z2": rep.dim_z2,
        "dim_b2": rep.dim_b2,
        "dim_h2": rep.dim_h2,
        "representatives": [repr(c) for c in rep.representatives],
    }
    return _emit(report, True)


def _two_cochain(doc: Document, g, name):
    """The cocycle `name` (picked by `_unique`), checked to be a 2-cochain on g."""
    from .liecoh import require_2_cochain

    om = _unique(doc.cocycles, "cocycle", name)
    try:
        require_2_cochain(g, om)
    except ValueError:
        name, on, chosen = (next(n for n, v in table.items() if v is x) for table, x in ((doc.cocycles, om), (doc.algebras, om.g), (doc.algebras, g)))
        raise CliError(f"cocycle {name!r} is a {om.degree}-cochain on algebra {on!r}; "
                       f"a central extension needs a 2-cochain on algebra {chosen!r}") from None
    return om


def cmd_liecoh_extend(args) -> int:
    from .liecoh import ce_coboundary, central_extension, jacobi_check

    doc = _load_document(args)
    g = _unique(doc.algebras, "algebra", args.name)
    om = _two_cochain(doc, g, args.cocycle)
    ext = central_extension(g, om)
    ok, witness = jacobi_check(ext)
    report = {
        "command": "liecoh extend",
        "closed": ce_coboundary(om, g).is_zero(),
        "jacobi": ok,
        "jacobi_witness": witness,
        "parities": list(ext.parities),
        "brackets": {
            f"[{i+1},{j+1}]": {f"e{k+1}": v for k, v in vec.items()}
            for (i, j), vec in sorted(ext.brackets.items())
            if i <= j
        },
    }
    return _emit(report, ok)


def cmd_liecoh_equiv(args) -> int:
    from .liecoh import extension_equivalent

    doc = _load_document(args)
    g = _unique(doc.algebras, "algebra", args.name)
    om1 = _two_cochain(doc, g, args.cocycle)
    om2 = _two_cochain(doc, g, args.cocycle2)
    ok, witness = extension_equivalent(om1, om2, g)
    report = {
        "command": "liecoh equiv",
        "equivalent": ok,
        "witness": repr(witness) if witness is not None else None,
    }
    return _emit(report, ok)


def _orbit_from_args(args):
    from .heisenberg import orbit_classify

    doc = _load_document(args)
    spec = _unique(doc.heisenbergs, "heisenberg pairing", args.name)
    return orbit_classify(spec, _number(args.y0, "--y0"), _number(args.ybar1, "--ybar1"), generators=args.generators)


def cmd_heisenberg_orbit(args) -> int:
    orbit = _orbit_from_args(args)
    report = {
        "command": "heisenberg orbit",
        "case": orbit.case,
        "y0": orbit.y0,
        "ybar1": orbit.ybar1,
        "coordinates": list(orbit.coordinates),
        "dimension": f"{orbit.dimension[0]}|{orbit.dimension[1]}",
        "invariants": list(orbit.invariants),
    }
    if orbit.case != "trivial":
        report["kks_form"] = str(orbit.kks_form())
    return _emit(report, True)


def cmd_heisenberg_kks(args) -> int:
    from .symplectic import is_symplectic

    orbit = _orbit_from_args(args)
    if orbit.case == "trivial":
        return _emit({"command": "heisenberg kks", "error": "trivial orbit has no form"}, False)
    omega = orbit.kks_form()
    rep = is_symplectic(omega, [{n: 0 for n in orbit.chart.even}])
    report = {
        "command": "heisenberg kks",
        "case": orbit.case,
        "kks_form": str(omega),
        "closed": rep["closed"],
        "nondegenerate": rep["nondegenerate"],
        "homogeneously_nondegenerate": rep["homogeneously_nondegenerate"],
    }
    return _emit(report, rep["symplectic"])


def cmd_heisenberg_momentum(args) -> int:
    from .heisenberg import momentum_check

    orbit = _orbit_from_args(args)
    if orbit.case == "trivial":
        return _emit(
            {"command": "heisenberg momentum", "case": "trivial", "strongly_hamiltonian": True},
            True,
        )
    rep = momentum_check(orbit)
    cocycle, _ = orbit.momentum_cocycle()
    report = {
        "command": "heisenberg momentum",
        "case": orbit.case,
        "hamiltonian": rep["hamiltonian"],
        "momentum_cocycle": repr(cocycle),
        "strongly_hamiltonian": rep["strongly_hamiltonian"],
    }
    return _emit(report, rep["strongly_hamiltonian"])


def _load_cover(path: str):
    from .cech import NerveError, load_cover

    try:
        return load_cover(_read(path))
    except NerveError as exc:
        raise CliError(str(exc)) from exc


def _divisor(args, default):
    """--d if given, else `default`; Q/dZ needs d >= 0 (0 means Q)."""
    if args.d is None:
        return default
    d = _number(args.d, "--d")
    if d < 0:
        raise CliError(f"--d: {args.d!r} is negative; give d >= 0 (0 means Q)")
    return d


def cmd_cech_periods(args) -> int:
    from .cech import period_group

    cover = _load_cover(args.file)
    per = period_group(cover.cocycle(), cover.nerve)
    report = {
        "command": "cech periods",
        "per": str(per.generator),
        "trivial": per.is_trivial(),
    }
    return _emit(report, True)


def cmd_cech_prequantize(args) -> int:
    from .cech import normalize_to_periods, period_group, prequantum_exists

    cover = _load_cover(args.file)
    d = _divisor(args, cover.d)
    if d is None:
        raise CliError("no d given on the command line or in the cover file")
    a = cover.cocycle()
    per = period_group(a, cover.nerve)
    exists = prequantum_exists(per, d)
    report = {
        "command": "cech prequantize",
        "per": str(per.generator),
        "d": str(d),
        "exists": exists,
    }
    if exists:
        bprime, corrected, _ = normalize_to_periods(a, cover.nerve, per)
        report["normalized_cocycle"] = {str(k): str(v) for k, v in corrected.values.items()}
        report["correction"] = {str(k): str(v) for k, v in bprime.values.items()}
    return _emit(report, exists)


def cmd_cech_classify(args) -> int:
    from .cech import classify_prequantum

    cover = _load_cover(args.file)
    d = _divisor(args, cover.d if cover.d is not None else Fraction(0))
    rep = classify_prequantum(cover.nerve, d)
    rep["command"] = "cech classify"
    return _emit(rep, True)


def _prequant_chart(doc: Document, args):
    from .prequant import PrequantChart
    from .symplectic import SymplecticData

    omega = _unique(doc.forms, "form", args.omega) if args.omega else doc.forms.get("omega")
    if omega is None:
        raise CliError("document needs a form named omega (or use --omega)")
    theta = _unique(doc.forms, "form", args.theta) if args.theta else doc.forms.get("theta")
    if theta is None:
        raise CliError("document needs a form named theta (or use --theta)")
    sd = SymplecticData(omega, [_parse_point(p) for p in args.point])
    return PrequantChart(sd, theta)


def cmd_prequant_eta(args) -> int:
    doc = _load_document(args)
    pq = _prequant_chart(doc, args)
    f = _cfunction(doc, args.f, pq.base.chart)
    eta = pq.eta_field(f)
    report = {
        "command": "prequant eta",
        "f": str(f),
        "eta": str(eta),
        "preserves_connection": pq.symmetry_check(eta),
    }
    return _emit(report, report["preserves_connection"])


def cmd_prequant_qop(args) -> int:
    from .prequant import Section, quantum_op

    doc = _load_document(args)
    pq = _prequant_chart(doc, args)
    chart = pq.base.chart
    f = _cfunction(doc, args.f, chart)
    s = _superfunction(doc, args.section, chart, "--section must be a superfunction on the base chart")
    out = quantum_op(f, Section(s), pq)
    report = {
        "command": "prequant qop",
        "f": str(f),
        "section": str(s),
        "result": str(out.fun),
    }
    return _emit(report, True)


def cmd_prequant_repcheck(args) -> int:
    from .prequant import Section, rep_check

    doc = _load_document(args)
    pq = _prequant_chart(doc, args)
    chart = pq.base.chart
    f = _cfunction(doc, args.f, chart)
    g = _cfunction(doc, args.g, chart)
    sections = [
        Section(_superfunction(doc, expr.strip(), chart, f"section {expr!r} is not a superfunction"))
        for expr in args.sections.split(";")
    ]
    ok = rep_check(f, g, pq, sections)
    report = {
        "command": "prequant repcheck",
        "f": str(f),
        "g": str(g),
        "sections": len(sections),
        "holds": ok,
    }
    return _emit(report, ok)


def cmd_verify(args) -> int:
    from .verify import run_section

    results = run_section(args.section)
    ok = all(r.ok for r in results)
    report = {
        "command": "verify-paper",
        "section": args.section,
        "ok": ok,
        "passed": sum(r.ok for r in results),
        "total": len(results),
        "checks": [r.as_dict() for r in results],
    }
    return _emit(report, ok)


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------


def _add_point_option(p):
    p.add_argument(
        "--point",
        action="append",
        default=[],
        help="real base point, e.g. --point x=0,y=1/2 (repeatable)",
    )


class _Parser(argparse.ArgumentParser):
    """Reads a single-dash word as an option only when it is one, so a
    value such as -3/2 or -x*c0 after --y0 or --f is taken as the value,
    as in --y0=-3/2; subparsers inherit the class."""

    def _parse_optional(self, arg_string):
        if arg_string[:1] == "-" and arg_string[:2] != "--" and arg_string not in self._option_string_actions:
            return None
        return super()._parse_optional(arg_string)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="supersymp",
        description="exact engine for graded symplectic geometry and prequantization",
    )
    sub = parser.add_subparsers(dest="group", required=True)

    sym = sub.add_parser("symplectic", help="closedness, non-degeneracy, Poisson structure")
    sym_sub = sym.add_subparsers(dest="cmd", required=True)

    p = sym_sub.add_parser("check", help="closed + (homogeneously) non-degenerate report")
    p.add_argument("file")
    p.add_argument("--name", help="form name (default: the only form)")
    _add_point_option(p)
    p.set_defaults(fn=cmd_symplectic_check)

    p = sym_sub.add_parser("hamiltonian", help="solve i_X doubled-omega = df")
    p.add_argument("file")
    p.add_argument("--f", required=True, help="C-valued function, e.g. 'x*c0 + xi*c1'")
    p.add_argument("--name", help="form name")
    p.add_argument("--degree", type=int, default=None, help="ansatz degree bound")
    _add_point_option(p)
    p.set_defaults(fn=cmd_symplectic_hamiltonian)

    p = sym_sub.add_parser("poisson", help="Poisson bracket of two members")
    p.add_argument("file")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--name", help="form name")
    p.add_argument("--degree", type=int, default=None)
    _add_point_option(p)
    p.set_defaults(fn=cmd_symplectic_poisson)

    p = sym_sub.add_parser("darboux", help="pointwise normal form of a constant form")
    p.add_argument("--matrix", required=True, help='JSON rows of i_di i_dj omega, e.g. "[[0,1],[-1,0]]"')
    p.add_argument("--parities", required=True, help="comma list, e.g. 0,0,1")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--even", action="store_true")
    mode.add_argument("--odd", action="store_true")
    p.set_defaults(fn=cmd_symplectic_darboux)

    lie = sub.add_parser("liecoh", help="Lie algebra cohomology and central extensions")
    lie_sub = lie.add_subparsers(dest="cmd", required=True)

    p = lie_sub.add_parser("h2", help="dimensions and representatives of H^2")
    p.add_argument("file")
    p.add_argument("--name", help="algebra name")
    p.set_defaults(fn=cmd_liecoh_h2)

    p = lie_sub.add_parser("extend", help="central extension by a 2-cochain")
    p.add_argument("file")
    p.add_argument("--cocycle", help="cocycle name")
    p.add_argument("--name", help="algebra name")
    p.set_defaults(fn=cmd_liecoh_extend)

    p = lie_sub.add_parser("equiv", help="equivalence of two 2-cocycles")
    p.add_argument("file")
    p.add_argument("--cocycle", required=True)
    p.add_argument("--cocycle2", required=True)
    p.add_argument("--name", help="algebra name")
    p.set_defaults(fn=cmd_liecoh_equiv)

    heis = sub.add_parser("heisenberg", help="coadjoint orbits of a central extension")
    heis_sub = heis.add_subparsers(dest="cmd", required=True)
    for cname, handler, text in (
        ("orbit", cmd_heisenberg_orbit, "classify the orbit through (y0, ybar1)"),
        ("kks", cmd_heisenberg_kks, "orbit symplectic form"),
        ("momentum", cmd_heisenberg_momentum, "momentum map checks"),
    ):
        p = heis_sub.add_parser(cname, help=text)
        p.add_argument("file")
        p.add_argument("--y0", default="1")
        p.add_argument("--ybar1", default="0")
        p.add_argument("--name", help="pairing name")
        p.set_defaults(fn=handler)

    cech = sub.add_parser("cech", help="finite-cover periods and prequantization")
    cech_sub = cech.add_subparsers(dest="cmd", required=True)

    p = cech_sub.add_parser("periods", help="period group of the cover cocycle")
    p.add_argument("file")
    p.set_defaults(fn=cmd_cech_periods)

    p = cech_sub.add_parser("prequantize", help="existence and normalized cocycle")
    p.add_argument("file")
    p.add_argument("--d", default=None)
    p.set_defaults(fn=cmd_cech_prequantize)

    p = cech_sub.add_parser("classify", help="H^1 with Q/dZ coefficients")
    p.add_argument("file")
    p.add_argument("--d", default=None)
    p.set_defaults(fn=cmd_cech_classify)

    preq = sub.add_parser("prequant", help="connection symmetries and operators")
    preq_sub = preq.add_subparsers(dest="cmd", required=True)

    p = preq_sub.add_parser("eta", help="infinitesimal symmetry of a Poisson member")
    p.add_argument("file")
    p.add_argument("--f", required=True)
    p.add_argument("--omega", help="form name for omega")
    p.add_argument("--theta", help="form name for theta")
    _add_point_option(p)
    p.set_defaults(fn=cmd_prequant_eta)

    p = preq_sub.add_parser("qop", help="apply Q(f) to a section")
    p.add_argument("file")
    p.add_argument("--f", required=True)
    p.add_argument("--section", required=True)
    p.add_argument("--omega", help="form name for omega")
    p.add_argument("--theta", help="form name for theta")
    _add_point_option(p)
    p.set_defaults(fn=cmd_prequant_qop)

    p = preq_sub.add_parser("repcheck", help="[Q(f),Q(g)] = -i Q({f,g}) on samples")
    p.add_argument("file")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--sections", required=True, help="semicolon-separated section expressions")
    p.add_argument("--omega", help="form name for omega")
    p.add_argument("--theta", help="form name for theta")
    _add_point_option(p)
    p.set_defaults(fn=cmd_prequant_repcheck)

    p = sub.add_parser("verify-paper", help="re-derive the bundled worked examples")
    p.add_argument("section", help="section3..section9 or all")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.generators = _generator_count()
        return args.fn(args)
    except Exception as exc:
        # any failure to compute is an error (2), never a refutation (1); a
        # DslError can only come from a command that imported the DSL
        dsl = sys.modules.get(f"{__package__}.dsl")
        known = (CliError,) if dsl is None else (CliError, dsl.DslError)
        msg = str(exc) if isinstance(exc, known) else f"{type(exc).__name__}: {exc}"
        print(json.dumps({"error": msg}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
