"""Command-line front end.

Subcommands mirror the library: symplectic checks, hamiltonian fields and
Poisson brackets, Darboux normal forms, Lie algebra cohomology, Heisenberg
orbits, finite-cover periods and prequantization, connection operators, and
the bundled-example verifier.  Output is a single JSON report on stdout, and
every report begins with "command", the subcommand path.

Each handler returns its report and a verdict, and only `main` prints the
report and maps the verdict to the exit code: 0 when the requested claims are
verified (True), 1 when a computation ran but refuted a claim (False), 2 on a
membership it cannot decide (None) and on errors (parse failures, bad
options, input the engine cannot compute with).  The modules a command needs
are imported by its handler, so a cold process loads only those.

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


def _unique(table: dict, kind: str, name):
    """The entry `name` of `table`, else its only entry, else the form omega."""
    if name is not None:
        if name not in table:
            raise CliError(f"no {kind} named {name!r} in the document")
        return table[name]
    if len(table) == 1:
        return next(iter(table.values()))
    if kind == "form" and "omega" in table:
        return table["omega"]
    raise CliError(f"document has {len(table)} {kind}s; pick one with --name")


def _fmt(value):
    """The JSON form of a report value: bools, ints, strings and None as
    they are, dicts and sequences walked, anything else (a rational, a
    form, a cochain) as its str."""
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _fmt(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    return str(value)


def _number(text: str, where: str, kind=Fraction):
    """`text` read as a `kind` (Fraction or int); a CliError naming `where` if it is not one."""
    try:
        return kind(text)
    except (ValueError, ZeroDivisionError):
        raise CliError(f"{where}: {text!r} is not {'an integer' if kind is int else 'a rational number'}") from None


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
# the input of each group
# ----------------------------------------------------------------------


def _points(args) -> list:
    """The --point base points, each a dict name -> rational."""
    points = []
    for text in args.point:
        point = {}
        for chunk in text.split(",") if text else ():
            name, eq, value = chunk.partition("=")
            if not eq:
                raise CliError(f"--point component {chunk!r}: use name=value")
            point[name.strip()] = _number(value.strip(), f"--point component {chunk!r}")
        points.append(point)
    return points


def _form(args):
    """The document, the form --name picks and the --point base points."""
    doc = _load_document(args)
    return doc, _unique(doc.forms, "form", args.name), _points(args)


def _algebra(args, *cocycles):
    """The algebra --name picks and the cocycles named by `cocycles`, each
    checked to be a 2-cochain on it."""
    from .liecoh import require_2_cochain

    doc = _load_document(args)
    g = _unique(doc.algebras, "algebra", args.name)
    checked = []
    for name in cocycles:
        om = _unique(doc.cocycles, "cocycle", name)
        try:
            require_2_cochain(g, om)
        except ValueError:
            name, on, chosen = (
                next(n for n, v in table.items() if v is x)
                for table, x in ((doc.cocycles, om), (doc.algebras, om.g), (doc.algebras, g))
            )
            raise CliError(f"cocycle {name!r} is a {om.degree}-cochain on algebra {on!r}; "
                           f"a central extension needs a 2-cochain on algebra {chosen!r}") from None
        checked.append(om)
    return (g, *checked)


def _orbit(args):
    """The orbit through (--y0, --ybar1) of the pairing --name picks."""
    from .heisenberg import orbit_classify

    doc = _load_document(args)
    spec = _unique(doc.heisenbergs, "heisenberg pairing", args.name)
    return orbit_classify(spec, _number(args.y0, "--y0"), _number(args.ybar1, "--ybar1"), generators=args.generators)


def _cover(args):
    """The cover file, its d replaced by --d where the command takes one and
    it is given; Q/dZ needs d >= 0 (0 means Q)."""
    from .cech import NerveError, load_cover

    try:
        cover = load_cover(_read(args.file))
    except NerveError as exc:
        raise CliError(str(exc)) from exc
    d = getattr(args, "d", None)
    if d is not None:
        cover.d = _number(d, "--d")
        if cover.d < 0:
            raise CliError(f"--d: {d!r} is negative; give d >= 0 (0 means Q)")
    return cover


def _prequant_chart(args):
    """The document and the prequantum chart of its forms omega and theta
    (or --omega, --theta) at the --point base points."""
    from .prequant import PrequantChart
    from .symplectic import SymplecticData

    doc = _load_document(args)
    omega = _unique(doc.forms, "form", args.omega) if args.omega else doc.forms.get("omega")
    if omega is None:
        raise CliError("document needs a form named omega (or use --omega)")
    theta = _unique(doc.forms, "form", args.theta) if args.theta else doc.forms.get("theta")
    if theta is None:
        raise CliError("document needs a form named theta (or use --theta)")
    data = SymplecticData(omega, _points(args))
    try:
        return doc, PrequantChart(data, theta)
    except ValueError as exc:  # theta is no potential of omega, or the chart names t or tau
        raise CliError(str(exc)) from None


# ----------------------------------------------------------------------
# subcommand handlers: each returns (report, verdict), the verdict True,
# False, or None when the engine could not decide the claim
# ----------------------------------------------------------------------


def cmd_symplectic_check(args):
    from .symplectic import is_symplectic

    _, omega, points = _form(args)
    rep = is_symplectic(omega, points or [{}])
    return {
        "form": omega,
        "closed": rep["closed"],
        "nondegenerate": rep["nondegenerate"],
        "homogeneously_nondegenerate": rep["homogeneously_nondegenerate"],
        "symplectic": rep["symplectic"],
        "points": [vars(e) for e in rep["points"]],
    }, rep["symplectic"]


def cmd_symplectic_hamiltonian(args):
    from .symplectic import SymplecticData, hamiltonian_field

    doc, omega, points = _form(args)
    sd = SymplecticData(omega, points)
    f = _cfunction(doc, args.f, omega.chart)
    res = hamiltonian_field(f, sd, args.degree)
    report = {"f": f, "status": res.status, "field": res.field, "unique": res.unique, "detail": res.detail}
    return report, None if res.status == "inconclusive" else res.status == "member"


def cmd_symplectic_poisson(args):
    from .symplectic import MembershipUndecided, PoissonMembershipError, SymplecticData, poisson_bracket

    doc, omega, points = _form(args)
    sd = SymplecticData(omega, points)
    f = _cfunction(doc, args.f, omega.chart)
    g = _cfunction(doc, args.g, omega.chart)
    try:
        bracket = poisson_bracket(f, g, sd, args.degree)
    except PoissonMembershipError as exc:
        if isinstance(exc, MembershipUndecided):
            return {"error": f"undecided: {exc}"}, None
        return {"error": f"not in the Poisson algebra: {exc}"}, False
    return {"f": f, "g": g, "bracket": bracket}, True


def cmd_symplectic_darboux(args):
    from .symplectic import NotSymplectic, darboux_normal_form

    matrix = _parse_matrix(args.matrix)
    parities = [_number(p, "--parities entry", int) for p in args.parities.split(",")]
    if not set(parities) <= {0, 1}:
        raise CliError(f"--parities: each entry must be 0 or 1, got {args.parities!r}")
    try:
        res = darboux_normal_form(matrix, parities, 1 if args.odd else 0)
    except NotSymplectic as exc:
        return {"error": str(exc)}, False
    except ValueError as exc:  # the shape, symmetry or parity pattern of the input
        raise CliError(f"--matrix, --parities: {exc}") from None
    return {
        "kind": res.kind,
        "k": res.k,
        "ell": res.ell,
        "odd_coefficients": res.odd_coefficients,
        "exact": res.exact,
        "basis_change": res.basis_change,
        "canonical_matrix": res.canonical_matrix,
        "canonical_form": res.canonical_form(),
    }, True


def cmd_liecoh_h2(args):
    from .liecoh import h2

    (g,) = _algebra(args)
    rep = h2(g)
    return {
        "dim_c2": rep.dim_c2,
        "dim_z2": rep.dim_z2,
        "dim_b2": rep.dim_b2,
        "dim_h2": rep.dim_h2,
        "representatives": rep.representatives,
    }, True


def cmd_liecoh_extend(args):
    from .liecoh import ce_coboundary, central_extension, jacobi_check

    g, om = _algebra(args, args.cocycle)
    ext = central_extension(g, om)
    ok, witness = jacobi_check(ext)
    return {
        "closed": ce_coboundary(om, g).is_zero(),
        "jacobi": ok,
        "jacobi_witness": witness,
        "parities": ext.parities,
        "brackets": {
            f"[{i+1},{j+1}]": {f"e{k+1}": v for k, v in vec.items()}
            for (i, j), vec in sorted(ext.brackets.items())
            if i <= j
        },
    }, ok


def cmd_liecoh_equiv(args):
    from .liecoh import extension_equivalent

    g, om1, om2 = _algebra(args, args.cocycle, args.cocycle2)
    ok, witness = extension_equivalent(om1, om2, g)
    return {"equivalent": ok, "witness": witness}, ok


def cmd_heisenberg_orbit(args):
    orbit = _orbit(args)
    report = {
        "case": orbit.case,
        "y0": orbit.y0,
        "ybar1": orbit.ybar1,
        "coordinates": orbit.coordinates,
        "dimension": f"{orbit.dimension[0]}|{orbit.dimension[1]}",
        "invariants": orbit.invariants,
    }
    if orbit.case != "trivial":
        report["kks_form"] = orbit.kks_form()
    return report, True


def cmd_heisenberg_kks(args):
    from .symplectic import is_symplectic

    orbit = _orbit(args)
    if orbit.case == "trivial":
        raise CliError("trivial orbit has no form")
    omega = orbit.kks_form()
    rep = is_symplectic(omega, [{n: 0 for n in orbit.chart.even}])
    return {
        "case": orbit.case,
        "kks_form": omega,
        "closed": rep["closed"],
        "nondegenerate": rep["nondegenerate"],
        "homogeneously_nondegenerate": rep["homogeneously_nondegenerate"],
    }, rep["symplectic"]


def cmd_heisenberg_momentum(args):
    from .heisenberg import momentum_check

    orbit = _orbit(args)
    if orbit.case == "trivial":
        return {"case": "trivial", "strongly_hamiltonian": True}, True
    rep = momentum_check(orbit)
    return {
        "case": orbit.case,
        "hamiltonian": rep["hamiltonian"],
        "momentum_cocycle": orbit.momentum_cocycle()[0],
        "strongly_hamiltonian": rep["strongly_hamiltonian"],
    }, rep["strongly_hamiltonian"]


def cmd_cech_periods(args):
    from .cech import period_group

    cover = _cover(args)
    per = period_group(cover.cocycle(), cover.nerve)
    return {"per": per.generator, "trivial": per.is_trivial()}, True


def cmd_cech_prequantize(args):
    from .cech import normalize_to_periods, period_group, prequantum_exists

    cover = _cover(args)
    if cover.d is None:
        raise CliError("no d given on the command line or in the cover file")
    a = cover.cocycle()
    per = period_group(a, cover.nerve)
    exists = prequantum_exists(per, cover.d)
    report = {"per": per.generator, "d": cover.d, "exists": exists}
    if exists:
        bprime, corrected, _ = normalize_to_periods(a, cover.nerve, per)
        report["normalized_cocycle"] = corrected.values
        report["correction"] = bprime.values
    return report, exists


def cmd_cech_classify(args):
    from .cech import classify_prequantum

    cover = _cover(args)
    return classify_prequantum(cover.nerve, cover.d if cover.d is not None else 0), True


def cmd_prequant_eta(args):
    doc, pq = _prequant_chart(args)
    f = _cfunction(doc, args.f, pq.base.chart)
    eta = pq.eta_field(f)
    ok = pq.symmetry_check(eta)
    return {"f": f, "eta": eta, "preserves_connection": ok}, ok


def cmd_prequant_qop(args):
    from .prequant import Section, quantum_op

    doc, pq = _prequant_chart(args)
    chart = pq.base.chart
    f = _cfunction(doc, args.f, chart)
    s = _superfunction(doc, args.section, chart, "--section must be a superfunction on the base chart")
    return {"f": f, "section": s, "result": quantum_op(f, Section(s), pq).fun}, True


def cmd_prequant_repcheck(args):
    from .prequant import Section, rep_check

    doc, pq = _prequant_chart(args)
    chart = pq.base.chart
    f = _cfunction(doc, args.f, chart)
    g = _cfunction(doc, args.g, chart)
    sections = [
        Section(_superfunction(doc, expr.strip(), chart, f"section {expr!r} is not a superfunction"))
        for expr in args.sections.split(";")
    ]
    ok = rep_check(f, g, pq, sections)
    return {"f": f, "g": g, "sections": len(sections), "holds": ok}, ok


def cmd_verify(args):
    from .verify import run_section

    try:
        results = run_section(args.section)
    except ValueError as exc:  # an unknown section: every check reports its own failure
        raise CliError(f"section: {exc}") from None
    ok = all(r.ok for r in results)
    return {
        "section": args.section,
        "ok": ok,
        "passed": sum(r.ok for r in results),
        "total": len(results),
        "checks": [r.as_dict() for r in results],
    }, ok


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reads a single-dash word as an option only when it is one, so a
    value such as -3/2 or -x*c0 after --y0 or --f is taken as the value,
    as in --y0=-3/2; subparsers inherit the class."""

    def _parse_optional(self, arg_string):
        if arg_string[:1] == "-" and arg_string[:2] != "--" and arg_string not in self._option_string_actions:
            return None
        return super()._parse_optional(arg_string)


GROUPS = {
    "symplectic": "closedness, non-degeneracy, Poisson structure",
    "liecoh": "Lie algebra cohomology and central extensions",
    "heisenberg": "coadjoint orbits of a central extension",
    "cech": "finite-cover periods and prequantization",
    "prequant": "connection symmetries and operators",
}

# the options several subcommands share; a subcommand names one by its flag,
# or as (flag, settings) to add to or override the settings here
OPTIONS = {
    "file": {},
    "--name": {"help": "which form, algebra or pairing of the document (default: the only one)"},
    "--point": {"action": "append", "default": [], "help": "real base point, e.g. --point x=0,y=1/2 (repeatable)"},
    "--f": {"required": True, "help": "C-valued function, e.g. 'x*c0 + xi*c1'"},
    "--g": {"required": True, "help": "a second C-valued function"},
    "--degree": {"type": int, "default": None, "help": "ansatz degree bound"},
    "--cocycle": {"help": "cocycle name"},
    "--y0": {"default": "1"},
    "--ybar1": {"default": "0"},
    "--d": {"default": None, "help": "d of the coefficients Q/dZ (default: the cover file's)"},
    "--omega": {"help": "form name for omega"},
    "--theta": {"help": "form name for theta"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="supersymp",
        description="exact engine for graded symplectic geometry and prequantization",
    )
    sub = parser.add_subparsers(dest="group", required=True)
    groups = {"": sub}

    def command(name, fn, help, *options):
        """Register the subcommand `name` ("group leaf" or a top-level word)."""
        group, _, leaf = name.rpartition(" ")
        if group not in groups:
            groups[group] = sub.add_parser(group, help=GROUPS[group]).add_subparsers(dest="cmd", required=True)
        p = groups[group].add_parser(leaf, help=help)
        for option in options:
            flag, settings = (option, {}) if isinstance(option, str) else option
            p.add_argument(flag, **{**OPTIONS.get(flag, {}), **settings})
        p.set_defaults(fn=fn, command=name)
        return p

    orbit, chart = ("file", "--y0", "--ybar1", "--name"), ("--omega", "--theta", "--point")
    command("symplectic check", cmd_symplectic_check, "closed + (homogeneously) non-degenerate report",
            "file", "--name", "--point")
    command("symplectic hamiltonian", cmd_symplectic_hamiltonian, "solve i_X doubled-omega = df",
            "file", "--f", "--name", "--degree", "--point")
    command("symplectic poisson", cmd_symplectic_poisson, "Poisson bracket of two members",
            "file", "--f", "--g", "--name", "--degree", "--point")
    darboux = command(
        "symplectic darboux", cmd_symplectic_darboux, "pointwise normal form of a constant form",
        ("--matrix", {"required": True, "help": 'JSON rows of i_di i_dj omega, e.g. "[[0,1],[-1,0]]"'}),
        ("--parities", {"required": True, "help": "comma list, e.g. 0,0,1"}),
    )
    mode = darboux.add_mutually_exclusive_group(required=True)
    mode.add_argument("--even", action="store_true")
    mode.add_argument("--odd", action="store_true")
    command("liecoh h2", cmd_liecoh_h2, "dimensions and representatives of H^2", "file", "--name")
    command("liecoh extend", cmd_liecoh_extend, "central extension by a 2-cochain", "file", "--cocycle", "--name")
    command("liecoh equiv", cmd_liecoh_equiv, "equivalence of two 2-cocycles",
            "file", ("--cocycle", {"required": True}), ("--cocycle2", {"required": True}), "--name")
    command("heisenberg orbit", cmd_heisenberg_orbit, "classify the orbit through (y0, ybar1)", *orbit)
    command("heisenberg kks", cmd_heisenberg_kks, "orbit symplectic form", *orbit)
    command("heisenberg momentum", cmd_heisenberg_momentum, "momentum map checks", *orbit)
    command("cech periods", cmd_cech_periods, "period group of the cover cocycle", "file")
    command("cech prequantize", cmd_cech_prequantize, "existence and normalized cocycle", "file", "--d")
    command("cech classify", cmd_cech_classify, "H^1 with Q/dZ coefficients", "file", "--d")
    command("prequant eta", cmd_prequant_eta, "infinitesimal symmetry of a Poisson member", "file", "--f", *chart)
    command("prequant qop", cmd_prequant_qop, "apply Q(f) to a section", "file", "--f",
            ("--section", {"required": True, "help": "a superfunction on the base chart"}), *chart)
    command("prequant repcheck", cmd_prequant_repcheck, "[Q(f),Q(g)] = -i Q({f,g}) on samples",
            "file", "--f", "--g", ("--sections", {"required": True, "help": "semicolon-separated sections"}), *chart)
    command("verify-paper", cmd_verify, "re-derive the bundled worked examples",
            ("section", {"help": "section3..section9 or all"}))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.generators = _generator_count()
        report, verdict = args.fn(args)
        print(json.dumps(_fmt({"command": args.command, **report}), indent=2))
        return 2 if verdict is None else 0 if verdict else 1
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
