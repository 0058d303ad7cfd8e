from __future__ import annotations

import argparse
import builtins
import contextlib
import io
import json
import os
import re
import runpy
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import supersymp
from supersymp.cli import build_parser, main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_symplectic_check_verified(capsys):
    code, rep = run(capsys, "symplectic", "check", FIXTURES / "mixed21.ssp", "--name", "omega", "--point", "x=0,y=0")
    assert code == 0
    assert rep["symplectic"] is True
    assert rep["nondegenerate"] is False


def test_symplectic_check_refuted(capsys, tmp_path):
    bad = tmp_path / "bad.ssp"
    bad.write_text("chart M even x,y odd xi; form omega = dx^dy;")
    code, rep = run(capsys, "symplectic", "check", bad, "--point", "x=0,y=0")
    assert code == 1
    assert rep["symplectic"] is False


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.ssp"
    bad.write_text("form w = dx^^dy;")
    code, _ = run(capsys, "symplectic", "check", bad)
    assert code == 2
    err = capsys.readouterr()
    # error already consumed by run(); exit code is the contract


ZERO_DENOMINATOR = "algebra g parities 0,0 bracket [1,1] = 1/0*e1;"
ZERO_COVER = "simplex 0 1\nf 0 1 = 1/0\n"
NEGATIVE_D_COVER = "simplex 0 1\nd = -1\n"
ONE_FORM = "chart M even x,y; form omega = dx;"
TWO_FORM_THETA = "chart P even x,y; form omega = dx^dy; form theta = dx^dy;"
COCYCLE_OFF_BASIS = "algebra g parities 0,0; cocycle w on g degree 2 values [1,9] = c0;"


@pytest.mark.parametrize(
    "argv, error_start",
    [
        (
            ("symplectic", "check", FIXTURES / "mixed21.ssp", "--point", "x=1/0"),
            "--point component 'x=1/0': '1/0' is not a rational number",
        ),
        (
            (
                "symplectic", "hamiltonian", FIXTURES / "mixed21.ssp",
                "--f", "(" * 2000 + "x" + ")" * 2000 + "*c0", "--point", "x=0,y=0",
            ),
            "line 1, column 101: expression nested deeper than",
        ),
        (
            ("symplectic", "darboux", "--matrix", "[[0,2],[-2,0]]", "--parities", "0", "--even"),
            "--matrix, --parities: matrix must be 1 x 1, one row and column per parity",
        ),
        (("liecoh", "h2", ZERO_DENOMINATOR), "line 1, column 42: division by zero"),
        (
            ("symplectic", "check", FIXTURES / "mixed21.ssp", "--point", "x=0,y=abc"),
            "--point component 'y=abc': 'abc' is not a rational number",
        ),
        (("symplectic", "check", FIXTURES / "mixed21.ssp", "--point", "x"), "--point component 'x': use name=value"),
        (("symplectic", "darboux", "--matrix", "[[0,2],[-2,0]", "--parities", "0,0", "--even"), "--matrix: not JSON"),
        (("symplectic", "darboux", "--matrix", "{}", "--parities", "0,0", "--even"), "--matrix: not a JSON list of rows"),
        (
            ("symplectic", "darboux", "--matrix", '[[0,"1/0"],[-2,0]]', "--parities", "0,0", "--even"),
            "--matrix entry: '1/0' is not a rational number",
        ),
        (
            ("symplectic", "darboux", "--matrix", "[[0,2],[-2,0]]", "--parities", "0,x", "--even"),
            "--parities entry: 'x' is not an integer",
        ),
        (("heisenberg", "orbit", FIXTURES / "heis33.ssp", "--y0", "abc"), "--y0: 'abc' is not a rational number"),
        (("heisenberg", "orbit", FIXTURES / "heis33.ssp", "--y0", "1/0"), "--y0: '1/0' is not a rational number"),
        (("heisenberg", "kks", FIXTURES / "heis33.ssp", "--ybar1", "1/0"), "--ybar1: '1/0' is not a rational number"),
        (("cech", "prequantize", FIXTURES / "sphere.cov", "--d", "1/0"), "--d: '1/0' is not a rational number"),
        (("cech", "classify", FIXTURES / "circle.cov", "--d", "x"), "--d: 'x' is not a rational number"),
        (("cech", "periods", ZERO_COVER), "cover file line 2: division by zero"),
        (
            ("symplectic", "darboux", "--matrix", "[[0,2],[-2,0]]", "--parities", "0,2", "--even"),
            "--parities: each entry must be 0 or 1, got '0,2'",
        ),
        (
            ("symplectic", "darboux", "--matrix", "[[0,2],[-2,0]]", "--parities", "0,-1", "--even"),
            "--parities: each entry must be 0 or 1, got '0,-1'",
        ),
        (("cech", "classify", FIXTURES / "circle.cov", "--d", "-1"), "--d: '-1' is negative"),
        (("cech", "prequantize", FIXTURES / "sphere.cov", "--d=-3/2"), "--d: '-3/2' is negative"),
        (("cech", "classify", NEGATIVE_D_COVER), "cover file line 2: d must be >= 0"),
        (("cech", "classify", FIXTURES / "circle.cov", "--d", "-1/2"), "--d: '-1/2' is negative"),
        (
            ("symplectic", "darboux", "--matrix", "[[0,0,1],[0,1,0],[1,0,0]]", "--parities", "0,1,1", "--odd"),
            "--matrix, --parities: matrix is not graded skew-symmetric",
        ),
        (
            ("symplectic", "darboux", "--matrix", "[[0,1,0],[-1,0,0],[0,0,1]]", "--parities", "0,0,1", "--odd"),
            "--matrix, --parities: matrix entry violates the declared homogeneity",
        ),
        (("verify-paper", "nosuch"), "section: unknown section 'nosuch'; choose from section3, "),
        (("symplectic", "check", ONE_FORM), "NotSymplectic: symplectic test expects a 2-form"),
        (("prequant", "qop", TWO_FORM_THETA, "--f", "x*c0", "--section", "x"), "the potential must be a 1-form"),
        (("liecoh", "extend", COCYCLE_OFF_BASIS, "--cocycle", "w"), "line 1, column 56: basis index out of range in tuple (0, 8)"),
        (("symplectic", "check", FIXTURES / "nosuch.ssp"), f"cannot read {FIXTURES / 'nosuch.ssp'}: "),
        (
            ("symplectic", "check", FIXTURES / "mixed21.ssp", "--name", "nosuch", "--point", "x=0,y=0"),
            "no form named 'nosuch' in the document",
        ),
    ],
    ids=[
        "zero_point", "deep_nesting", "darboux_shape", "zero_denominator",
        "point_literal", "point_no_value", "matrix_not_json", "matrix_not_rows", "matrix_zero_denominator",
        "parities_literal", "y0_literal", "y0_zero_denominator", "ybar1_zero_denominator",
        "d_zero_denominator", "d_literal", "cover_zero_denominator",
        "parities_two", "parities_negative", "d_negative_classify", "d_negative_prequantize", "cover_negative_d",
        "d_negative_fraction_spaced", "darboux_not_skew", "darboux_off_homogeneity", "verify_unknown_section",
        "check_one_form", "prequant_theta_two_form", "cocycle_off_basis", "missing_file", "unknown_name",
    ],
)
def test_malformed_input_exits_2(capsys, tmp_path, argv, error_start):
    # a declaration or cover text in argv is passed as a file holding it
    files = {ZERO_DENOMINATOR: tmp_path / "doc.ssp", ZERO_COVER: tmp_path / "cover.cov", NEGATIVE_D_COVER: tmp_path / "d.cov",
             ONE_FORM: tmp_path / "one.ssp", TWO_FORM_THETA: tmp_path / "theta.ssp", COCYCLE_OFF_BASIS: tmp_path / "co.ssp"}
    for text, path in files.items():
        path.write_text(text)
    code = main([str(files[a]) if a in files else str(a) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error and error.startswith(error_start)


@pytest.mark.parametrize("value", ["abc", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ("verify-paper", "all"),
        ("cech", "periods", FIXTURES / "sphere.cov"),
        ("symplectic", "check", FIXTURES / "mixed21.ssp", "--point", "x=0,y=0"),
        ("symplectic", "darboux", "--matrix", "[[0,2],[-2,0]]", "--parities", "0,0", "--even"),
        ("heisenberg", "orbit", FIXTURES / "heis33.ssp"),
    ],
    ids=["verify_all", "cech_periods", "symplectic_check", "darboux", "heisenberg_orbit"],
)
def test_malformed_generator_count_exits_2(capsys, monkeypatch, argv, value):
    monkeypatch.setenv("SUPERSYMP_GENERATORS", value)
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert json.loads(line) == {"error": f"SUPERSYMP_GENERATORS must be an integer >= 0, got {value!r}"}


def test_hamiltonian_member_and_nonmember(capsys):
    code, rep = run(
        capsys, "symplectic", "hamiltonian", FIXTURES / "mixed21.ssp", "--f", "x*c0", "--point", "x=0,y=0"
    )
    assert code == 0 and rep["status"] == "member"
    assert rep["field"] == "(-1)*d/dy"
    code, rep = run(
        capsys, "symplectic", "hamiltonian", FIXTURES / "mixed21.ssp", "--f", "y^2*c0", "--point", "x=0,y=0"
    )
    assert code == 1 and rep["status"] == "not_member"
    # a plain function is the c0 part of a C-valued one
    code, rep = run(capsys, "symplectic", "hamiltonian", FIXTURES / "even20.ssp", "--f", "x", "--point", "x=0,y=0")
    assert code == 0 and rep["status"] == "member"
    assert (rep["f"], rep["field"]) == ("(x)*c0 + (0)*c1", "(-1)*d/dy")


VARIABLE_RANK = "chart V even x,y odd xi,eta; form omega = x*dx^dy + dx^dxi + dy^deta;"


def test_undecided_hamiltonian_field_exits_2(capsys, tmp_path):
    """No field up to the ansatz degree, and no proof that none exists: the
    report says inconclusive, and the exit code is not 1 (refuted)."""
    doc = tmp_path / "rank.ssp"
    doc.write_text(VARIABLE_RANK)
    code, rep = run(capsys, "symplectic", "hamiltonian", doc, "--f", "y*c0", "--point", "x=1,y=0")
    assert code == 2 and rep["status"] == "inconclusive" and rep["field"] is None


def test_undecided_poisson_operand_exits_2(capsys, tmp_path):
    doc = tmp_path / "rank.ssp"
    doc.write_text(VARIABLE_RANK)
    code, rep = run(capsys, "symplectic", "poisson", doc, "--f", "y*c0", "--g", "x*c0")
    assert code == 2
    assert rep == {"command": "symplectic poisson", "error": "undecided: no solution up to degree 2"}


def test_proven_non_member_poisson_operand_exits_1(capsys):
    code, rep = run(
        capsys, "symplectic", "poisson", FIXTURES / "mixed21.ssp", "--f", "y^2*c0", "--g", "x*c0", "--point", "x=0,y=0"
    )
    assert code == 1
    assert rep["error"] == "not in the Poisson algebra: coefficient system inconsistent (degree-independent)"


def test_poisson_bracket(capsys):
    code, rep = run(
        capsys,
        "symplectic", "poisson", FIXTURES / "even20.ssp",
        "--f", "x*c0", "--g", "y*c0", "--point", "x=0,y=0",
    )
    assert code == 0
    assert rep["bracket"] == "(-1)*c0 + (0)*c1"


def test_darboux_command(capsys):
    code, rep = run(
        capsys,
        "symplectic", "darboux", "--matrix", "[[0,2],[-2,0]]", "--parities", "0,0", "--even",
    )
    assert code == 0
    assert rep["k"] == 1 and rep["ell"] == 0
    assert rep["canonical_form"] == "dx1^dy1"


def test_liecoh_h2(capsys):
    code, rep = run(capsys, "liecoh", "h2", FIXTURES / "algebra.ssp")
    assert code == 0
    assert rep["dim_h2"] == 0


def test_liecoh_extend_and_equiv(capsys):
    code, rep = run(capsys, "liecoh", "extend", FIXTURES / "algebra.ssp", "--cocycle", "w1")
    assert code in (0, 1)
    assert "jacobi" in rep
    code, rep = run(
        capsys, "liecoh", "equiv", FIXTURES / "algebra.ssp", "--cocycle", "w1", "--cocycle2", "w1"
    )
    assert code == 0 and rep["equivalent"] is True


OFF_ALGEBRA = (FIXTURES / "algebra.ssp").read_text() + """
algebra h parities 0,1;
cocycle v1 on h degree 2 values [1,2] = c1;
cocycle u1 on g degree 1 values [1] = c0;
cocycle u2 on g degree 1 values [2] = 5*c0;
cocycle t3 on g degree 3 values [1,2,3] = c1;
"""


@pytest.mark.parametrize(
    "argv, error",
    [
        (("extend", "--cocycle", "v1", "--name", "g"), "cocycle 'v1' is a 2-cochain on algebra 'h'; a central extension needs a 2-cochain on algebra 'g'"),
        (("extend", "--cocycle", "t3", "--name", "g"), "cocycle 't3' is a 3-cochain on algebra 'g'; a central extension needs a 2-cochain on algebra 'g'"),
        (("equiv", "--cocycle", "u1", "--cocycle2", "u2", "--name", "g"), "cocycle 'u1' is a 1-cochain on algebra 'g'; a central extension needs a 2-cochain on algebra 'g'"),
        (("equiv", "--cocycle", "w1", "--cocycle2", "w2", "--name", "h"), "cocycle 'w1' is a 2-cochain on algebra 'g'; a central extension needs a 2-cochain on algebra 'h'"),
        (("equiv", "--cocycle", "w1", "--cocycle2", "t3", "--name", "g"), "cocycle 't3' is a 3-cochain on algebra 'g'; a central extension needs a 2-cochain on algebra 'g'"),
    ],
    ids=["extend_other_algebra", "extend_degree_3", "equiv_degree_1", "equiv_other_algebra", "equiv_second_degree_3"],
)
def test_liecoh_cocycle_off_the_algebra_exits_2(capsys, tmp_path, argv, error):
    doc = tmp_path / "doc.ssp"
    doc.write_text(OFF_ALGEBRA)
    command, *options = argv
    code = main(["liecoh", command, str(doc), *options])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert json.loads(captured.err) == {"error": error}
    # the 2-cochains on the chosen algebra still get their verdicts
    code, rep = run(capsys, "liecoh", "equiv", doc, "--cocycle", "w1", "--cocycle2", "w2", "--name", "g")
    assert code == 1 and rep["equivalent"] is False


def test_an_algebra_named_omega_is_not_picked_without_name(capsys, tmp_path):
    """Only a form named omega is the default; two algebras need --name."""
    doc = tmp_path / "doc.ssp"
    doc.write_text("algebra omega parities 0,0; algebra g parities 0,0 bracket [1,2] = e1;")
    assert main(["liecoh", "h2", str(doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "document has 2 algebras; pick one with --name"}
    code, rep = run(capsys, "liecoh", "h2", doc, "--name", "omega")
    assert code == 0 and rep["dim_h2"] == 1


def test_heisenberg_orbit_cases(capsys):
    code, rep = run(capsys, "heisenberg", "orbit", FIXTURES / "heis33.ssp", "--y0", "1", "--ybar1", "0")
    assert code == 0
    assert rep["case"] == "case_i"
    assert rep["coordinates"] == ["x1", "x2", "xi5", "xi6"]
    assert rep["dimension"] == "2|2"
    code, rep = run(capsys, "heisenberg", "kks", FIXTURES / "heis33.ssp", "--y0", "1", "--ybar1", "1")
    assert code == 0
    assert rep["homogeneously_nondegenerate"] is True
    assert rep["nondegenerate"] is False
    code, rep = run(capsys, "heisenberg", "momentum", FIXTURES / "heis33.ssp", "--y0", "0", "--ybar1", "1")
    assert code == 0
    assert rep["strongly_hamiltonian"] is True
    # the orbit of the origin is a point: asking for its form is an error
    # (exit 2), and its momentum map is hamiltonian trivially
    trivial = (FIXTURES / "heis33.ssp", "--y0", "0", "--ybar1", "0")
    assert main(["heisenberg", "kks", *map(str, trivial)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "trivial orbit has no form"}
    code, rep = run(capsys, "heisenberg", "momentum", *trivial)
    assert code == 0
    assert rep == {"command": "heisenberg momentum", "case": "trivial", "strongly_hamiltonian": True}


def test_a_value_with_a_leading_minus_reads_as_with_equals(capsys):
    """--opt -3/2 is the value -3/2, as --opt=-3/2 is, not an unknown option."""
    heis = ("heisenberg", "orbit", FIXTURES / "heis33.ssp")
    spaced = run(capsys, *heis, "--y0", "-3/2")
    assert spaced == run(capsys, *heis, "--y0=-3/2")
    assert spaced[0] == 0 and spaced[1]["y0"] == "-3/2"
    ham = ("symplectic", "hamiltonian", FIXTURES / "mixed21.ssp", "--point", "x=0,y=0")
    code, rep = run(capsys, *ham, "--f", "-x*c0")
    assert code == 0 and rep["status"] == "member"
    assert (code, rep) == run(capsys, *ham, "--f=-x*c0")


def test_cech_pipeline(capsys):
    code, rep = run(capsys, "cech", "periods", FIXTURES / "sphere.cov")
    assert code == 0 and rep["per"] == "3"
    code, rep = run(capsys, "cech", "prequantize", FIXTURES / "sphere.cov")
    assert code == 0 and rep["exists"] is True
    code, rep = run(capsys, "cech", "prequantize", FIXTURES / "sphere.cov", "--d", "2")
    assert code == 1 and rep["exists"] is False
    code, rep = run(capsys, "cech", "classify", FIXTURES / "sphere.cov")
    assert code == 0 and rep["trivial"] is True
    code, rep = run(capsys, "cech", "classify", FIXTURES / "circle.cov")
    assert code == 0 and rep["free_rank"] == 1
    code, rep = run(capsys, "cech", "classify", FIXTURES / "circle.cov", "--d", "0")
    assert code == 0 and rep["coefficients"] == "Q"


def test_prequant_commands(capsys):
    code, rep = run(
        capsys, "prequant", "eta", FIXTURES / "mixed21.ssp", "--f", "1*c0", "--point", "x=0,y=0"
    )
    assert code == 0
    assert rep["eta"] == "(-1)*d/dt"
    code, rep = run(
        capsys,
        "prequant", "qop", FIXTURES / "even20.ssp",
        "--f", "5*c0", "--section", "x*y", "--point", "x=0,y=0",
    )
    assert code == 0
    assert rep["result"] == "5*x*y"
    code, rep = run(
        capsys,
        "prequant", "repcheck", FIXTURES / "mixed21.ssp",
        "--f", "x*c0", "--g", "y*c0 + xi*c1", "--sections", "1; x*y; xi",
        "--point", "x=0,y=0",
    )
    assert code == 0 and rep["holds"] is True


def test_verify_sections(capsys):
    for section in ("section4", "section5", "section6", "section7", "section8", "section9"):
        code, rep = run(capsys, "verify-paper", section)
        assert code == 0, f"{section}: {rep}"
        assert rep["ok"] is True


def test_verify_reports_a_crashing_check(capsys, monkeypatch):
    """A check that raises fails with the exception as its result, and the
    run goes on to the next check."""
    from supersymp import verify

    monkeypatch.setattr(verify, "_REGISTRY", [])

    @verify.check("raises", "section8")
    def _raises():
        return 1 / 0

    @verify.check("holds", "section8")
    def _holds():
        return True, "1", "1"

    code, rep = run(capsys, "verify-paper", "section8")
    assert code == 1
    assert [(c["name"], c["ok"], c["got"]) for c in rep["checks"]] == [
        ("raises", False, "ZeroDivisionError: division by zero"),
        ("holds", True, "1"),
    ]


def test_verify_section3_reports_known_display_mismatch(capsys):
    """Two reference displays in the mixed counterexample are inconsistent
    with the others by a factor -2; the verifier reports rather than hides
    them, so section3 exits 1 with exactly those two checks failing."""
    code, rep = run(capsys, "verify-paper", "section3")
    assert code == 1
    failing = [c["name"] for c in rep["checks"] if not c["ok"]]
    assert failing == [
        "i_[X,Y] omega = d(y xi) + 2 xi dxi (reference display)",
        "d(i_[X,Y] omega) = 2 dxi^dxi != 0 (reference display)",
    ]
    # all the substantive claims still hold
    assert rep["passed"] == rep["total"] - 2


# ----------------------------------------------------------------------
# the parser and the report contract
# ----------------------------------------------------------------------


def _subcommands(parser, path=()):
    """(command path, parser) for each leaf subcommand."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _subcommands(sub, (*path, name))
            return
    yield " ".join(path), parser


REQ, OPT = (True, None, None), (False, None, None)
POINT, INT = (False, [], None), (False, None, "int")
FORM = {"file": REQ, "--name": OPT, "--point": POINT}
CHART = {"file": REQ, "--f": REQ, "--omega": OPT, "--theta": OPT, "--point": POINT}
ORBIT = {"file": REQ, "--y0": (False, "1", None), "--ybar1": (False, "0", None), "--name": OPT}
PARSER = {
    "symplectic check": FORM,
    "symplectic hamiltonian": {**FORM, "--f": REQ, "--degree": INT},
    "symplectic poisson": {**FORM, "--f": REQ, "--g": REQ, "--degree": INT},
    "symplectic darboux": {
        "--matrix": REQ, "--parities": REQ, "--even": (False, False, None), "--odd": (False, False, None),
        ("--even", "--odd"): "one required",
    },
    "liecoh h2": {"file": REQ, "--name": OPT},
    "liecoh extend": {"file": REQ, "--cocycle": OPT, "--name": OPT},
    "liecoh equiv": {"file": REQ, "--cocycle": REQ, "--cocycle2": REQ, "--name": OPT},
    "heisenberg orbit": ORBIT,
    "heisenberg kks": ORBIT,
    "heisenberg momentum": ORBIT,
    "cech periods": {"file": REQ},
    "cech prequantize": {"file": REQ, "--d": OPT},
    "cech classify": {"file": REQ, "--d": OPT},
    "prequant eta": CHART,
    "prequant qop": {**CHART, "--section": REQ},
    "prequant repcheck": {**CHART, "--g": REQ, "--sections": REQ},
    "verify-paper": {"section": REQ},
}


def test_the_parser_keeps_every_option_default_required_flag_and_type():
    found = {}
    for path, parser in _subcommands(build_parser()):
        options = found[path] = {
            (a.option_strings or [a.dest])[0]: (a.required, a.default, getattr(a.type, "__name__", a.type))
            for a in parser._actions
            if not isinstance(a, argparse._HelpAction)
        }
        for group in parser._mutually_exclusive_groups:
            options[tuple(a.option_strings[0] for a in group._group_actions)] = "one required" if group.required else "at most one"
    assert found == PARSER


def _readme_commands():
    """The argument lists of the `supersymp` lines of the README's CLI section."""
    block = (ROOT / "README.md").read_text().split("## CLI")[1].split("```sh")[1].split("```")[0]
    lines = (shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines())
    return [argv[1:] for argv in lines if argv[:1] == ["supersymp"]]


REFUTED = {
    "symplectic hamiltonian fixtures/mixed21.ssp --f y^2*c0 --point x=0,y=0",
    "liecoh extend fixtures/algebra.ssp --cocycle w1",
    "liecoh equiv fixtures/algebra.ssp --cocycle w1 --cocycle2 w2",
    "cech prequantize fixtures/sphere.cov --d 2",
    "verify-paper all",
}


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_every_report_begins_with_its_command(capsys, monkeypatch, argv):
    """The first key of each report is "command", the subcommand path; the
    exit code is 1 for a refuted claim and 0 for a verified one."""
    monkeypatch.chdir(ROOT)
    code, rep = run(capsys, *argv)
    path = " ".join(argv[:1] if argv[0] == "verify-paper" else argv[:2])
    assert next(iter(rep.items())) == ("command", path)
    assert code == (1 if " ".join(argv) in REFUTED else 0)


def test_the_module_runs_as_a_script(capsys, monkeypatch):
    """`python -m supersymp.cli ARGS` exits with the code of `main(ARGS)`."""
    argv = ["heisenberg", "kks", str(FIXTURES / "heis33.ssp"), "--y0", "0", "--ybar1", "0"]
    monkeypatch.setattr(sys, "argv", ["supersymp.cli", *argv])
    # runpy warns that the module it runs afresh is already imported
    with pytest.warns(RuntimeWarning, match="found in sys.modules"), pytest.raises(SystemExit) as exc:
        runpy.run_module("supersymp.cli", run_name="__main__")
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and json.loads(captured.err)["error"] == "trivial orbit has no form"


# ----------------------------------------------------------------------
# import graph: a cold command loads only the modules it runs
# ----------------------------------------------------------------------


def _loaded_after(code: str) -> set:
    """The modules loaded once `code` has run in a fresh interpreter (-S, so
    that no site hook of the installation loads modules of its own)."""
    probe = f"{code}\nimport sys\nprint(' '.join(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", probe], cwd=ROOT, env=env, capture_output=True, text=True)
    return set(proc.stdout.splitlines()[-1].split())


def _command(*argv) -> str:
    return f"from supersymp.cli import main\nmain({list(argv)!r})"


def test_importing_the_cli_loads_no_command_module():
    loaded = _loaded_after("import supersymp.cli")
    assert "supersymp.cli" in loaded
    unwanted = {"dataclasses", "inspect", "supersymp.dsl", "supersymp.symplectic", "supersymp.liecoh", "supersymp.heisenberg"}
    assert not loaded & unwanted


def test_cech_command_loads_no_dsl():
    loaded = _loaded_after(_command("cech", "periods", "fixtures/sphere.cov"))
    assert "supersymp.cech" in loaded
    assert not loaded & {"supersymp.dsl", "supersymp.charts"}


def test_symplectic_command_loads_no_lie_algebra_module():
    loaded = _loaded_after(_command("symplectic", "check", "fixtures/mixed21.ssp"))
    assert {"supersymp.dsl", "supersymp.symplectic"} <= loaded
    assert not loaded & {"supersymp.liecoh", "supersymp.heisenberg"}


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from supersymp import *", namespace)
    assert set(supersymp.__all__) <= set(namespace)
    from supersymp import charts, forms, grassmann, scalars

    assert namespace["Chart"] is charts.Chart and namespace["wedge"] is forms.wedge
    assert namespace["Q"] is scalars.Q and namespace["DEFAULT_GENERATORS"] == grassmann.DEFAULT_GENERATORS
    with pytest.raises(AttributeError):
        supersymp.no_such_name


# ----------------------------------------------------------------------
# contract fuzz: mutated fixtures keep the exit-code contract
# ----------------------------------------------------------------------

FUZZ_CASES = [
    ("mixed21.ssp", ("symplectic", "check", "--point", "x=0,y=0")),
    ("mixed22.ssp", ("symplectic", "check", "--point", "x=0,y=0")),
    ("even20.ssp", ("prequant", "qop", "--f", "x*c0", "--section", "x*y", "--point", "x=0,y=0")),
    ("algebra.ssp", ("liecoh", "extend", "--cocycle", "w2")),
    ("heis33.ssp", ("heisenberg", "orbit", "--y0", "1")),
    ("sphere.cov", ("cech", "prequantize")),
    ("circle.cov", ("cech", "classify")),
]
FUZZ_TOKEN = re.compile(r"\d+|[A-Za-z_][A-Za-z0-9_]*|[^\sA-Za-z0-9_]")
MUTATION = st.tuples(st.sampled_from(["delete", "duplicate", "replace", "truncate"]), st.integers(0, 400), st.integers(0, 400))


def _mutate(text: str, mutations) -> str:
    """Apply each (kind, i, j) to the token spans of `text`: token i is
    deleted, doubled, replaced by token j, or the text is cut before it."""
    for kind, i, j in mutations:
        spans = [m.span() for m in FUZZ_TOKEN.finditer(text)]
        if not spans:
            break
        start, end = spans[i % len(spans)]
        other = text[slice(*spans[j % len(spans)])]
        text = {
            "delete": text[:start] + text[end:],
            "duplicate": text[:end] + " " + text[start:end] + text[end:],
            "replace": text[:start] + other + text[end:],
            "truncate": text[:start],
        }[kind]
    return text


@settings(derandomize=True, database=None, deadline=None, max_examples=120,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.sampled_from(FUZZ_CASES), mutations=st.lists(MUTATION, min_size=1, max_size=3))
def test_mutated_fixtures_keep_the_exit_code_contract(tmp_path, case, mutations):
    fixture, (group, command, *options) = case
    path = tmp_path / fixture
    path.write_text(_mutate((FIXTURES / fixture).read_text(), mutations))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([group, command, str(path), *options])
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        (line,) = err.getvalue().splitlines()
        report = json.loads(line)
        assert list(report) == ["error"] and report["error"]
        named = report["error"].split(":", 1)[0]
        assert not isinstance(getattr(builtins, named, None), type), report["error"]
    else:
        assert err.getvalue() == "" and json.loads(out.getvalue())["command"] == f"{group} {command}"
