from __future__ import annotations

import json

import pytest

from supersymp.charts import CFunction, Chart
from supersymp.cli import main
from supersymp.dsl import parse
from supersymp.forms import contract, ext_d, wedge
from supersymp.reference import d
from supersymp.symplectic import SymplecticData, hamiltonian_field, is_symplectic


def test_generator_count_env_override(monkeypatch, capsys, tmp_path):
    """N reaches the charts through parse(generators=...), and from
    SUPERSYMP_GENERATORS only through the CLI."""
    doc = parse("chart M even x;", generators=3)
    assert doc.charts["M"].generators == 3
    with pytest.raises(Exception):
        doc.evaluate("th4")  # out of range for N = 3

    monkeypatch.setenv("SUPERSYMP_GENERATORS", "3")
    source = tmp_path / "m.ssp"
    source.write_text("chart M even x,y; form omega = dx^dy;")
    assert main(["symplectic", "hamiltonian", str(source), "--f", "th4*c0"]) == 2
    assert "th4 is out of range (N = 3)" in json.loads(capsys.readouterr().err)["error"]


def test_variable_rank_form_membership_is_inconclusive():
    """With omega = x dx^dy + dx^dxi + dy^deta the even rank drops along
    x = 0; solving i_X doubled-omega = d(y c0) needs X^x = 1/x, which no
    polynomial ansatz reaches, and the verdict must stay inconclusive
    rather than claim definitive non-membership."""
    chart = Chart("V", ("x", "y"), ("xi", "eta"), 4)
    omega = (
        wedge(d(chart, "x"), d(chart, "y")).right_multiply(chart.var("x"))
        + wedge(d(chart, "x"), d(chart, "xi"))
        + wedge(d(chart, "y"), d(chart, "eta"))
    )
    assert ext_d(omega).is_zero()
    rep = is_symplectic(omega, [{"x": 1, "y": 0}])
    assert rep["symplectic"]
    sd = SymplecticData(omega, [{"x": 1, "y": 0}])
    assert not sd.has_constant_coefficients()
    f = CFunction(chart.var("y"), chart.zero())
    res = hamiltonian_field(f, sd, ansatz_degree=3)
    assert res.status == "inconclusive"
    assert "degree" in res.detail


def test_variable_rank_form_member_found():
    # on the same chart, f = x c0 still has a polynomial hamiltonian field
    chart = Chart("V", ("x", "y"), ("xi", "eta"), 4)
    omega = (
        wedge(d(chart, "x"), d(chart, "y")).right_multiply(chart.var("x"))
        + wedge(d(chart, "x"), d(chart, "xi"))
        + wedge(d(chart, "y"), d(chart, "eta"))
    )
    sd = SymplecticData(omega, [{"x": 1, "y": 0}])
    f = CFunction(chart.var("xi"), chart.zero())
    res = hamiltonian_field(f, sd, ansatz_degree=2)
    if res.status == "member":
        assert contract(res.field, sd.doubled) == ext_d(f)
    else:
        assert res.status == "inconclusive"


def test_symplectic_data_rejects_nonclosed():
    from supersymp.symplectic import NotSymplectic

    chart = Chart("W", ("x", "y"), ("xi",), 4)
    omega = wedge(d(chart, "x"), d(chart, "y")).right_multiply(chart.var("xi"))
    with pytest.raises(NotSymplectic):
        SymplecticData(omega, [])


def test_contraction_matrix_rejects_nilpotent_entries():
    from supersymp.grassmann import GrassmannNumber
    from supersymp.symplectic import contraction_matrix

    chart = Chart("W", ("x",), ("xi",), 4)
    theta = chart.constant(GrassmannNumber.generator(1, 4) * GrassmannNumber.generator(2, 4))
    omega = wedge(d(chart, "x"), d(chart, "xi")).right_multiply(chart.one() + theta)
    with pytest.raises(ValueError):
        contraction_matrix(omega)
