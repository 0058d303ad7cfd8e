from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import random_field, random_superfunction
from supersymp.charts import CFunction, Chart, SuperFunction
from supersymp import dsl
from supersymp.dsl import DslError, parse, render
from supersymp.forms import CKForm, KForm, contract, wedge
from supersymp.grassmann import GrassmannNumber
from supersymp.reference import d, heisenberg_33, mixed_counterexample
from supersymp.scalars import GaussianRational

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_parse_form_declaration():
    doc = parse("chart M even x,y odd xi,eta; form w = dx^dy + dxi^deta + dx^dxi;")
    w = doc.forms["w"]
    assert w.degree == 2
    assert len(w.terms) == 3
    ex = mixed_counterexample()
    # same terms as the reference builder (charts differ only by name)
    assert {tuple(word) for word in w.terms} == {tuple(word) for word in ex.omega.terms}


def test_empty_document():
    doc = parse("")
    assert not doc.order


def test_syntax_error_position():
    with pytest.raises(DslError) as err:
        parse("chart M even x,y odd xi;\nform w = dx^^dy;")
    assert err.value.line == 2
    # the second ^ sits at column 13
    assert err.value.col == 13


def test_undefined_identifier():
    with pytest.raises(DslError) as err:
        parse("chart M even x; fn f = zz;")
    assert "undefined identifier" in err.value.message


def test_first_error_in_reading_order_is_reported():
    # expressions are evaluated as they are read, so the undefined name is
    # reported before the missing operand that follows it
    with pytest.raises(DslError) as err:
        parse("chart M even x; fn f = zz + ;")
    assert err.value.message == "undefined identifier 'zz'"
    assert (err.value.line, err.value.col) == (1, 24)


def test_parity_mismatch_diagnostic():
    # [e1, e2] is odd but e1 is even: parity bookkeeping must reject this
    with pytest.raises(DslError) as err:
        parse("algebra g parities 0,1 bracket [1,2] = e1;")
    assert "parity" in str(err.value)


def test_vector_field_and_function_declarations():
    doc = parse(
        """
        chart M even x,y odd xi,eta;
        fn f = y^2 + xi*eta;
        vf X = 2*y*d/dx - 2*y*d/deta;
        cfn F = x*c0 + xi*c1;
        """
    )
    chart = doc.charts["M"]
    y, xi, eta = chart.var("y"), chart.var("xi"), chart.var("eta")
    assert doc.functions["f"] == y * y + xi * eta
    assert doc.fields["X"] == chart.vector_field({"x": y.scale(2), "eta": y.scale(-2)})
    assert doc.cfunctions["F"] == CFunction(chart.var("x"), xi)


def test_grassmann_and_imaginary_atoms():
    doc = parse("chart M even x; fn f = 3/2 + 2*th1*th3*x - i*th2;")
    f = doc.functions["f"]
    val = f.evaluate({"x": 0})
    assert str(val) == "3/2 - i*th2"


def test_division_and_powers():
    doc = parse("chart M even x,y; fn f = x^3/4 + y/2;")
    chart = doc.charts["M"]
    x, y = chart.var("x"), chart.var("y")
    assert doc.functions["f"] == (x * x * x).scale(Fraction(1, 4)) + y.scale(Fraction(1, 2))


def test_mixed_fixture_reproduces_counterexample():
    doc = parse((FIXTURES / "mixed22.ssp").read_text())
    omega, X, Y = doc.forms["omega"], doc.fields["X"], doc.fields["Y"]
    from supersymp.charts import vf_commutator
    from supersymp.forms import ext_d

    chart = doc.charts["M"]
    assert contract(X, omega) == ext_d(chart.var("y") * chart.var("y"))
    z = vf_commutator(X, Y)
    assert not ext_d(contract(z, omega)).is_zero()


def test_heisenberg_fixture_matches_reference():
    doc = parse((FIXTURES / "heis33.ssp").read_text())
    spec = doc.heisenbergs["H"]
    ref = heisenberg_33()
    assert spec.parities == ref.parities
    assert spec.omega0 == ref.omega0
    assert spec.omega1 == ref.omega1


def test_algebra_fixture():
    doc = parse((FIXTURES / "algebra.ssp").read_text())
    g = doc.algebras["g"]
    from supersymp.liecoh import jacobi_check

    ok, _ = jacobi_check(g)
    assert ok
    assert doc.cocycles["w1"].evaluate((0, 1)) == (1, 0)
    assert doc.cocycles["w2"].evaluate((2, 2)) == (2, 0)


def test_duplicate_name_rejected():
    with pytest.raises(DslError):
        parse("chart M even x; fn f = x; fn f = x;")


def test_standalone_expression_evaluation():
    doc = parse("chart M even x,y odd xi;")
    chart = doc.charts["M"]
    val = doc.evaluate("x*c0 + xi*c1")
    assert val == CFunction(chart.var("x"), chart.var("xi"))
    form = doc.evaluate("dx^dy*(y^2)")
    assert isinstance(form, KForm)
    assert form == wedge(d(chart, "x"), d(chart, "y")).right_multiply(chart.var("y") * chart.var("y"))


def test_render_roundtrip():
    text = """
    chart M even x,y odd xi,eta;
    fn f = y^2 + xi*eta;
    vf X = 2*y*d/dx - 2*y*d/deta;
    form omega = dx^dy + dxi^deta + dx^dxi;
    cfn F = x*c0 + xi*c1;
    algebra g parities 0,0,1,1 bracket [1,3] = e3, [3,4] = e1 + e2;
    cocycle w on g degree 2 values [1,2] = c0, [3,3] = 2*c0;
    heisenberg H parities 0,1 omega0 [[0,0],[0,0]] omega1 [[0,1],[-1,0]];
    """
    doc = parse(text)
    rendered = render(doc)
    doc2 = parse(rendered)
    assert doc2.functions["f"] == doc.functions["f"]
    assert doc2.fields["X"] == doc.fields["X"]
    assert doc2.forms["omega"] == doc.forms["omega"]
    assert doc2.cfunctions["F"] == doc.cfunctions["F"]
    assert doc2.algebras["g"].brackets == doc.algebras["g"].brackets
    assert doc2.cocycles["w"].values == doc.cocycles["w"].values
    assert doc2.heisenbergs["H"].omega1 == doc.heisenbergs["H"].omega1
    # rendering is idempotent once canonical
    assert render(doc2) == rendered
    # a cocycle stays on its own algebra when another has the same parities
    twin = parse(
        "algebra g parities 0,0; algebra h parities 0,0 bracket [1,2] = e1;"
        "cocycle w on h degree 2 values [1,2] = c0;"
    )
    twin2 = parse(render(twin))
    assert twin2.cocycles["w"].g is twin2.algebras["h"]
    assert render(twin2) == render(twin)


@pytest.mark.parametrize(
    "text, message, col",
    [
        ("algebra g parities 0,0,0 bracket [1,2] = x;", "expected a basis vector e<k>", 42),
        ("algebra g parities 0,0,0 bracket [1,2] = e3 - 2*y;", "expected a basis vector e<k>", 49),
        ("algebra g parities 0,0,0 bracket [1,2] = e4;", "basis index e4 out of range", 42),
        ("algebra g parities 0,0,0 bracket [1,2] = 1/2*e3 + e0;", "basis index e0 out of range", 51),
        ("algebra g parities 0,0 ; cocycle w on g degree 2 values [1,2] = e1;", "expected c0 or c1", 65),
        ("algebra g parities 0,0 ; cocycle w on g degree 2 values [1,2] = c0 + 3*c2;", "expected c0 or c1", 72),
        ("algebra g parities 0,0 ; cocycle w on g degree 2 values [1,2] = 3;", "expected c0 or c1 after the coefficient", 66),
    ],
)
def test_signed_sum_errors_carry_positions(text, message, col):
    with pytest.raises(DslError) as err:
        parse("\n" + text)
    assert err.value.message == message
    assert (err.value.line, err.value.col) == (2, col)


@pytest.mark.parametrize(
    "text, col",
    [
        ("algebra g parities 0,0 bracket [1,1] = 1/0*e1;", 42),
        ("algebra g parities 0,0 ; cocycle w on g degree 2 values [1,2] = -1/0*c0;", 68),
        ("heisenberg h parities 0 omega0 [[1/0]] omega1 [[0]];", 36),
    ],
)
def test_zero_denominator_is_positioned(text, col):
    with pytest.raises(DslError) as err:
        parse("\n" + text)
    assert err.value.message == "division by zero"
    assert (err.value.line, err.value.col) == (2, col)


@pytest.mark.parametrize(
    "text, message, col",
    [
        ("algebra g parities 0,0,0 bracket [1,2,3] = e1;", "a bracket takes two basis indices", 34),
        ("algebra g parities 0,0,0 bracket [1] = e1;", "a bracket takes two basis indices", 34),
        ("algebra g parities 0,0,0 bracket [1,x] = e1;", "expected a basis index", 37),
        ("algebra g parities 0,0 ; cocycle w on g degree 2 values [1,] = c0;", "expected a basis index", 60),
    ],
)
def test_index_list_errors_carry_positions(text, message, col):
    with pytest.raises(DslError) as err:
        parse("\n" + text)
    assert err.value.message == message
    assert (err.value.line, err.value.col) == (2, col)


@pytest.mark.parametrize(
    "text, message, col",
    [
        ("algebra g parities 0,0,0 bracket [1,2] = e3, [1,2] = 2*e3;", "conflicting values on bracket (0, 1)", 46),
        ("algebra g parities 0,0,0 bracket [1,2] = 0, [1,3] = e2, [1,2] = e3;", "conflicting values on bracket (0, 1)", 57),
        ("algebra g parities 0,0 ; cocycle w on g degree 2 values [1,2] = c0, [1,2] = 0;", "conflicting values on tuple (0, 1)", 69),
        ("algebra g parities 0,0 ; cocycle w on g degree 2 values [1,2] = 0, [2,1] = 3*c0;", "conflicting values on tuple (0, 1)", 68),
    ],
)
def test_a_key_given_twice_needs_one_value(text, message, col):
    """Two unequal values on one bracket or cochain key, a zero included,
    are refused; the list used to keep the last one."""
    with pytest.raises(DslError) as err:
        parse("\n" + text)
    assert err.value.message == message
    assert (err.value.line, err.value.col) == (2, col)


def test_a_cochain_key_of_another_length_is_refused_at_its_declaration():
    """`[2] = c0` on a 2-cochain used to be kept as a term no evaluation reads."""
    with pytest.raises(DslError) as err:
        parse("\nalgebra g parities 0,0 ; cocycle w on g degree 2 values [1,2] = c0, [2] = c0;")
    assert err.value.message == "tuple (1,) needs 2 indices"
    assert (err.value.line, err.value.col) == (2, 69)


@pytest.mark.parametrize(
    "text, message, col",
    [
        ("algebra g parities 0,0; cocycle w on g degree 2 values [1,2] = c0, [1,9] = c0;", "basis index out of range in tuple (0, 8)", 68),
        ("algebra g parities 0,0; cocycle w on g degree 2 values [1,2] = c0, [2,2] = c1;", "value on vanishing tuple (1, 1)", 68),
        ("algebra g parities 0,1; cocycle w on g degree 2 values [1,2] = c0;", "evenness violated on (0, 1): component c0 must vanish", 56),
    ],
    ids=["off_basis", "vanishing", "evenness"],
)
def test_a_cochain_key_error_is_reported_at_its_key(text, message, col):
    """These three errors were reported at the `cocycle` keyword."""
    with pytest.raises(DslError) as err:
        parse("\n" + text)
    assert err.value.message == message
    assert (err.value.line, err.value.col) == (2, col)


def test_a_key_repeated_with_its_value_is_accepted():
    doc = parse(
        "algebra g parities 0,0,0 bracket [1,2] = e3, [1,2] = e3;"
        "cocycle w on g degree 2 values [1,2] = c0, [2,1] = -c0, [1,2] = c0;"
    )
    assert doc.algebras["g"].bracket_basis(0, 1) == {2: 1}
    assert doc.cocycles["w"].values == {(0, 1): (Fraction(1), Fraction(0))}


def test_index_lists_are_zero_based():
    doc = parse(
        "algebra g parities 0,1,1 bracket [2,3] = e1;"
        "cocycle w on g degree 3 values [3,1,3] = c0, [2,2,3] = 0;"
    )
    assert doc.algebras["g"].bracket_basis(1, 2) == {0: 1}
    # sorting (2, 0, 2) swaps the odd e3 past the even e1 once
    assert doc.cocycles["w"].values == {(0, 2, 2): (Fraction(-1), Fraction(0))}


def test_signed_sums_share_the_zero_shorthand():
    doc = parse(
        "algebra g parities 0,0,0 bracket [1,2] = 0, [1,3] = 0 + 2*e2 - e2 - 0;"
        "cocycle w on g degree 2 values [1,2] = 0, [1,3] = -0 + 1/2*c0 + c0;"
    )
    assert doc.algebras["g"].bracket_basis(0, 1) == {}
    assert doc.algebras["g"].bracket_basis(0, 2) == {1: 1}
    assert doc.cocycles["w"].values == {(0, 2): (Fraction(3, 2), 0)}


def test_nesting_limit_reports_a_position():
    doc = parse("chart M even x;")
    assert str(doc.evaluate("(" * 100 + "x" + ")" * 100)) == "x"
    with pytest.raises(DslError) as err:
        doc.evaluate("\n" + "-" * 50 + "(" * 60 + "x" + ")" * 60)
    assert (err.value.line, err.value.col) == (2, 101)
    assert "nested deeper than 100 levels" in err.value.message
    # long flat chains are folded without recursion
    assert str(doc.evaluate("+".join(["x"] * 3000))) == "3000*x"


def test_operator_precedence():
    # as in Python and in the printer: ^ binds tightest, then a leading sign,
    # then * and /, then + and -; every operator associates to the left
    doc = parse("chart M even x,y;")
    chart = doc.charts["M"]
    x, y = chart.var("x"), chart.var("y")
    dxdy = wedge(d(chart, "x"), d(chart, "y"))
    table = [
        ("2*x^2", (x * x).scale(2)),
        ("x*y^2", x * y * y),
        ("-x^2", -(x * x)),
        ("3 - 2*x^2*y", chart.constant(3) - (x * x * y).scale(2)),
        ("2^3*x", x.scale(8)),
        ("x^2^3", x * x * x * x * x * x),
        ("-dx^dy", -dxdy),
        ("x*dx^dy", dxdy.left_multiply(x)),
        ("x*(dx^dy)", dxdy.left_multiply(x)),
        ("dx^dy*(x^2)", dxdy.right_multiply(x * x)),
    ]
    for text, expected in table:
        assert doc.evaluate(text) == expected, text
    with pytest.raises(DslError) as err:
        doc.evaluate("x^-1")
    assert err.value.message == "power needs a nonnegative integer exponent"
    assert (err.value.line, err.value.col) == (1, 2)


def _random_form(rng, chart, degree):
    w = KForm.zero(chart, degree)
    for _ in range(3):
        term = KForm.from_function(random_superfunction(rng, chart, 2, with_grassmann=True, terms=2))
        for _ in range(degree):
            term = wedge(term, d(chart, rng.choice(chart.coords)))
        w = w + term
    return w


def _random_objects(rng, chart, count):
    """Seeded superfunctions with Q(i) coefficients, some Grassmann, and
    C-valued functions, vector fields and forms built from such functions."""
    objects = []
    for _ in range(count):
        c = GaussianRational(Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.randint(1, 4)), rng.randint(-2, 2))
        f = random_superfunction(rng, chart, 3, with_grassmann=True).scale(c) + random_superfunction(rng, chart, 3)
        g = random_superfunction(rng, chart, 2, with_grassmann=True)
        objects += [f, CFunction(f, g), random_field(rng, chart, with_grassmann=True), _random_form(rng, chart, rng.randint(1, 2))]
    return [obj for obj in objects if not obj.is_zero()]


def test_printed_objects_read_back_as_themselves():
    doc = parse("chart M even x,y odd xi,eta;")
    chart = doc.charts["M"]
    objects = _random_objects(random.Random(2003), chart, 300)
    assert len(objects) > 1000
    mismatches = [str(obj) for obj in objects if doc.evaluate(str(obj), chart) != obj]
    assert mismatches == []


def test_render_is_a_fixed_point():
    chart_decl = "chart M even x,y odd xi,eta;"
    objects = _random_objects(random.Random(21), parse(chart_decl).charts["M"], 25)
    kinds = {"SuperFunction": "fn", "CFunction": "cfn", "VectorField": "vf", "KForm": "form"}
    declarations = [f"{kinds[type(obj).__name__]} o{k} = {obj};" for k, obj in enumerate(objects)]
    texts = [path.read_text() for path in sorted(FIXTURES.glob("*.ssp"))]
    texts.append("\n".join([chart_decl] + declarations))
    for text in texts:
        once = render(parse(text))
        assert render(parse(once)) == once


MEMO_DOC = """
chart M even x,y odd xi;
chart N even x,y odd xi;
fn f on M = x^2 + xi;
vf X on M = y*d/dx;
form w on M = dx^dy;
algebra g parities 0,0,0 bracket [1,2] = e3;
cocycle c on g degree 2 values [1,2] = 1*c0;
heisenberg h parities 0,1 omega0 [[0,0],[0,1]] omega1 [[0,1],[-1,0]];
"""


def test_evaluate_returns_the_memoized_value():
    doc = parse(MEMO_DOC)
    chart = doc.charts["M"]
    for text in ("f*x*c0 + xi*y*c1", "X", "w^dx", "(x - y)^3"):
        first = doc.evaluate(text, chart)
        assert doc.evaluate(text, chart) is first
        assert doc.evaluate(text, chart) == parse(MEMO_DOC).evaluate(text, chart)
    # with no chart given, the current chart (the last one declared) is the key
    assert doc.evaluate("x*y") is doc.evaluate("x*y", doc.charts["N"])


def test_one_text_on_two_charts_gives_two_values():
    doc = parse(MEMO_DOC)
    on_m, on_n = (doc.evaluate("x*xi + y", doc.charts[name]) for name in ("M", "N"))
    assert on_m.chart == doc.charts["M"] and on_n.chart == doc.charts["N"]
    assert on_m != on_n


def test_a_generator_token_is_read_on_the_chart_in_scope():
    """thK is the constant th_K on the chart it is read on, with that chart's
    generator count; a parenthesis returns its operand."""
    doc = parse(MEMO_DOC)
    m, n = doc.charts["M"], doc.charts["N"]
    th1 = doc.evaluate("th1", m)
    assert th1 == m.constant(GrassmannNumber.generator(1, 6))
    assert doc.evaluate("(th1)", m) == th1
    assert doc.evaluate("(th1)", n) == n.constant(GrassmannNumber.generator(1, 6))
    small = Chart("M", m.even, m.odd, 4)
    assert doc.evaluate("(th1)", small) == small.constant(GrassmannNumber.generator(1, 4))
    with pytest.raises(DslError) as err:
        doc.evaluate("th5", small)
    assert err.value.message == "Grassmann generator th5 is out of range (N = 4)"


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("x + zz", "undefined identifier 'zz'", (1, 5)),
        ("x\n  + )", "unexpected token ')'", (2, 5)),
        ("x y", "trailing input after expression", (1, 3)),
        ("x + th7", "Grassmann generator th7 is out of range (N = 6)", (1, 5)),
    ],
)
def test_a_failing_text_fails_alike_on_every_call(text, message, position):
    doc = parse(MEMO_DOC)
    for _ in range(3):
        with pytest.raises(DslError) as err:
            doc.evaluate(text)
        assert (err.value.message, (err.value.line, err.value.col)) == (message, position)


@pytest.mark.parametrize("table", ["charts", "functions", "cfunctions", "fields", "forms", "algebras", "cocycles", "heisenbergs"])
def test_the_tables_of_a_parsed_document_are_read_only(table):
    doc = parse(MEMO_DOC)
    with pytest.raises(TypeError):
        getattr(doc, table)["f"] = doc.functions["f"]
    with pytest.raises(AttributeError):
        getattr(doc, table).clear()


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("chart P even x;\nfn f = x + ;\nfn g = $;", "unexpected token ';'", (2, 12)),
        ("chart P even x;\nfn f = $;\nfn g = x + ;", "unexpected character '$'", (2, 8)),
        ("chart P even x;\nfn f = x $ ;", "unexpected character '$'", (2, 10)),
    ],
    ids=["syntax_error_first", "bad_character_first", "bad_character_after_an_operand"],
)
def test_a_bad_character_is_reported_in_reading_order(text, message, position):
    with pytest.raises(DslError) as err:
        parse(text)
    assert (err.value.message, (err.value.line, err.value.col)) == (message, position)


TWO_CHARTS = "chart M even x odd xi; fn f = x; cfn h = f*c1; vf X = d/dx; form w = dx; chart N even y; "


@pytest.mark.parametrize(
    "statement, message, col",
    [
        ("fn g on N = f + 1;", "N vs M", 15),
        ("fn g on N = y * f;", "M vs N", 15),
        ("vf Y on N = X - d/dy;", "vector fields on different charts", 15),
        ("form v on N = dy ^ w;", "wedge of forms on different charts", 18),
    ],
    ids=["sum", "product", "field_difference", "wedge"],
)
def test_an_operator_on_two_charts_is_positioned_at_its_token(statement, message, col):
    with pytest.raises(DslError) as err:
        parse(TWO_CHARTS + statement)
    assert (err.value.message, err.value.col) == (message, len(TWO_CHARTS) + col)


@pytest.mark.parametrize(
    "statement, kind",
    [("fn g on N = f;", "fn"), ("cfn g on N = h;", "cfn"), ("vf g on N = X;", "vf"), ("form g on N = w;", "form")],
    ids=["fn", "cfn", "vf", "form"],
)
def test_a_declaration_must_live_on_the_chart_it_names(statement, kind):
    with pytest.raises(DslError) as err:
        parse(TWO_CHARTS + statement)
    assert err.value.message == f"{kind} g is on chart 'M', not on 'N'"
    assert err.value.col == len(TWO_CHARTS) + len(kind) + 2
    assert parse(TWO_CHARTS + statement.replace(" on N", " on M")).order[-1] == (kind, "g")


def test_forms_tagged_and_multiplied_match_the_engine_products():
    doc = parse("chart M even x,y odd xi; fn f = x*xi + y;")
    m, f = doc.charts["M"], doc.functions["f"]
    dx, dy, dxi = (KForm.differential(m, z) for z in ("x", "y", "xi"))
    assert doc.evaluate("dx*c1") == CKForm(KForm.zero(m, 1), dx)
    assert doc.evaluate("dx*dy") == wedge(dx, dy)
    # f moved past the odd dxi is its involution
    assert doc.evaluate("f^dxi") == dxi.left_multiply(f)
    assert doc.evaluate("dxi^f") == dxi.left_multiply(f.involution())
    assert doc.evaluate("dxi^f") != doc.evaluate("f^dxi")
    assert doc.evaluate("dx^f") == doc.evaluate("f^dx") == dx.left_multiply(f)


SIGN_DOC = "chart M even x,y odd xi,eta;"


def _term(chart, coefficient, exponents=(0, 0), word=(), generators=()):
    """c th_I x^a xi_w written out as its one term, with no product taken."""
    grassmann = GrassmannNumber(chart.generators, {tuple(generators): coefficient})
    return SuperFunction(chart, {(tuple(exponents), tuple(word)): grassmann})


def _th(chart, k):
    return chart.constant(GrassmannNumber.generator(k, chart.generators))


@pytest.mark.parametrize(
    "text, ring, sign, exponents, word, generators",
    [
        ("th2*th1", lambda m: _th(m, 2) * _th(m, 1), -1, (0, 0), (), (1, 2)),
        ("eta*xi", lambda m: m.var("eta") * m.var("xi"), -1, (0, 0), (0, 1), ()),
        ("xi*th1", lambda m: m.var("xi") * _th(m, 1), -1, (0, 0), (0,), (1,)),
        ("th1*xi", lambda m: _th(m, 1) * m.var("xi"), 1, (0, 0), (0,), (1,)),
        ("x*th1*xi", lambda m: m.var("x") * _th(m, 1) * m.var("xi"), 1, (1, 0), (0,), (1,)),
        ("xi*th2*th1", lambda m: m.var("xi") * _th(m, 2) * _th(m, 1), -1, (0, 0), (0,), (1, 2)),
        ("xi*eta*th1", lambda m: m.var("xi") * m.var("eta") * _th(m, 1), 1, (0, 0), (0, 1), (1,)),
        ("xi*xi", lambda m: m.var("xi") * m.var("xi"), 0, (0, 0), (), ()),
        ("th1^2", lambda m: _th(m, 1) * _th(m, 1), 0, (0, 0), (), ()),
        ("xi^2", lambda m: m.var("xi") * m.var("xi"), 0, (0, 0), (), ()),
        ("xi^0", lambda m: m.one(), 1, (0, 0), (), ()),
        ("(xi*eta)^1", lambda m: m.var("xi") * m.var("eta"), 1, (0, 0), (0, 1), ()),
        ("-(eta*xi)^1", lambda m: -(m.var("eta") * m.var("xi")), 1, (0, 0), (0, 1), ()),
    ],
)
def test_a_product_in_any_letter_order_has_the_graded_sign(text, ring, sign, exponents, word, generators):
    """Moving an odd letter or a generator past another costs -1, and a
    repeated one is 0: the text equals the product the SuperFunction ring
    builds and the one term written out with its sign."""
    m = parse(SIGN_DOC).charts["M"]
    value = parse(SIGN_DOC).evaluate(text, m)
    assert value == ring(m)
    assert value == _term(m, sign, exponents, word, generators)


def _oracle(chart, atoms):
    """The product of `atoms` in canonical form, its sign counted as the
    inversions of its odd letters (generators before odd coordinates)."""
    coefficient, exponents, odd = Fraction(1), [0, 0], []
    for kind, k in atoms:
        if kind == "n":
            coefficient *= k
        elif kind == "x":
            exponents[k] += 1
        else:
            odd.append((0, k) if kind == "th" else (1, k))
    if len(set(odd)) < len(odd):
        return chart.zero()
    inversions = sum(a > b for i, a in enumerate(odd) for b in odd[i + 1:])
    generators = tuple(sorted(k for kind, k in odd if kind == 0))
    word = tuple(sorted(k for kind, k in odd if kind == 1))
    return _term(chart, coefficient * (-1) ** inversions, exponents, word, generators)


def test_random_orders_of_plain_atoms_have_the_graded_sign():
    doc = parse(SIGN_DOC)
    m = doc.charts["M"]
    names = {"x": m.even, "xi": m.odd}
    rng = random.Random(34)
    pool = [("n", -2), ("n", 3), ("x", 0), ("x", 1), ("xi", 0), ("xi", 1), ("th", 1), ("th", 2), ("th", 3)]
    for _ in range(300):
        atoms = [rng.choice(pool) for _ in range(rng.randint(1, 6))]
        words = [f"({k})" if kind == "n" else f"th{k}" if kind == "th" else names[kind][k] for kind, k in atoms]
        cut = rng.randint(0, len(words))
        if 0 < cut < len(words) and rng.random() < 0.5:  # a parenthesised product folds as one term
            words = [f"({'*'.join(words[:cut])})"] + words[cut:]
        text = "*".join(words)
        ring = m.one()
        for kind, k in atoms:
            ring = ring * (m.constant(k) if kind == "n" else _th(m, k) if kind == "th" else m.var(names[kind][k]))
        expected = _oracle(m, atoms)
        assert ring == expected, text
        assert doc.evaluate(text, m) == expected, text


@pytest.mark.parametrize(
    "deepest, too_deep",
    [
        ("(" * 100 + "2*x" + ")" * 100, "(" * 101 + "2*x" + ")" * 101),
        ("-" * 100 + "x", "-" * 101 + "x"),
        ("-(" * 50 + "x" + ")" * 50, "-(" * 51 + "x" + ")" * 51),
    ],
    ids=["parenthesised_product", "signs", "signed_parentheses"],
)
def test_the_nesting_limit_holds_inside_a_folded_product(deepest, too_deep):
    doc = parse("chart M even x;")
    x = doc.charts["M"].var("x")
    assert doc.evaluate(deepest) in (x, x.scale(2))
    with pytest.raises(DslError) as err:
        doc.evaluate(too_deep)
    assert (err.value.message, err.value.line, err.value.col) == ("expression nested deeper than 100 levels", 1, 101)


TREE_DOC = SIGN_DOC + " fn f = 2*x*xi - th1*y + 3;"
LETTERS = ("x", "y", "xi", "eta", "th1", "th2", "th3", "f")
# binding powers as the printers mean them: a sum, a product, a leading sign, a power, an operand
SUM, PRODUCT, SIGN, POWER, OPERAND = range(1, 6)


def _tree(rng, depth):
    """A random expression as (text, binding power, value by the ring, letter read)."""
    if depth <= 0 or rng.random() < 0.15:
        leaf = rng.choice(("0", "1", "2", "5", "i") + LETTERS)
        return leaf, OPERAND, None, leaf in LETTERS
    kind = rng.choice(("+", "-", "*", "*", "/", "^", "sign", "()"))
    if kind in ("+", "-", "*"):
        power = SUM if kind != "*" else PRODUCT
        return kind, power, (_tree(rng, depth - 1), _tree(rng, depth - 1)), None
    if kind == "/":
        return kind, PRODUCT, (_tree(rng, depth - 1), rng.randint(1, 4)), None
    if kind == "^":
        return kind, POWER, (_tree(rng, depth - 2), rng.randint(0, 3)), None
    if kind == "sign":
        return rng.choice("-+"), SIGN, (_tree(rng, depth - 1),), None
    return kind, OPERAND, (_tree(rng, depth - 1),), None


def _text(node, floor):
    """The text of `node` with the fewest parentheses that keep its reading
    on an operand that must bind at least as tightly as `floor`."""
    op, power, args, _ = node
    if args is None:
        text = op
    elif op == "()":
        return "(" + _text(args[0], 0) + ")"
    elif power == SIGN:
        text = op + _text(args[0], SIGN)
    elif op in ("/", "^"):
        text = _text(args[0], power) + op + str(args[1])
    else:  # a right operand binds tighter: every operator associates to the left
        text = _text(args[0], power) + f" {op} " + _text(args[1], power + 1)
    return text if power >= floor else "(" + text + ")"


def _ring(node, doc, m):
    """The value of `node` by SuperFunction arithmetic, and whether a letter was read."""
    op, power, args, letter = node
    if args is None:
        if op == "f":
            return doc.functions["f"], True
        if op.startswith("th"):
            return _th(m, int(op[2:])), True
        if letter:
            return m.var(op), True
        return m.one().scale(GaussianRational(0, 1) if op == "i" else int(op)), False
    a, la = _ring(args[0], doc, m)
    if op == "()" or op == "+" and len(args) == 1:
        return a, la
    if power == SIGN:
        return -a, la
    if op == "/":
        return a.scale(Fraction(1, args[1])), la
    if op == "^":
        out = m.one()
        for _ in range(args[1]):
            out = out * a
        return out, la
    b, lb = _ring(args[1], doc, m)
    return (a + b if op == "+" else a - b if op == "-" else a * b), la or lb


def test_random_expression_trees_read_as_the_ring_computes_them():
    """Sums, differences, products, divisions, powers, leading signs and
    parentheses, written with the fewest parentheses, read as the ring
    computes them: one number if no letter was read, else one function."""
    doc = parse(TREE_DOC)
    m = doc.charts["M"]
    rng = random.Random(35)
    for _ in range(500):
        tree = _tree(rng, rng.randint(2, 6))
        text = _text(tree, 0)
        expected, letter = _ring(tree, doc, m)
        value = doc.evaluate(text, m)
        assert isinstance(value, SuperFunction if letter else GaussianRational), text
        assert (value if letter else m.constant(value)) == expected, text


def test_a_sum_adds_into_its_own_dict(monkeypatch):
    """A sum adds each term into one dict, which is never the dict of a
    declared function: `f + x` leaves f as declared."""
    doc = parse(TREE_DOC)
    m = doc.charts["M"]
    f = doc.functions["f"]
    terms, before = f.terms, dict(f.terms)
    assert doc.evaluate("f + x", m) == f + m.var("x")
    assert doc.evaluate("f + f", m) == f.scale(2)
    assert doc.evaluate("-f + f", m).is_zero()
    assert f == doc.evaluate("2*x*xi - th1*y + 3", m)
    assert f.terms is terms and f.terms == before
    calls = []
    real = dsl.accumulate
    monkeypatch.setattr(dsl, "accumulate", lambda *args: calls.append(args) or real(*args))
    n = 2000
    value = doc.evaluate(" + ".join(f"x^{k}" for k in range(1, n + 1)), m)
    assert len(value.terms) == n
    assert len(calls) <= 2 * n
