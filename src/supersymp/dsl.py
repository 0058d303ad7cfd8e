"""Plain-text declarations for charts, functions, fields, forms, algebras,
pairings, and cochains.

One statement per ``;``.  Multiplication is ``*``, wedge and integer powers
are ``^``, partials are ``d/dx``, differentials ``dx``, Grassmann generators
``th1..thN``, the imaginary unit ``i``, and the two C-basis markers ``c0``
and ``c1``.  Fixtures written in this format double as the readable record
of every object the engine is expected to reproduce.

One pass reads a document.  `_Parser.expression` is one precedence-climbing
loop over the binding powers `+ -` 1, `* /` 2, a leading sign 3 and `^` 4,
every operator left-associative: `2*x^2` is 2x^2, `-x^2` is -(x^2) and
`x^2^3` is x^6, as the printers mean them, so printed objects read back as
themselves.  Each operator applies its action at its own token as it is
read, so there is no syntax tree, and the first error in reading order is
the one reported, with its line and column.  `_Parser.sequence` reads every
comma list (coordinate names, parities, basis indices, matrix rows and
entries, bracket and cochain values).

A `Document` from `parse` is read-only: its eight name tables are
`MappingProxyType` views, so the names an expression can resolve are fixed
once `parse` returns.  `Document.evaluate` therefore memoizes: each
distinct (text, chart) is read once per document, and a repeat returns the
same object (a value is never changed after it is built).  Nothing
invalidates an entry; the memo is freed with the document.  A text that
fails is read again on every call and raises the same `DslError`.
Likewise each generator token ``thK`` that resolves on a chart is built
once per (document, chart), and every later ``thK`` on that chart is the
same constant; an out-of-range ``thK`` is never kept and fails each time.
"""

from __future__ import annotations

import re
from fractions import Fraction
import operator
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple, TypeVar

from .charts import CFunction, Chart, SuperFunction, VectorField
from .forms import CKForm, KForm, wedge
from .grassmann import DEFAULT_GENERATORS, GrassmannNumber, accumulate
from .scalars import GaussianRational

if TYPE_CHECKING:  # imported by the declarations that build them
    from .heisenberg import HeisenbergSpec
    from .liecoh import CECochain, SuperLieAlgebra


class DslError(Exception):
    """Syntax or semantic error at an offset of the text, reported by line and column."""

    def __init__(self, message: str, text: str, offset: int):
        self.message = message
        self.line = text.count("\n", 0, offset) + 1
        self.col = offset - text.rfind("\n", 0, offset)
        super().__init__(f"line {self.line}, column {self.col}: {message}")


# ----------------------------------------------------------------------
# lexer
# ----------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<partial>d/d[A-Za-z0-9_]+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<int>\d+)
  | (?P<op>[-+*/^()\[\],;=])
  | (?P<bad>.)
    """,
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str  # "partial" | "name" | "int" | "op" | "bad" | "eof"
    text: str
    offset: int


def tokenize(text: str) -> List[Token]:
    """The tokens of `text`, ended by an "eof" token at its end; a character
    the language does not use is a "bad" token, refused by `_Parser.peek`."""
    tokens: List[Token] = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind != "ws" and kind != "comment":
            tokens.append(Token(kind, m.group(), m.start()))
    tokens.append(Token("eof", "", len(text)))
    return tokens


# ----------------------------------------------------------------------
# parsing and evaluation
# ----------------------------------------------------------------------

T = TypeVar("T")

MAX_NESTING = 100  # parentheses and signs; keeps parsing off the recursion limit

# binding powers of the infix operators, and of a leading sign: -x^2 is -(x^2)
BINDING = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
PREFIX = 3


class CBasis:
    """Marker for the c0 / c1 atoms."""

    def __init__(self, alpha: int):
        self.alpha = alpha


def _power(a, n: int, mul):
    """a^n for n >= 1 by repeated squaring."""
    out = None
    while True:
        if n & 1:
            out = a if out is None else mul(out, a)
        n >>= 1
        if not n:
            return out
        a = mul(a, a)


def _as_function(value, chart: Chart):
    if isinstance(value, GaussianRational):
        return chart.constant(value)
    if isinstance(value, SuperFunction):
        return value
    return None


class _Parser:
    """One pass over a token list; expressions are evaluated against `doc`
    and the chart in scope as they are read."""

    def __init__(self, text: str, doc: "Document", chart: Optional[Chart] = None):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0
        self.depth = 0
        self.doc = doc
        self.chart = chart

    def peek(self) -> Token:
        """The current token; every token is peeked before `next` takes it,
        so a "bad" one is refused here when the parser reaches it."""
        tok = self.tokens[self.pos]
        if tok.kind == "bad":
            self.fail(f"unexpected character {tok.text!r}", tok)
        return tok

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":  # never move past the final "eof" token
            self.pos += 1
        return tok

    def error(self, message: str, tok: Optional[Token] = None) -> DslError:
        return DslError(message, self.text, (tok or self.peek()).offset)

    def fail(self, message: str, tok: Optional[Token] = None):
        raise self.error(message, tok)

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text:
            self.fail(f"expected {text!r}, found {tok.text!r}" if tok.text else f"expected {text!r}", tok)
        return self.next()

    def expect_name(self, what: str = "name") -> Token:
        tok = self.peek()
        if tok.kind != "name":
            self.fail(f"expected a {what}", tok)
        return self.next()

    # expressions ------------------------------------------------------

    def nested(self, tok: Token, floor: int = 0):
        """expression(floor) one nesting level deeper than `tok`."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail(f"expression nested deeper than {MAX_NESTING} levels", tok)
        value = self.expression(floor)
        self.depth -= 1
        return value

    def expression(self, floor: int = 0):
        """An operand, then each operator that binds tighter than `floor` with
        its right operand.  A right operand stops at an operator of its own
        power, so all five associate to the left and a flat chain folds here."""
        tok = self.peek()
        if tok.text in ("+", "-"):
            self.next()
            value = self.nested(tok, PREFIX)
            if tok.text == "-":
                value = self._negate(value, tok)
        else:
            value = self.atom()
        while True:
            tok = self.peek()
            power = BINDING.get(tok.text, 0)
            if power <= floor:
                return value
            self.next()
            right = self.expression(power)
            try:
                value = self._ACTIONS[tok.text](self, value, right, tok)
            except ValueError as exc:  # operands on two charts, generator counts or degrees
                raise self.error(str(exc), tok) from exc

    def atom(self):
        tok = self.next()
        if tok.kind == "int":
            return GaussianRational(int(tok.text))
        if tok.kind == "name":
            return self._resolve(tok)
        if tok.kind == "partial":
            return self._partial(tok.text[3:], tok)
        if tok.text == "(":
            value = self.nested(tok)
            self.expect(")")
            return value
        self.fail(f"unexpected token {tok.text!r}" if tok.text else "unexpected end of input", tok)

    # semantic actions --------------------------------------------------

    def _resolve(self, tok: Token):
        text = tok.text
        doc = self.doc
        for table in (doc.functions, doc.cfunctions, doc.fields, doc.forms):
            if text in table:
                return table[text]
        if text == "i":
            return GaussianRational(0, 1)
        chart = self.chart
        if chart is not None:
            if text in chart.coords:
                return chart.var(text)
            if text.startswith("d") and text[1:] in chart.coords:
                return KForm.differential(chart, text[1:])
            if text.startswith("th"):
                key = text, chart
                value = doc._generators.get(key)
                if value is not None:
                    return value
                m = re.fullmatch(r"th(\d+)", text)
                if m:
                    k = int(m.group(1))
                    if not 1 <= k <= chart.generators:
                        self.fail(f"Grassmann generator th{k} is out of range (N = {chart.generators})", tok)
                    value = doc._generators[key] = chart.constant(GrassmannNumber.generator(k, chart.generators))
                    return value
        if text in ("c0", "c1"):
            return CBasis(int(text[1]))
        self.fail(f"undefined identifier {text!r}", tok)

    def _partial(self, coord: str, tok: Token) -> VectorField:
        if self.chart is None:
            self.fail("no chart in scope for a partial derivative", tok)
        if coord not in self.chart.coords:
            self.fail(f"unknown coordinate {coord!r}", tok)
        return self.chart.vector_field({coord: 1})

    def _negate(self, val, tok):
        if isinstance(val, (GaussianRational, SuperFunction, VectorField, KForm, CKForm, CFunction)):
            return -val
        self.fail("cannot negate this expression", tok)

    def _add(self, a, b, tok):
        if isinstance(a, GaussianRational) and isinstance(b, GaussianRational):
            return a + b
        if self.chart is not None:
            fa, fb = _as_function(a, self.chart), _as_function(b, self.chart)
            if fa is not None and fb is not None:
                return fa + fb
        for kind in (VectorField, KForm, CKForm, CFunction):
            if isinstance(a, kind) and isinstance(b, kind):
                return a + b
        if isinstance(a, CFunction) and _as_function(b, a.chart) is not None:
            self.fail("cannot add a C-valued and a plain function; tag with c0/c1", tok)
        if isinstance(b, CFunction) and self.chart is not None and _as_function(a, self.chart) is not None:
            self.fail("cannot add a C-valued and a plain function; tag with c0/c1", tok)
        self.fail("incompatible operands for +", tok)

    def _sub(self, a, b, tok):
        return self._add(a, self._negate(b, tok), tok)

    def _mul(self, a, b, tok):
        if isinstance(a, GaussianRational) and isinstance(b, GaussianRational):
            return a * b
        if isinstance(b, CBasis):
            chart = self.chart
            if chart is None:
                self.fail("no chart in scope for a C-valued expression", tok)
            fa = _as_function(a, chart)
            if fa is not None:
                parts = [chart.zero(), chart.zero()]
                parts[b.alpha] = fa
                return CFunction(parts[0], parts[1])
            if isinstance(a, KForm):
                zero = KForm.zero(chart, a.degree)
                return CKForm(a, zero) if b.alpha == 0 else CKForm(zero, a)
            self.fail("only functions and forms can be tagged with c0/c1", tok)
        if isinstance(a, CBasis):
            self.fail("write the c0/c1 tag on the right of the factor", tok)
        if isinstance(a, GaussianRational) and isinstance(b, (SuperFunction, VectorField, KForm, CKForm, CFunction)):
            return b.scale(a)
        if isinstance(b, GaussianRational):
            return self._mul(b, a, tok) if not isinstance(a, SuperFunction) else a.scale(b)
        if isinstance(a, SuperFunction):
            if isinstance(b, SuperFunction):
                return a * b
            if isinstance(b, VectorField):
                return b.left_multiply(a)
            if isinstance(b, KForm):
                return b.left_multiply(a)
            if isinstance(b, CFunction):
                self.fail("multiply plain functions before tagging with c0/c1", tok)
        if isinstance(a, KForm):
            if isinstance(b, SuperFunction):
                return a.right_multiply(b)
            if isinstance(b, KForm):
                return wedge(a, b)
        if isinstance(a, VectorField) and isinstance(b, SuperFunction):
            self.fail("write coefficients to the left of d/dz", tok)
        self.fail("incompatible operands for *", tok)

    def _div(self, a, b, tok):
        if not isinstance(b, GaussianRational):
            self.fail("division only by scalars", tok)
        if b.is_zero():
            self.fail("division by zero", tok)
        return self._mul(b.inverse(), a, tok)

    def _pow(self, a, b, tok):
        if isinstance(b, GaussianRational):
            if not b.is_rational() or b.re.denominator != 1 or b.re < 0:
                self.fail("power needs a nonnegative integer exponent", tok)
            n = int(b.re)
            if isinstance(a, GaussianRational):
                return _power(a, n, operator.mul) if n else GaussianRational(1)
            if isinstance(a, SuperFunction):
                return _power(a, n, operator.mul) if n else a.chart.one()
            if isinstance(a, KForm):
                if n == 0:
                    self.fail("zeroth wedge power is not a form", tok)
                return _power(a, n, wedge)
            self.fail("cannot raise this expression to a power", tok)
        if isinstance(a, KForm) and isinstance(b, KForm):
            return wedge(a, b)
        if isinstance(a, KForm) and isinstance(b, SuperFunction):
            return wedge(a, KForm.from_function(b))
        if isinstance(a, SuperFunction) and isinstance(b, KForm):
            return wedge(KForm.from_function(a), b)
        self.fail("incompatible operands for ^", tok)

    _ACTIONS = {"+": _add, "-": _sub, "*": _mul, "/": _div, "^": _pow}

    # comma lists and numbers -------------------------------------------

    def sequence(self, item: Callable[[], T]) -> List[T]:
        """item (, item)...: one or more items separated by commas."""
        out = [item()]
        while self.peek().text == ",":
            self.next()
            out.append(item())
        return out

    def integer(self, what: str, signed: bool = False) -> int:
        """An integer token, after a minus sign if `signed` allows one."""
        sign = 1
        if signed and self.peek().text == "-":
            self.next()
            sign = -1
        tok = self.peek()
        if tok.kind != "int":
            self.fail(f"expected {what}", tok)
        self.next()
        return sign * int(tok.text)

    def index_list(self) -> Tuple[int, ...]:
        """[i1, ..., ik] with 1-based basis indices, returned 0-based."""
        self.expect("[")
        out = tuple(self.sequence(lambda: self.integer("a basis index") - 1))
        self.expect("]")
        return out

    def rational(self) -> Fraction:
        value = Fraction(self.integer("a number", signed=True))
        if self.peek().text == "/":
            self.next()
            tok = self.peek()
            denominator = self.integer("a denominator")
            if denominator == 0:
                self.fail("division by zero", tok)
            value = value / denominator
        return value

    def matrix(self) -> List[List[Fraction]]:
        """[[q, ...], ...]; a row may be empty."""

        def row() -> List[Fraction]:
            self.expect("[")
            entries = [] if self.peek().text == "]" else self.sequence(self.rational)
            self.expect("]")
            return entries

        self.expect("[")
        rows = self.sequence(row)
        self.expect("]")
        return rows


# ----------------------------------------------------------------------
# documents
# ----------------------------------------------------------------------


TABLES = ("charts", "functions", "cfunctions", "fields", "forms", "algebras", "cocycles", "heisenbergs")
ON_CHART = {"fn": "functions", "cfn": "cfunctions", "vf": "fields", "form": "forms"}  # declarations on a chart, by table


class Document:
    """The declarations of a text.  `parse` fills the tables and then makes
    them read-only, which is what lets `evaluate` memoize."""

    def __init__(self, generators: int = DEFAULT_GENERATORS):
        self.charts: Mapping[str, Chart] = {}
        self.functions: Mapping[str, SuperFunction] = {}
        self.cfunctions: Mapping[str, CFunction] = {}
        self.fields: Mapping[str, VectorField] = {}
        self.forms: Mapping[str, KForm] = {}
        self.algebras: Mapping[str, SuperLieAlgebra] = {}
        self.cocycles: Mapping[str, CECochain] = {}
        self.heisenbergs: Mapping[str, HeisenbergSpec] = {}
        self.order: List[Tuple[str, str]] = []  # (kind, name)
        self.current_chart: Optional[str] = None
        self.generators = generators  # of every chart the document declares
        # (text, chart) -> value of every evaluation that succeeded
        self._memo: Dict[Tuple[str, Optional[Chart]], object] = {}
        # (thK, chart) -> the constant th_K, the value of every thK token on that chart
        self._generators: Dict[Tuple[str, Chart], SuperFunction] = {}

    def evaluate(self, text: str, chart: Optional[Chart] = None):
        """Evaluate a standalone expression in this document's scope, on
        `chart` or else the current chart; a repeat returns the same object."""
        if chart is None and self.current_chart is not None:
            chart = self.charts[self.current_chart]
        key = (text, chart)
        value = self._memo.get(key)  # no expression has the value None
        if value is None:
            parser = _Parser(text, self, chart)
            value = parser.expression()
            if parser.peek().kind != "eof":
                parser.fail("trailing input after expression")
            self._memo[key] = value
        return value


def _register(parser: _Parser, kind: str, name: str, tok: Token, table: str, value) -> None:
    """Declare `name` as `value` in `table`: a new name, on the chart the declaration names."""
    doc = parser.doc
    if any(name in getattr(doc, t) for t in TABLES):
        parser.fail(f"name {name!r} already declared", tok)
    chart = getattr(value, "chart", None)
    if chart is not None and chart != parser.chart:
        parser.fail(f"{kind} {name} is on chart {chart.name!r}, not on {parser.chart.name!r}", tok)
    doc.order.append((kind, name))
    getattr(doc, table)[name] = value


def parse(text: str, generators: int = DEFAULT_GENERATORS) -> Document:
    """Parse a document with N = `generators`; errors carry line/column positions."""
    doc = Document(generators=generators)
    parser = _Parser(text, doc)
    while parser.peek().kind != "eof":
        _statement(parser)
    for name in TABLES:
        setattr(doc, name, MappingProxyType(getattr(doc, name)))
    return doc


def _statement(parser: _Parser) -> None:
    doc = parser.doc
    head = parser.expect_name("declaration keyword")
    name_tok = parser.expect_name()
    name = name_tok.text

    if head.text == "chart":
        coords = {"even": (), "odd": ()}
        for parity in coords:
            if parser.peek().text == parity:
                parser.next()
                coords[parity] = tuple(tok.text for tok in parser.sequence(parser.expect_name))
        try:
            chart = Chart(name, coords["even"], coords["odd"], doc.generators)
        except ValueError as exc:
            raise parser.error(str(exc), head) from exc
        _register(parser, "chart", name, name_tok, "charts", chart)
        doc.current_chart = name

    elif head.text in ON_CHART:
        chart_name = doc.current_chart
        if parser.peek().text == "on":
            parser.next()
            chart_name = parser.expect_name("chart name").text
        parser.expect("=")
        if chart_name not in doc.charts:
            parser.fail(f"unknown chart {chart_name!r}" if chart_name else "no chart declared", head)
        chart = parser.chart = doc.charts[chart_name]
        value = parser.expression()
        if head.text == "fn":
            value = _as_function(value, chart)
            if value is None:
                parser.fail("fn expects a plain superfunction", head)
        elif head.text == "cfn":
            if isinstance(value, (GaussianRational, SuperFunction)):
                parser.fail("cfn expects c0/c1 components", head)
            if not isinstance(value, CFunction):
                parser.fail("cfn expects a C-valued function", head)
        elif head.text == "vf":
            if isinstance(value, GaussianRational) and value.is_zero():
                value = VectorField(chart, {})
            if not isinstance(value, VectorField):
                parser.fail("vf expects a vector field", head)
        else:
            if isinstance(value, (GaussianRational, SuperFunction)):
                value = KForm.from_function(_as_function(value, chart))
            if not isinstance(value, KForm):
                parser.fail("form expects a differential form", head)
        _register(parser, head.text, name, name_tok, ON_CHART[head.text], value)

    elif head.text == "algebra":
        parities = _parities(parser)
        brackets = _entries(parser, "bracket", "bracket", lambda: _basis_expression(parser, len(parities)), pairs=True)
        from .liecoh import SuperLieAlgebra

        try:
            algebra = SuperLieAlgebra(parities, brackets)
        except ValueError as exc:
            raise parser.error(f"parity mismatch or invalid bracket: {exc}", head) from exc
        _register(parser, "algebra", name, name_tok, "algebras", algebra)

    elif head.text == "cocycle":
        from .liecoh import CECochain

        parser.expect("on")
        alg_tok = parser.expect_name("algebra name")
        if alg_tok.text not in doc.algebras:
            parser.fail(f"unknown algebra {alg_tok.text!r}", alg_tok)
        algebra = doc.algebras[alg_tok.text]
        parser.expect("degree")
        degree = parser.integer("a degree")
        values = _entries(parser, "values", "tuple", lambda: _cvalue_expression(parser))
        try:
            cochain = CECochain(algebra, degree, values)
        except ValueError as exc:
            raise parser.error(str(exc), head) from exc
        _register(parser, "cocycle", name, name_tok, "cocycles", cochain)

    elif head.text == "heisenberg":
        from .heisenberg import HeisenbergSpec

        parities = _parities(parser)
        parser.expect("omega0")
        omega0 = parser.matrix()
        parser.expect("omega1")
        omega1 = parser.matrix()
        n = len(parities)
        for label, m in (("omega0", omega0), ("omega1", omega1)):
            if len(m) != n or any(len(row) != n for row in m):
                parser.fail(f"{label} must be {n}x{n}", head)
        try:
            spec = HeisenbergSpec(parities, omega0, omega1)
        except ValueError as exc:
            raise parser.error(str(exc), head) from exc
        _register(parser, "heisenberg", name, name_tok, "heisenbergs", spec)

    else:
        parser.fail(f"unknown declaration {head.text!r}", head)

    parser.expect(";")


def _parities(parser: _Parser) -> List[int]:
    """parities p1, ..., pn: one signed integer per basis vector."""
    parser.expect("parities")
    return parser.sequence(lambda: parser.integer("an integer", signed=True))


def _entries(parser: _Parser, keyword: str, what: str, value: Callable[[], T], pairs: bool = False) -> Dict[Tuple[int, ...], T]:
    """An optional list  keyword [i, ...] = value (, [i, ...] = value)...  as
    a dict from 0-based index tuples, two indices each if `pairs`; a key
    given twice must have one value, zero included."""
    out: Dict[Tuple[int, ...], T] = {}
    if parser.peek().text != keyword:
        return out
    parser.next()

    def entry() -> None:
        tok = parser.peek()
        key = parser.index_list()
        if pairs and len(key) != 2:
            parser.fail(f"a {what} takes two basis indices", tok)
        parser.expect("=")
        val = value()
        if out.setdefault(key, val) != val:
            parser.fail(f"conflicting values on {what} {key}", tok)

    parser.sequence(entry)
    return out


def _signed_sum(parser: _Parser, what: str, basis: Callable[[Token], object]) -> Dict[object, Fraction]:
    """Signed sum  [-] t (+|- t)...  of terms t = q*b, b or 0 with rational q.

    `basis(tok)` maps a basis-vector token to its key, or fails with its
    own message; a coefficient must be followed by `*` unless it is 0.
    """
    out: Dict[object, Fraction] = {}
    sign = 1
    if parser.peek().text == "-":
        parser.next()
        sign = -1
    while True:
        coeff, has_basis = Fraction(1), True
        if parser.peek().kind == "int":
            coeff = parser.rational()
            has_basis = parser.peek().text == "*"
            if has_basis:
                parser.next()
            elif coeff:
                parser.fail(f"expected {what} after the coefficient")
        if has_basis:
            key = basis(parser.peek())
            parser.next()
            accumulate(out, key, sign * coeff)
        if parser.peek().text not in ("+", "-"):
            return out
        sign = 1 if parser.next().text == "+" else -1


def _basis_expression(parser: _Parser, dimension: int) -> Dict[int, Fraction]:
    """Linear combination of e1..en with rational coefficients."""

    def basis(tok: Token) -> int:
        if tok.kind != "name" or not re.fullmatch(r"e\d+", tok.text):
            parser.fail("expected a basis vector e<k>")
        k = int(tok.text[1:])
        if not 1 <= k <= dimension:
            parser.fail(f"basis index e{k} out of range", tok)
        return k - 1

    return _signed_sum(parser, "a basis vector e<k>", basis)


def _cvalue_expression(parser: _Parser) -> Tuple[Fraction, Fraction]:
    """Linear combination of c0 and c1 with rational coefficients."""

    def basis(tok: Token) -> int:
        if tok.text not in ("c0", "c1"):
            parser.fail("expected c0 or c1")
        return int(tok.text[1])

    out = _signed_sum(parser, "c0 or c1", basis)
    return out.get(0, Fraction(0)), out.get(1, Fraction(0))


# ----------------------------------------------------------------------
# rendering (canonical form; parse . render = identity)
# ----------------------------------------------------------------------


def render(doc: Document) -> str:
    lines: List[str] = []
    for kind, name in doc.order:
        if kind == "chart":
            chart = doc.charts[name]
            chunks = [f"chart {name}"]
            if chart.even:
                chunks.append("even " + ",".join(chart.even))
            if chart.odd:
                chunks.append("odd " + ",".join(chart.odd))
            lines.append(" ".join(chunks) + ";")
        elif kind == "fn":
            f = doc.functions[name]
            lines.append(f"fn {name} on {f.chart.name} = {f};")
        elif kind == "cfn":
            f = doc.cfunctions[name]
            lines.append(f"cfn {name} on {f.chart.name} = ({f.f0})*c0 + ({f.f1})*c1;")
        elif kind == "vf":
            x = doc.fields[name]
            lines.append(f"vf {name} on {x.chart.name} = {x if not x.is_zero() else 0};")
        elif kind == "form":
            w = doc.forms[name]
            lines.append(f"form {name} on {w.chart.name} = {w};")
        elif kind == "algebra":
            g = doc.algebras[name]
            chunks = [f"algebra {name} parities " + ",".join(str(p) for p in g.parities)]
            entries = []
            for (i, j), vec in sorted(g.brackets.items()):
                if i > j:
                    continue
                body = " + ".join(
                    (f"{v}*e{k+1}" if v != 1 else f"e{k+1}") for k, v in sorted(vec.items())
                ).replace("+ -", "- ")
                entries.append(f"[{i+1},{j+1}] = {body}")
            if entries:
                chunks.append("bracket " + ", ".join(entries))
            lines.append(" ".join(chunks) + ";")
        elif kind == "cocycle":
            c = doc.cocycles[name]
            alg_name = next(n for n, a in doc.algebras.items() if a is c.g)
            chunks = [f"cocycle {name} on {alg_name} degree {c.degree}"]
            entries = []
            for key, (v0, v1) in sorted(c.values.items()):
                idx = ",".join(str(i + 1) for i in key)
                parts = []
                if v0:
                    parts.append(f"{v0}*c0")
                if v1:
                    parts.append(f"{v1}*c1")
                entries.append(f"[{idx}] = " + " + ".join(parts))
            if entries:
                chunks.append("values " + ", ".join(entries))
            lines.append(" ".join(chunks) + ";")
        elif kind == "heisenberg":
            spec = doc.heisenbergs[name]

            def mat(m):
                return "[" + ",".join("[" + ",".join(str(v) for v in row) + "]" for row in m) + "]"

            lines.append(
                f"heisenberg {name} parities "
                + ",".join(str(p) for p in spec.parities)
                + f" omega0 {mat(spec.omega0)} omega1 {mat(spec.omega1)};"
            )
    return "\n".join(lines) + ("\n" if lines else "")
