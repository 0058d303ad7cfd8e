"""Plain-text declarations for charts, functions, fields, forms, algebras,
pairings, and cochains.

One statement per ``;``.  Multiplication is ``*``, wedge and integer powers
are ``^``, partials are ``d/dx``, differentials ``dx``, Grassmann generators
``th1..thN``, the imaginary unit ``i``, and the two C-basis markers ``c0``
and ``c1``.  Fixtures written in this format double as the readable record
of every object the engine is expected to reproduce.

The lexer is one `findall` of `_TOKEN_RE` into (text, bad) pairs.  Each
match takes the white space and comments before its token, so the matches
cover the text: a character the language does not use is the `bad` half of
its pair, and ("", "") ends the list.  Tokens carry no offsets; a
`DslError` matches the text again to find its token's line and column.

One pass reads a document.  `_Parser.expression` is one precedence-climbing
loop over the binding powers `+ -` 1, `* /` 2, a leading sign 3 and `^` 4,
every operator left-associative: `2*x^2` is 2x^2, `-x^2` is -(x^2) and
`x^2^3` is x^6, as the printers mean them, so printed objects read back as
themselves.  Each operator applies its action in `_ACTIONS` at its own token
as it is read, so there is no syntax tree, and the first error in reading
order is the one reported.  `_Parser.sequence` reads every comma list.

The actions fold polynomials instead of building them.  A product of
numbers, coordinates, ``thK``, ``i``, powers and divisors by numbers is one
pending term (c, key, chart), with key = (e, w, I) as in `charts` (None for
a number); `*` multiplies terms by `charts.term_product`, and `^` multiplies
out through `*`.  `+` adds into the one dict of a sum (terms, chart), and a
factor of several terms multiplies out.  One `SuperFunction`, or one
`GaussianRational` if no letter was read, is built only at the end of the
expression or when the polynomial meets a form, a field, ``d/dx``,
``c0``/``c1`` or a C-valued function, which the engine actions `_add`,
`_mul` and `_pow` take.

A `Document` from `parse` is read-only: its eight name tables are
`MappingProxyType` views, so the names an expression can resolve are fixed
once `parse` returns.  `Document.evaluate` therefore memoizes: each
distinct (text, chart) is read once per document, and a repeat returns the
same object (a value is never changed after it is built).  Nothing
invalidates an entry; the memo is freed with the document.  A text that
fails is read again on every call and raises the same `DslError`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Tuple, TypeVar

from .charts import CFunction, Chart, SuperFunction, VectorField, add_term_products, term_product
from .forms import CKForm, KForm, wedge
from .grassmann import DEFAULT_GENERATORS, accumulate
from .scalars import I, ONE, ZERO, GaussianRational

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
    (?:\s+|\#[^\n]*)*               # white space and comments before the token
    (?: ( d/d[A-Za-z0-9_]+          # a partial derivative
        | [A-Za-z_][A-Za-z0-9_]*    # a name
        | \d+                       # an integer
        | [-+*/^()\[\],;=]          # an operator
        | \Z )                      # the end of the text
      | (.) )                       # a character the language does not use
    """,
    re.VERBOSE,
)


def _offset(text: str, pos: int) -> int:
    """Where token number `pos` of `text` starts."""
    matches = _TOKEN_RE.finditer(text)
    for _ in range(pos):
        next(matches)
    m = next(matches)
    return m.start(m.lastindex)


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


def _one(chart: Chart):
    """The key of the constant term on `chart`."""
    return (0,) * len(chart.even), (), ()


def _is_number(value) -> bool:
    """A polynomial in which no letter was read: a term with no key."""
    return type(value) is tuple and len(value) == 3 and value[1] is None


def _built(value):
    """A polynomial as the engine's object, one GaussianRational if no letter
    was read and else one SuperFunction; any other value as it is."""
    if type(value) is not tuple:
        return value
    if len(value) == 3:
        c, key, chart = value
        if key is None:
            return c
        value = {key: c} if c else {}, chart
    terms, chart = value
    return chart.zero()._like(terms)


class _Parser:
    """One pass over the tokens of `text`; expressions are evaluated against
    `doc` and the chart in scope as they are read.  A polynomial is a term
    (c, key, chart) or a sum (terms, chart), and any other value is an
    engine object (a form, a field, a C-valued function, a `CBasis`)."""

    def __init__(self, text: str, doc: "Document", chart: Optional[Chart] = None):
        self.text = text
        self.tokens = _TOKEN_RE.findall(text)
        self.pos = 0
        self.depth = 0
        self.doc = doc
        self.chart = chart

    def peek(self) -> str:
        """The current token, "" at the end; every token is peeked before
        `next` takes it, so a bad character is refused here when the parser
        reaches it."""
        text, bad = self.tokens[self.pos]
        if bad:
            self.fail(f"unexpected character {bad!r}", self.pos)
        return text

    def next(self) -> str:
        text = self.tokens[self.pos][0]
        if text:  # never move past the end
            self.pos += 1
        return text

    def error(self, message: str, at: Optional[int] = None) -> DslError:
        """A DslError at token number `at`, by default the current one."""
        if at is None:
            self.peek()
            at = self.pos
        return DslError(message, self.text, _offset(self.text, at))

    def fail(self, message: str, at: Optional[int] = None):
        raise self.error(message, at)

    def expect(self, text: str) -> str:
        found = self.peek()
        if found != text:
            self.fail(f"expected {text!r}, found {found!r}" if found else f"expected {text!r}")
        return self.next()

    def expect_name(self, what: str = "name") -> str:
        if not self.peek().isidentifier():
            self.fail(f"expected a {what}")
        return self.next()

    # expressions ------------------------------------------------------

    def nested(self, at: int, floor: int = 0):
        """expression(floor) one nesting level deeper than token `at`."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail(f"expression nested deeper than {MAX_NESTING} levels", at)
        value = self.expression(floor)
        self.depth -= 1
        return value

    def value(self):
        """An expression as the engine's object."""
        return _built(self.expression())

    def expression(self, floor: int = 0):
        """An operand, then each operator that binds tighter than `floor`
        with its right operand, applied at its token by `_ACTIONS`.  A right
        operand stops at an operator of its own power, so all five associate
        to the left and a flat chain folds here."""
        at = self.pos
        op = self.peek()
        if op == "-" or op == "+":
            self.pos += 1
            value = self.nested(at, PREFIX)
            if op == "-":
                value = self._negate(value, at)
        else:
            value = self.atom()
        while True:
            op = self.peek()
            power = BINDING.get(op, 0)
            if power <= floor:
                return value
            at = self.pos
            self.pos += 1
            value = self._ACTIONS[op](self, value, self.expression(power), at)

    def atom(self):
        at = self.pos
        text = self.next()
        if text.isdecimal():
            return GaussianRational.coerce(int(text)), None, None
        if text.isidentifier():
            return self._resolve(text, at)
        if text == "(":
            value = self.nested(at)
            self.expect(")")
            return value
        if text.startswith("d/d"):
            return self._partial(text[3:], at)
        self.fail(f"unexpected token {text!r}" if text else "unexpected end of input", at)

    def _resolve(self, name: str, at: int):
        """The value of a name: a declared object, i, a coordinate, its
        differential, a generator thK, or c0/c1."""
        doc = self.doc
        if name in doc.functions:
            f = doc.functions[name]
            return dict(f.terms), f.chart  # a copy: `_plus` adds into a sum's own dict
        for table in (doc.cfunctions, doc.fields, doc.forms):
            if name in table:
                return table[name]
        if name == "i":
            return I, None, None
        chart = self.chart
        if chart is not None:
            e = (0,) * len(chart.even)
            if name in chart.even:
                k = chart.even.index(name)
                return ONE, (e[:k] + (1,) + e[k + 1:], (), ()), chart
            if name in chart.odd:
                return ONE, (e, (chart.odd.index(name),), ()), chart
            if name.startswith("d") and name[1:] in chart.coords:
                return KForm.differential(chart, name[1:])
            if name.startswith("th") and name[2:].isdecimal():
                k = int(name[2:])
                if not 1 <= k <= chart.generators:
                    self.fail(f"Grassmann generator th{k} is out of range (N = {chart.generators})", at)
                return ONE, (e, (), (k,)), chart
        if name in ("c0", "c1"):
            return CBasis(int(name[1]))
        self.fail(f"undefined identifier {name!r}", at)

    def _partial(self, coord: str, at: int) -> VectorField:
        if self.chart is None:
            self.fail("no chart in scope for a partial derivative", at)
        if coord not in self.chart.coords:
            self.fail(f"unknown coordinate {coord!r}", at)
        return self.chart.vector_field({coord: 1})

    # polynomials -----------------------------------------------------------

    def _same_chart(self, left: Optional[Chart], right: Optional[Chart], at: int) -> None:
        """Polynomials on two charts are refused in the engine's words; a
        number lives on the chart in scope, as the engine lifts it."""
        left, right = left or self.chart, right or self.chart
        if left is not right and left != right:
            self.fail(f"{right.name} vs {left.name}", at)

    def _into(self, terms: Dict, p) -> Dict:
        """Add the polynomial `p` into `terms`; a number goes to the constant
        term of the chart in scope."""
        if len(p) == 2:
            for key, c in p[0].items():
                accumulate(terms, key, c)
        else:
            accumulate(terms, p[1] or (self.chart and _one(self.chart)), p[0])
        return terms

    def _negate(self, value, at: int):
        if type(value) is tuple:
            if len(value) == 3:
                c, key, chart = value
                return -c, key, chart
            terms, chart = value
            return {k: -c for k, c in terms.items()}, chart
        if isinstance(value, (VectorField, KForm, CKForm, CFunction)):
            return -value
        self.fail("cannot negate this expression", at)

    def _plus(self, a, b, at: int):
        """a + b.  The terms of b go into the dict of the sum a, which is its
        own (a term starts one); a sum in which no letter was read is a
        number.  Any other operand goes to `_add`."""
        if type(a) is not tuple or type(b) is not tuple:
            return self._act(_Parser._add, a, b, at)
        self._same_chart(a[-1], b[-1], at)
        terms = self._into(a[0] if len(a) == 2 else self._into({}, a), b)
        chart = a[-1] or b[-1]
        return (terms, chart) if chart is not None else (next(iter(terms.values()), ZERO), None, None)

    def _minus(self, a, b, at: int):
        return self._plus(a, self._negate(b, at), at)

    def _times(self, a, b, at: int):
        """a * b.  A term times a term is one term; a number scales a sum;
        two sums multiply out.  Any other operand goes to `_mul`."""
        if type(a) is not tuple or type(b) is not tuple:
            return self._act(_Parser._mul, a, b, at)
        if len(a) == 3 and len(b) == 3:
            (c1, k1, ch1), (c2, k2, ch2) = a, b
            c = c1 if c2 is ONE else c2 if c1 is ONE else c1 * c2
            if k2 is None:
                return c, k1, ch1
            if k1 is None:
                return c, k2, ch2
            self._same_chart(ch1, ch2, at)
            sign, key = term_product(k1, k2)
            return (c if sign > 0 else -c if sign else ZERO), key, ch1
        if _is_number(a) or _is_number(b):
            (c, _, _), (terms, chart) = (a, b) if _is_number(a) else (b, a)
            return ({k: c * v for k, v in terms.items()} if c else {}), chart
        ta, cha = ({a[1]: a[0]}, a[2]) if len(a) == 3 else a
        tb, chb = ({b[1]: b[0]}, b[2]) if len(b) == 3 else b
        self._same_chart(cha, chb, at)
        out: Dict = {}
        add_term_products(out, ta, tb)
        return out, cha

    def _divide(self, a, b, at: int):
        if not _is_number(b):
            self.fail("division only by scalars", at)
        if not b[0]:
            self.fail("division by zero", at)
        return self._times((b[0].inverse(), None, None), a, at)

    def _exponent(self, n: GaussianRational, at: int) -> int:
        if not n.is_rational() or n.re.denominator != 1 or n.re < 0:
            self.fail("power needs a nonnegative integer exponent", at)
        return int(n.re)

    def _raise(self, a, b, at: int):
        """a ^ b.  A polynomial to a number's power multiplies out through
        `_times`, so an odd letter or a generator squares to zero by the
        product's sign.  Any other operand goes to `_pow`."""
        if type(a) is not tuple or not _is_number(b):
            return self._act(_Parser._pow, a, b, at)
        n = self._exponent(b[0], at)
        if n == 0:
            chart = a[-1]
            return ONE, None if chart is None else _one(chart), chart
        return _power(a, n, lambda u, v: self._times(u, v, at))

    _ACTIONS = {"+": _plus, "-": _minus, "*": _times, "/": _divide, "^": _raise}

    # actions on engine objects -----------------------------------------

    def _act(self, action, a, b, at: int):
        """action(a, b) on the built operands; an engine error (operands on
        two charts, generator counts or degrees) is a DslError at `at`."""
        try:
            return action(self, _built(a), _built(b), at)
        except ValueError as exc:
            raise self.error(str(exc), at) from exc

    def _add(self, a, b, at: int):
        for kind in (VectorField, KForm, CKForm, CFunction):
            if isinstance(a, kind) and isinstance(b, kind):
                return a + b
        if isinstance(a, CFunction) and _as_function(b, a.chart) is not None:
            self.fail("cannot add a C-valued and a plain function; tag with c0/c1", at)
        if isinstance(b, CFunction) and self.chart is not None and _as_function(a, self.chart) is not None:
            self.fail("cannot add a C-valued and a plain function; tag with c0/c1", at)
        self.fail("incompatible operands for +", at)

    def _mul(self, a, b, at: int):
        if isinstance(b, CBasis):
            chart = self.chart
            if chart is None:
                self.fail("no chart in scope for a C-valued expression", at)
            fa = _as_function(a, chart)
            if fa is not None:
                return CFunction(fa, chart.zero()) if b.alpha == 0 else CFunction(chart.zero(), fa)
            if isinstance(a, KForm):
                zero = KForm.zero(chart, a.degree)
                return CKForm(a, zero) if b.alpha == 0 else CKForm(zero, a)
            self.fail("only functions and forms can be tagged with c0/c1", at)
        if isinstance(a, CBasis):
            self.fail("write the c0/c1 tag on the right of the factor", at)
        if isinstance(a, GaussianRational):
            return b.scale(a)
        if isinstance(b, GaussianRational):
            return a.scale(b)
        if isinstance(a, SuperFunction):
            if isinstance(b, (VectorField, KForm)):
                return b.left_multiply(a)
            if isinstance(b, CFunction):
                self.fail("multiply plain functions before tagging with c0/c1", at)
        if isinstance(a, KForm):
            if isinstance(b, SuperFunction):
                return a.right_multiply(b)
            if isinstance(b, KForm):
                return wedge(a, b)
        if isinstance(a, VectorField) and isinstance(b, SuperFunction):
            self.fail("write coefficients to the left of d/dz", at)
        self.fail("incompatible operands for *", at)

    def _pow(self, a, b, at: int):
        if isinstance(b, GaussianRational):
            n = self._exponent(b, at)
            if isinstance(a, KForm):
                if n == 0:
                    self.fail("zeroth wedge power is not a form", at)
                return _power(a, n, wedge)
            self.fail("cannot raise this expression to a power", at)
        if isinstance(a, KForm) and isinstance(b, KForm):
            return wedge(a, b)
        if isinstance(a, KForm) and isinstance(b, SuperFunction):
            return wedge(a, KForm.from_function(b))
        if isinstance(a, SuperFunction) and isinstance(b, KForm):
            return wedge(KForm.from_function(a), b)
        self.fail("incompatible operands for ^", at)

    # comma lists and numbers -------------------------------------------

    def sequence(self, item: Callable[[], T]) -> List[T]:
        """item (, item)...: one or more items separated by commas."""
        out = [item()]
        while self.peek() == ",":
            self.next()
            out.append(item())
        return out

    def integer(self, what: str, signed: bool = False) -> int:
        """An integer token, after a minus sign if `signed` allows one."""
        sign = 1
        if signed and self.peek() == "-":
            self.next()
            sign = -1
        if not self.peek().isdecimal():
            self.fail(f"expected {what}")
        return sign * int(self.next())

    def index_list(self) -> Tuple[int, ...]:
        """[i1, ..., ik] with 1-based basis indices, returned 0-based."""
        self.expect("[")
        out = tuple(self.sequence(lambda: self.integer("a basis index") - 1))
        self.expect("]")
        return out

    def rational(self) -> Fraction:
        value = Fraction(self.integer("a number", signed=True))
        if self.peek() == "/":
            self.next()
            at = self.pos
            denominator = self.integer("a denominator")
            if denominator == 0:
                self.fail("division by zero", at)
            value = value / denominator
        return value

    def matrix(self) -> List[List[Fraction]]:
        """[[q, ...], ...]; a row may be empty."""

        def row() -> List[Fraction]:
            self.expect("[")
            entries = [] if self.peek() == "]" else self.sequence(self.rational)
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

    def evaluate(self, text: str, chart: Optional[Chart] = None):
        """Evaluate a standalone expression in this document's scope, on
        `chart` or else the current chart; a repeat returns the same object."""
        if chart is None and self.current_chart is not None:
            chart = self.charts[self.current_chart]
        key = (text, chart)
        value = self._memo.get(key)  # no expression has the value None
        if value is None:
            parser = _Parser(text, self, chart)
            value = parser.value()
            if parser.peek():
                parser.fail("trailing input after expression")
            self._memo[key] = value
        return value


def _register(parser: _Parser, kind: str, name: str, at: int, table: str, value) -> None:
    """Declare `name` as `value` in `table`: a new name, on the chart the declaration names."""
    doc = parser.doc
    if any(name in getattr(doc, t) for t in TABLES):
        parser.fail(f"name {name!r} already declared", at)
    chart = getattr(value, "chart", None)
    if chart is not None and chart != parser.chart:
        parser.fail(f"{kind} {name} is on chart {chart.name!r}, not on {parser.chart.name!r}", at)
    doc.order.append((kind, name))
    getattr(doc, table)[name] = value


def parse(text: str, generators: int = DEFAULT_GENERATORS) -> Document:
    """Parse a document with N = `generators`; errors carry line/column positions."""
    doc = Document(generators=generators)
    parser = _Parser(text, doc)
    while parser.peek():
        _statement(parser)
    for name in TABLES:
        setattr(doc, name, MappingProxyType(getattr(doc, name)))
    return doc


def _statement(parser: _Parser) -> None:
    doc = parser.doc
    at = parser.pos
    head = parser.expect_name("declaration keyword")
    name_at = parser.pos
    name = parser.expect_name()

    if head == "chart":
        coords = {"even": (), "odd": ()}
        for parity in coords:
            if parser.peek() == parity:
                parser.next()
                coords[parity] = tuple(parser.sequence(parser.expect_name))
        try:
            chart = Chart(name, coords["even"], coords["odd"], doc.generators)
        except ValueError as exc:
            raise parser.error(str(exc), at) from exc
        _register(parser, "chart", name, name_at, "charts", chart)
        doc.current_chart = name

    elif head in ON_CHART:
        chart_name = doc.current_chart
        if parser.peek() == "on":
            parser.next()
            chart_name = parser.expect_name("chart name")
        parser.expect("=")
        if chart_name not in doc.charts:
            parser.fail(f"unknown chart {chart_name!r}" if chart_name else "no chart declared", at)
        chart = parser.chart = doc.charts[chart_name]
        value = parser.value()
        if head == "fn":
            value = _as_function(value, chart)
            if value is None:
                parser.fail("fn expects a plain superfunction", at)
        elif head == "cfn":
            if isinstance(value, (GaussianRational, SuperFunction)):
                parser.fail("cfn expects c0/c1 components", at)
            if not isinstance(value, CFunction):
                parser.fail("cfn expects a C-valued function", at)
        elif head == "vf":
            if isinstance(value, GaussianRational) and value.is_zero():
                value = VectorField(chart, {})
            if not isinstance(value, VectorField):
                parser.fail("vf expects a vector field", at)
        else:
            if isinstance(value, (GaussianRational, SuperFunction)):
                value = KForm.from_function(_as_function(value, chart))
            if not isinstance(value, KForm):
                parser.fail("form expects a differential form", at)
        _register(parser, head, name, name_at, ON_CHART[head], value)

    elif head == "algebra":
        parities = _parities(parser)
        brackets, _ = _entries(parser, "bracket", "bracket", lambda: _basis_expression(parser, len(parities)), pairs=True)
        from .liecoh import SuperLieAlgebra

        try:
            algebra = SuperLieAlgebra(parities, brackets)
        except ValueError as exc:
            raise parser.error(f"parity mismatch or invalid bracket: {exc}", at) from exc
        _register(parser, "algebra", name, name_at, "algebras", algebra)

    elif head == "cocycle":
        from .liecoh import CECochain, CochainKeyError

        parser.expect("on")
        alg_at = parser.pos
        alg_name = parser.expect_name("algebra name")
        if alg_name not in doc.algebras:
            parser.fail(f"unknown algebra {alg_name!r}", alg_at)
        algebra = doc.algebras[alg_name]
        parser.expect("degree")
        degree = parser.integer("a degree")
        values, where = _entries(parser, "values", "tuple", lambda: _cvalue_expression(parser))
        try:
            cochain = CECochain(algebra, degree, values)
        except CochainKeyError as exc:
            raise parser.error(str(exc), where[exc.key]) from exc
        _register(parser, "cocycle", name, name_at, "cocycles", cochain)

    elif head == "heisenberg":
        from .heisenberg import HeisenbergSpec

        parities = _parities(parser)
        parser.expect("omega0")
        omega0 = parser.matrix()
        parser.expect("omega1")
        omega1 = parser.matrix()
        n = len(parities)
        for label, m in (("omega0", omega0), ("omega1", omega1)):
            if len(m) != n or any(len(row) != n for row in m):
                parser.fail(f"{label} must be {n}x{n}", at)
        try:
            spec = HeisenbergSpec(parities, omega0, omega1)
        except ValueError as exc:
            raise parser.error(str(exc), at) from exc
        _register(parser, "heisenberg", name, name_at, "heisenbergs", spec)

    else:
        parser.fail(f"unknown declaration {head!r}", at)

    parser.expect(";")


def _parities(parser: _Parser) -> List[int]:
    """parities p1, ..., pn: one signed integer per basis vector."""
    parser.expect("parities")
    return parser.sequence(lambda: parser.integer("an integer", signed=True))


def _entries(
    parser: _Parser, keyword: str, what: str, value: Callable[[], T], pairs: bool = False
) -> Tuple[Dict[Tuple[int, ...], T], Dict[Tuple[int, ...], int]]:
    """An optional list  keyword [i, ...] = value (, [i, ...] = value)...  as
    a dict from 0-based index tuples, two indices each if `pairs`, and the
    token of each key's first "["; a key given twice must have one value,
    zero included."""
    out: Dict[Tuple[int, ...], T] = {}
    where: Dict[Tuple[int, ...], int] = {}
    if parser.peek() != keyword:
        return out, where
    parser.next()

    def entry() -> None:
        at = parser.pos
        key = parser.index_list()
        if pairs and len(key) != 2:
            parser.fail(f"a {what} takes two basis indices", at)
        parser.expect("=")
        val = value()
        if out.setdefault(key, val) != val:
            parser.fail(f"conflicting values on {what} {key}", at)
        where.setdefault(key, at)

    parser.sequence(entry)
    return out, where


def _signed_sum(parser: _Parser, what: str, basis: Callable[[str, int], object]) -> Dict[object, Fraction]:
    """Signed sum  [-] t (+|- t)...  of terms t = q*b, b or 0 with rational q.

    `basis(text, at)` maps the basis-vector token number `at` to its key, or
    fails with its own message; a coefficient must be followed by `*` unless
    it is 0.
    """
    out: Dict[object, Fraction] = {}
    sign = 1
    if parser.peek() == "-":
        parser.next()
        sign = -1
    while True:
        coeff, has_basis = Fraction(1), True
        if parser.peek().isdecimal():
            coeff = parser.rational()
            has_basis = parser.peek() == "*"
            if has_basis:
                parser.next()
            elif coeff:
                parser.fail(f"expected {what} after the coefficient")
        if has_basis:
            key = basis(parser.peek(), parser.pos)
            parser.next()
            accumulate(out, key, sign * coeff)
        if parser.peek() not in ("+", "-"):
            return out
        sign = 1 if parser.next() == "+" else -1


def _basis_expression(parser: _Parser, dimension: int) -> Dict[int, Fraction]:
    """Linear combination of e1..en with rational coefficients."""

    def basis(text: str, at: int) -> int:
        if text[:1] != "e" or not text[1:].isdecimal():
            parser.fail("expected a basis vector e<k>")
        k = int(text[1:])
        if not 1 <= k <= dimension:
            parser.fail(f"basis index e{k} out of range", at)
        return k - 1

    return _signed_sum(parser, "a basis vector e<k>", basis)


def _cvalue_expression(parser: _Parser) -> Tuple[Fraction, Fraction]:
    """Linear combination of c0 and c1 with rational coefficients."""

    def basis(text: str, at: int) -> int:
        if text not in ("c0", "c1"):
            parser.fail("expected c0 or c1")
        return int(text[1])

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
