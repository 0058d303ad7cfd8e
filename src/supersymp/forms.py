"""Graded differential forms on a chart.

A k-form is stored as a sum of terms

    dz_{w1} ^ dz_{w2} ^ ... ^ dz_{wk} * g

with the superfunction coefficient g on the *right* of the normal-ordered
word w (even differentials first, strictly increasing; odd differentials
last, non-decreasing).  Putting coefficients on the right makes the pairing
with vector fields sign-free in the base case: i_X(dz * g) = X^z * g, hence
i_X(df) = Xf on the nose.

Sign rules, used consistently everywhere (degrees k, parities a):

* normal ordering a word is `grassmann.graded_sort`, the package's one
  Koszul rule, with the odd differentials as its odd letters;
* commuting two homogeneous factors costs (-1)^(k1*k2 + a1*a2), so
  dz ^ dw = -(-1)^(eps z * eps w) dw ^ dz;
* a function f moved through a differential word W is f when W is even
  and `f.involution()` (f0 - f1) when W is odd, with no parity split of f;
* contraction with a homogeneous field X is the degree (-1, eps X)
  derivation with i_X(dz) = X^z, expanded left-to-right over the word;
  summed over the parts of any field it strikes the letter z at position
  t with sign (-1)^(t + eps z * eps prefix) = koszul(eps z, prefix) and
  coefficient X^z moved through the other letters of the word;
* d(dZ^W * g) = (-1)^|W| dZ^W ^ dg = koszul(0, W) dZ^W ^ dg with
  dg = sum_z dz * (d_z g); `grassmann.koszul` is the one Koszul sign;
* the term dZ^W * g adds eps(W) to the parity of g (`Graded`).

These choices reproduce the worked 2|2 and 2|1 examples and the displayed
evaluation formulas for d on 1- and 2-forms; the test suite pins them.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .charts import CFunction, Chart, ChartMismatch, SuperFunction, VectorField
from .grassmann import Graded, Linear, accumulate, graded_sort, koszul

Word = Tuple[int, ...]  # indices into chart.coords


class DegreeError(ValueError):
    pass


def _letter_parity(chart: Chart, letter: int) -> int:
    return 0 if letter < len(chart.even) else 1


def word_parity(chart: Chart, word: Word) -> int:
    return sum(_letter_parity(chart, z) for z in word) % 2


def canonicalize_word(chart: Chart, word: Word) -> Tuple[int, Optional[Word]]:
    """Sort a differential word into normal order.

    Returns (sign, word), or (0, None) when a repeated even differential
    forces the term to vanish.  Adjacent transposition of dz and dw costs
    -(-1)^(eps z * eps w): -1 unless both are odd (see `graded_sort`).
    """
    p = len(chart.even)
    sign, letters = graded_sort(word, lambda z: z >= p)
    return (0, None) if sign == 0 else (sign, letters)


class KForm(Graded, Linear):
    """Graded differential form of homogeneous degree k."""

    __slots__ = ("chart", "degree", "terms")
    _FRAME = ("chart", "degree")

    def __init__(self, chart: Chart, degree: int, terms: Dict[Word, SuperFunction]):
        self.chart = chart
        self.degree = degree
        self.terms: Dict[Word, SuperFunction] = {}
        for w, g in terms.items():
            if len(w) != degree:
                raise DegreeError(f"word {w} does not have degree {degree}")
            if g.chart != chart:
                raise ChartMismatch("coefficient on a different chart")
            if g:
                self.terms[tuple(w)] = g

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(chart: Chart, degree: int) -> "KForm":
        return KForm(chart, degree, {})

    @staticmethod
    def from_function(f: SuperFunction) -> "KForm":
        return KForm(f.chart, 0, {(): f})

    @staticmethod
    def differential(chart: Chart, coord: str) -> "KForm":
        idx = chart.coords.index(coord)
        return KForm(chart, 1, {(idx,): chart.one()})

    def _mismatch(self, other) -> ChartMismatch:
        return ChartMismatch("cannot add forms of different chart/degree")

    # -- inspection ----------------------------------------------------------

    def as_function(self) -> SuperFunction:
        if self.degree != 0:
            raise DegreeError("not a 0-form")
        return self.terms.get((), self.chart.zero())

    def _key_parity(self, word: Word) -> int:
        """dz_w * g has parity eps(w) + eps(g)."""
        return word_parity(self.chart, word)

    # -- products ------------------------------------------------------

    def left_multiply(self, f: SuperFunction) -> "KForm":
        """f * omega: f moved through an odd differential word is its involution."""
        moved = (f, f.involution())
        return self._map(lambda w, g: moved[word_parity(self.chart, w)] * g)

    def right_multiply(self, f: SuperFunction) -> "KForm":
        return self._map(lambda w, g: g * f)

    # -- rendering ----------------------------------------------------------------

    def _word_str(self, w: Word) -> str:
        return "^".join("d" + self.chart.coords[z] for z in w)

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for w in sorted(self.terms):
            g = self.terms[w]
            ws = self._word_str(w)
            if not w:
                chunks.append(f"({g})")
            elif g == self.chart.one():
                chunks.append(ws)
            else:
                chunks.append(f"{ws}*({g})")
        return " + ".join(chunks)

    def __repr__(self):
        return f"<{self.degree}-form {self} on {self.chart.name}>"


def wedge(a: KForm, b: KForm) -> KForm:
    """Graded wedge product."""
    if a.chart != b.chart:
        raise ChartMismatch("wedge of forms on different charts")
    chart = a.chart
    out: Dict[Word, SuperFunction] = {}
    for w1, g1 in a.terms.items():
        moved = (g1, g1.involution())  # g1 moved through an even / odd word w2
        for w2, g2 in b.terms.items():
            sign, word = canonicalize_word(chart, w1 + w2)
            if word is None:
                continue
            coeff = moved[word_parity(chart, w2)] * g2
            accumulate(out, word, coeff if sign > 0 else -coeff)
    return KForm(chart, a.degree + b.degree, out)


def _ext_d_kform(w: KForm) -> KForm:
    chart = w.chart
    out: Dict[Word, SuperFunction] = {}
    for word, g in w.terms.items():
        degree_sign = koszul(0, word)  # d, even and of degree 1, moved past the word
        for z, name in enumerate(chart.coords):
            dg = g.partial(name)
            if dg.is_zero():
                continue
            sign_c, new_word = canonicalize_word(chart, word + (z,))
            if new_word is None:
                continue
            coeff = dg if sign_c * degree_sign > 0 else -dg
            accumulate(out, new_word, coeff)
    return KForm(chart, w.degree + 1, out)


def ext_d(w):
    """Exterior derivative of a superfunction, k-form, or C-valued object."""
    if isinstance(w, SuperFunction):
        return _ext_d_kform(KForm.from_function(w))
    if isinstance(w, KForm):
        return _ext_d_kform(w)
    if isinstance(w, CFunction):
        return CKForm(_ext_d_kform(KForm.from_function(w.f0)), _ext_d_kform(KForm.from_function(w.f1)))
    if isinstance(w, CKForm):
        return CKForm(_ext_d_kform(w.part0), _ext_d_kform(w.part1))
    raise TypeError(f"cannot take d of {type(w).__name__}")


def _contract_kform(x: VectorField, w: KForm) -> KForm:
    chart = w.chart
    if x.chart != chart:
        raise ChartMismatch("field and form on different charts")
    # X^z moved through an even / odd rest of the word is X^z / its involution
    moved = {chart.coords.index(z): (c, c.involution()) for z, c in x.terms.items()}
    out: Dict[Word, SuperFunction] = {}
    for word, g in w.terms.items():
        eps = [_letter_parity(chart, z) for z in word]
        parity = sum(eps) % 2
        for t, letter in enumerate(word):
            if letter in moved:
                coeff = moved[letter][(parity + eps[t]) % 2] * g
                # i_X moved past the t letters before dz, with the parity of dz
                accumulate(out, word[:t] + word[t + 1:], coeff if koszul(eps[t], eps[:t]) > 0 else -coeff)
    return KForm(chart, w.degree - 1, out)


def contract(*args):
    """Repeated contraction: contract(X1, .., Xl, w) = i_X1 ... i_Xl w."""
    *fields, w = args
    if not fields:
        raise TypeError("contract needs at least one vector field")
    if isinstance(w, VectorField) or not all(isinstance(f, VectorField) for f in fields):
        raise TypeError("usage: contract(field, ..., form)")
    for x in reversed(fields):
        if isinstance(w, KForm):
            if w.degree == 0:
                raise DegreeError("cannot contract a 0-form")
            w = _contract_kform(x, w)
        elif isinstance(w, CKForm):
            if w.degree == 0:
                raise DegreeError("cannot contract a 0-form")
            w = CKForm(_contract_kform(x, w.part0), _contract_kform(x, w.part1))
        else:
            raise TypeError(f"cannot contract {type(w).__name__}")
    return w


def lie_derivative(x: VectorField, w):
    """L(X) = i_X d + d i_X (Cartan homotopy formula)."""
    if isinstance(w, SuperFunction):
        w = KForm.from_function(w)
    if isinstance(w, KForm):
        out = _contract_kform(x, _ext_d_kform(w))
        if w.degree > 0:
            out = out + _ext_d_kform(_contract_kform(x, w))
        return out
    if isinstance(w, CKForm):
        return CKForm(lie_derivative(x, w.part0), lie_derivative(x, w.part1))
    raise TypeError(f"cannot take a Lie derivative of {type(w).__name__}")


class CKForm(Linear):
    """C-valued k-form: part0 tensor c0 + part1 tensor c1, a sum over alpha = 0, 1."""

    __slots__ = ("chart", "degree", "terms")
    _FRAME = ("chart", "degree")
    _mismatch = KForm._mismatch

    def __init__(self, part0: KForm, part1: KForm):
        if part0.chart != part1.chart or part0.degree != part1.degree:
            raise ChartMismatch("components must share chart and degree")
        self.chart = part0.chart
        self.degree = part0.degree
        self.terms = {alpha: w for alpha, w in enumerate((part0, part1)) if w}

    @property
    def part0(self) -> KForm:
        return self.terms.get(0) or KForm.zero(self.chart, self.degree)

    @property
    def part1(self) -> KForm:
        return self.terms.get(1) or KForm.zero(self.chart, self.degree)

    def as_cfunction(self) -> CFunction:
        return CFunction(self.part0.as_function(), self.part1.as_function())

    def __str__(self):
        return f"({self.part0}) (x) c0 + ({self.part1}) (x) c1"

    __repr__ = __str__


def double(w: KForm) -> CKForm:
    """The even C-valued form w0 (x) c0 + w1 (x) c1."""
    return CKForm(w.parity_part(0), w.parity_part(1))


def undouble(cw: CKForm) -> KForm:
    return cw.part0 + cw.part1


def lift_function(f: SuperFunction, target: Chart) -> SuperFunction:
    """Reinterpret f on another chart, matching coordinates by name: onto a
    larger chart, or onto a smaller one when f does not depend on the
    coordinates it lacks (the fiber of a bundle chart)."""
    src = f.chart
    even_map = {i: target.even.index(n) for i, n in enumerate(src.even) if n in target.even}
    odd_map = {j: target.odd.index(n) for j, n in enumerate(src.odd) if n in target.odd}
    terms = {}
    for (e, w, idx), c in f.terms.items():
        if any(exp and i not in even_map for i, exp in enumerate(e)) or any(j not in odd_map for j in w):
            raise ValueError("function depends on a fiber coordinate")
        e2 = [0] * len(target.even)
        for i, exp in enumerate(e):
            if exp:
                e2[even_map[i]] = exp
        sign, w2 = graded_sort(odd_map[j] for j in w)
        terms[(tuple(e2), w2, idx)] = c if sign > 0 else -c
    return target.zero()._like(terms)


def lift_form(w: KForm, target: Chart) -> KForm:
    src = w.chart
    letter_map = {i: target.coords.index(name) for i, name in enumerate(src.coords)}
    out: Dict[Word, SuperFunction] = {}
    for word, g in w.terms.items():
        new_word = tuple(letter_map[z] for z in word)
        sign, canon = canonicalize_word(target, new_word)
        if canon is None:
            continue
        coeff = lift_function(g, target)
        if sign < 0:
            coeff = -coeff
        accumulate(out, canon, coeff)
    return KForm(target, w.degree, out)


def lift_field(x: VectorField, target: Chart) -> VectorField:
    return VectorField(target, {name: lift_function(c, target) for name, c in x.components.items()})
