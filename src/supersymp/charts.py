"""Polynomial superfunctions and vector fields on a coordinate chart.

A chart carries p even and q odd coordinate names.  A superfunction is a
polynomial

    f = sum  c_{a,w,I} * th_I * x^a * xi_{w1} ... xi_{wk}

with one Gaussian-rational scalar c per key (a, w, I): an even exponent
vector a, a strictly sorted odd word w and a Grassmann index set I.  Odd
coordinates anticommute among themselves and with the generators th_k,
which is where every sign in this module comes from.  The term (a, w, I)
has parity |w| + |I|, the one value the `Graded` protocol needs; so
`involution` (f0 + f1 -> f0 - f1) makes it (-1)^(|w|+|I|) c.  The product
moves th_I2 past xi_w1 at the cost of (-1)^(|w1| |I2|) =
-skew_sign(|w1|, |I2|); the commutator moves the odd part of X past Y.

Derivatives are left derivatives: d/dxi strikes xi after moving it to the
left through the earlier odd letters and th_I, so the term c th_I x^a xi_w
gives (-1)^(pos+|I|) c th_I x^a xi_(w without xi).
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Dict, List, Mapping, Tuple

from .grassmann import DEFAULT_GENERATORS, DimensionError, Graded, GrassmannNumber, Linear, accumulate, graded_sort, skew_sign
from .scalars import GaussianRational

ExpKey = Tuple[Tuple[int, ...], Tuple[int, ...]]  # (even exponents, odd word)
TermKey = Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]]  # (even exponents, odd word, Grassmann index set)


class ChartMismatch(ValueError):
    """Operands live on different charts."""


class UnknownCoordinate(KeyError):
    pass


class ReadOnly:
    """Attributes set once, through vars(self) in __init__, and never again."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Chart(ReadOnly):
    """Names and parities of the coordinates of a p|q chart; equal to a
    chart with the same name, coordinates and generators."""

    def __init__(self, name: str, even: Tuple[str, ...], odd: Tuple[str, ...], generators: int = DEFAULT_GENERATORS):
        even, odd = tuple(even), tuple(odd)
        if len(set(even + odd)) != len(even) + len(odd):
            raise ValueError("coordinate names must be distinct")
        vars(self).update(name=name, even=even, odd=odd, generators=generators)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.name, self.even, self.odd, self.generators) == (other.name, other.even, other.odd, other.generators)
        return NotImplemented

    def __hash__(self):
        return hash((self.name, self.even, self.odd, self.generators))

    @property
    def coords(self) -> Tuple[str, ...]:
        return self.even + self.odd

    def parity(self, name: str) -> int:
        if name in self.even:
            return 0
        if name in self.odd:
            return 1
        raise UnknownCoordinate(name)

    def even_index(self, name: str) -> int:
        return self.even.index(name)

    def odd_index(self, name: str) -> int:
        return self.odd.index(name)

    # constructors for the basic objects on this chart

    def zero(self) -> "SuperFunction":
        return SuperFunction(self, {})

    def one(self) -> "SuperFunction":
        return self.constant(1)

    def constant(self, value) -> "SuperFunction":
        return SuperFunction(self, {((0,) * len(self.even), ()): value})

    def var(self, name: str) -> "SuperFunction":
        if name in self.even:
            exps = [0] * len(self.even)
            exps[self.even_index(name)] = 1
            key = (tuple(exps), ())
        elif name in self.odd:
            key = ((0,) * len(self.even), (self.odd_index(name),))
        else:
            raise UnknownCoordinate(name)
        return SuperFunction(self, {key: 1})

    def vector_field(self, components: Mapping[str, "SuperFunction | int | Fraction"]) -> "VectorField":
        comps = {}
        for name, sf in components.items():
            if name not in self.coords:
                raise UnknownCoordinate(name)
            if not isinstance(sf, SuperFunction):
                sf = self.constant(sf)
            if not sf.is_zero():
                comps[name] = sf
        return VectorField(self, comps)


def term_product(k1: TermKey, k2: TermKey) -> Tuple[int, TermKey]:
    """(sign, key) of the product of the terms k1 and k2, the one place the
    product's sign rule is written; sign 0 when an odd letter or a generator
    repeats."""
    e1, w1, i1 = k1
    e2, w2, i2 = k2
    sign, w = graded_sort(w1 + w2)
    idx = i1
    if i2:
        # th_I2 moved left through the odd word w1 and sorted into th_I1
        isign, idx = graded_sort(i1 + i2)
        sign *= isign * -skew_sign(len(w1), len(i2))
    return sign, (tuple(map(add, e1, e2)), w, idx)


def add_term_products(out: Dict[TermKey, GaussianRational], x: Mapping, y: Mapping) -> None:
    """out += x y for the terms of two superfunctions, each pair by `term_product`."""
    for k1, c1 in x.items():
        for k2, c2 in y.items():
            sign, key = term_product(k1, k2)
            if sign:
                c = c1 * c2
                accumulate(out, key, c if sign > 0 else -c)


class SuperFunction(Graded, Linear):
    """Polynomial superfunction in canonical form, one scalar per (a, w, I)."""

    __slots__ = ("chart", "terms")
    _FRAME = ("chart",)

    def __init__(self, chart: Chart, terms: Mapping[ExpKey, "GrassmannNumber | int | Fraction | GaussianRational"]):
        self.chart = chart
        self.terms: Dict[TermKey, GaussianRational] = {}
        # a scalar coefficient is the one term (e, w, ()); a Grassmann
        # coefficient is spread over its index sets
        for (e, w), c in terms.items():
            if isinstance(c, GrassmannNumber):
                if c.n != chart.generators:
                    raise DimensionError("Grassmann generator count differs from chart")
                for idx, v in c.terms.items():
                    self.terms[(e, w, idx)] = v
            else:
                c = GaussianRational.coerce(c)
                if c:
                    self.terms[(e, w, ())] = c

    # -- bookkeeping ----------------------------------------------------

    def _lift(self, x):
        if isinstance(x, (int, Fraction, GaussianRational, GrassmannNumber)):
            return self.chart.constant(x)
        return NotImplemented

    def _mismatch(self, other) -> ChartMismatch:
        return ChartMismatch(f"{other.chart.name} vs {self.chart.name}")

    def coefficients(self) -> Dict[ExpKey, GrassmannNumber]:
        """The terms grouped by (a, w), each with its Grassmann coefficient."""
        grouped: Dict[ExpKey, Dict] = {}
        for (e, w, idx), c in self.terms.items():
            grouped.setdefault((e, w), {})[idx] = c
        return {k: GrassmannNumber(self.chart.generators, t) for k, t in grouped.items()}

    def is_constant(self) -> bool:
        return not any(any(e) or w for (e, w, _) in self.terms)

    def constant_value(self) -> GrassmannNumber:
        if not self.is_constant():
            raise ValueError("not a constant superfunction")
        return GrassmannNumber(self.chart.generators, {idx: c for (_, _, idx), c in self.terms.items()})

    def total_degree(self) -> int:
        return max((sum(e) + len(w) for (e, w, _) in self.terms), default=0)

    @staticmethod
    def _key_parity(key: TermKey) -> int:
        """The term th_I x^a xi_w has parity |w| + |I|."""
        return (len(key[1]) + len(key[2])) % 2

    # -- ring operations ------------------------------------------------------

    def __mul__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return other
        out: Dict[TermKey, GaussianRational] = {}
        add_term_products(out, self.terms, other.terms)
        return self._like(out)

    def __rmul__(self, other):
        other = self._operand(other)
        return other if other is NotImplemented else other * self

    # -- calculus ----------------------------------------------------------

    def partial(self, coord: str) -> "SuperFunction":
        parity = self.chart.parity(coord)
        out: Dict[TermKey, GaussianRational] = {}
        if parity == 0:
            i = self.chart.even_index(coord)
            for (e, w, idx), c in self.terms.items():
                if e[i] == 0:
                    continue
                e2 = list(e)
                e2[i] -= 1
                out[(tuple(e2), w, idx)] = c * e[i]
        else:
            j = self.chart.odd_index(coord)
            for (e, w, idx), c in self.terms.items():
                if j not in w:
                    continue
                pos = w.index(j)
                # move xi_j left through pos earlier letters and th_I: -skew_sign(pos + |I|, 1)
                out[(e, w[:pos] + w[pos + 1:], idx)] = -c if skew_sign(pos + len(idx), 1) > 0 else c
        return self._like(out)

    def evaluate(self, point: Mapping[str, object]) -> GrassmannNumber:
        """Evaluate at a real point: even coords from `point`, odd coords 0."""
        values: List[GaussianRational] = []
        for name in self.chart.even:
            if name not in point:
                raise KeyError(f"missing value for coordinate {name}")
            v = point[name]
            if isinstance(v, GrassmannNumber):
                raise ValueError("real point evaluation expects scalar values")
            values.append(GaussianRational.coerce(v))
        total: Dict = {}
        for (e, w, idx), c in self.terms.items():
            if w:
                continue
            for exp, v in zip(e, values):
                for _ in range(exp):
                    c = c * v
            accumulate(total, idx, c)
        return GrassmannNumber(self.chart.generators, total)

    # -- rendering ----------------------------------------------------------------

    def _term_str(self, key: ExpKey, coeff: GrassmannNumber) -> str:
        e, w = key
        factors = []
        cs = str(coeff)
        if not coeff.is_scalar() or not (coeff == 1):
            simple = coeff.is_scalar() and not any(
                ch in cs[1:] for ch in "+-"
            )
            factors.append(cs if simple else f"({cs})")
        for name, exp in zip(self.chart.even, e):
            if exp == 1:
                factors.append(name)
            elif exp > 1:
                factors.append(f"{name}^{exp}")
        for j in w:
            factors.append(self.chart.odd[j])
        if not factors:
            return "1"
        return "*".join(factors)

    def __str__(self):
        if not self.terms:
            return "0"
        coeffs = self.coefficients()
        keys = sorted(coeffs, key=lambda k: (sum(k[0]) + len(k[1]), k))
        chunks = [self._term_str(k, coeffs[k]) for k in keys]
        out = chunks[0]
        for chunk in chunks[1:]:
            if chunk.startswith("-") and "(" not in chunk[:2]:
                out += " - " + chunk[1:]
            else:
                out += " + " + chunk
        return out

    def __repr__(self):
        return f"<SuperFunction {self} on {self.chart.name}>"


class CFunction(Graded, Linear):
    """C-valued function f = f0*c0 + f1*c1 on a chart, a sum over alpha = 0, 1."""

    __slots__ = ("chart", "terms")
    _FRAME = ("chart",)
    _mismatch = SuperFunction._mismatch

    def __init__(self, f0: SuperFunction, f1: SuperFunction):
        if f0.chart != f1.chart:
            raise ChartMismatch("components on different charts")
        self.chart = f0.chart
        self.terms = {alpha: f for alpha, f in enumerate((f0, f1)) if f}

    @property
    def f0(self) -> SuperFunction:
        return self.component(0)

    @property
    def f1(self) -> SuperFunction:
        return self.component(1)

    def component(self, alpha: int) -> SuperFunction:
        return self.terms.get(alpha) or self.chart.zero()

    def piece(self, alpha: int, beta: int) -> SuperFunction:
        """Homogeneous piece f^alpha_beta (parity beta part of f^alpha)."""
        return self.component(alpha).parity_part(beta)

    def is_constant(self) -> bool:
        return self.f0.is_constant() and self.f1.is_constant()

    @staticmethod
    def _key_parity(alpha: int) -> int:
        """f^alpha c_alpha: the basis vector c_alpha has parity alpha."""
        return alpha

    def __str__(self):
        return f"({self.f0})*c0 + ({self.f1})*c1"

    __repr__ = __str__


class VectorField(Graded, Linear):
    """First-order differential operator X = sum_z X^z d/dz, coefficients left."""

    __slots__ = ("chart", "terms")
    _FRAME = ("chart",)

    def __init__(self, chart: Chart, components: Dict[str, SuperFunction]):
        self.chart = chart
        self.terms = {}
        for name, sf in components.items():
            if name not in chart.coords:
                raise UnknownCoordinate(name)
            if sf.chart != chart:
                raise ChartMismatch("component on a different chart")
            if sf:
                self.terms[name] = sf

    def _mismatch(self, other) -> ChartMismatch:
        return ChartMismatch("vector fields on different charts")

    @property
    def components(self) -> Dict[str, SuperFunction]:
        return self.terms

    def component(self, name: str) -> SuperFunction:
        return self.terms.get(name) or self.chart.zero()

    def _key_parity(self, name: str) -> int:
        """X^z d/dz has parity eps(X^z) + eps(z)."""
        return self.chart.parity(name)

    def left_multiply(self, f: SuperFunction) -> "VectorField":
        return self._map(lambda name, sf: f * sf)

    def __call__(self, f):
        return self.apply(f)

    def apply(self, f):
        """X f = sum_z X^z d_z f, componentwise on C-valued functions."""
        if isinstance(f, CFunction):
            return CFunction(self.apply(f.f0), self.apply(f.f1))
        if not isinstance(f, SuperFunction):
            raise TypeError("vector fields act on superfunctions")
        if f.chart != self.chart:
            raise ChartMismatch("function on a different chart")
        out: Dict[TermKey, GaussianRational] = {}
        for name, comp in self.terms.items():
            for key, c in (comp * f.partial(name)).terms.items():
                accumulate(out, key, c)
        return f._like(out)

    def __str__(self):
        if not self.components:
            return "0"
        chunks = []
        for name in self.chart.coords:
            if name in self.components:
                chunks.append(f"({self.components[name]})*d/d{name}")
        return " + ".join(chunks)

    __repr__ = __str__


def vf_apply(x: VectorField, f):
    return x.apply(f)


def vf_commutator(x: VectorField, y: VectorField) -> VectorField:
    """Graded commutator [X,Y]^z = X(Y^z) - Y(X0^z) - Y'(X1^z), Y' = Y.involution().

    On homogeneous parts this is X(Y^z) - (-1)^(|X| |Y|) Y(X^z): moving an
    odd X1 past Y flips the sign of the odd part of Y.
    """
    if x.chart != y.chart:
        raise ChartMismatch("vector fields on different charts")
    x0, x1 = x.parity_part(0), x.parity_part(1)
    y_moved = y.involution()
    comps: Dict[str, SuperFunction] = {}
    for name in x.chart.coords:
        if name in x.terms or name in y.terms:
            comps[name] = x.apply(y.component(name)) - y.apply(x0.component(name)) - y_moved.apply(x1.component(name))
    return VectorField(x.chart, comps)
