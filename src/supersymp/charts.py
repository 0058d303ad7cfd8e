"""Polynomial superfunctions and vector fields on a coordinate chart.

A chart carries p even and q odd coordinate names.  A superfunction is a
polynomial

    f = sum  c_{a,w} * x^a * xi_{w1} ... xi_{wk}

with Grassmann-number coefficients written on the far left, even exponent
vectors a and strictly sorted odd words w.  Odd coordinates anticommute among
themselves and with the odd part of the coefficients, which is where every
sign in this module comes from.

Derivatives are left derivatives: d/dxi strikes xi after moving it to the
left through the coefficient and the earlier odd letters.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Tuple

from .grassmann import DimensionError, Graded, GrassmannNumber, Linear, accumulate, default_generator_count, graded_sort
from .scalars import GaussianRational

ExpKey = Tuple[Tuple[int, ...], Tuple[int, ...]]  # (even exponents, odd word)


class ChartMismatch(ValueError):
    """Operands live on different charts."""


class UnknownCoordinate(KeyError):
    pass


@dataclass(frozen=True)
class Chart:
    """Names and parities of the coordinates of a p|q chart."""

    name: str
    even: Tuple[str, ...]
    odd: Tuple[str, ...]
    generators: int = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.generators is None:
            object.__setattr__(self, "generators", default_generator_count())
        object.__setattr__(self, "even", tuple(self.even))
        object.__setattr__(self, "odd", tuple(self.odd))
        names = self.even + self.odd
        if len(set(names)) != len(names):
            raise ValueError("coordinate names must be distinct")

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
        if isinstance(value, GrassmannNumber) and value.n != self.generators:
            raise DimensionError("Grassmann generator count differs from chart")
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


class SuperFunction(Graded, Linear):
    """Polynomial superfunction in canonical form."""

    __slots__ = ("chart", "terms")
    _FRAME = ("chart",)

    def __init__(self, chart: Chart, terms: Mapping[ExpKey, "GrassmannNumber | int | Fraction | GaussianRational"]):
        self.chart = chart
        self.terms = {}
        for k, c in terms.items():
            # a scalar coefficient is lifted into the chart's Grassmann algebra
            if not isinstance(c, GrassmannNumber):
                c = GrassmannNumber.scalar(c, chart.generators)
            if c:
                self.terms[k] = c

    # -- bookkeeping ----------------------------------------------------

    def _lift(self, x):
        if isinstance(x, (int, Fraction, GaussianRational, GrassmannNumber)):
            return self.chart.constant(x)
        return NotImplemented

    def _mismatch(self, other) -> ChartMismatch:
        return ChartMismatch(f"{other.chart.name} vs {self.chart.name}")

    def is_constant(self) -> bool:
        zero_key = ((0,) * len(self.chart.even), ())
        return all(k == zero_key for k in self.terms)

    def constant_value(self) -> GrassmannNumber:
        zero_key = ((0,) * len(self.chart.even), ())
        if not self.is_constant():
            raise ValueError("not a constant superfunction")
        return self.terms.get(zero_key, GrassmannNumber.zero(self.chart.generators))

    def total_degree(self) -> int:
        return max((sum(e) + len(w) for (e, w) in self.terms), default=0)

    # -- parity ------------------------------------------------------------

    def parity_part(self, parity: int) -> "SuperFunction":
        """Terms of total parity (odd word length + coefficient parity)."""
        return self._map(lambda key, c: c.parity_part((parity - len(key[1])) % 2))

    # -- ring operations ------------------------------------------------------

    def __mul__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return other
        out: Dict[ExpKey, GrassmannNumber] = {}
        right = [(e2, w2, c2.homogeneous_parts()) for (e2, w2), c2 in other.terms.items()]
        for (e1, w1), c1 in self.terms.items():
            for e2, w2, parts2 in right:
                sign_w, w = graded_sort(w1 + w2)
                if sign_w == 0:
                    continue
                e = tuple(a + b for a, b in zip(e1, e2))
                # move c2 left through the odd word w1
                for p, c2p in parts2.items():
                    sign = sign_w * (-1 if (p * len(w1)) % 2 else 1)
                    accumulate(out, (e, w), c1 * c2p if sign > 0 else -(c1 * c2p))
        return self._like(out)

    def __rmul__(self, other):
        other = self._operand(other)
        return other if other is NotImplemented else other * self

    # -- calculus ----------------------------------------------------------

    def partial(self, coord: str) -> "SuperFunction":
        parity = self.chart.parity(coord)
        out: Dict[ExpKey, GrassmannNumber] = {}
        if parity == 0:
            i = self.chart.even_index(coord)
            for (e, w), c in self.terms.items():
                if e[i] == 0:
                    continue
                e2 = list(e)
                e2[i] -= 1
                accumulate(out, (tuple(e2), w), c.scale(e[i]))
        else:
            j = self.chart.odd_index(coord)
            for (e, w), c in self.terms.items():
                if j not in w:
                    continue
                pos = w.index(j)
                w2 = w[:pos] + w[pos + 1:]
                # move xi_j left through pos earlier letters and the odd
                # part of the coefficient
                for p, cp in c.homogeneous_parts().items():
                    accumulate(out, (e, w2), -cp if (pos + p) % 2 else cp)
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
        total = GrassmannNumber.zero(self.chart.generators)
        for (e, w), c in self.terms.items():
            if w:
                continue
            factor = GaussianRational(1)
            for exp, v in zip(e, values):
                for _ in range(exp):
                    factor = factor * v
            total = total + c * factor
        return total

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
        keys = sorted(self.terms, key=lambda k: (sum(k[0]) + len(k[1]), k))
        chunks = [self._term_str(k, self.terms[k]) for k in keys]
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

    def parity_part(self, parity: int) -> "CFunction":
        """Homogeneous part of the C-valued function, c-basis parities included."""
        return CFunction(self.f0.parity_part(parity), self.f1.parity_part((parity + 1) % 2))

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

    # parity of the operator: component for z has parity eps(X) + eps(z)

    def parity_part(self, parity: int) -> "VectorField":
        return self._map(lambda name, sf: sf.parity_part((parity + self.chart.parity(name)) % 2))

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
        total = self.chart.zero()
        for name, comp in self.components.items():
            total = total + comp * f.partial(name)
        return total

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
    """Graded commutator [X,Y], extended bilinearly over homogeneous parts."""
    if x.chart != y.chart:
        raise ChartMismatch("vector fields on different charts")
    chart = x.chart
    result = VectorField(chart, {})
    for px, xp in x.homogeneous_parts().items():
        for py, yp in y.homogeneous_parts().items():
            sign = -1 if (px * py) % 2 else 1
            comps: Dict[str, SuperFunction] = {}
            for name in set(xp.components) | set(yp.components):
                c = xp.apply(yp.component(name)) - yp.apply(xp.component(name)).scale(sign)
                if not c.is_zero():
                    comps[name] = c
            result = result + VectorField(chart, comps)
    return result
