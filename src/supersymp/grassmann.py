"""Exact arithmetic in a truncated Grassmann algebra.

Elements of Lambda_N over Q(i): finite sums  sum_S  c_S * th_{s1}...th_{sk}
indexed by strictly sorted subsets S of {1..N}.  The generators th_k
anticommute, so the algebra is Z/2-graded by |S| mod 2; the scalar part
(S empty) is the body.

This module also holds what every graded type in the package shares:

* `graded_sort` is the one Koszul sign rule.  Grassmann indices, odd
  coordinate words, differential words, Chevalley-Eilenberg arguments and
  Cech simplices are all put in order by it, each with its own notion of
  which letters are odd;
* `skew_sign` is the same rule for one swap, the sign of graded skew
  symmetry: W[j][i] = skew_sign(|i|, |j|) W[i][j] for contraction
  matrices, pairings and brackets; `koszul`, its product over a word,
  moves one letter past a word (the signs of d, i_X and the
  Chevalley-Eilenberg coboundary);
* `Graded` is the one parity protocol: each graded sum says only which
  parity a term's key adds (|I|, |w| + |I| for a superfunction term,
  alpha for c_alpha, |z| for d/dz, the word's parity for a form), and
  `parity_part`, `involution`, `is_homogeneous` and `parity` follow.  The
  involution (x0 + x1 -> x0 - x1) is the same rule for moving a graded
  coefficient past k odd letters: it stays itself when k is even and
  becomes its involution when k is odd, so products, derivatives,
  commutators, wedges and contractions make one product per term, never
  one per parity part;
* `Linear` is the one sparse-sum protocol.  Grassmann numbers,
  superfunctions, vector fields, forms and cochains are all finite sums
  `terms: key -> nonzero coefficient`; `accumulate` is the one rule that
  adds into such a dict and drops a key whose sum is zero, and `Linear`
  derives +, -, `scale`, `is_zero`, == and hash from it.  No sum changes
  after it is built, so its hash is computed once.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple

from .scalars import GaussianRational

Index = Tuple[int, ...]

DEFAULT_GENERATORS = 6


class NotInvertible(ArithmeticError):
    """Raised when inverting a Grassmann number with zero body."""


class DimensionError(ValueError):
    """Operands built over different generator counts."""


def graded_sort(
    items: Iterable[int], odd: Optional[Callable[[int], bool]] = None
) -> Tuple[int, Index]:
    """Sort a word of graded letters, tracking the Koszul sign.

    Returns (sign, sorted tuple).  Swapping adjacent letters a and b costs -1
    unless odd(a) and odd(b); a repeated letter gives (0, ()) unless it is
    odd.  With odd=None every letter anticommutes with every other and
    squares to zero, as Grassmann generators and simplex vertices do.
    """
    letters = list(items)
    if len(letters) < 2:
        return 1, tuple(letters)
    sign = 1
    # insertion sort; words are short
    for i in range(1, len(letters)):
        x = letters[i]
        j = i
        while j > 0 and letters[j - 1] > x:
            if odd is None or not (odd(x) and odd(letters[j - 1])):
                sign = -sign
            letters[j] = letters[j - 1]
            j -= 1
        letters[j] = x
        # the sorted prefix holds any earlier copy of x right before it
        if j > 0 and letters[j - 1] == x and (odd is None or not odd(x)):
            return 0, ()
    return sign, tuple(letters)


def skew_sign(a: int, b: int) -> int:
    """-(-1)^(a b): the sign of swapping two letters of parities a and b."""
    return 1 if (a * b) % 2 else -1


def koszul(a: int, parities: Sequence[int]) -> int:
    """Sign of moving a letter of parity a past a word of letters of these
    parities: prod skew_sign(a, b) = (-1)^len (-1)^(a sum); for even a only
    the word's length counts."""
    return skew_sign(len(parities), 1) * skew_sign(a, sum(parities))


class Graded:
    """Parity protocol of a Z/2-graded sum.

    A subclass is a `Linear` sum whose key k adds `_key_parity(k)` to the
    parity of its coefficient, a scalar (even) or itself `Graded`.  The
    parity parts, the involution and the parity follow from that one value.
    """

    __slots__ = ()

    def parity_part(self, parity: int) -> "Graded":
        """The terms of total parity `parity`."""
        kp = self._key_parity
        terms = {}
        for k, c in self.terms.items():
            p = parity ^ kp(k)
            if isinstance(c, Graded):
                c = c.parity_part(p)
            elif p:
                continue
            if c:
                terms[k] = c
        return self._like(terms)

    def involution(self) -> "Graded":
        """x0 + x1 -> x0 - x1: x moved past an odd letter."""
        kp = self._key_parity
        terms = {}
        for k, c in self.terms.items():
            if isinstance(c, Graded):
                c = c.involution()
            terms[k] = -c if kp(k) else c
        return self._like(terms)

    def _parities(self) -> set:
        """The parities of the terms, read without splitting anything."""
        kp = self._key_parity
        return {
            p ^ kp(k)
            for k, c in self.terms.items()
            for p in (c._parities() if isinstance(c, Graded) else (0,))
        }

    def is_homogeneous(self) -> bool:
        return len(self._parities()) <= 1

    def parity(self) -> int:
        """Parity of a homogeneous element (0 for the zero element)."""
        parities = self._parities()
        if len(parities) > 1:
            raise ValueError(f"{type(self).__name__} is not homogeneous")
        return next(iter(parities), 0)


def accumulate(terms: Dict, key, c) -> None:
    """terms[key] += c, dropping the key when the sum is zero."""
    old = terms.get(key)
    if old is not None:
        c = old + c
    if c:
        terms[key] = c
    else:
        terms.pop(key, None)


def add_product(terms: Dict, x: Dict[Index, GaussianRational], y: Dict[Index, GaussianRational]) -> None:
    """terms += x y for the terms of two Grassmann numbers: each pair of
    index sets is merged by `graded_sort`, and a repeated generator drops
    the pair."""
    for ia, ca in x.items():
        for ib, cb in y.items():
            sign, idx = graded_sort(ia + ib)
            if sign:
                accumulate(terms, idx, ca * cb if sign > 0 else -(ca * cb))


class Linear:
    """Finite sum  sum_k c_k * (basis element k)  over a fixed frame.

    `terms` maps each key to its nonzero coefficient: a scalar, or itself a
    Linear, zero exactly when falsy.  The attributes named in `_FRAME` (N,
    a chart, a degree, ...) must agree for two sums to be added or equal,
    else `_mismatch` names the error; a class may compare something else
    by defining `_frame(self)`.  Frames are compared by identity first and
    by == only when they are different objects.  `_CARRY` names attributes
    a result inherits without comparing them.  Subclasses turn other
    operands into a sum of their own type in `_lift` and coerce scaling
    factors with `_scalar`.

    A sum is never changed after it is built, so its hash is computed
    once, at the first `hash`, and kept in `_hash`.
    """

    __slots__ = ("_hash",)
    _FRAME: Tuple[str, ...] = ()
    _CARRY: Tuple[str, ...] = ()
    _scalar = staticmethod(GaussianRational.coerce)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # once per class: the frame accessor and the attributes a result copies
        own = getattr(cls, "_frame", None)
        cls._frame_of = staticmethod(own) if own else attrgetter(*cls._FRAME)
        cls._copied = cls._FRAME + cls._CARRY

    def _lift(self, x):
        return NotImplemented

    def _mismatch(self, other) -> Exception:
        return ValueError(f"{type(self).__name__} operands over different frames")

    def _like(self, terms: Dict) -> "Linear":
        """A sum in this frame over terms that are already nonzero."""
        new = object.__new__(type(self))
        for a in self._copied:
            setattr(new, a, getattr(self, a))
        new.terms = terms
        return new

    def _map(self, fn: Callable) -> "Linear":
        """The sum of the terms fn(key, c) in this frame, zeros dropped."""
        terms = {}
        for k, c in self.terms.items():
            c = fn(k, c)
            if c:
                terms[k] = c
        return self._like(terms)

    def _operand(self, x):
        if not isinstance(x, type(self)):
            x = self._lift(x)
            if x is NotImplemented:
                return x
        a, b = self._frame_of(self), self._frame_of(x)
        if a is not b and a != b:
            raise self._mismatch(x)
        return x

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return other
        terms = dict(self.terms)
        for k, c in other.terms.items():
            accumulate(terms, k, c)
        return self._like(terms)

    __radd__ = __add__

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._operand(other)
        return other if other is NotImplemented else self + (-other)

    def __rsub__(self, other):
        other = self._operand(other)
        return other if other is NotImplemented else other + (-self)

    def scale(self, s):
        s = self._scalar(s)
        return self._map(lambda k, c: c.scale(s) if isinstance(c, Linear) else c * s)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            other = self._lift(other)
            if other is NotImplemented:
                return other
        a, b = self._frame_of(self), self._frame_of(other)
        return (a is b or a == b) and self.terms == other.terms

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self._frame_of(self), frozenset(self.terms.items())))
            return self._hash


def _body_only(terms: Dict[Index, GaussianRational]) -> bool:
    return len(terms) == 1 and () in terms


class GrassmannNumber(Graded, Linear):
    """Element of Lambda_N with Gaussian-rational coefficients."""

    __slots__ = ("n", "terms")
    _FRAME = ("n",)

    def __init__(self, n: int, terms: Dict[Index, GaussianRational] | None = None):
        self.n = n
        self.terms: Dict[Index, GaussianRational] = {}
        if terms:
            for idx, c in terms.items():
                c = GaussianRational.coerce(c)
                if c.is_zero():
                    continue
                idx = tuple(idx)
                if any(not (1 <= k <= n) for k in idx):
                    raise ValueError(f"generator index out of range in {idx}")
                if list(idx) != sorted(set(idx)):
                    raise ValueError(f"index set {idx} is not strictly sorted")
                self.terms[idx] = c

    # -- constructors ---------------------------------------------------

    @staticmethod
    def scalar(value, n: int = DEFAULT_GENERATORS) -> "GrassmannNumber":
        c = GaussianRational.coerce(value)
        return GrassmannNumber(n)._like({(): c} if c else {})

    @staticmethod
    def generator(k: int, n: int = DEFAULT_GENERATORS) -> "GrassmannNumber":
        return GrassmannNumber(n, {(k,): GaussianRational(1)})

    @staticmethod
    def zero(n: int = DEFAULT_GENERATORS) -> "GrassmannNumber":
        return GrassmannNumber(n, {})

    def _lift(self, x):
        if isinstance(x, (int, Fraction, GaussianRational)):
            return self._like({(): GaussianRational.coerce(x)} if x else {})
        return NotImplemented

    def _mismatch(self, x) -> DimensionError:
        return DimensionError(f"generator counts differ: {self.n} vs {x.n}")

    # -- structure -------------------------------------------------------

    def body(self) -> GaussianRational:
        return self.terms.get((), GaussianRational(0))

    def soul(self) -> "GrassmannNumber":
        return self._like({k: v for k, v in self.terms.items() if k})

    @staticmethod
    def _key_parity(idx: Index) -> int:
        return len(idx) % 2

    def is_scalar(self) -> bool:
        return all(k == () for k in self.terms)

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return other
        # a factor that is only a body scales the other's terms, unsorted
        if _body_only(other.terms):
            c = other.terms[()]
            return self._map(lambda k, v: v * c)
        if _body_only(self.terms):
            c = self.terms[()]
            return other._map(lambda k, v: c * v)
        terms: Dict[Index, GaussianRational] = {}
        add_product(terms, self.terms, other.terms)
        return self._like(terms)

    def __rmul__(self, other):
        other = self._operand(other)
        return other if other is NotImplemented else other * self

    def inverse(self) -> "GrassmannNumber":
        """Inverse via the finite geometric series in the nilpotent part."""
        b = self.body()
        if b.is_zero():
            raise NotInvertible("zero body")
        binv = b.inverse()
        # x = b(1 + u) with u nilpotent; x^-1 = b^-1 sum (-u)^k
        u = self.soul() * binv
        acc = GrassmannNumber.scalar(1, self.n)
        power = GrassmannNumber.scalar(1, self.n)
        for _ in range(self.n):
            power = power * (-u)
            if power.is_zero():
                break
            acc = acc + power
        return acc * binv

    # -- rendering -----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for idx in sorted(self.terms, key=lambda k: (len(k), k)):
            c = self.terms[idx]
            word = "*".join(f"th{k}" for k in idx)
            cs = str(c)
            needs_parens = ("+" in cs[1:]) or ("-" in cs[1:].replace("*i", ""))
            if idx == ():
                chunk = f"({cs})" if needs_parens else cs
            elif c == GaussianRational(1):
                chunk = word
            elif c == GaussianRational(-1):
                chunk = f"-{word}"
            else:
                chunk = (f"({cs})" if needs_parens else cs) + "*" + word
            chunks.append(chunk)
        out = chunks[0]
        for chunk in chunks[1:]:
            if chunk.startswith("-"):
                out += " - " + chunk[1:]
            else:
                out += " + " + chunk
        return out

    def __repr__(self):
        return f"<Grassmann {self}>"
