from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest

from supersymp.cech import build_nerve
from supersymp.charts import Chart, SuperFunction, VectorField
from supersymp.grassmann import GrassmannNumber
from supersymp.liecoh import CECochain, canonical_keys, tuple_parity
from supersymp.scalars import GaussianRational


@pytest.fixture
def rng():
    return random.Random(20240517)


@pytest.fixture
def solve_calls(monkeypatch):
    """Counts the linear systems solved over Q(i): one entry, the row
    count, per `linalg.solve_sparse` call, which every solve goes through."""
    from supersymp import linalg

    calls = []
    solve_sparse = linalg.solve_sparse

    def counting(rows, ncols):
        calls.append(len(rows))
        return solve_sparse(rows, ncols)

    monkeypatch.setattr(linalg, "solve_sparse", counting)
    return calls


@pytest.fixture
def chart22():
    return Chart("M", ("x", "y"), ("xi", "eta"), 4)


@pytest.fixture
def chart21():
    return Chart("N", ("x", "y"), ("xi",), 4)


def random_scalar(rng, with_i=False):
    re = rng.randint(-3, 3)
    im = rng.randint(-2, 2) if with_i else 0
    return GaussianRational(re, im)


def random_superfunction(rng, chart, degree=3, with_grassmann=False, terms=4):
    """Random polynomial superfunction of total degree <= degree."""
    f = chart.zero()
    p, q = len(chart.even), len(chart.odd)
    for _ in range(terms):
        total = rng.randint(0, degree)
        exps = [0] * p
        word = []
        for _ in range(total):
            slot = rng.randrange(p + q)
            if slot < p:
                exps[slot] += 1
            elif slot - p not in word:
                word.append(slot - p)
        key = (tuple(exps), tuple(sorted(word)))
        if with_grassmann and rng.random() < 0.4 and chart.generators >= 2:
            gens = sorted(rng.sample(range(1, chart.generators + 1), rng.randint(1, 2)))
            coeff = GrassmannNumber(chart.generators, {tuple(gens): random_scalar(rng)})
        else:
            coeff = GrassmannNumber.scalar(random_scalar(rng), chart.generators)
        f = f + SuperFunction(chart, {key: coeff})
    return f


def random_ce_cochain(rng, g, degree):
    """Random even CE cochain: a value in -2..2, drawn for each canonical
    tuple in turn, in the C-component of the tuple's parity."""
    vals = {}
    for key in canonical_keys(g.parities, degree):
        v = Fraction(rng.randint(-2, 2))
        if v:
            vals[key] = (Fraction(0), v) if tuple_parity(g.parities, key) else (v, Fraction(0))
    return CECochain(g, degree, vals)


def random_homogeneous_function(rng, chart, parity, degree=3, **kw):
    f = random_superfunction(rng, chart, degree, **kw)
    return f.parity_part(parity)


def random_field(rng, chart, parity=None, degree=2, **kw):
    """Random vector field, homogeneous of the given parity when requested."""
    comps = {}
    for name in chart.coords:
        if rng.random() < 0.7:
            f = random_superfunction(rng, chart, degree, terms=2, **kw)
            if parity is not None:
                f = f.parity_part((parity + chart.parity(name)) % 2)
            if not f.is_zero():
                comps[name] = f
    return VectorField(chart, comps)


def torus_nerve(m, n):
    """Nerve of the consistently oriented triangulation of the m x n torus grid."""
    v = lambda i, j: (i % m) * n + (j % n)
    tris = []
    for i in range(m):
        for j in range(n):
            tris.append((v(i, j), v(i + 1, j), v(i + 1, j + 1)))
            tris.append((v(i, j), v(i + 1, j + 1), v(i, j + 1)))
    return build_nerve([face for t in tris for k in (1, 2, 3) for face in combinations(t, k)])
