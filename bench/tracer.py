"""Per-layer tracing, installed from outside the program.

`Tracer.install()` replaces the public functions and methods of every
supersymp module with wrappers, in every module namespace that holds them
(so `from .forms import contract` sees the wrapper too).  A wrapper either
records a span (name, start, end, parent, operation id) or, where the
wrapper would cost more than the call it wraps, only counts the call:

* counted only: `GaussianRational` arithmetic (scalars layer);
* not wrapped: cheap accessors and predicates listed in CHEAP, whose time
  stays in their caller's span, and the one-line delegates in DELEGATES,
  so that one operation is one count and one span;
* spanned: every other public function and method.

A layer's self time is the time inside its spans not covered by child
spans.  Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time
from collections import Counter
from typing import Dict, List, Optional

MODULES = (
    "scalars", "grassmann", "charts", "forms", "linalg", "symplectic", "liecoh",
    "heisenberg", "cech", "prequant", "dsl", "cli", "verify",
)

COUNTED = {
    "scalars.GaussianRational.__add__": "scalars.add",
    "scalars.GaussianRational.__radd__": "scalars.add",
    "scalars.GaussianRational.__mul__": "scalars.mul",
    "scalars.GaussianRational.__rmul__": "scalars.mul",
    "scalars.GaussianRational.inverse": "scalars.inverse",
}

SPANNED_DUNDERS = {"__add__", "__radd__", "__sub__", "__mul__", "__rmul__"}

# functions and methods that only call another public one, which is wrapped
DELEGATES = {
    "grassmann.gr_mul", "grassmann.gr_inverse", "grassmann.involution",
    "grassmann.GrassmannNumber.__rmul__", "charts.SuperFunction.__rmul__",
    "charts.partial", "charts.vf_apply",
}

CHEAP = {
    "is_zero", "is_scalar", "is_constant", "is_homogeneous", "is_rational", "is_trivial",
    "is_abelian", "body", "soul", "coerce", "coerce_other", "parity", "component", "piece",
    "constant_value", "total_degree", "monomials", "coords", "even_index", "odd_index",
    "zero", "one", "scalar", "generator", "var", "constant", "vector", "contains",
    "subgroup_of", "peek", "next", "fail", "expect", "expect_name", "bracket_basis",
    "evaluate", "all_names", "chart_of",
}
# Document.evaluate parses text, so it is spanned despite the generic name
ALWAYS = {"dsl.Document.evaluate"}

# call-count metrics: metric -> the counted callables it sums
CALLS = {
    "scalars.mul_calls": ["scalars.mul"],
    "scalars.add_calls": ["scalars.add"],
    "scalars.inverse_calls": ["scalars.inverse"],
    "grassmann.mul_calls": ["grassmann.GrassmannNumber.__mul__"],
    "grassmann.inverse_calls": ["grassmann.GrassmannNumber.inverse"],
    "charts.mul_calls": ["charts.SuperFunction.__mul__"],
    "charts.partial_calls": ["charts.SuperFunction.partial"],
    "charts.apply_calls": ["charts.apply_super"],
    "forms.contract_calls": ["forms.contract"],
    "forms.ext_d_calls": ["forms.ext_d"],
    "forms.wedge_calls": ["forms.wedge"],
    "linalg.eliminations": ["linalg.rref"],
    "linalg.snf_calls": ["linalg.smith_normal_form"],
    "symplectic.hamiltonian_calls": ["symplectic.hamiltonian_field"],
    "liecoh.h2_calls": ["liecoh.h2"],
    "liecoh.coboundary_calls": ["liecoh.ce_coboundary"],
    "heisenberg.orbit_calls": ["heisenberg.orbit_classify"],
    "heisenberg.kks_calls": ["heisenberg.Orbit.kks_form"],
    "heisenberg.coad_calls": ["heisenberg.coad"],
    "heisenberg.momentum_calls": ["heisenberg.momentum_check"],
    "cech.load_calls": ["cech.load_cover"],
    "cech.normalize_calls": ["cech.normalize_to_periods"],
    "cech.classify_calls": ["cech.classify_prequantum"],
    "prequant.quantum_op_calls": ["prequant.quantum_op"],
    "dsl.parse_calls": ["dsl.parse", "dsl.Document.evaluate"],
}
SELF_LAYERS = ("grassmann", "charts", "forms", "linalg", "symplectic", "liecoh", "heisenberg", "cech", "prequant", "dsl", "cli", "verify")

PER_LAYER_UNITS = {name: "count" for name in CALLS}
PER_LAYER_UNITS.update({f"{layer}.self_s": "s" for layer in SELF_LAYERS})
PER_LAYER_UNITS.update({
    "grassmann.mul_scalar_only_ratio": "ratio",
    "linalg.entries_eliminated": "count",
    "linalg.max_cols": "count",
    "linalg.snf_entries": "count",
    "symplectic.hamiltonian_distinct_ratio": "ratio",
    "symplectic.eliminations_per_call": "ratio",
    "symplectic.inconclusive": "count",
    "dsl.bytes": "bytes",
    "cli.import_s": "s",
    "trace.overhead_ratio": "ratio",
})


class Tracer:
    def __init__(self):
        self.spans: List[list] = []  # [name, start, end, parent, op]
        self.stack: List[int] = []
        self.op: Optional[int] = None
        self.counts: Counter = Counter()
        self.extra: Counter = Counter()
        self.max_cols = 0
        self.ham_keys: set = set()
        self.ham_depth = 0
        self._originals = []

    # -- wrappers ---------------------------------------------------------

    def _spanned(self, name: str, fn, hook=None):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if hook is not None:
                hook(args, kwargs)
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return wrapper

    def _counted(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _hamiltonian(self, fn):
        inner = self._spanned("symplectic.hamiltonian_field", fn)

        @functools.wraps(fn)
        def wrapper(f, data, ansatz_degree=None):
            self.ham_keys.add((data.chart.name, str(data.omega), str(f), ansatz_degree))
            self.ham_depth += 1
            try:
                res = inner(f, data, ansatz_degree)
            finally:
                self.ham_depth -= 1
            if res.status == "inconclusive":
                self.extra["symplectic.inconclusive"] += 1
            return res

        return wrapper

    def _hook_rref(self, args, kwargs):
        rows = args[0]
        cols = len(rows[0]) if rows else 0
        self.extra["linalg.entries_eliminated"] += len(rows) * cols
        self.max_cols = max(self.max_cols, cols)
        if self.ham_depth:
            self.extra["symplectic.ham_eliminations"] += 1

    def _hook_snf(self, args, kwargs):
        rows = args[0]
        self.extra["linalg.snf_entries"] += len(rows) * (len(rows[0]) if rows else 0)

    def _hook_apply(self, args, kwargs):
        # apply on a C-valued function calls itself on its two parts:
        # count those, not the outer call
        if type(args[1]).__name__ != "CFunction":
            self.counts["charts.apply_super"] += 1

    def _hook_gmul(self, args, kwargs):
        a, b = args[0], args[1]
        if all(not k for k in a.terms) and all(not k for k in getattr(b, "terms", {(): 0})):
            self.extra["grassmann.mul_scalar_only"] += 1

    def _hook_text(self, args, kwargs):
        text = args[1] if len(args) > 1 and isinstance(args[1], str) else args[0]
        if isinstance(text, str):
            self.extra["dsl.bytes"] += len(text.encode("utf-8"))

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every public callable of every supersymp module."""
        mods = {m: importlib.import_module(f"supersymp.{m}") for m in MODULES}
        replace: Dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        hooks = {
            "linalg.rref": self._hook_rref,
            "linalg.smith_normal_form": self._hook_snf,
            "grassmann.GrassmannNumber.__mul__": self._hook_gmul,
            "charts.VectorField.apply": self._hook_apply,
            "dsl.parse": self._hook_text,
            "dsl.Document.evaluate": self._hook_text,
        }

        def make(name, fn):
            if name in DELEGATES:
                return None
            if name in COUNTED:
                return self._counted(COUNTED[name], fn)
            if name == "symplectic.hamiltonian_field":
                return self._hamiltonian(fn)
            if name.startswith("scalars."):
                return None
            return self._spanned(name, fn, hooks.get(name))

        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    if attr in CHEAP:
                        continue
                    w = make(f"{short}.{attr}", obj)
                    if w is not None:
                        replace[id(obj)] = (obj, w)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for mname, member in list(vars(obj).items()):
                        qual = f"{short}.{attr}.{mname}"
                        public = not mname.startswith("_") or mname in SPANNED_DUNDERS
                        if not public or (mname in CHEAP and qual not in ALWAYS and qual not in COUNTED):
                            continue
                        if isinstance(member, staticmethod):
                            w = make(qual, member.__func__)
                            if w is not None:
                                self._set(obj, mname, staticmethod(w))
                        elif inspect.isfunction(member):
                            w = make(qual, member)
                            if w is not None:
                                self._set(obj, mname, w)
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace and replace[id(obj)][0] is obj:
                    self._set(mod, attr, replace[id(obj)][1])

    def _set(self, owner, attr, value) -> None:
        self._originals.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._originals):
            setattr(owner, attr, value)
        self._originals.clear()

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Counts and per-layer self times; mergeable across processes."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(spans):
            self_s[name.split(".", 1)[0]] += (end - start) - child[i]
        return {
            "counts": dict(self.counts),
            "extra": dict(self.extra),
            "self_s": dict(self_s),
            "max_cols": self.max_cols,
            "ham_keys": sorted(repr(k) for k in self.ham_keys),
            "spans": len(spans),
        }

    def write(self, path: str) -> None:
        """Spans as gzipped JSON lines: [id, name, start, end, parent, op]."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps([i, name, round(start, 7), round(end, 7), parent, op]) + "\n")


def merge(summaries: List[dict]) -> dict:
    out = {"counts": Counter(), "extra": Counter(), "self_s": Counter(), "max_cols": 0, "ham_keys": set(), "spans": 0}
    for s in summaries:
        for key in ("counts", "extra", "self_s"):
            out[key].update(s[key])
        out["max_cols"] = max(out["max_cols"], s["max_cols"])
        out["ham_keys"].update(s["ham_keys"])
        out["spans"] += s["spans"]
    return out


def per_layer(summary: dict, overhead_ratio: float, import_s: float) -> Dict[str, float]:
    """Every per-layer metric from a (merged) tracer summary."""
    counts, extra, self_s = summary["counts"], summary["extra"], summary["self_s"]
    m: Dict[str, float] = {}
    for metric, keys in CALLS.items():
        m[metric] = sum(counts.get(k, 0) for k in keys)
    for layer in SELF_LAYERS:
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    gmul = m["grassmann.mul_calls"]
    m["grassmann.mul_scalar_only_ratio"] = extra.get("grassmann.mul_scalar_only", 0) / gmul if gmul else 0.0
    m["linalg.entries_eliminated"] = extra.get("linalg.entries_eliminated", 0)
    m["linalg.max_cols"] = summary["max_cols"]
    m["linalg.snf_entries"] = extra.get("linalg.snf_entries", 0)
    ham = m["symplectic.hamiltonian_calls"]
    m["symplectic.hamiltonian_distinct_ratio"] = len(summary["ham_keys"]) / ham if ham else 0.0
    m["symplectic.eliminations_per_call"] = extra.get("symplectic.ham_eliminations", 0) / ham if ham else 0.0
    m["symplectic.inconclusive"] = extra.get("symplectic.inconclusive", 0)
    m["dsl.bytes"] = extra.get("dsl.bytes", 0)
    m["cli.import_s"] = import_s
    m["trace.overhead_ratio"] = overhead_ratio
    return m
