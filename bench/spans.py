"""Span tracing of the corings layers, installed from outside the library.

`Tracer.install` wraps each function of `LAYERS` and `LOOKUPS` and every
suite, and rebinds every reference to it: the attribute of every loaded
``corings`` module that holds it (``from corings.linalg import kernel`` copies
the name into the importing module, and function-local imports read the
module attribute at call time), the class attribute for methods, and the
values of ``suites._SUITE_FUNCS`` through which ``run_suite`` dispatches.
`Tracer.remove` puts every original back.

Each wrapped call appends one span ``(name, start, end, parent, invocation,
work)`` to an in-memory list; ``work`` is a size computed from the arguments
for the three functions in `WORK`.  ``Field.of`` runs millions of times per
pass, so it is only counted, not spanned.
"""

from __future__ import annotations

import importlib
import sys
import time


def _cells(m):
    return m.rows * m.cols


def _relation_rows(field, ambient_dim, relations=None):
    return 0 if relations is None else relations.rows


def _ambient_dim(field, d1, d2, d3, acts12, acts23):
    return d1 * d2 * d3


# span name -> (module, attribute path); the span name is the metric prefix
LAYERS = {
    f"linalg.{fn}": ("linalg", fn)
    for fn in ("rref_pivots", "solve", "inverse", "kernel", "quotient_by",
               "balanced_quotient", "triple_balanced_quotient", "Mat.__matmul__",
               "tensor_k", "sandwich_operator", "tensor_slice_operator")
}
LAYERS.update({
    "algebra.tensor_over_algebra": ("algebra", "tensor_over_algebra"),
    "algebra.left_dual": ("algebra", "left_dual"),
    "algebra.find_dual_basis": ("algebra", "find_dual_basis"),
    "comodules.comodule_homs": ("comodules", "comodule_homs"),
    "comodules.gcomodule_homs": ("comodules", "gcomodule_homs"),
    "dualring.dual_ring": ("dualring", "dual_ring"),
    "galois.coinvariant_ring": ("galois", "coinvariant_ring"),
    "galois.galois_decomposition": ("galois", "galois_decomposition"),
    "morita.graded_hom": ("morita", "graded_hom"),
    "morita.connecting_space": ("morita", "connecting_space"),
    "morita.coefficient_space": ("morita", "coefficient_space"),
    "hopf.smash_dual": ("hopf", "smash_dual"),
    "structfile.parse": ("structfile", "parse"),
    "structfile.main_structure": ("structfile", "main_structure"),
})

# tensor-quotient cache lookups; each counts towards its module's cache metrics
LOOKUPS = {
    f"{module}.{path}": (module, path)
    for module, path in (("coring", "GroupCoring.tensor"), ("coring", "GroupCoring.triple"),
                         ("comodules", "Comodule.tensor"), ("comodules", "Comodule.triple"),
                         ("comodules", "GComodule.tensor"), ("comodules", "GComodule.triple"))
}
BUILDS = ("algebra.tensor_over_algebra", "linalg.triple_balanced_quotient")
CACHE_FAMILIES = ("coring", "comodules")

WORK = {
    "linalg.rref_pivots": ("cells", _cells),
    "linalg.quotient_by": ("relation_rows", _relation_rows),
    "linalg.triple_balanced_quotient": ("ambient_dim", _ambient_dim),
}
FIELD_OF = ("scalars", "Field.of")

SUITE_NAMES = ("validate", "comodules", "dual-ring", "galois", "structure-theorem",
               "morita", "graded-morita", "section9", "hopf")

# layers reported by self time only; every other layer also reports calls
_SELF_ONLY = ("hopf.smash_dual", "structfile.parse", "structfile.main_structure")


def _per_layer_metrics():
    out = []
    for name in LAYERS:
        if name not in _SELF_ONLY:
            out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
        if name in WORK:
            out.append((f"{name}.{WORK[name][0]}", "count", "lower"))
    out.append(("scalars.Field.of.calls", "count", "lower"))
    for fam in CACHE_FAMILIES:
        out += [(f"{fam}.quotient_cache.lookups", "count", "lower"),
                (f"{fam}.quotient_cache.builds", "count", "lower"),
                (f"{fam}.quotient_cache.hit_ratio", "ratio", "higher")]
    for suite in SUITE_NAMES:
        out += [(f"suites.{suite}.s", "s", "lower"), (f"suites.{suite}.self_s", "s", "lower")]
    out.append(("trace.overhead_s", "s", "lower"))
    return tuple(out)


# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = _per_layer_metrics()


def _resolve(module: str, path: str):
    """(owner, attribute, original) for ``module.path``; path may be Class.attr."""
    mod = importlib.import_module(f"corings.{module}")
    if "." in path:
        cls_name, attr = path.split(".")
        owner = getattr(mod, cls_name)
        return owner, attr, owner.__dict__[attr]
    return mod, path, getattr(mod, path)


def _corings_modules():
    return [m for name, m in sorted(sys.modules.items())
            if (name == "corings" or name.startswith("corings.")) and m is not None]


def find_wrappers() -> list:
    """Names of every tracing wrapper still reachable from corings modules."""
    found = []
    for mod in _corings_modules():
        for name, value in vars(mod).items():
            if getattr(value, "_bench_traced", False):
                found.append(f"{mod.__name__}.{name}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    if getattr(member, "_bench_traced", False):
                        found.append(f"{mod.__name__}.{name}.{attr}")
    suites = sys.modules.get("corings.suites")
    if suites is not None:
        for key, fn in suites._SUITE_FUNCS.items():
            if getattr(fn, "_bench_traced", False):
                found.append(f"corings.suites._SUITE_FUNCS[{key!r}]")
    return found


class Tracer:
    """Records spans of calls into the corings layers while installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock   # span start and end times are its readings
        self.spans: list = []
        self.field_of_calls = 0
        self.invocation = 0
        self._stack: list = []
        self._patches: list = []   # (setter, owner, key, original)

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, name, fn, work=None):
        spans, stack, clock = self.spans, self._stack, self.clock
        tracer = self

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            size = work(*args, **kwargs) if work is not None else 0
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.invocation, size)

        traced._bench_traced = True
        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, fn):
        tracer = self

        def counted(*args, **kwargs):
            tracer.field_of_calls += 1
            return fn(*args, **kwargs)

        counted._bench_traced = True
        counted.__wrapped__ = fn
        return counted

    def _patch(self, setter, owner, key, value):
        original = owner[key] if setter is dict.__setitem__ else getattr(owner, key)
        self._patches.append((setter, owner, key, original))
        setter(owner, key, value)

    def _rebind(self, owner, attr, original, wrapper):
        if isinstance(owner, type):
            self._patch(setattr, owner, attr, wrapper)
            return
        for mod in _corings_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patch(setattr, mod, name, wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, (module, path) in LAYERS.items():
            owner, attr, original = _resolve(module, path)
            work = WORK[name][1] if name in WORK else None
            self._rebind(owner, attr, original, self._span_wrapper(name, original, work))
        for name, (module, path) in LOOKUPS.items():
            owner, attr, original = _resolve(module, path)
            self._rebind(owner, attr, original, self._span_wrapper(name, original))
        owner, attr, original = _resolve(*FIELD_OF)
        self._rebind(owner, attr, original, self._count_wrapper(original))
        suites = importlib.import_module("corings.suites")
        for suite, original in list(suites._SUITE_FUNCS.items()):
            wrapper = self._span_wrapper(f"suites.{suite}", original)
            self._patch(dict.__setitem__, suites._SUITE_FUNCS, suite, wrapper)
            self._rebind(suites, None, original, wrapper)

    def remove(self) -> None:
        while self._patches:
            setter, owner, key, original = self._patches.pop()
            setter(owner, key, original)

    def reset(self) -> None:
        """Drop the recorded spans and counts (wrappers stay installed)."""
        del self.spans[:]
        self.field_of_calls = 0


# -- analysis ----------------------------------------------------------------------

def self_times(spans) -> list:
    """Per span: its duration minus the part of its interval its children cover."""
    children = [[] for _ in spans]
    for idx, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(idx)
    out = []
    for idx, (_, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        reach = start
        for c in sorted(children[idx], key=lambda j: spans[j][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def layer_metrics(spans, field_of_calls: int) -> dict:
    """Per-layer metrics (all of `PER_LAYER` except trace.overhead_s) of one pass."""
    out = {name: 0 for name, _, _ in PER_LAYER if name != "trace.overhead_s"}
    lookups = dict.fromkeys(CACHE_FAMILIES, 0)
    builds = dict.fromkeys(CACHE_FAMILIES, 0)
    for (name, start, end, parent, _, size), self_s in zip(spans, self_times(spans)):
        if name in LOOKUPS:
            lookups[LOOKUPS[name][0]] += 1
        if name in BUILDS and parent >= 0 and spans[parent][0] in LOOKUPS:
            builds[LOOKUPS[spans[parent][0]][0]] += 1
        if name.startswith("suites."):
            out[f"{name}.s"] += end - start
        if name in WORK:
            out[f"{name}.{WORK[name][0]}"] += size
        if f"{name}.self_s" in out:
            out[f"{name}.self_s"] += self_s
        if f"{name}.calls" in out:
            out[f"{name}.calls"] += 1
    out["scalars.Field.of.calls"] = field_of_calls
    for fam in CACHE_FAMILIES:
        out[f"{fam}.quotient_cache.lookups"] = lookups[fam]
        out[f"{fam}.quotient_cache.builds"] = builds[fam]
        out[f"{fam}.quotient_cache.hit_ratio"] = (
            1 - builds[fam] / lookups[fam] if lookups[fam] else 0.0)
    return out
