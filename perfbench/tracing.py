"""Timing spans around the calls into each homtopo layer.

The traced pass swaps module attributes (and two methods) for thin wrappers
defined here, so no source under ``src/`` changes.  A function imported by
name into several modules (``homcx.enumerate_hom_cells``,
``topology.gf2_rank``, ``equivariant.gf2_in_span``, ``morse.build_hom``,
``equivariant.betti_gf2`` ...) is replaced in every module that holds it,
found by object identity, so each call is seen once whichever module it was
reached through.  Spans stay in memory as ``[name, parent, start, end]``
and are written out when the pass ends.

Layer names drop the leading underscore of ``_kernels``, because a metric
name has to start with a letter.
"""

from __future__ import annotations

import sys
import time

from homtopo import _kernels
from homtopo.errors import BudgetError
from homtopo.homcx import HomComplex
from homtopo.topology import Poset

REPLAY = "kernels.replay"


class ReplayMismatch(Exception):
    """The compiled kernel and its pure-Python twin disagreed."""


def _count(key, value_of):
    def after(c, args, out, exc):
        if exc is None:
            c[key] = c.get(key, 0) + value_of(args, out)
    return after


def _build_hom_after(c, args, out, exc):
    if exc is None:
        c["built_cells"] = c.get("built_cells", 0) + len(out.keys)
    elif isinstance(exc, BudgetError):
        c["budget_errors"] = c.get("budget_errors", 0) + 1
        c["refused_cells"] = c.get("refused_cells", 0) + (exc.found or 0)


def _gf2_rank_after(c, args, out, exc):
    if exc is None:
        c["cols"] = c.get("cols", 0) + len(args[0])
        c["rank"] = c.get("rank", 0) + out


def _chain_data_before(c, args):
    c["fresh"] = getattr(args[0], "_chain", None) is None


def _chain_data_after(c, args, out, exc):
    # chain_data caches its result; count facets only on the computing call
    if exc is None and c.pop("fresh", False):
        c["facets"] = c.get("facets", 0) + sum(map(len, out[1]))


# (layer, module, attribute, counter hook); the module is where the
# function is defined, every other module holding it is patched too
FUNCTIONS = [
    ("kernels.enumerate_hom_cells", "homtopo._kernels", "enumerate_hom_cells",
     _count("cells", lambda a, out: len(out))),
    ("kernels.gf2_rank", "homtopo._kernels", "gf2_rank", _gf2_rank_after),
    ("kernels.gf2_in_span", "homtopo._kernels", "gf2_in_span",
     _count("cols", lambda a, out: len(a[0]))),
    ("graphs.enumerate_homomorphisms", "homtopo.graphs",
     "enumerate_homomorphisms", _count("homs", lambda a, out: len(out))),
    ("graphs.find_isomorphism", "homtopo.graphs", "find_isomorphism", None),
    ("homcx.build_hom", "homtopo.homcx", "build_hom", _build_hom_after),
    ("homcx.count_hom_components", "homtopo.homcx", "count_hom_components",
     None),
    ("topology.betti_gf2", "homtopo.topology", "betti_gf2", None),
    ("topology.connected_components", "homtopo.topology",
     "connected_components", None),
    ("topology.face_poset", "homtopo.topology", "face_poset", None),
    ("equivariant.induced_involution", "homtopo.equivariant",
     "induced_involution", None),
    ("equivariant.quotient", "homtopo.equivariant", "quotient",
     _count("simplices", lambda a, out: len(out.simplices))),
    ("equivariant.sw_height", "homtopo.equivariant", "sw_height", None),
    ("folds.irreducible_core", "homtopo.folds", "irreducible_core",
     _count("folds", lambda a, out: len(out[1].removed))),
    ("morse.kmn_matching", "homtopo.morse", "kmn_matching", None),
    ("morse.is_acyclic", "homtopo.morse", "is_acyclic", None),
]

# (layer, class, method, before hook, after hook)
METHODS = [
    ("homcx.chain_data", HomComplex, "chain_data", _chain_data_before,
     _chain_data_after),
    ("topology.Poset.chains", Poset, "chains", None, None),
]

# counters reported as "<layer>.<key>"
COUNTS = [
    ("kernels.enumerate_hom_cells", "cells"),
    ("kernels.gf2_rank", "cols"),
    ("kernels.gf2_in_span", "cols"),
    ("graphs.enumerate_homomorphisms", "homs"),
    ("homcx.build_hom", "budget_errors"),
    ("homcx.chain_data", "facets"),
    ("equivariant.quotient", "simplices"),
    ("folds.irreducible_core", "folds"),
]

# per-layer metrics as (name, unit), in the order BENCHMARK.json lists them
LAYER_METRICS = []
for _layer, *_rest in FUNCTIONS + METHODS:
    LAYER_METRICS += [(f"{_layer}.self_s", "s"), (f"{_layer}.calls", "count")]
LAYER_METRICS += [(f"{layer}.{key}", "count") for layer, key in COUNTS]
LAYER_METRICS += [
    ("kernels.gf2_rank.pivot_ratio", "ratio"),
    ("homcx.build_hom.budget_waste_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.untraced_s", "s"),
]


class Tracer:
    """Install with ``with Tracer() as t:``; spans and counters land on t."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, dict] = {}
        self._undo: list[tuple[object, str, object]] = []
        # replay only when the compiled kernels are in use (pure == pure)
        self.replay = _kernels._core is not None

    def _span(self, name, fn, args, kwargs, before, after):
        c = self.counters.setdefault(name, {})
        if before is not None:
            before(c, args)
        sid = len(self.spans)
        span = [name, self.stack[-1] if self.stack else -1,
                time.perf_counter(), 0.0]
        self.spans.append(span)
        self.stack.append(sid)
        exc = out = None
        try:
            out = fn(*args, **kwargs)
            return out
        except BaseException as e:
            exc = e
            raise
        finally:
            span[3] = time.perf_counter()
            self.stack.pop()
            if after is not None:
                after(c, args, out, exc)

    def _wrap(self, name, fn, before, after, twin=None):
        tracer = self

        def traced(*args, **kwargs):
            out = tracer._span(name, fn, args, kwargs, before, after)
            if twin is not None:
                tracer._span(REPLAY, _check_twin, (name, twin, args, out),
                             {}, None, None)
            return out

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        mods = [m for k, m in list(sys.modules.items())
                if (k == "homtopo" or k.startswith("homtopo."))
                and k not in ("homtopo._kernels.pure", "homtopo._kernels._core")
                and m is not None]
        for name, modname, attr, after in FUNCTIONS:
            fn = getattr(sys.modules[modname], attr)
            twin = None
            if self.replay and modname == "homtopo._kernels":
                pure_fn = getattr(_kernels.pure, attr)
                twin = None if pure_fn is fn else pure_fn
            wrapper = self._wrap(name, fn, None, after, twin)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._undo.append((mod, key, value))
                        setattr(mod, key, wrapper)
        for name, cls, attr, before, after in METHODS:
            fn = cls.__dict__[attr]
            self._undo.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(name, fn, before, after))
        return self

    def __exit__(self, *exc_info):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()
        return False

    def layer_metrics(self, untraced_s: float, traced_s: float) -> dict:
        """Self time, calls and counters per layer, plus tracing health."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        for sid, (name, parent, start, end) in enumerate(self.spans):
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child[sid]
            calls[name] = calls.get(name, 0) + 1
        out: dict[str, float] = {}
        for name, *_ in FUNCTIONS + METHODS:
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
            out[f"{name}.calls"] = calls.get(name, 0)

        def counter(layer, key):
            return self.counters.get(layer, {}).get(key, 0)

        def ratio(a, b):
            return a / b if b else 0.0

        for layer, key in COUNTS:
            out[f"{layer}.{key}"] = counter(layer, key)
        out["kernels.gf2_rank.pivot_ratio"] = ratio(
            counter("kernels.gf2_rank", "rank"),
            counter("kernels.gf2_rank", "cols"))
        refused = counter("homcx.build_hom", "refused_cells")
        out["homcx.build_hom.budget_waste_ratio"] = ratio(
            refused, refused + counter("homcx.build_hom", "built_cells"))
        out["trace.overhead_ratio"] = ratio(traced_s, untraced_s)
        out["trace.untraced_s"] = untraced_s
        return out


def _check_twin(name, twin, args, out):
    """Recompute a compiled kernel call in pure Python; raise on mismatch."""
    try:
        expect = twin(*args)
    except BudgetError:
        expect = BudgetError
    if expect != out:
        raise ReplayMismatch(f"{name}: compiled {out!r:.80} != pure {expect!r:.80}")
