"""The names perfbench's tracer patches must exist in the package.

perfbench/tracing.py wraps module attributes and methods by name; a renamed
or moved layer would otherwise surface only in the slower benchmark smoke
test, outside the tier-1 run.
"""

import importlib
import os
import sys

import pytest

import homtopo
from homtopo import _kernels, equivariant, graphs, homcx, topology
from homtopo.graphs import complete
from homtopo.homcx import build_hom

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, PERFBENCH)
    try:
        return importlib.import_module("tracing")
    finally:
        sys.path.remove(PERFBENCH)


def test_traced_functions_resolve(tracing):
    assert tracing.FUNCTIONS
    for layer, modname, attr, _ in tracing.FUNCTIONS:
        fn = getattr(importlib.import_module(modname), attr, None)
        assert callable(fn), f"{layer}: {modname}.{attr} is not callable"


def test_traced_methods_exist(tracing):
    assert tracing.METHODS
    for layer, cls, attr, _, _ in tracing.METHODS:
        assert callable(cls.__dict__.get(attr)), \
            f"{layer}: {cls.__name__}.{attr} is missing"


def test_backend_names_read_by_perfbench():
    # worker.py reports homtopo.BACKEND; tracing.py replays kernel calls
    # only when _kernels._core is set
    assert homtopo.BACKEND == "pure"
    assert _kernels._core is None


def test_traced_kernels_are_defined_in_the_kernel_module(tracing):
    # one module, one import path: each kernel the tracer wraps lives in
    # homtopo._kernels itself, not in a package re-exporting a submodule
    assert not hasattr(_kernels, "__path__")
    kernels = [attr for _, modname, attr, _ in tracing.FUNCTIONS
               if modname == "homtopo._kernels"]
    assert kernels == ["enumerate_hom_cells", "gf2_rank", "gf2_in_span"]
    for attr in kernels:
        assert getattr(_kernels, attr).__module__ == "homtopo._kernels"


def test_rank_reached_through_topology():
    # the tracer counts rank columns by patching every module holding the
    # kernel function, so betti_gf2 must call it through this name; it
    # passes pivot_rows, the set it clears the next dimension down with,
    # through this name too, and gets the rank back as an int
    assert topology.gf2_rank is _kernels.gf2_rank


def test_span_reached_through_equivariant():
    # likewise for the span columns that sw_height tests
    assert equivariant.gf2_in_span is _kernels.gf2_in_span


def test_homomorphisms_reached_through_homcx():
    # likewise for the maps that count_hom_components groups
    assert homcx.enumerate_homomorphisms is graphs.enumerate_homomorphisms


def test_quotient_has_what_check_rp_reads():
    # workloads._check_rp counts q.simplices by length against q.dim
    x = build_hom(complete(2), complete(4))
    q = equivariant.quotient(x, equivariant.induced_involution(x, (1, 0)))
    assert q.dim == 2
    f = [0] * (q.dim + 1)
    for s in q.simplices:
        f[len(s) - 1] += 1
    assert tuple(f) == topology.betti_gf2(q).f_vector


def test_chain_data_facets_counted_once(tracing):
    # the tracer counts facets only when chain_data computes, which it
    # detects by `_chain is None`; a second call must hit the cache
    x = build_hom(complete(3), complete(5))
    with tracing.Tracer() as t:
        dims, facets = x.chain_data()
        counted = t.counters["homcx.chain_data"]["facets"]
        assert counted == sum(map(len, facets)) > 0
        assert x.chain_data() == (dims, facets)
        assert t.counters["homcx.chain_data"]["facets"] == counted
