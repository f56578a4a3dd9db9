"""The names perfbench's tracer patches must exist in the package.

perfbench/tracing.py wraps module attributes and methods by name; a renamed
or moved layer would otherwise surface only in the slower benchmark smoke
test, outside the tier-1 run.
"""

import importlib
import os
import sys

import pytest

from homtopo import _kernels, topology

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


def test_rank_reached_through_topology():
    # the tracer counts rank columns by patching every module holding the
    # kernel function, so betti_gf2 must call it through this name
    assert topology.gf2_rank is _kernels.gf2_rank
