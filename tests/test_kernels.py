"""Backend agreement: the compiled kernels must match the pure ones bit for
bit, and wide instances must fall back cleanly."""

import os
import random
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homtopo import _kernels
from homtopo._kernels import pure
from homtopo.errors import BudgetError
from homtopo.graphs import (complete, cycle, from_edges, path, petersen,
                            q_graph)
from test_homcx import brute_cells, small_graphs

compiled = pytest.mark.skipif(_kernels._core is None,
                              reason="compiled backend unavailable")


@compiled
@pytest.mark.parametrize("g,h", [
    (complete(2), complete(4)),
    (complete(3), complete(5)),
    (cycle(5), complete(3)),
    (q_graph(), q_graph()),
    (petersen(), complete(3)),
])
def test_enumerate_agreement(g, h):
    a = pure.enumerate_hom_cells(g.adj, h.adj, 10**7)
    b = _kernels._core.enumerate_hom_cells(list(g.adj), list(h.adj), 10**7)
    assert sorted(a) == sorted(b)


@compiled
def test_enumerate_budget_agreement():
    with pytest.raises(BudgetError):
        pure.enumerate_hom_cells(complete(3).adj, complete(5).adj, 10)
    with pytest.raises(BudgetError):
        _kernels._core.enumerate_hom_cells(list(complete(3).adj),
                                           list(complete(5).adj), 10)


@compiled
def test_rank_agreement():
    rng = random.Random(1)
    for nbits in (1, 7, 63, 64, 65, 200):
        for ncols in (1, 5, 40):
            cols = [rng.getrandbits(nbits) for _ in range(ncols)]
            assert pure.gf2_rank(cols, nbits) \
                == _kernels._core.gf2_rank(cols, nbits)


def test_rank_known_values():
    assert _kernels.gf2_rank([], 5) == 0
    assert _kernels.gf2_rank([0b001, 0b010, 0b100], 3) == 3
    assert _kernels.gf2_rank([0b011, 0b101, 0b110], 3) == 2  # sums to zero
    assert _kernels.gf2_rank([0b111, 0b111], 3) == 1


def test_in_span():
    cols = [0b011, 0b110]
    assert pure.gf2_in_span(cols, 0b101)
    assert pure.gf2_in_span(cols, 0)
    assert not pure.gf2_in_span(cols, 0b001)
    assert not pure.gf2_in_span([], 0b1)
    assert pure.gf2_in_span([], 0)


@settings(deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 1023), max_size=12), st.integers(0, 1023))
def test_in_span_iff_rank_unchanged(cols, t):
    rank = _kernels.gf2_rank
    assert _kernels.gf2_in_span(cols, t) == \
        (rank(cols + [t], 10) == rank(cols, 10))


def test_wide_keys_fall_back():
    # 33 source vertices x 2 target vertices = 66-bit keys: pure path only,
    # and the dispatcher must agree with calling pure directly
    g, h = path(33), complete(2)
    via_dispatch = _kernels.enumerate_hom_cells(g.adj, h.adj, 10**6)
    via_pure = pure.enumerate_hom_cells(g.adj, h.adj, 10**6)
    assert via_dispatch == via_pure
    assert len(via_dispatch) == 2  # the two alternating colorings


def test_pure_env_forces_backend():
    code = ("import homtopo._kernels as k; "
            "print(k.BACKEND); "
            "import homtopo.graphs as g; "
            "print(len(k.enumerate_hom_cells(g.complete(2).adj, "
            "g.complete(4).adj, 10**6)))")
    env = dict(os.environ, HOMTOPO_PURE="1")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["pure", "50"]


@compiled
def test_default_backend_is_compiled():
    assert _kernels.BACKEND == "compiled"


# A looped leaf (vertex 2) that the degree order visits last, so its cells
# come from the looped branch of the last-vertex batch; H has loops on some
# vertices only, so that branch must drop subsets.
LOOPED_LEAF = from_edges(3, [(0, 0), (0, 1), (1, 2), (2, 2)])
HALF_LOOPED = from_edges(3, [(0, 0), (0, 1), (1, 1), (1, 2)])


@settings(max_examples=120, deadline=None, derandomize=True)
@given(small_graphs(4), small_graphs(3))
@example(LOOPED_LEAF, HALF_LOOPED)
@example(from_edges(1, [(0, 0)]), HALF_LOOPED)
@example(from_edges(1, []), complete(3))
@example(complete(3), complete(2))
def test_enumerator_matches_oracle_and_budget(g, h):
    want = sorted(sum(m << (g.n - 1 - x) * h.n for x, m in enumerate(cell))
                  for cell in brute_cells(g, h))
    assert pure.enumerate_hom_cells(g.adj, h.adj, len(want)) == want
    for b in range(len(want)):
        with pytest.raises(BudgetError) as e:
            pure.enumerate_hom_cells(g.adj, h.adj, b)
        assert e.value.found == b + 1
