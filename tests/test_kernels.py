"""The bitmask kernels: cell enumeration against a brute-force oracle,
budget errors, and GF(2) rank and span tests."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homtopo import _kernels
from homtopo._kernels import pure
from homtopo.errors import BudgetError
from homtopo.graphs import complete, from_edges, path
from test_homcx import brute_cells, small_graphs


def test_rank_known_values():
    assert _kernels.gf2_rank([]) == 0
    assert _kernels.gf2_rank([0b001, 0b010, 0b100]) == 3
    assert _kernels.gf2_rank([0b011, 0b101, 0b110]) == 2  # sums to zero
    assert _kernels.gf2_rank([0b111, 0b111]) == 1


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
    assert _kernels.gf2_in_span(cols, t) == (rank(cols + [t]) == rank(cols))


def high_bit_rank(cols):
    """Oracle: elimination on the highest bit, pivots in a list."""
    basis = []
    for col in cols:
        for b in basis:
            col = min(col, col ^ b)
        if col:
            basis.append(col)
            basis.sort(reverse=True)
    return len(basis)


@settings(deadline=None, derandomize=True)
@given(st.lists(st.integers(0, (1 << 200) - 1), max_size=10))
def test_rank_of_wide_columns(base):
    # 200-bit columns and XOR combinations of them, so that rank < length
    cols = base + [a ^ b for a, b in zip(base, base[1:])]
    assert _kernels.gf2_rank(cols) == high_bit_rank(cols) == high_bit_rank(base)
    for a, b in zip(base, base[1:]):
        assert _kernels.gf2_in_span(base, a ^ b)


def test_keys_wider_than_64_bits():
    # 33 source vertices x 2 target vertices = 66-bit keys, beyond any
    # brute-force oracle's reach: exactly the two alternating colorings
    g, h = path(33), complete(2)
    want = sorted(sum(1 << (x + c) % 2 << (32 - x) * 2 for x in range(33))
                  for c in (0, 1))
    assert want[1].bit_length() == 66
    assert pure.enumerate_hom_cells(g.adj, h.adj, 10**6) == want


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


@settings(max_examples=120, deadline=None, derandomize=True)
@given(small_graphs(4), small_graphs(3))
@example(LOOPED_LEAF, HALF_LOOPED)
@example(from_edges(1, [(0, 0)]), HALF_LOOPED)
@example(from_edges(1, []), complete(3))
@example(complete(3), complete(2))
def test_zero_cells_are_the_cells_with_one_bit_per_field(g, h):
    # a cell has one bit in each of its g.n fields iff its popcount is g.n
    cells = pure.enumerate_hom_cells(g.adj, h.adj, 10**6)
    want = [k for k in cells if k.bit_count() == g.n]
    assert pure.enumerate_zero_cells(g.adj, h.adj, len(want)) == want
    for b in range(len(want)):
        with pytest.raises(BudgetError) as e:
            pure.enumerate_zero_cells(g.adj, h.adj, b)
        assert e.value.found == b + 1
