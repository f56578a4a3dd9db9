"""The bitmask kernels: cell enumeration against a brute-force oracle,
budget errors, and GF(2) rank, pivot row and span tests."""

import tracemalloc
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homtopo import _kernels
from homtopo.errors import BudgetError
from homtopo.graphs import bits, complete, cycle, from_edges, path
from homtopo.homcx import build_hom
from test_homcx import brute_cells, small_graphs


def test_rank_known_values():
    assert _kernels.gf2_rank([], set()) == 0
    assert _kernels.gf2_rank([0b001, 0b010, 0b100], set()) == 3
    assert _kernels.gf2_rank([0b011, 0b101, 0b110], set()) == 2  # sums to zero
    assert _kernels.gf2_rank([0b111, 0b111], set()) == 1


def pivot_rows(cols):
    rows = set()
    return _kernels.gf2_rank(cols, rows), rows


def test_pivot_rows_known_values():
    assert pivot_rows([]) == (0, set())
    assert pivot_rows([0b001, 0b010, 0b100]) == (3, {0, 1, 2})
    # 0b101 reduces by 0b011 to 0b110; 0b110 then reduces to zero
    assert pivot_rows([0b011, 0b101, 0b110]) == (2, {0, 1})
    assert pivot_rows([0b110, 0b110, 0b110]) == (1, {1})


def span(cols):
    out = {0}
    for col in cols:
        out |= {v ^ col for v in out}
    return out


@settings(deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 255), max_size=10))
def test_pivot_rows_are_the_lowest_rows_of_the_span(cols):
    # one pivot row per unit of rank, each the lowest bit of some vector in
    # the span and every such lowest bit a pivot row: the rows an echelon
    # basis of the span starts on, whatever the column order
    rank, rows = pivot_rows(cols)
    assert len(rows) == rank == _kernels.gf2_rank(cols, set())
    assert rows == {(v & -v).bit_length() - 1 for v in span(cols) if v}


def test_in_span():
    cols = [0b011, 0b110]
    assert _kernels.gf2_in_span(cols, 0b101)
    assert _kernels.gf2_in_span(cols, 0)
    assert not _kernels.gf2_in_span(cols, 0b001)
    assert not _kernels.gf2_in_span([], 0b1)
    assert _kernels.gf2_in_span([], 0)


@settings(deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 1023), max_size=12), st.integers(0, 1023))
def test_in_span_iff_rank_unchanged(cols, t):
    def rank(cs):
        return _kernels.gf2_rank(cs, set())

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
    assert (_kernels.gf2_rank(cols, set()) == high_bit_rank(cols)
            == high_bit_rank(base))
    for a, b in zip(base, base[1:]):
        assert _kernels.gf2_in_span(base, a ^ b)


def test_keys_wider_than_64_bits():
    # 33 source vertices x 2 target vertices = 66-bit keys, beyond any
    # brute-force oracle's reach: exactly the two alternating colorings
    g, h = path(33), complete(2)
    want = sorted(sum(1 << (x + c) % 2 << (32 - x) * 2 for x in range(33))
                  for c in (0, 1))
    assert want[1].bit_length() == 66
    assert _kernels.enumerate_hom_cells(g.adj, h.adj, 10**6) == want


# A looped leaf (vertex 2) that the degree order visits last, so its cells
# come from the looped branch of the last-vertex batch; H has loops on some
# vertices only, so that branch must drop subsets.
LOOPED_LEAF = from_edges(3, [(0, 0), (0, 1), (1, 2), (2, 2)])
HALF_LOOPED = from_edges(3, [(0, 0), (0, 1), (1, 1), (1, 2)])
# The shapes of the final loop, penultimate vertex and last vertex in the
# degree order: LOOPED_LEAF's are adjacent and the last is looped;
# path(3)'s (vertices 0 and 2) are not adjacent; LOOPED_LAST_APART's
# (vertices 2 and 3) are not, and the last is looped; LOOPED_PENULTIMATE
# has n_g = 2 with a looped penultimate vertex, and the 3-vertex source
# after it a looped penultimate vertex 2 apart from the last vertex 1;
# complete(2) and the 2-vertex empty graph are n_g = 2, adjacent or not.
LOOPED_LAST_APART = from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (3, 3)])
LOOPED_PENULTIMATE = from_edges(2, [(0, 0), (0, 1)])


@settings(max_examples=120, deadline=None, derandomize=True)
@given(small_graphs(4), small_graphs(3))
@example(LOOPED_LEAF, HALF_LOOPED)
@example(from_edges(1, [(0, 0)]), HALF_LOOPED)
@example(from_edges(1, []), complete(3))
@example(complete(3), complete(2))
@example(path(3), HALF_LOOPED)
@example(LOOPED_LAST_APART, HALF_LOOPED)
@example(LOOPED_PENULTIMATE, HALF_LOOPED)
@example(from_edges(3, [(0, 1), (0, 2), (2, 2)]), HALF_LOOPED)
@example(complete(2), HALF_LOOPED)
@example(from_edges(2, []), HALF_LOOPED)
def test_enumerator_matches_oracle_and_budget(g, h):
    want = sorted(sum(m << (g.n - 1 - x) * h.n for x, m in enumerate(cell))
                  for cell in brute_cells(g, h))
    assert _kernels.enumerate_hom_cells(g.adj, h.adj, len(want)) == want
    for b in range(len(want)):
        with pytest.raises(BudgetError) as e:
            _kernels.enumerate_hom_cells(g.adj, h.adj, b)
        assert e.value.found == b + 1


@settings(max_examples=120, deadline=None, derandomize=True)
@given(small_graphs(4), small_graphs(3))
@example(LOOPED_LEAF, HALF_LOOPED)
@example(from_edges(1, [(0, 0)]), HALF_LOOPED)
@example(from_edges(1, []), complete(3))
@example(complete(3), complete(2))
@example(path(3), HALF_LOOPED)
@example(LOOPED_LAST_APART, HALF_LOOPED)
@example(LOOPED_PENULTIMATE, HALF_LOOPED)
@example(from_edges(3, [(0, 1), (0, 2), (2, 2)]), HALF_LOOPED)
@example(complete(2), HALF_LOOPED)
@example(from_edges(2, []), HALF_LOOPED)
def test_zero_cells_are_the_cells_with_one_bit_per_field(g, h):
    # a cell has one bit in each of its g.n fields iff its popcount is g.n
    cells = _kernels.enumerate_hom_cells(g.adj, h.adj, 10**6)
    want = [k for k in cells if k.bit_count() == g.n]
    assert _kernels.enumerate_zero_cells(g.adj, h.adj, len(want)) == want
    for b in range(len(want)):
        with pytest.raises(BudgetError) as e:
            _kernels.enumerate_zero_cells(g.adj, h.adj, b)
        assert e.value.found == b + 1


def plain_cn(adj, mask):
    """Oracle: the common neighbours of mask, one row per bit."""
    out = (1 << len(adj)) - 1
    for y in range(len(adj)):
        if mask >> y & 1:
            out &= adj[y]
    return out


@st.composite
def wide_targets(draw):
    """Graphs on 13..16 vertices, wider than one 12-bit table, with few
    edges (so that Hom(K2,H) stays small) and loops on some vertices."""
    n = draw(st.integers(13, 16))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                     st.integers(0, n - 1)), max_size=24))
    return from_edges(n, edges)


def wide_counts(g, h):
    """Oracle: (cells, 0-cells) of Hom(g,H) for g = K1, looped K1 or K2."""
    adj = h.adj
    masks = range(1, 1 << h.n)
    if g.n == 2:
        return (sum((1 << plain_cn(adj, a).bit_count()) - 1 for a in masks),
                sum(row.bit_count() for row in adj))
    if g.adj[0]:
        return (sum(1 for a in masks if a & ~plain_cn(adj, a) == 0),
                sum(adj[y] >> y & 1 for y in range(h.n)))
    return (1 << h.n) - 1, h.n


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.sampled_from([complete(1), complete(1, looped=True), complete(2)]),
       wide_targets())
def test_targets_wider_than_one_table(g, h):
    cells, zero_cells = wide_counts(g, h)
    for walk, count in ((_kernels.enumerate_hom_cells, cells),
                        (_kernels.enumerate_zero_cells, zero_cells)):
        keys = walk(g.adj, h.adj, count)
        assert len(keys) == len(set(keys)) == count
        assert keys == sorted(keys)
        for k in keys:
            fields = [k >> (g.n - 1 - x) * h.n & (1 << h.n) - 1
                      for x in range(g.n)]
            if walk is _kernels.enumerate_zero_cells:
                assert all(m.bit_count() == 1 for m in fields)
            for x in range(g.n):
                for y in range(g.n):
                    if g.adj[x] >> y & 1:
                        assert fields[y] & ~plain_cn(h.adj, fields[x]) == 0
        for b in {0, count // 2, count - 1} & set(range(count)):
            with pytest.raises(BudgetError) as e:
                walk(g.adj, h.adj, b)
            assert e.value.found == b + 1


def plain_homs(g, h):
    """Oracle: every map V(G) -> V(H) that sends each G-edge, loops too, to
    an H-edge, packed one bit per field, ascending."""
    return sorted(sum(1 << y << (g.n - 1 - x) * h.n for x, y in enumerate(f))
                  for f in product(range(h.n), repeat=g.n)
                  if all(h.adj[f[x]] >> f[z] & 1
                         for x in range(g.n) for z in bits(g.adj[x])))


@st.composite
def twelve_vertex_targets(draw):
    """Graphs on 12 vertices, one full common-neighbour table wide, with
    loops on some vertices."""
    edges = draw(st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)),
                          max_size=40))
    return from_edges(12, edges)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_graphs(3), twelve_vertex_targets())
@example(complete(2), complete(12))
@example(complete(1, looped=True), complete(12, looped=True))
def test_zero_cells_into_twelve_vertices_match_a_plain_reference(g, h):
    want = plain_homs(g, h)
    assert _kernels.enumerate_zero_cells(g.adj, h.adj, len(want)) == want
    if want:
        with pytest.raises(BudgetError) as e:
            _kernels.enumerate_zero_cells(g.adj, h.adj, len(want) - 1)
        assert e.value.found == len(want)


def test_zero_cells_build_no_common_neighbour_table():
    # a 0-cell walk looks up single bits, one row per target vertex; the
    # 4,096-entry table that a cell walk into K12 reads takes ~170 KB traced
    g, h = complete(2), complete(12)
    tracemalloc.start()
    try:
        table = _kernels._common_neighbours(h.adj)
        table_peak = tracemalloc.get_traced_memory()[1]
        del table
        tracemalloc.reset_peak()
        homs = _kernels.enumerate_zero_cells(g.adj, h.adj, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert homs == plain_homs(g, h) and len(homs) == 132
    assert peak * 10 < table_peak


def test_wide_target_builds_no_whole_mask_table():
    # 20 target vertices take a 4,096- and a 256-entry table; one table
    # over every mask would hold 2^20 entries, tens of MB
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError):
            build_hom(complete(1), cycle(20), budget=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
