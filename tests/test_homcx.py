"""Hom-complex construction against a brute-force cell oracle, plus the
neighborhood complex and the component shortcut."""

import itertools
import random
import tracemalloc

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from homtopo import homcx
from homtopo._kernels import pure
from homtopo.errors import BudgetError, ConsistencyError, DomainError
from homtopo.formulas import cycle_components, kmn_cells
from homtopo.graphs import (Graph, bits, complete, cycle, disjoint_union,
                            from_edges, path, q_graph)
from homtopo.homcx import (HomComplex, build_hom, count_hom_components,
                           neighborhood_complex)
from homtopo.topology import (SPLIT_MIN_CELLS, betti_gf2,
                              connected_components, f_vector)


def brute_cells(g, h):
    """Oracle: every tuple of nonempty masks with all mask products on edges."""
    out = []
    for combo in itertools.product(range(1, 1 << h.n), repeat=g.n):
        ok = True
        for u, v in g.edge_pairs():  # loops appear as (v, v)
            for a in bits(combo[u]):
                for b in bits(combo[v]):
                    if not h.adj[a] >> b & 1:
                        ok = False
        if ok:
            out.append(combo)
    return out


ORACLE_PAIRS = [
    (complete(2), complete(3)),
    (complete(3), complete(4)),
    (cycle(4), complete(3)),
    (path(3), cycle(4)),
    (q_graph(), q_graph()),
    (from_edges(1, []), complete(3)),
    (complete(2, looped=True), complete(3, looped=True)),
]


@pytest.mark.parametrize("g,h", ORACLE_PAIRS)
def test_cells_match_oracle(g, h):
    x = build_hom(g, h)
    assert sorted(x.cells()) == sorted(brute_cells(g, h))


def test_storage_order_and_packing():
    x = build_hom(complete(3), complete(4))
    order = [(k.bit_count(), k) for k in x.keys]
    assert order == sorted(order)
    for k in x.keys:
        assert x.key_of(x.cell_of(k)) == k
        assert k.bit_count() == sum(m.bit_count() for m in x.cell_of(k))
    assert x.dim == 1  # Hom(K_3,K_4) is a graph
    with pytest.raises(DomainError):
        x.key_of((1, 1))


def test_zero_cells_are_homomorphisms():
    g, h = cycle(5), complete(3)
    x = build_hom(g, h)
    zeros = x.zero_cells()
    assert len(zeros) == 30
    for f in zeros:
        for u, v in g.edge_pairs():
            assert h.adj[f[u]] >> f[v] & 1


def test_facets_drop_one_bit():
    x = build_hom(cycle(4), complete(3))
    idx = {k: i for i, k in enumerate(x.keys)}
    # oracle: faces = entrywise submasks that stay cells
    dims, facets = x.chain_data()
    for i, k in enumerate(x.keys):
        want = sorted(idx[f] for f in idx
                      if f & ~k == 0 and f.bit_count() == k.bit_count() - 1)
        assert facets[i] == want


def test_missing_face_is_inconsistent():
    x = build_hom(cycle(4), complete(3))
    # drop one 1-cell: the 2-cells above it lose a face
    gone = next(k for k in x.keys if k.bit_count() - x.n_g == 1)
    broken = HomComplex(x.g, x.h, [k for k in x.keys if k != gone])
    with pytest.raises(ConsistencyError, match="not face-closed"):
        broken.chain_data()


def test_repeated_key_is_inconsistent():
    # an index would keep one copy, so both would get the same facets.
    # Hom(K2,K4) has cells of dimensions 0..2: repeat a 2-cell and a 1-cell
    keys = list(build_hom(path(2), complete(4)).keys)
    for at, dim in ((-1, 2), (20, 1)):
        x = HomComplex(path(2), complete(4), keys + [keys[at]])
        assert keys[at].bit_count() - x.n_g == dim
        with pytest.raises(ConsistencyError, match="more than once"):
            betti_gf2(x)


def test_betti_holds_no_index_of_the_whole_complex():
    # chain_data looks facets up in a dict over the dimension below alone.
    # Traced from before the build, on Python 3.10-3.12: 13.1-13.3 MB with
    # a dict over every cell, 10.4-10.8 MB without
    tracemalloc.start()
    try:
        betti = betti_gf2(build_hom(cycle(5), complete(5))).betti
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert betti == (1, 0, 1, 1, 0, 1)
    assert peak < 12_000_000


@pytest.mark.parametrize("cell", [(0b001, 0), (0b001, 0b1000), (0, 0b1010),
                                  (0b001, -1)])
def test_masks_outside_the_target_are_refused(cell):
    # 0b1010 overflows its 3-bit field: packed unchecked, (0, 0b1010) is the
    # key of the cell ({0}, {1})
    x = build_hom(complete(2), complete(3))
    with pytest.raises(DomainError, match="nonempty subset"):
        x.key_of(cell)


def test_empty_complex_has_dimension_minus_one():
    x = build_hom(complete(3), complete(2))
    assert len(x) == 0 and x.dim == -1


def test_budget():
    with pytest.raises(BudgetError):
        build_hom(complete(3), complete(5), budget=10)
    with pytest.raises(DomainError):
        build_hom(Graph(0, ()), complete(2))


def test_empty_complex():
    x = build_hom(complete(3), complete(2))
    assert len(x) == 0 and x.cells() == []
    assert f_vector(x) == ()


@pytest.mark.parametrize("g,h", ORACLE_PAIRS + [(complete(3), complete(2))])
def test_dim_is_the_top_of_the_f_vector(g, h):
    x = build_hom(g, h)
    assert x.dim == len(f_vector(x)) - 1


def test_disjoint_source_is_product():
    g1, g2, h = complete(2), path(2), complete(3)
    u = build_hom(disjoint_union(g1, g2), h)
    a, b = build_hom(g1, h), build_hom(g2, h)
    assert len(u) == len(a) * len(b)


def test_neighborhood_complex():
    nc = neighborhood_complex(cycle(5))
    # N(C_5) is again a 5-cycle
    assert betti_gf2(nc).betti == (1, 1)
    nc4 = neighborhood_complex(complete(4))
    assert betti_gf2(nc4).betti[0] == 1


@pytest.mark.parametrize("g,h", [
    (cycle(5), complete(3)),
    (cycle(6), complete(3)),
    (cycle(4), complete(3)),
    (complete(3), complete(4)),
    (q_graph(), q_graph()),
    (complete(2, looped=True), complete(3, looped=True)),
    # looped 0 beside unlooped 1, 2: two components, one if the looped
    # vertex could move between the non-adjacent looped targets 0 and 1
    (from_edges(3, [(0, 0), (0, 1)]),
     from_edges(3, [(0, 0), (0, 2), (1, 1), (1, 2)])),
])
def test_count_hom_components_matches_complex(g, h):
    x = build_hom(g, h)
    assert count_hom_components(g, h) == connected_components(x)


@pytest.mark.parametrize("t", range(3, 13))
def test_count_hom_components_of_cycles(t):
    # Hom(C_t,K_3) is disconnected, and an odd cycle takes three colour
    # classes, so every class after the first must join groups
    assert count_hom_components(cycle(t), complete(3)) == cycle_components(t)


def test_cell_label():
    x = build_hom(complete(2), complete(3))
    idx = {k: i for i, k in enumerate(x.keys)}
    i = idx[x.key_of((0b001, 0b110))]
    assert x.cell_label(i) == "({0},{1,2})"


@st.composite
def small_graphs(draw, max_n):
    """Any graph on 1..max_n vertices; loops allowed."""
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    return from_edges(n, [e for e, k in zip(pairs, keep) if k])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(small_graphs(5), small_graphs(4))
def test_count_hom_components_property(g, h):
    try:
        x = build_hom(g, h, budget=5000)
    except BudgetError:
        reject()
    assert count_hom_components(g, h) == connected_components(x)


def test_negative_budget_is_bad_input():
    with pytest.raises(DomainError, match="budget must be >= 0"):
        build_hom(complete(2), complete(3), budget=-1)


def test_zero_budget_stays_valid():
    assert len(build_hom(complete(3), complete(2), budget=0)) == 0
    with pytest.raises(BudgetError) as e:
        build_hom(complete(2), complete(3), budget=0)
    assert e.value.found == 1


def inclusion_facets(x):
    """Oracle: per cell, the indices of the cells one bit below it that it
    contains, found by scanning every cell of the dimension below."""
    idx = {k: i for i, k in enumerate(x.keys)}
    by_count: dict[int, list[int]] = {}
    for k in x.keys:
        by_count.setdefault(k.bit_count(), []).append(k)
    return [sorted(idx[f] for f in by_count.get(k.bit_count() - 1, ())
                   if f & ~k == 0)
            for k in x.keys]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(small_graphs(5), small_graphs(4), st.randoms(use_true_random=False))
@example(from_edges(1, []), complete(3), random.Random(0))
@example(from_edges(1, [(0, 0)]), complete(3, looped=True), random.Random(0))
@example(complete(3), complete(2), random.Random(0))
def test_face_data_property(g, h, rnd):
    try:
        x = build_hom(g, h, budget=4000)
    except BudgetError:
        reject()
    dims, facets = x.chain_data()
    assert dims == [k.bit_count() - g.n for k in x.keys]
    for fs in facets:
        assert all(a < b for a, b in zip(fs, fs[1:]))
    assert facets == inclusion_facets(x)
    assert x.keys == sorted(x.keys, key=lambda k: (k.bit_count(), k))
    shuffled = list(x.keys)
    rnd.shuffle(shuffled)
    assert HomComplex(g, h, shuffled).keys == x.keys


# ---- the cell count of Hom(G,K_n) taken before enumerating

@settings(max_examples=200, deadline=None, derandomize=True)
@given(small_graphs(7), st.integers(1, 5))
@example(from_edges(2, [(0, 0), (0, 1)]), 3)
@example(path(7), 1)
def test_complete_target_count_property(g, n):
    count = homcx._complete_target_cells(g.adj, n)
    cap = 2000
    if count <= cap:
        assert len(pure.enumerate_hom_cells(g.adj, complete(n).adj, cap)) \
            == count
        assert len(build_hom(g, complete(n), budget=cap)) == count
    else:
        with pytest.raises(BudgetError) as e:
            build_hom(g, complete(n), budget=cap)
        assert e.value.found == count


def test_complete_target_count_is_kmn_cells():
    for m in range(1, 8):
        for n in range(1, 8):
            assert homcx._complete_target_cells(complete(m).adj, n) \
                == kmn_cells(m, n)


def _must_not_run(*args):
    raise AssertionError("called where it must not run")


def test_over_budget_refused_before_enumerating(monkeypatch):
    monkeypatch.setattr(homcx, "enumerate_hom_cells", _must_not_run)
    with pytest.raises(BudgetError, match="has 45540 cells") as e:
        build_hom(cycle(5), complete(5), budget=100)
    assert e.value.found == 45540
    with pytest.raises(BudgetError) as e:
        build_hom(cycle(5), complete(3), budget=59)
    assert e.value.found == 60
    # no cells at all: K4 -> K3 and a looped source vertex
    for g, h, budget in ((complete(4), complete(3), 100),
                         (from_edges(2, [(0, 0), (0, 1)]), complete(3), 4)):
        x = build_hom(g, h, budget=budget)
        assert len(x) == 0 and x.g == g and x.h == h


def test_count_reaches_count_max_vertices(monkeypatch):
    monkeypatch.setattr(homcx, "enumerate_hom_cells", _must_not_run)
    assert homcx.COUNT_MAX_VERTICES == 16
    with pytest.raises(BudgetError) as e:
        build_hom(cycle(16), complete(3), budget=2 ** 16)
    assert e.value.found == 1336128   # as many as the kernel lists


def test_looped_complete_target_counted_first(monkeypatch):
    real = homcx.enumerate_hom_cells
    k3o = complete(3, looped=True)
    # every tuple of nonempty masks is a cell: 7^|V(G)|
    x = build_hom(path(4), k3o)
    assert len(x) == 7 ** 4 == len(brute_cells(path(4), k3o))
    monkeypatch.setattr(homcx, "enumerate_hom_cells", _must_not_run)
    with pytest.raises(BudgetError, match=f"has {7 ** 20} cells") as e:
        build_hom(cycle(20), k3o)
    assert e.value.found == 7 ** 20
    with pytest.raises(BudgetError) as e:
        build_hom(complete(2, looped=True), complete(2, looped=True), budget=8)
    assert e.value.found == 9
    monkeypatch.setattr(homcx, "enumerate_hom_cells",
                        lambda a, b, budget: real(a, b, budget)[1:])
    with pytest.raises(ConsistencyError, match="enumerated 48 cells"):
        build_hom(path(2), k3o)


def test_budget_equal_to_the_count_builds():
    x = build_hom(cycle(5), complete(3), budget=60)
    assert len(x) == 60


def test_count_only_where_it_can_refuse(monkeypatch):
    monkeypatch.setattr(homcx, "_complete_target_cells", _must_not_run)
    # more than COUNT_MAX_VERTICES source vertices: the kernel alone, with no
    # 2^|V(G)| table, whatever the budget
    assert len(build_hom(path(17), complete(2), budget=10)) == 2
    x = build_hom(complete(30), complete(3), budget=2 ** 31)
    assert len(x) == 0
    assert len(build_hom(path(3), complete(3))) == 30  # 7^3 <= budget
    with pytest.raises(BudgetError) as e:  # not K_n: the kernel refuses
        build_hom(cycle(5), q_graph(), budget=2)
    assert e.value.found == 3


def test_enumeration_that_misses_the_count_is_inconsistent(monkeypatch):
    real = homcx.enumerate_hom_cells
    monkeypatch.setattr(homcx, "enumerate_hom_cells",
                        lambda a, b, budget: real(a, b, budget)[1:])
    with pytest.raises(ConsistencyError, match="enumerated 59 cells"):
        build_hom(cycle(5), complete(3), budget=60)


# ------------------------------------------------ disconnected sources

class Generic:
    """Only the chain data of a complex, so betti_gf2 takes the generic
    path even where the complex offers factors."""

    def __init__(self, x):
        self.chain_data = x.chain_data


THREE_K2 = from_edges(6, [(0, 1), (2, 3), (4, 5)])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(small_graphs(3), small_graphs(3), small_graphs(4))
@example(from_edges(1, []), from_edges(1, [(0, 0)]), complete(2))
@example(path(2), from_edges(2, [(0, 0), (0, 1)]), complete(3, looped=True))
def test_split_betti_matches_generic(g1, g2, h):
    g = disjoint_union(g1, g2)
    try:
        x = build_hom(g, h, budget=5000)
    except BudgetError:
        reject()
    parts = len(homcx._components(g.adj)) if x.keys else 0
    assert len(x.factors()) == parts >= (2 if x.keys else 0)
    split = betti_gf2(x)
    # a product under the size gate takes the generic path itself
    assert (x._chain is None) == (parts > 1 and len(x) >= SPLIT_MIN_CELLS)
    assert split == betti_gf2(Generic(x))


def test_factors_are_the_components():
    x = build_hom(THREE_K2, complete(4))
    parts = x.factors()
    assert [(p.g, p.h, len(p)) for p in parts] == [
        (complete(2), complete(4), 50)] * 3
    assert betti_gf2(x).betti == (1, 0, 3, 0, 3, 0, 1)
    assert x._chain is None  # the product's face data is never built
    assert betti_gf2(x) == betti_gf2(Generic(x))


def test_factor_builds_skip_the_count(monkeypatch):
    # the whole product is counted once; a factor is never larger than the
    # product, so its build is not counted again
    real, sizes = homcx._complete_target_cells, []
    monkeypatch.setattr(homcx, "_complete_target_cells",
                        lambda adj, n: sizes.append(len(adj)) or real(adj, n))
    assert betti_gf2(build_hom(THREE_K2, complete(4))).betti == (
        1, 0, 3, 0, 3, 0, 1)
    assert sizes == [6]


def test_connected_and_empty_complexes_have_no_factors():
    assert build_hom(cycle(5), complete(3)).factors() == ()
    empty = build_hom(disjoint_union(complete(3), complete(1)), complete(2))
    assert not empty.keys and empty.factors() == ()
    assert betti_gf2(empty).betti == ()


def test_hand_built_complex_is_not_split():
    x = build_hom(THREE_K2, complete(3))
    assert HomComplex(x.g, x.h, x.keys).factors() == ()


def test_subcomplex_takes_the_generic_path():
    # the 2-skeleton is face-closed and a proper subcomplex, not a product
    x = build_hom(disjoint_union(path(3), path(2)), complete(3))
    sub = HomComplex(x.g, x.h, [k for k in x.keys if k.bit_count() - x.n_g <= 2])
    assert SPLIT_MIN_CELLS <= len(sub) < len(x)
    assert sub.factors() == ()
    assert betti_gf2(sub) == betti_gf2(Generic(sub))


def _outside_key(x):
    """A key of the right shape that is not a cell of x."""
    full = (1 << x.n_h) - 1
    idx = {k: i for i, k in enumerate(x.keys)}
    return next(k for k in (x.key_of((full,) * x.n_g), x.key_of(
        (1,) * x.n_g)) if k not in idx)


@pytest.mark.parametrize("change", ["drop", "add", "duplicate", "replace"])
def test_split_refuses_keys_that_are_not_the_product(change):
    x = build_hom(disjoint_union(path(2), path(2)), complete(3))
    keys = list(x.keys)
    if change == "drop":
        del keys[len(keys) // 2]
    elif change == "add":
        keys.append(_outside_key(x))
    elif change == "duplicate":
        keys[-1] = keys[0]
    else:
        keys[-1] = _outside_key(x)
    y = HomComplex(x.g, x.h, keys, whole=True)
    with pytest.raises(ConsistencyError):
        y.factors()
    with pytest.raises(ConsistencyError):
        betti_gf2(y)
