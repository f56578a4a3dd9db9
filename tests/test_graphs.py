"""Graph layer tests; brute-force oracles are written inline and never call
the functions they check."""

import itertools
import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homtopo.errors import BudgetError, DomainError
from homtopo.graphs import (Graph, are_isomorphic, bits, chromatic_number,
                            complement, complete, cycle, disjoint_union,
                            enumerate_homomorphisms, find_isomorphism,
                            from_edge_list, from_edges, from_json_obj,
                            induced_subgraph, kneser, load_graph,
                            max_independent_set, parse_graph_name, path,
                            petersen, q_graph, to_json_obj,
                            validate_involution)
from test_homcx import small_graphs as any_graphs


def brute_homs(g, h):
    """Oracle: filter every vertex map by the edge condition directly."""
    out = []
    for f in itertools.product(range(h.n), repeat=g.n):
        ok = all(h.adj[f[u]] >> f[v] & 1
                 for u in range(g.n) for v in bits(g.adj[u]))
        if ok:
            out.append(f)
    return out


def brute_alpha(g):
    """Oracle: scan all vertex subsets."""
    best = 0
    for s in range(1 << g.n):
        if any(g.adj[u] >> v & 1 for u in bits(s) for v in bits(s)):
            continue
        best = max(best, s.bit_count())
    return best


def brute_chromatic(g):
    for k in range(1, g.n + 1):
        for col in itertools.product(range(k), repeat=g.n):
            if all(col[u] != col[v]
                   for u in range(g.n) for v in bits(g.adj[u])):
                return k
    return 0


def brute_isomorphism(g, h):
    """Oracle: the first vertex permutation carrying edges and non-edges."""
    if g.n != h.n:
        return None
    for f in itertools.permutations(range(h.n)):
        if all(g.adj[u] >> v & 1 == h.adj[f[u]] >> f[v] & 1
               for u in range(g.n) for v in range(g.n)):
            return f
    return None


def small_graphs(n):
    """Every loopless graph on n labeled vertices."""
    slots = list(itertools.combinations(range(n), 2))
    for picks in itertools.product((0, 1), repeat=len(slots)):
        yield from_edges(n, [e for e, p in zip(slots, picks) if p])


# ------------------------------------------------------------ construction

def test_graph_validation():
    with pytest.raises(DomainError):
        Graph(2, (0b10, 0b00))  # asymmetric
    with pytest.raises(DomainError):
        Graph(1, (0b10,))       # out-of-range vertex
    with pytest.raises(DomainError):
        Graph(2, (0,))          # row count mismatch
    with pytest.raises(DomainError):
        from_edges(2, [(0, 2)])


@pytest.mark.parametrize("spec", ["K20000", "C20000", "L20000", "Kneser:2,700",
                                  '{"n": 5000000, "edges": []}'])
def test_vertex_cap_checked_before_allocating(spec):
    tracemalloc.start()
    try:
        with pytest.raises(DomainError):
            if spec.startswith("{"):
                from_json_obj(json.loads(spec))
            else:
                parse_graph_name(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_families():
    k4 = complete(4)
    assert k4.num_edges() == 6 and all(k4.degree(v) == 3 for v in range(4))
    assert complete(3, looped=True).edge_pairs() == [
        (0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    c5 = cycle(5)
    assert c5.num_edges() == 5 and all(c5.degree(v) == 2 for v in range(5))
    with pytest.raises(DomainError):
        cycle(2)
    assert path(1).num_edges() == 0
    assert path(4).edge_pairs() == [(0, 1), (1, 2), (2, 3)]
    q = q_graph()
    assert q.has_loop(0) and not q.has_loop(1) and q.adj[1] == 0b01
    p = petersen()
    assert p.n == 10 and all(p.degree(v) == 3 for v in range(10))
    assert p.is_loopless() and are_isomorphic(p, kneser(2, 5))


def test_parse_graph_name():
    assert parse_graph_name("K5") == complete(5)
    assert parse_graph_name("K4o") == complete(4, looped=True)
    assert parse_graph_name("C7") == cycle(7)
    assert parse_graph_name("L3") == path(3)
    assert parse_graph_name("Q") == q_graph()
    assert parse_graph_name("petersen") == petersen()
    assert parse_graph_name("Kneser:2,5") == petersen()
    for bad in ("K", "C2x", "foo", "k5"):
        with pytest.raises(DomainError):
            parse_graph_name(bad)


def test_operations():
    c5 = cycle(5)
    assert complement(complement(c5)) == c5
    assert complement(c5) == cycle_complement_oracle(c5)
    g = disjoint_union(complete(2), complete(3))
    assert g.n == 5 and g.num_edges() == 4
    assert induced_subgraph(g, 0b11100) == complete(3)


def cycle_complement_oracle(g):
    edges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
             if not g.adj[u] >> v & 1]
    return from_edges(g.n, edges)


# ------------------------------------------------------------ enumeration

def as_maps(keys, g, h):
    """Decode 0-cell keys: vertex x's h.n-bit field, highest first, holds
    the one bit f(x), and no bit lies above the fields."""
    field = (1 << h.n) - 1
    maps = []
    for k in keys:
        assert k >> g.n * h.n == 0
        masks = [k >> (g.n - 1 - x) * h.n & field for x in range(g.n)]
        assert all(m.bit_count() == 1 for m in masks)
        maps.append(tuple(m.bit_length() - 1 for m in masks))
    return maps


@pytest.mark.parametrize("g,h", [
    (complete(3), complete(4)),
    (cycle(5), complete(3)),
    (path(3), complete(3)),
    (q_graph(), q_graph()),
    (complete(2, looped=True), complete(3, looped=True)),
    (from_edges(2, []), complete(2)),
])
def test_enumerate_homomorphisms_oracle(g, h):
    keys = enumerate_homomorphisms(g, h, 10**6)
    assert keys == sorted(keys)
    assert as_maps(keys, g, h) == sorted(brute_homs(g, h))


def test_enumerate_homomorphisms_edge_cases():
    # a looped source vertex cannot land on a plain target vertex
    assert enumerate_homomorphisms(q_graph(), complete(3), 10) == []
    assert enumerate_homomorphisms(Graph(0, ()), complete(3), 10) == [0]
    # C5 -> K4 has 3^5 - 3 = 240 maps: the cap is on maps listed, and the
    # error reports one past it whatever the order of the search
    assert len(enumerate_homomorphisms(cycle(5), complete(4), 240)) == 240
    with pytest.raises(BudgetError) as ei:
        enumerate_homomorphisms(cycle(5), complete(4), budget=10)
    assert ei.value.found == 11


@settings(max_examples=200, deadline=None, derandomize=True)
@given(any_graphs(5), any_graphs(4), st.integers(0, 300))
def test_enumerate_homomorphisms_property(g, h, budget):
    homs = sorted(brute_homs(g, h))
    assert as_maps(enumerate_homomorphisms(g, h, len(homs)), g, h) == homs
    # more than `budget` maps: refused, found = budget + 1
    if budget < len(homs):
        with pytest.raises(BudgetError) as ei:
            enumerate_homomorphisms(g, h, budget)
        assert ei.value.found == budget + 1
    else:
        assert as_maps(enumerate_homomorphisms(g, h, budget), g, h) == homs


def test_chromatic_number():
    assert chromatic_number(complete(5)) == 5
    assert chromatic_number(cycle(5)) == 3
    assert chromatic_number(cycle(6)) == 2
    assert chromatic_number(petersen()) == 3
    assert chromatic_number(from_edges(3, [])) == 1
    assert chromatic_number(Graph(0, ())) == 0
    with pytest.raises(DomainError):
        chromatic_number(q_graph())
    for g in small_graphs(4):
        assert chromatic_number(g) == brute_chromatic(g)


def test_max_independent_set():
    # isolated vertices are independent: the empty graph attains n
    assert max_independent_set(Graph(2, (0, 0))) == 2
    assert max_independent_set(from_edges(3, [(0, 1)])) == 2
    assert max_independent_set(make_star(2)) == 2
    assert max_independent_set(complete(4)) == 1
    assert max_independent_set(complete(3, looped=True)) == 0
    assert max_independent_set(petersen()) == 4
    for g in small_graphs(4):
        assert max_independent_set(g) == brute_alpha(g)


def make_star(k):
    return from_edges(k + 1, [(0, i) for i in range(1, k + 1)])


# ------------------------------------------------------------ isomorphism

def test_isomorphism():
    g = petersen()
    relabel = [3, 7, 1, 9, 0, 5, 2, 8, 4, 6]
    h = from_edges(10, [(relabel[u], relabel[v]) for u, v in g.edge_pairs()])
    pi = find_isomorphism(g, h)
    assert pi is not None
    for u, v in g.edge_pairs():
        assert h.adj[pi[u]] >> pi[v] & 1
    # same degree sequence, different graphs
    assert not are_isomorphic(cycle(6), disjoint_union(cycle(3), cycle(3)))
    assert not are_isomorphic(complete(3), Graph(3, (0, 0, 0)))
    assert are_isomorphic(Graph(0, ()), Graph(0, ()))


@st.composite
def graph_pairs(draw):
    """A graph with loops on up to 6 vertices and, relabelled, either a copy
    of it or another graph on as many vertices."""
    n = draw(st.integers(0, 6))
    slots = [(u, v) for u in range(n) for v in range(u, n)]
    edges = [e for e in slots if draw(st.booleans())]
    g = from_edges(n, edges)
    if not draw(st.booleans()):
        edges = [e for e in slots if draw(st.booleans())]
    perm = draw(st.permutations(range(n)))
    return g, from_edges(n, [(perm[u], perm[v]) for u, v in edges])


@settings(max_examples=400, deadline=None, derandomize=True)
@given(graph_pairs())
def test_isomorphism_matches_brute_force(pair):
    g, h = pair
    f = find_isomorphism(g, h)
    assert (f is None) == (brute_isomorphism(g, h) is None)
    if f is not None:
        assert sorted(f) == list(range(h.n))
        for u in range(g.n):
            for v in range(g.n):
                assert g.adj[u] >> v & 1 == h.adj[f[u]] >> f[v] & 1


def test_validate_involution():
    c4 = cycle(4)
    assert validate_involution(c4, (2, 3, 0, 1)) == (2, 3, 0, 1)
    assert validate_involution(c4, [0, 3, 2, 1]) == (0, 3, 2, 1)
    with pytest.raises(DomainError):
        validate_involution(c4, (1, 2, 3, 0))  # order four
    with pytest.raises(DomainError):
        validate_involution(path(3), (2, 0, 1))  # not an involution
    with pytest.raises(DomainError):
        validate_involution(path(4), (1, 0, 2, 3))  # not an automorphism
    with pytest.raises(DomainError):
        validate_involution(c4, (0, 1, 2))  # wrong length


# ------------------------------------------------------------ serialization

def test_json_roundtrip(tmp_path):
    p = tmp_path / "g.json"
    for g in (petersen(), q_graph(), Graph(3, (0, 0, 0)), cycle(6)):
        p.write_text(json.dumps(to_json_obj(g)))
        assert load_graph(str(p)) == g


def test_edge_list_roundtrip(tmp_path):
    for g in (cycle(5), q_graph(), from_edges(4, [])):
        text = f"n {g.n}\n" + "".join(f"{u} {v}\n" for u, v in g.edge_pairs())
        assert from_edge_list(text) == g
    p = tmp_path / "g.txt"
    p.write_text("# comment\nn 3\n0 1\n1 2\n")
    assert load_graph(str(p)) == path(3)
    with pytest.raises(DomainError):
        from_edge_list("0 1\n")
    with pytest.raises(DomainError):
        from_edge_list("n 2\n0 1 2\n")
