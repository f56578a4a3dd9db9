"""Corpus determinism and the unlabeled tree/forest enumerations, checked
against their known counting sequences and a Pruefer-code oracle."""

import itertools
import time

from homtopo.corpus import (all_forests, all_trees, complete_bipartite,
                            cube_graph, fold_pairs, loopless_corpus,
                            named_corpus, random_graphs, star, wheel)
from homtopo.folds import dominated_pairs
from homtopo.graphs import are_isomorphic, bits, find_isomorphism

# unlabeled trees (OEIS A000055) and forests (A005195) on n >= 1 vertices
TREE_COUNTS = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106]
FOREST_COUNTS = [1, 2, 3, 6, 10, 20, 37, 76, 153]


def rows(n, edges):
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return tuple(adj)


def pruefer_tree(seq, n):
    """Oracle: decode a Pruefer sequence of length n - 2 (n >= 2) into the
    adjacency rows of the labeled tree it names."""
    degree = [1] * n
    for s in seq:
        degree[s] += 1
    edges = []
    leaf = min(v for v in range(n) if degree[v] == 1)
    ptr = leaf
    for s in seq:
        edges.append((leaf, s))
        degree[s] -= 1
        if degree[s] == 1 and s < ptr:
            leaf = s
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    edges.append((leaf, n - 1))
    return rows(n, edges)


def labelings(g):
    """Adjacency rows of every relabeling of g."""
    edges = g.edge_pairs()
    return {rows(g.n, [(p[u], p[v]) for u, v in edges])
            for p in itertools.permutations(range(g.n))}


def is_connected(g):
    if g.n == 0:
        return True
    seen, stack = {0}, [0]
    while stack:
        v = stack.pop()
        for w in bits(g.adj[v]):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


def component_count(g):
    seen = set()
    out = 0
    for s in range(g.n):
        if s in seen:
            continue
        out += 1
        stack = [s]
        seen.add(s)
        while stack:
            v = stack.pop()
            for w in bits(g.adj[v]):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return out


def test_named_corpus():
    corpus = named_corpus()
    assert list(corpus)[:5] == ["K2", "K3", "K4", "K5", "K6"]
    assert corpus["petersen"].n == 10
    assert corpus["Q3"] == cube_graph()
    looped = {name for name, g in corpus.items() if not g.is_loopless()}
    assert looped == {"Q", "K3o"}
    assert set(loopless_corpus()) == set(corpus) - looped
    assert all(g.n <= 5 for g in loopless_corpus(5).values())


def test_small_families():
    assert star(3).num_edges() == 3 and star(3).degree(0) == 3
    kab = complete_bipartite(2, 3)
    assert kab.num_edges() == 6
    assert sorted(kab.degree(v) for v in range(5)) == [2, 2, 2, 3, 3]
    q3 = cube_graph()
    assert q3.n == 8 and all(q3.degree(v) == 3 for v in range(8))
    w = wheel(5)
    assert w.n == 6 and w.degree(5) == 5 and w.num_edges() == 10


def test_tree_counts_and_validity():
    for n in range(1, 11):
        trees = all_trees(n)
        assert len(trees) == TREE_COUNTS[n - 1]
        assert list(trees) == sorted(trees, key=lambda g: g.adj)
        for t in trees:
            assert t.n == n and t.num_edges() == n - 1 and is_connected(t)
        if n <= 9:
            for a, b in itertools.combinations(trees, 2):
                assert find_isomorphism(a, b) is None


def test_trees_match_pruefer_classes():
    # the relabelings of the representatives partition the labeled trees
    for n in range(2, 8):
        labeled = {pruefer_tree(seq, n)
                   for seq in itertools.product(range(n), repeat=n - 2)}
        orbits = [labelings(t) for t in all_trees(n)]
        assert sum(map(len, orbits)) == len(labeled)
        assert set().union(*orbits) == labeled


def test_all_trees_10_is_fast():
    all_trees.cache_clear()
    start = time.perf_counter()
    trees = all_trees(10)
    assert time.perf_counter() - start < 0.5
    assert len(trees) == 106


def test_forest_counts_and_validity():
    for n in range(1, 10):
        forests = all_forests(n)
        assert len(forests) == FOREST_COUNTS[n - 1]
        for f in forests:
            # acyclic: edges = vertices - components
            assert f.num_edges() == f.n - component_count(f)
        if n <= 7:
            for a, b in itertools.combinations(forests, 2):
                assert find_isomorphism(a, b) is None


def test_labeled_tree_count():
    # Pruefer decoding must reach all n^(n-2) labeled trees
    n = 5
    seen = {pruefer_tree(seq, n)
            for seq in itertools.product(range(n), repeat=n - 2)}
    assert len(seen) == n ** (n - 2)


def test_random_graphs_deterministic():
    a = random_graphs(10, 4, 4, 10)
    b = random_graphs(10, 4, 4, 10)
    assert a == b
    assert any(x != y for x, y in zip(a, random_graphs(10, 5, 4, 10)))
    assert all(g.num_edges() >= 1 for g in random_graphs(20, 0, 4, 10))


def test_fold_pairs():
    pairs = fold_pairs(8, seed=0, cell_cap=20_000)
    assert len(pairs) == 8
    assert pairs == fold_pairs(8, seed=0, cell_cap=20_000)
    for g, h in pairs:
        assert dominated_pairs(g)
        assert h.is_loopless()


def test_trees_are_cached_copies():
    assert all_trees(6) is all_trees(6)
    assert all(are_isomorphic(t, t) for t in all_trees(5))
