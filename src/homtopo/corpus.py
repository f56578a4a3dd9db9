"""Deterministic graph corpus: named families, all small trees and forests
up to isomorphism, and seeded random graphs for property checks."""

from __future__ import annotations

import random
from functools import lru_cache

from .errors import BudgetError, DomainError
from .folds import dominated_pairs
from .graphs import (Graph, bits, complete, cycle, disjoint_union,
                     from_edges, path, petersen, q_graph)
from .homcx import build_hom


def star(k: int) -> Graph:
    """K_{1,k}: vertex 0 joined to k leaves."""
    return from_edges(k + 1, [(0, i) for i in range(1, k + 1)])


def complete_bipartite(a: int, b: int) -> Graph:
    return from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def cube_graph() -> Graph:
    """1-skeleton of the 3-cube."""
    return from_edges(8, [(x, y) for x in range(8) for y in range(x + 1, 8)
                          if (x ^ y).bit_count() == 1])


def wheel(k: int) -> Graph:
    """C_k plus a hub adjacent to everything."""
    rim = [(i, (i + 1) % k) for i in range(k)]
    return from_edges(k + 1, rim + [(i, k) for i in range(k)])


def named_corpus() -> dict[str, Graph]:
    """The named test corpus, in a fixed deterministic order."""
    out: dict[str, Graph] = {}
    for n in range(2, 7):
        out[f"K{n}"] = complete(n)
    for t in range(3, 10):
        out[f"C{t}"] = cycle(t)
    for n in range(2, 8):
        out[f"L{n}"] = path(n)
    out["K13"] = star(3)
    out["K16"] = star(6)
    out["K33"] = complete_bipartite(3, 3)
    out["W5"] = wheel(5)
    out["Q3"] = cube_graph()
    out["petersen"] = petersen()
    out["Q"] = q_graph()
    out["K3o"] = complete(3, looped=True)
    return out


def loopless_corpus(max_n: int | None = None) -> dict[str, Graph]:
    return {name: g for name, g in named_corpus().items()
            if g.is_loopless() and (max_n is None or g.n <= max_n)}


def _centre_code(adj: list[int]) -> str:
    """AHU code of the tree `adj` rooted at its centre; the smaller of the
    two codes when the centre is an edge."""
    deg = [row.bit_count() for row in adj]
    layer = [v for v in range(len(adj)) if deg[v] <= 1]
    left = len(adj)
    while left > 2:  # peel leaves until the centre remains
        left -= len(layer)
        nxt = []
        for v in layer:
            for u in bits(adj[v]):
                deg[u] -= 1
                if deg[u] == 1:
                    nxt.append(u)
        layer = nxt

    def code(v: int, parent: int) -> str:
        return "(" + "".join(sorted(code(u, v) for u in bits(adj[v])
                                    if u != parent)) + ")"

    return min(code(c, -1) for c in layer)


@lru_cache(maxsize=None)
def all_trees(n: int) -> tuple[Graph, ...]:
    """All trees on n vertices, one per isomorphism class: every tree on
    n-1 vertices grown by a leaf at each vertex, kept once per centre code."""
    if n < 1:
        raise DomainError("trees need n >= 1")
    if n == 1:
        return (Graph(1, (0,)),)
    kept: dict[str, list[int]] = {}
    for t in all_trees(n - 1):
        for v in range(n - 1):
            adj = [*t.adj, 1 << v]
            adj[v] |= 1 << (n - 1)
            kept.setdefault(_centre_code(adj), adj)
    return tuple(sorted((Graph(n, tuple(a)) for a in kept.values()),
                        key=lambda g: g.adj))


@lru_cache(maxsize=None)
def all_forests(n: int) -> tuple[Graph, ...]:
    """All forests on exactly n vertices, one per isomorphism class."""
    if n < 1:
        raise DomainError("forests need n >= 1")

    def multisets(remaining: int, max_size: int, min_class: int):
        # non-increasing part sizes; within a size, non-decreasing class ids
        if remaining == 0:
            yield []
            return
        for size in range(min(remaining, max_size), 0, -1):
            lo = min_class if size == max_size else 0
            for cls in range(lo, len(all_trees(size))):
                for rest in multisets(remaining - size, size, cls):
                    yield [(size, cls)] + rest

    out = []
    for parts in multisets(n, n, 0):
        g = None
        for size, cls in parts:
            t = all_trees(size)[cls]
            g = t if g is None else disjoint_union(g, t)
        out.append(g)
    return tuple(out)


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return Graph(n, tuple(adj))


def random_graphs(count: int, seed: int, n_lo: int, n_hi: int,
                  require_edge: bool = True) -> list[Graph]:
    """`count` seeded random graphs with n in [n_lo, n_hi]."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(n_lo, n_hi)
        g = random_graph(n, rng.uniform(0.2, 0.8), rng)
        if require_edge and g.num_edges() == 0:
            continue
        out.append(g)
    return out


def fold_pairs(count: int, seed: int,
               cell_cap: int) -> list[tuple[Graph, Graph]]:
    """Seeded (G,H) pairs where G has a dominated vertex and Hom(G,H)
    fits in `cell_cap` cells."""
    targets = [complete(3), complete(4), complete(5), cycle(5), cycle(7),
               complete_bipartite(3, 3)]
    rng = random.Random(seed)
    out: list[tuple[Graph, Graph]] = []
    while len(out) < count:
        g = random_graph(rng.randint(4, 7), rng.uniform(0.3, 0.8), rng)
        if g.num_edges() == 0 or not dominated_pairs(g):
            continue
        h = targets[rng.randrange(len(targets))]
        try:
            build_hom(g, h, budget=cell_cap)
        except BudgetError:
            continue
        out.append((g, h))
    return out
