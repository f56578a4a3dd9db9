"""Dominated vertices against the semantic definition, fold invariance of
homotopy invariants, and core machinery."""

import itertools

import pytest
from hypothesis import given, reject, settings

from homtopo.errors import BudgetError, DomainError, ResourceError
from homtopo.folds import (dominated_pairs, fold, irreducible_core,
                           random_policy, smallest_policy)
from homtopo.graphs import (are_isomorphic, bits, complete, cycle,
                            from_edges, path, petersen)
from homtopo.homcx import build_hom
from homtopo.topology import betti_gf2
from test_homcx import small_graphs as any_graphs


def brute_dominations(g):
    """Oracle: (u,v) with every neighbor of v also a neighbor of u."""
    out = set()
    for v in range(g.n):
        for u in range(g.n):
            if u != v and all(g.adj[u] >> x & 1 for x in bits(g.adj[v])):
                out.add((u, v))
    return out


def small_graphs(n):
    slots = list(itertools.combinations(range(n), 2))
    for picks in itertools.product((0, 1), repeat=len(slots)):
        yield from_edges(n, [e for e, p in zip(slots, picks) if p])


def test_dominated_pairs_oracle():
    for g in small_graphs(4):
        got = {(r.u, r.v) for r in dominated_pairs(g)}
        assert got == brute_dominations(g)


def test_fold():
    c4 = cycle(4)
    folded = fold(c4, 2)
    assert folded == from_edges(3, [(0, 1), (0, 2)])
    with pytest.raises(DomainError):
        fold(cycle(5), 0)  # nothing dominates in C_5
    with pytest.raises(DomainError):
        fold(c4, 7)


def test_irreducible_cores():
    for g in (complete(4), cycle(5), cycle(7), petersen()):
        core, trace = irreducible_core(g)
        assert core == g and trace.removed == ()
    core, trace = irreducible_core(path(5))
    assert are_isomorphic(core, complete(2))
    assert len(trace.removed) == 3
    assert len(trace.core_vertices) == 2
    core, _ = irreducible_core(cycle(4))
    assert are_isomorphic(core, complete(2))
    # C_6 is bipartite but fold-irreducible: no neighborhood is nested
    core, _ = irreducible_core(cycle(6))
    assert core == cycle(6)


def test_trace_replays():
    g = path(5)
    core, trace = irreducible_core(g)
    # removed vertices plus core vertices partition the original labels
    labels = [v for v, _ in trace.removed] + list(trace.core_vertices)
    assert sorted(labels) == list(range(g.n))


def test_fold_preserves_betti():
    pairs = [(cycle(4), complete(3)), (path(4), complete(3)),
             (from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]),
              complete(3))]
    for g, h in pairs:
        r = smallest_policy(dominated_pairs(g))
        before = betti_gf2(build_hom(g, h)).betti
        after = betti_gf2(build_hom(fold(g, r.v), h)).betti
        k = max(len(before), len(after))
        assert tuple(before) + (0,) * (k - len(before)) == \
            tuple(after) + (0,) * (k - len(after))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(any_graphs(5), any_graphs(4))
def test_fold_invariance_property(g, h):
    # the fold theorem: Hom(G, H) ~ Hom(G - v, H) whenever N(v) <= N(u)
    try:
        before = betti_gf2(build_hom(g, h, budget=4000)).betti
        after = {v: betti_gf2(build_hom(fold(g, v), h, budget=4000)).betti
                 for v in {r.v for r in dominated_pairs(g)}}
    except BudgetError:
        reject()
    for v, betti in after.items():
        assert all(a == b for a, b in itertools.zip_longest(
            before, betti, fillvalue=0)), f"fold of vertex {v}"


def test_policies():
    records = dominated_pairs(path(4))
    assert smallest_policy(records).v == min(r.v for r in records)
    picks = {random_policy(seed)(records).v for seed in range(10)}
    assert picks <= {r.v for r in records}
    # same seed, same choice
    assert random_policy(3)(records) == random_policy(3)(records)


def test_core_uniqueness_cap():
    from homtopo.folds import core_uniqueness_check
    assert core_uniqueness_check(path(6), trials=8)
    with pytest.raises(ResourceError):
        core_uniqueness_check(complete(13), trials=1)
