"""Dominated vertices, fold reductions, irreducible cores."""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import DomainError, ResourceError
from .graphs import Graph, find_isomorphism, induced_subgraph

CORE_ISO_CAP = 12


@dataclass(frozen=True)
class DominationRecord:
    u: int          # dominating vertex
    v: int          # dominated vertex


@dataclass(frozen=True)
class ReductionTrace:
    removed: tuple[tuple[int, int], ...]   # (vertex, dominator), original labels
    core_vertices: tuple[int, ...]

    def to_json_obj(self) -> dict:
        return {"removed": [list(p) for p in self.removed],
                "core_vertices": list(self.core_vertices)}


def dominated_pairs(g: Graph) -> list[DominationRecord]:
    """All ordered (u,v), u != v, with N(v) a subset of N(u)."""
    return [DominationRecord(u, v) for v in range(g.n)
            for u in _dominators_of(g, v)]


def _dominators_of(g: Graph, v: int) -> list[int]:
    nv = g.adj[v]
    return [u for u in range(g.n) if u != v and nv & ~g.adj[u] == 0]


def fold(g: Graph, v: int) -> Graph:
    """Remove the dominated vertex v (reindexing the rest downward)."""
    if not 0 <= v < g.n:
        raise DomainError(f"vertex {v} out of range")
    if not _dominators_of(g, v):
        raise DomainError(f"vertex {v} is not dominated")
    return induced_subgraph(g, g.vertex_mask & ~(1 << v))


def smallest_policy(records: list[DominationRecord]) -> DominationRecord:
    return min(records, key=lambda r: (r.v, r.u))


def random_policy(seed: int):
    rng = random.Random(seed)

    def pick(records: list[DominationRecord]) -> DominationRecord:
        return rng.choice(records)

    return pick


def irreducible_core(g: Graph, policy=None) -> tuple[Graph, ReductionTrace]:
    """Fold policy-chosen dominated vertices until none remains."""
    if policy is None:
        policy = smallest_policy
    cur = g
    orig = list(range(g.n))
    removed = []
    while True:
        records = dominated_pairs(cur)
        if not records:
            break
        r = policy(records)
        removed.append((orig[r.v], orig[r.u]))
        cur = induced_subgraph(cur, cur.vertex_mask & ~(1 << r.v))
        del orig[r.v]
    return cur, ReductionTrace(tuple(removed), tuple(orig))


def core_uniqueness_check(g: Graph, trials: int) -> bool:
    """Do `trials` random tie-break policies all reach isomorphic cores?"""
    if g.n > CORE_ISO_CAP:
        raise ResourceError(f"core uniqueness capped at {CORE_ISO_CAP} vertices")
    base, _ = irreducible_core(g)
    for seed in range(trials):
        other, _ = irreducible_core(g, random_policy(seed))
        if find_isomorphism(base, other) is None:
            return False
    return True
