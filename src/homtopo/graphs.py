"""Finite graphs on at most 64 vertices, with loops, as bitmask adjacency.

Vertices are 0..n-1.  The neighborhood of v is the int mask `adj[v]`; a loop
is v appearing in its own neighborhood.  All graphs are undirected
(symmetric adjacency).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import combinations
from math import comb

from ._kernels import enumerate_zero_cells
from .errors import DomainError, ResourceError

MAX_VERTICES = 64
ISO_CAP = 16


def bits(mask: int):
    """Positions of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def check_order(n: int) -> None:
    """Refuse a vertex count outside 0..MAX_VERTICES; builders call this
    before they allocate a row."""
    if not 0 <= n <= MAX_VERTICES:
        raise DomainError(f"vertex count {n} outside 0..{MAX_VERTICES}")


@dataclass(frozen=True)
class Graph:
    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        check_order(self.n)
        if len(self.adj) != self.n:
            raise DomainError("adjacency row count != vertex count")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise DomainError(f"row {v} mentions vertices >= {self.n}")
        for u in range(self.n):
            for v in bits(self.adj[u]):
                if not self.adj[v] >> u & 1:
                    raise DomainError(f"adjacency not symmetric at ({u},{v})")

    @property
    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_loop(self, v: int) -> bool:
        return bool(self.adj[v] >> v & 1)

    def is_loopless(self) -> bool:
        return all(not self.has_loop(v) for v in range(self.n))

    def edge_pairs(self) -> list[tuple[int, int]]:
        """Undirected edges as (u, v) with u <= v; a loop appears as (v, v)."""
        out = []
        for u in range(self.n):
            for v in bits(self.adj[u] >> u << u):
                out.append((u, v))
        return out

    def num_edges(self) -> int:
        return len(self.edge_pairs())


def from_edges(n: int, edges) -> Graph:
    check_order(n)
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise DomainError(f"edge ({u},{v}) outside 0..{n - 1}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


# ---------------------------------------------------------------- families

def complete(n: int, looped: bool = False) -> Graph:
    check_order(n)
    full = (1 << n) - 1
    if looped:
        return Graph(n, tuple(full for _ in range(n)))
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def cycle(m: int) -> Graph:
    if m < 3:
        raise DomainError(f"cycle needs >= 3 vertices, got {m}")
    return from_edges(m, ((v, (v + 1) % m) for v in range(m)))


def path(n: int) -> Graph:
    if n < 1:
        raise DomainError(f"path needs >= 1 vertex, got {n}")
    return from_edges(n, ((v, v + 1) for v in range(n - 1)))


def q_graph() -> Graph:
    """Two vertices: a looped vertex 0 joined to a plain vertex 1."""
    return Graph(2, (0b11, 0b01))


def kneser(k: int, n: int) -> Graph:
    """k-subsets of an n-set, adjacent when disjoint; vertices in lex order."""
    if not (1 <= k and 2 * k <= n):
        raise DomainError(f"kneser needs 1 <= k <= n/2, got k={k}, n={n}")
    # C(n, k) >= n here, so a large n needs no binomial
    m = comb(n, k) if n <= MAX_VERTICES else n
    if m > MAX_VERTICES:
        raise DomainError(f"kneser({k},{n}) has over {MAX_VERTICES} vertices")
    subsets = [sum(1 << i for i in c) for c in combinations(range(n), k)]
    adj = [0] * m
    for a in range(m):
        for b in range(a + 1, m):
            if not subsets[a] & subsets[b]:
                adj[a] |= 1 << b
                adj[b] |= 1 << a
    return Graph(m, tuple(adj))


def petersen() -> Graph:
    return kneser(2, 5)


GRAPH_NAME_RE = re.compile(
    r"^(K)(\d+)(o?)$|^(C|L)(\d+)$|^Kneser:(\d+),(\d+)$")


def _count(digits: str) -> int:
    """int() of a run of decimal digits read from outside input; a run too
    long for int() (Python's limit on digits) raises DomainError."""
    try:
        return int(digits)
    except ValueError:
        raise DomainError(f"a number of {len(digits)} digits is too large") \
            from None


def parse_graph_name(name: str) -> Graph:
    """Compact family names: K5, K4o, C7, L3, Q, Kneser:2,5, petersen."""
    if name == "Q":
        return q_graph()
    if name.lower() == "petersen":
        return petersen()
    m = GRAPH_NAME_RE.match(name)
    if not m:
        raise DomainError(f"cannot parse graph name {name!r}")
    if m.group(1):
        return complete(_count(m.group(2)), looped=bool(m.group(3)))
    if m.group(4):
        return (cycle if m.group(4) == "C" else path)(_count(m.group(5)))
    return kneser(_count(m.group(6)), _count(m.group(7)))


# ------------------------------------------------------------- operations

def complement(g: Graph) -> Graph:
    """The loopless complement: u ~ v for u != v not adjacent in g."""
    full = g.vertex_mask
    return Graph(g.n, tuple(full & ~g.adj[v] & ~(1 << v) for v in range(g.n)))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """g's vertices keep their numbers; h's are shifted up by |V(g)|."""
    n = g.n + h.n
    if n > MAX_VERTICES:
        raise DomainError(f"union has {n} > {MAX_VERTICES} vertices")
    adj = list(g.adj) + [row << g.n for row in h.adj]
    return Graph(n, tuple(adj))


def induced_subgraph(g: Graph, s: int) -> Graph:
    """Subgraph on the vertex mask `s`, reindexed in ascending vertex order."""
    if s & ~g.vertex_mask:
        raise DomainError("vertex set outside the graph")
    keep = list(bits(s))
    pos = {v: i for i, v in enumerate(keep)}
    adj = []
    for v in keep:
        row = 0
        for w in bits(g.adj[v] & s):
            row |= 1 << pos[w]
        adj.append(row)
    return Graph(len(keep), tuple(adj))


def enumerate_homomorphisms(g: Graph, h: Graph, budget: int) -> list[int]:
    """All graph homomorphisms g -> h, as the 0-cells of Hom(g,h).

    Map f is the key sum(f(x) << (g.n-1-x)*w), with w =
    _kernels.zero_cell_width(h.n) = max(1, (h.n-1).bit_length()): vertex
    x's w-bit field holds the digit f(x), vertex 0's field highest.
    So ascending keys are the maps in lexicographic order; the 0-vertex
    source has the one key 0.  HomComplex keys hold the one bit f(x) in an
    h.n-bit field instead; digits keep the keys small and dense for the
    dicts that count_hom_components groups them in.  BudgetError reports
    found = budget + 1 as soon as more than `budget` maps exist.
    """
    return enumerate_zero_cells(g.adj, h.adj, budget)


def chromatic_number(g: Graph) -> int:
    """Least k with a proper k-coloring; loops are out of scope."""
    if not g.is_loopless():
        raise DomainError("chromatic number undefined with loops")
    if g.n == 0:
        return 0
    if not any(g.adj):
        return 1
    order = sorted(range(g.n), key=lambda v: -g.degree(v))

    def colorable(k: int) -> bool:
        color = [-1] * g.n

        def go(i: int, used: int) -> bool:
            if i == g.n:
                return True
            v = order[i]
            seen = {color[w] for w in bits(g.adj[v]) if color[w] >= 0}
            for c in range(min(used + 1, k)):
                if c in seen:
                    continue
                color[v] = c
                if go(i + 1, max(used, c + 1)):
                    return True
                color[v] = -1
            return False

        return go(0, 0)

    lo = 2
    while not colorable(lo):
        lo += 1
    return lo


def max_independent_set(g: Graph) -> int:
    """Size of the largest independent set (looped vertices never qualify)."""
    closed = [g.adj[v] | (1 << v) for v in range(g.n)]
    avail0 = 0
    for v in range(g.n):
        if not g.has_loop(v):
            avail0 |= 1 << v
    best = 0

    def go(avail: int, size: int):
        nonlocal best
        if size + avail.bit_count() <= best:
            return
        if not avail:
            best = max(best, size)
            return
        v = (avail & -avail).bit_length() - 1
        go(avail & ~closed[v], size + 1)
        go(avail & ~(1 << v), size)

    go(avail0, 0)
    return best


# ------------------------------------------------------------ isomorphism

def match_arcs(out_p, out_q, colour_p, colour_q) -> list[int] | None:
    """A bijection f with u -> v an arc of p iff f[u] -> f[v] is one of q.

    Each side is a list of out-arc bitmask rows (a loop is an arc v -> v)
    and a starting colour per vertex, which f keeps; None when there is no
    such f.  Both sides are refined together by (colour, out-neighbour
    colours, in-neighbour colours) under shared colour names (Weisfeiler &
    Leman, 1968).  Then the rarest colour class is placed first, and each
    candidate is checked against its own loop and against every placed
    vertex in both arc directions, so a full placement is an isomorphism.
    """
    n = len(out_p)
    if len(out_q) != n:
        return None
    # each side's out- and in-neighbour lists, and its in-arc rows
    nbrs, in_p, in_q = [], [0] * n, [0] * n
    for out, inn in ((out_p, in_p), (out_q, in_q)):
        succ, pred = [list(bits(row)) for row in out], [[] for _ in out]
        for u, vs in enumerate(succ):
            for v in vs:
                pred[v].append(u)
                inn[v] |= 1 << u
        nbrs.append((succ, pred))
    cp, cq = list(colour_p), list(colour_q)
    while True:
        sp, sq = ([(c[v], tuple(sorted([c[w] for w in succ[v]])),
                    tuple(sorted([c[w] for w in pred[v]])))
                   for v in range(n)]
                  for c, (succ, pred) in zip((cp, cq), nbrs))
        if sorted(sp) != sorted(sq):
            return None
        # each signature holds the old colour, so the new classes split
        # the old ones; as many classes as before means nothing split
        names = {s: i for i, s in enumerate(sorted(set(sp)))}
        if len(names) == len(set(cp)):
            break
        cp, cq = [names[s] for s in sp], [names[s] for s in sq]
    classes: dict = {}
    for w in range(n):
        classes.setdefault(cq[w], []).append(w)
    order = sorted(range(n), key=lambda v: (len(classes[cp[v]]), cp[v], v))
    f = [-1] * n

    def place(t: int, placed: int, used: int) -> bool:
        if t == n:
            return True
        v = order[t]
        # images of v's arcs to and from the placed vertices
        out_image = sum(1 << f[u] for u in bits(out_p[v] & placed))
        in_image = sum(1 << f[u] for u in bits(in_p[v] & placed))
        for w in classes[cp[v]]:
            if (used >> w & 1 or out_q[w] >> w & 1 != out_p[v] >> v & 1
                    or out_q[w] & used != out_image
                    or in_q[w] & used != in_image):
                continue
            f[v] = w
            if place(t + 1, placed | 1 << v, used | 1 << w):
                return True
        return False

    return f if place(0, 0, 0) else None


def find_isomorphism(g: Graph, h: Graph):
    """A vertex bijection g -> h preserving adjacency, or None."""
    if g.n > ISO_CAP or h.n > ISO_CAP:
        raise ResourceError(f"isomorphism search capped at {ISO_CAP} vertices")
    f = match_arcs(g.adj, h.adj, [0] * g.n, [0] * h.n)
    return None if f is None else tuple(f)


def are_isomorphic(g: Graph, h: Graph) -> bool:
    return find_isomorphism(g, h) is not None


def validate_involution(g: Graph, gamma) -> tuple[int, ...]:
    """Check gamma is a graph automorphism of order dividing 2; return it."""
    gamma = tuple(gamma)
    if sorted(gamma) != list(range(g.n)):
        raise DomainError("gamma is not a vertex permutation")
    if any(gamma[gamma[v]] != v for v in range(g.n)):
        raise DomainError("gamma is not an involution")
    for v in range(g.n):
        image = 0
        for w in bits(g.adj[v]):
            image |= 1 << gamma[w]
        if image != g.adj[gamma[v]]:
            raise DomainError("gamma is not a graph automorphism")
    return gamma


# --------------------------------------------------------------------- io

def to_json_obj(g: Graph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.edge_pairs()]}


def from_json_obj(obj) -> Graph:
    try:
        n = obj["n"]
        edges = obj["edges"]
    except (TypeError, KeyError) as exc:
        raise DomainError(f"graph object missing field: {exc}") from None
    if type(n) is not int or n < 0:
        raise DomainError(f"graph field 'n' must be a count, got {n!r}")
    if not isinstance(edges, list):
        raise DomainError(f"graph field 'edges' must be a list, got {edges!r}")
    pairs = []
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2
                and all(type(v) is int for v in e)):
            raise DomainError(f"edge {e!r} is not a pair of vertex numbers")
        pairs.append(tuple(e))
    return from_edges(n, pairs)


def from_edge_list(text: str) -> Graph:
    lines = [ln for ln in (s.strip() for s in text.splitlines())
             if ln and not ln.startswith("#")]
    header = lines[0].split() if lines else []
    if len(header) != 2 or header[0] != "n" or not header[1].isdecimal():
        raise DomainError("edge list must start with a header line 'n <count>'")
    n = _count(header[1])
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2 or not all(p.isdecimal() for p in parts):
            raise DomainError(f"bad edge line {ln!r}")
        edges.append((_count(parts[0]), _count(parts[1])))
    return from_edges(n, edges)


def load_graph(path: str) -> Graph:
    """Read a graph file: JSON if it parses as JSON, else edge-list text.

    A file that cannot be read as UTF-8 text, or that holds no graph,
    raises DomainError.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read graph file {path!r}: {exc}") from None
    try:
        obj = json.loads(text)
    except ValueError:
        return from_edge_list(text)
    except RecursionError:
        raise DomainError(f"graph file {path!r} nests too deeply") from None
    return from_json_obj(obj)
