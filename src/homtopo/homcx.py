"""Multihomomorphism complexes Hom(G,H) and the neighborhood complex.

A cell assigns to every vertex x of G a nonempty mask eta(x) over V(H) such
that eta(x) x eta(y) lands in E(H) for every edge (x,y) of G (loops
included).  Cells are stored as packed int keys (see homtopo._kernels) in
canonical order: dimension, then lexicographic on the mask tuple.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain, count, islice
from math import prod

from ._kernels import enumerate_hom_cells
from .errors import BudgetError, ConsistencyError, DomainError
from .graphs import (Graph, bits, complete, enumerate_homomorphisms,
                     induced_subgraph)
from .topology import ChainData, merge_classes

CELL_BUDGET = 5_000_000
# build_hom counts Hom(G,K_n) first only for sources up to this size: the
# count's table has 2^|V(G)| entries (and no more than the budget), about
# 30 ms and 1 MB at 16 vertices (2-vCPU Xeon), within a CLI call's start-up
# time.  At 21 vertices it takes 0.8 s and 70 MB, which a dense source that
# the enumerator rules out in a millisecond would pay in full.
COUNT_MAX_VERTICES = 16


class HomComplex:
    """The polyhedral complex of multihomomorphisms G -> H.

    `whole=True` says the keys are all of Hom(g,h), as build_hom's are; only
    such a complex offers `factors()`.
    """

    def __init__(self, g: Graph, h: Graph, keys, *, whole: bool = False):
        self.g = g
        self.h = h
        self.n_g = g.n
        self.n_h = h.n
        # stable popcount sort of numerically sorted keys: (dimension, key)
        self.keys = sorted(sorted(keys), key=int.bit_count)
        self._chain = None
        self._whole = whole
        self._factors: tuple[HomComplex, ...] | None = None

    def __len__(self):
        return len(self.keys)

    # ---- packing helpers

    def cell_of(self, key: int) -> tuple[int, ...]:
        n, w = self.n_g, self.n_h
        full = (1 << w) - 1
        return tuple(key >> ((n - 1 - x) * w) & full for x in range(n))

    def key_of(self, cell) -> int:
        if len(cell) != self.n_g:
            raise DomainError("cell length != vertex count of the source")
        w = self.n_h
        full = (1 << w) - 1
        key = 0
        for m in cell:
            if not 0 < m <= full:
                # a wider mask would spill into the next vertex's field
                raise DomainError(f"mask {m} is not a nonempty subset of "
                                  f"the {w} target vertices")
            key = key << w | m
        return key

    @property
    def dim(self) -> int:
        # the keys are sorted by popcount, so the last one has the top dimension
        return self.keys[-1].bit_count() - self.n_g if self.keys else -1

    def facet_scan(self, values, picks=None):
        """(dims, facets) over the keys, or over picks(a, b) from each
        dimension block keys[a:b]: per key its dimension and the values[i]
        of its facets i.  Bits are dropped highest first, and a higher bit
        dropped gives a smaller key, so the facets come smallest key first.

        A facet drops a bit from a field holding two or more.  With low,
        high and rest the lowest, the highest and the other w - 1 bits of
        every field, r = k & (k - low) clears each field's lowest bit (no
        field is empty, so nothing borrows); t holds the high bit of each
        field where r is nonzero; (t << 1) - (t >> (w - 1)) fills those
        fields.  Each `key ^ bit` is looked up in a dict over the block
        below: a miss (not face-closed) or a dict left short (a repeated
        key) raises ConsistencyError.
        """
        keys, n_g, w = self.keys, self.n_g, self.n_h
        low = sum(1 << (x * w) for x in range(n_g))
        high, up = low << w >> 1, w - 1
        rest = low * ((1 << w) - 1) ^ high
        dims, facets, below, a = [], [], {}, 0
        while a < len(keys):
            d = keys[a].bit_count() - n_g
            b = bisect_right(keys, d + n_g, a, key=int.bit_count)
            start = len(facets)
            rows = picks(a, b) if picks else islice(keys, a, b)
            if not d:  # 0-cells have no facets
                facets += [[] for _ in rows]
                rows = ()
            try:
                for k in rows:
                    r = k & (k - low)
                    t = (((r & rest) + rest) | r) & high
                    m = k & ((t << 1) - (t >> up))
                    fs = []
                    while m:
                        bit = 1 << (m.bit_length() - 1)
                        m ^= bit
                        fs.append(below[k ^ bit])
                    facets.append(fs)
            except KeyError:
                raise ConsistencyError(
                    f"cell {self.cell_label(keys.index(k, a, b))} lacks the "
                    f"face {self.cell_of(k ^ bit)}: not face-closed") from None
            dims += [d] * (len(facets) - start)
            below = dict(zip(islice(keys, a, b), values[a:b]))
            if len(below) != b - a:
                raise ConsistencyError("a cell is listed more than once")
            a = b
        return dims, facets

    def chain_data(self) -> ChainData:
        """(dims, facets): per cell its dimension and facet indices, from
        facet_scan with each cell's index as its value.  Inside a dimension
        index order is key order, so each facet list comes out ascending."""
        if self._chain is None:
            self._chain = ChainData(*self.facet_scan(range(len(self.keys))))
        return self._chain

    def factors(self) -> tuple["HomComplex", ...]:
        """Hom(G_i, H) for each connected component G_i of G, in vertex
        order, when G has two or more and the keys are all of a nonempty
        Hom(G,H); otherwise ().

        Hom(G1+G2, H) = Hom(G1,H) x Hom(G2,H) cell by cell (Babson & Kozlov
        2006), so the keys must be exactly the product of the factors' keys,
        each spread into its component's fields.  That is checked without
        building the product: the keys are distinct, there are as many as
        the product of the factor sizes, and masking the keys to each
        component's fields gives that factor's keys.  The first two make
        the keys as many as the product; the third puts each of them in it.
        A miss raises ConsistencyError.  A subcomplex is never split: a
        proper subcomplex of a product is not a product.
        """
        if self._factors is None:
            comps = _components(self.g.adj) if self._whole and self.keys else ()
            self._factors = self._split(comps) if len(comps) > 1 else ()
        return self._factors

    def _split(self, comps: list[int]) -> tuple["HomComplex", ...]:
        keys, n, w = self.keys, self.n_g, self.n_h
        full = (1 << w) - 1
        if any(map(int.__eq__, keys, islice(keys, 1, None))):
            raise ConsistencyError("a cell is listed twice")
        # no count first: a factor is never larger than the product, so
        # build_hom's count could not refuse it; the product check below
        # stands in for the count's check of the enumeration
        parts = []
        for c in comps:
            g = induced_subgraph(self.g, c)
            parts.append(HomComplex(g, self.h, enumerate_hom_cells(
                g.adj, self.h.adj, len(keys)), whole=True))
        if len(keys) != prod(map(len, parts)):
            raise ConsistencyError(
                f"{len(keys)} cells, but the components' complexes have "
                f"{' x '.join(str(len(p)) for p in parts)}")
        for c, part in zip(comps, parts):
            # factor field i (shift (m-1-i)*w) lands on source vertex v
            moves = [((part.n_g - 1 - i) * w, (n - 1 - v) * w)
                     for i, v in enumerate(bits(c))]
            mask = sum(full << t for _, t in moves)
            spread = {sum((k >> s & full) << t for s, t in moves)
                      for k in part.keys}
            if set(map(mask.__and__, keys)) != spread:
                raise ConsistencyError(
                    f"the cells restricted to the component on vertices "
                    f"{list(bits(c))} are not Hom of that component")
        return tuple(parts)

    def cell_label(self, i: int) -> str:
        cell = self.cell_of(self.keys[i])
        return "(" + ",".join("{" + ",".join(map(str, bits(m))) + "}"
                              for m in cell) + ")"


def _components(adj) -> list[int]:
    """Vertex masks of the connected components, by lowest vertex.

    A frontier walk on masks: about 1 us for a connected source of a few
    vertices, which every betti_gf2 call on a HomComplex pays.
    """
    comps = []
    left = (1 << len(adj)) - 1
    while left:
        seen = front = left & -left
        while front:
            low = front & -front
            front ^= low
            new = adj[low.bit_length() - 1] & ~seen
            seen |= new
            front |= new
        comps.append(seen)
        left ^= seen
    return comps


def cell_budget(budget: int | None) -> int:
    """The cell cap in force: `budget`, or CELL_BUDGET when it is None."""
    if budget is None:
        return CELL_BUDGET
    if budget < 0:
        raise DomainError(f"cell budget must be >= 0, got {budget}")
    return budget


def _complete_target_cells(adj, n: int) -> int:
    """Cells of Hom(G,K_n), K_n loopless, without enumerating them.

    A cell is an n-tuple of independent sets of G that covers V(G)
    (I_c = {x : c in eta(x)}), so by inclusion-exclusion over the covered
    set S it is sum_S (-1)^|V-S| i(G[S])^n, where i counts independent sets,
    the empty one included (Babson & Kozlov 2006).  ind[S] is filled one
    vertex at a time: i(S+v) = i(S) + i(S - N(v)); a looped v adds nothing.
    """
    ind = [1]
    for v, row in enumerate(adj):
        if row >> v & 1:
            ind += ind
        else:
            ind += [i + ind[s & ~row] for s, i in enumerate(ind)]
    full = len(ind) - 1
    return sum(-i ** n if (full ^ s).bit_count() & 1 else i ** n
               for s, i in enumerate(ind))


def build_hom(g: Graph, h: Graph, budget: int | None = None) -> HomComplex:
    """Enumerate all of Hom(g,h); `budget` caps the cell count (see
    cell_budget).

    The cells are counted first in two cases: when every vertex of h is
    adjacent to every vertex, itself included, every tuple of nonempty
    masks is a cell, so there are (2^n - 1)^|V(g)|; and when h is a
    loopless complete graph, g has at most COUNT_MAX_VERTICES vertices,
    2^|V(g)| is within the budget and (2^n - 1)^|V(g)| is not, they are
    counted by _complete_target_cells.  Then an over-budget complex is
    refused with the exact count as `found`, and an enumeration that misses
    the count raises ConsistencyError.
    """
    if g.n < 1:
        raise DomainError("source graph needs at least one vertex")
    budget = cell_budget(budget)
    count = None
    full = (1 << h.n) - 1
    if all(row == full for row in h.adj):
        count, name = full ** g.n, f"K_{h.n} with every loop"
    elif (g.n <= COUNT_MAX_VERTICES and 1 << g.n <= budget < full ** g.n
            and all(row == full ^ 1 << v for v, row in enumerate(h.adj))):
        count, name = _complete_target_cells(g.adj, h.n), f"K_{h.n}"
    if count is not None:
        if count > budget:
            raise BudgetError(f"cell budget {budget} exceeded: "
                              f"Hom(G,{name}) has {count} cells", found=count)
        if count == 0:
            return HomComplex(g, h, [], whole=True)
    keys = enumerate_hom_cells(g.adj, h.adj, budget)
    if count is not None and len(keys) != count:
        raise ConsistencyError(f"enumerated {len(keys)} cells of "
                               f"Hom(G,{name}), counted {count}")
    return HomComplex(g, h, keys, whole=True)


def neighborhood_complex(g: Graph) -> HomComplex:
    """Lovasz's N(g): simplices = vertex sets with a common neighbor.

    It is the subcomplex of Hom(K_1, g), the full simplex on V(g), kept to
    those sets: one key per set, its vertex mask, so a face is a subset and
    the face data come from facet_scan like any Hom complex's.
    """
    keys = set()
    for nb in g.adj:
        sub = nb
        while sub:
            keys.add(sub)
            sub = (sub - 1) & nb
    return HomComplex(complete(1), g, keys)


def count_hom_components(g: Graph, h: Graph, budget: int | None = None) -> int:
    """b_0 of Hom(g,h) without building cells.

    The 0-cells are the homomorphisms, one key per map with the bit f(x)
    in vertex x's h.n-bit field (graphs.enumerate_homomorphisms); `budget`
    caps the maps listed, as resolved by cell_budget.  Maps f, f' that
    differ only on an independent set I of unlooped vertices are 0-cells
    of one cell (eta = {f(x), f'(x)} on I, f(x) elsewhere: no edge has both
    ends in I), so they lie in one component.  An edge of the complex joins
    maps that differ at one vertex x, and when x is looped their two values
    must be H-adjacent.  So the maps are grouped once per greedy colour
    class I of g's unlooped vertices, by their key with I's fields cleared;
    the largest class's groups are the union-find elements, and each other
    class joins every map's group to the group of its class representative
    (the last map of its class group).  A looped vertex adds the pairs of
    groups whose maps differ there by an H-edge.  One class's pairs are
    held at a time.
    """
    keys = enumerate_homomorphisms(g, h, cell_budget(budget))
    w = h.n
    shifts = [(g.n - 1 - x) * w for x in range(g.n)]
    field = (1 << w) - 1
    classes: list[int] = []
    for x in range(g.n):
        if not g.adj[x] >> x & 1:
            for i, c in enumerate(classes):
                if not g.adj[x] & c:
                    classes[i] = c | 1 << x
                    break
            else:
                classes.append(1 << x)
    # the largest class first leaves the fewest union-find elements: the
    # star K_{1,6} -> K_8 has 8 groups with its leaves cleared, against
    # one per leaf assignment with its centre cleared.  With no unlooped
    # vertex every map is its own first-class group.
    classes.sort(key=int.bit_count, reverse=True)
    clears = [~sum(field << shifts[x] for x in bits(c))
              for c in classes or [0]]
    ids = dict(zip(dict.fromkeys(map(clears[0].__and__, keys)), count()))
    group = list(map(ids.__getitem__, map(clears[0].__and__, keys)))

    def class_pairs(clear):
        # on the corpus a pair repeats about four times over; the set drops
        # the repeats at C speed, before the union-find sees them
        rep = dict(zip(map(clear.__and__, keys), group))
        return set(zip(group, map(rep.__getitem__, map(clear.__and__, keys))))

    def looped_pairs():
        for x in range(g.n):
            if not g.adj[x] >> x & 1:
                continue
            sh = shifts[x]
            clear = ~(field << sh)
            byval: dict[int, dict[int, int]] = {}
            for key, i in zip(keys, group):
                byval.setdefault(key & clear, {})[key >> sh & field] = i
            for vals in byval.values():
                items = sorted(vals.items())
                for a, i in items:
                    for b, j in items:
                        if a < b and h.adj[a.bit_length() - 1] & b:
                            yield i, j

    pairs = chain(chain.from_iterable(map(class_pairs, clears[1:])),
                  looped_pairs())
    return len(set(merge_classes(len(ids), pairs)))
