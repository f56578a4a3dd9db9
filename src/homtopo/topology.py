"""Simplicial complexes, posets, GF(2) homology, components.

Every complex object in the package exposes `chain_data()`, a ChainData:
the tuple (dims, facets) where `dims[i]` is the cell dimension and
`facets[i]` lists the indices of the codimension-1 faces of cell i (each
exactly once: regular CW / ordered Delta-complex boundary over GF(2)),
cells by nondecreasing dimension from 0.  The functions here consume only
that, and ChainData is the one reader of the layout, each read made once:
`ranges` checks the order and gives each dimension's index range (f_vector
is their lengths); `forest` checks the 0- and 1-cells and grows one
spanning forest, whose seeds count the components.

`SimplicialComplex` is the tuple layout, kept for order complexes:
simplices are vertex tuples, and a simplex's facets are the tuples one
vertex shorter.  Every other complex is packed keys.  `order_complex`
builds one from a poset's chains, each a simplex with its elements as
vertices; on the face poset of a regular CW complex it is the barycentric
subdivision.  Its one program reader is equivariant.quotient, which the
benchmark's RP^n case calls.  `Poset.chains` builds the chains a length at a
time, in sorted order, each extended by every element above its greatest.
`SimplicialComplex.chain_data` takes the simplices a block of equal
length at a time, with one column of face indices per dropped position,
so the per-simplex work runs in C-level map and itemgetter calls.  Each
row is sorted: a chain lists its elements least first, not in ascending
index order, so the indices of its facets need not ascend.

`betti_gf2` starts from that forest and sweeps the dimensions from 2 up,
over each one's range.  It checks each cell on one read (facet dimensions
and a nonempty boundary whose boundary is zero over GF(2), from the sorted
facets of its facets), with no full boundary column and no cofacet list,
and the same read counts the cell's facets left for Mrozek-Batko
coreduction (Mrozek & Batko, "Coreduction homology algorithm", DCG 41,
2009): the forest pairs 0-cells with 1-cells, then in-order passes over
each dimension need only the facets.  GF(2) elimination runs only on the
cells that are left; MATRIX_BIT_CAP bounds those residue matrices, checked
before any of their columns is built.  The residue is ranked from its top
dimension down with clearing (Chen & Kerber, "Persistent homology
computation with a twist", EuroCG 2011): a reduced column of d_{k+1} whose
lowest bit is row i makes column i of d_k a sum of the columns after it,
so that column is never built.  d_1 is never ranked: the forest leaves no
0-cell in the residue, so b_0 is the seed count.

A complex may also offer `factors()`, complexes whose product it is cell by
cell (HomComplex does for a disconnected source, after checking the
product).  From SPLIT_MIN_CELLS cells up, `betti_gf2` then runs on each
factor alone and convolves their Betti numbers and f-vectors, by the
Kunneth theorem over the field GF(2) (Hatcher, Algebraic Topology,
Thm 3B.6); the product's chain data is never built.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain, groupby, islice, pairwise
from operator import itemgetter, le

from ._kernels import gf2_rank
from .errors import ConsistencyError, DomainError, ResourceError
from .graphs import bits, match_arcs

MATRIX_BIT_CAP = 1 << 30
# betti_gf2 splits a complex into its factors only from this many cells up.
# Below it the factors' own builds and Betti runs cost more than one run on
# the whole: on random Hom(G,K_n) with G disconnected (2-vCPU Xeon), a
# 42-cell product split 7 x 6 took 1.6-2x as long, 126 cells about 1.1x,
# 144 cells about 0.9x and 210 cells about 0.7x.
SPLIT_MIN_CELLS = 128


class ChainData(tuple):
    """(dims, facets) of a complex and the two reads its consumers share,
    each made once: `ranges`, dim_ranges(dims) (the order check), and
    `forest`, _spanning_forest's (mate, seeds), which no reader changes."""

    def __new__(cls, dims, facets):
        return super().__new__(cls, (dims, facets))

    @cached_property
    def ranges(self) -> list[int]:
        return dim_ranges(self[0])

    @cached_property
    def forest(self) -> tuple[list[int], int]:
        return _spanning_forest(self)


@dataclass(frozen=True)
class BettiProfile:
    betti: tuple[int, ...]
    euler: int
    f_vector: tuple[int, ...]


class SimplicialComplex:
    """Simplicial complex of vertex tuples, closed under nonempty faces:
    order_complex's result, and the tests' reference layout.

    A simplex is a chain, least first, or ascending vertex numbers; its
    facets are the simplices that drop one vertex.  `simplices`, given in
    lexicographic or (length, tuple) order, is sorted in place, stably by
    length: (length, tuple) order.
    """

    def __init__(self, simplices: list[tuple[int, ...]]):
        simplices.sort(key=len)
        if simplices and not simplices[0]:
            raise DomainError("the empty simplex is not a simplex here")
        self.simplices = simplices
        self._index = {t: i for i, t in enumerate(simplices)}
        if len(self._index) != len(simplices):
            raise ConsistencyError("a simplex is listed more than once")
        self._chain = None

    def __len__(self):
        return len(self.simplices)

    @property
    def dim(self) -> int:
        return len(self.simplices[-1]) - 1 if self.simplices else -1

    def chain_data(self) -> ChainData:
        """(dims, facets); a face missing from the list raises
        ConsistencyError.

        One block of equal-length simplices at a time, one column per
        dropped position: the indices of the faces that drop it, looked up
        by C-level maps.  A row of the columns lists a simplex's facets.
        It is sorted: an ascending tuple's drops come in descending index
        order, but a chain of a poset lists its elements least first, in
        no fixed index order, so only a sort puts its facets in order.
        """
        if self._chain is None:
            index = self._index
            dims, facets = [], []
            for n, block in groupby(self.simplices, len):
                block = list(block)
                dims += [n - 1] * len(block)
                if n == 1:
                    facets += [[] for _ in block]
                    continue
                cols = []
                for p in range(n):
                    try:
                        cols.append(list(map(index.__getitem__,
                                             _drop(block, p))))
                    except KeyError as e:
                        face = e.args[0]
                        t = next(t for t, f in zip(block, _drop(block, p))
                                 if f == face)
                        raise ConsistencyError(
                            f"simplex {t} lacks the face {face}: "
                            "not face-closed") from None
                facets += map(sorted, zip(*cols))
            self._chain = ChainData(dims, facets)
            self._index = None  # read by nothing once the face data exist
        return self._chain


def _drop(block, p):
    """The faces of the equal-length simplices in `block` that drop
    position p, as tuples, lazily."""
    kept = [q for q in range(len(block[0])) if q != p]
    if len(kept) == 1:  # itemgetter of one position gives no tuple
        return zip(map(itemgetter(kept[0]), block))
    return map(itemgetter(*kept), block)


class Poset:
    """Finite graded poset; covers[i] lists the elements covered by i."""

    def __init__(self, grades, covers):
        self.grades = list(grades)
        self.covers = [sorted(c) for c in covers]
        for i, cov in enumerate(self.covers):
            for j in cov:
                if self.grades[j] >= self.grades[i]:
                    raise DomainError(
                        f"cover {j} -> {i} does not increase the grade")

    def __len__(self):
        return len(self.grades)

    @cached_property
    def below(self) -> list[int]:
        """below[i] = bitmask of elements strictly under i."""
        out = [0] * len(self.grades)
        for i in sorted(range(len(self.grades)), key=lambda v: self.grades[v]):
            m = 0
            for j in self.covers[i]:
                m |= out[j] | (1 << j)
            out[i] = m
        return out

    @cached_property
    def above(self) -> list[int]:
        out = [0] * len(self.grades)
        for j, m in enumerate(self.below):
            for i in bits(m):
                out[i] |= 1 << j
        return out

    def leq(self, i: int, j: int) -> bool:
        return i == j or bool(self.below[j] >> i & 1)

    def op(self) -> "Poset":
        top = max(self.grades, default=0)
        covers = [[] for _ in self.grades]
        for i, cov in enumerate(self.covers):
            for j in cov:
                covers[j].append(i)
        return Poset([top - g for g in self.grades], covers)

    def chains(self) -> list[tuple[int, ...]]:
        """All nonempty chains, each as a tuple of its elements from least
        to greatest, by length, then lexicographically: each chain of one
        level grows by every element above its greatest, in ascending
        order, so each level comes out sorted as the one below it is."""
        # ups[j]: the 1-tuples of the elements above j
        ups = [[(i,) for i in bits(m)] for m in self.above]
        level = [(i,) for i in range(len(self.grades))]
        out = []
        while level:
            out += level
            level = [c + u for c in level for u in ups[c[-1]]]
        return out


def face_poset(c) -> Poset:
    """The face poset of a complex: elements are its cells, covers = facets."""
    dims, facets = c.chain_data()
    return Poset(dims, facets)


def order_complex(p: Poset) -> SimplicialComplex:
    """The order complex of p: one simplex per chain."""
    return SimplicialComplex(p.chains())


def f_vector(c) -> tuple[int, ...]:
    """Cells per dimension: the lengths of the dimension ranges."""
    return tuple(b - a for a, b in pairwise(c.chain_data().ranges))


def merge_classes(n: int, pairs) -> list[int]:
    """Union-find over range(n): labels[i] names the class of i once every
    (i, j) in `pairs` is merged; equal labels mean the same class.

    Each root is the least element of its class, so parent[x] <= x
    throughout.  find runs inline, with path halving (`parent[i] = i =
    parent[p]` points i at its grandparent and steps there), and one
    ascending pass then leaves every element pointing at its root.
    """
    parent = list(range(n))
    for i, j in pairs:
        while (p := parent[i]) != i:
            parent[i] = i = parent[p]
        while (p := parent[j]) != j:
            parent[j] = j = parent[p]
        if i < j:
            parent[j] = i
        elif j < i:
            parent[i] = j
    for i, p in enumerate(parent):
        parent[i] = parent[p]
    return parent


def connected_components(c) -> int:
    """Components of the 1-skeleton (b_0): the spanning forest's seeds."""
    return c.chain_data().forest[1]


def dim_ranges(dims) -> list[int]:
    """lo, the d-cells being lo[d] .. lo[d + 1] - 1; ConsistencyError unless
    the cells come by nondecreasing dimension from 0 (one C-level pass)."""
    if not all(map(le, chain((0,), dims), dims)):
        raise ConsistencyError("cells are not listed by nondecreasing "
                               "dimension from 0")
    return [bisect_left(dims, d) for d in range(dims[-1] + 2 if dims else 1)]


def _spanning_forest(data: ChainData):
    """(mate, seeds), or ConsistencyError unless the cells come in order
    (data.ranges) and every 0-cell has no facets and every 1-cell joins two
    distinct 0-cells.

    A 0-cell nothing has reached yet seeds a new component, and a tree over
    the 1-cells grows from it breadth first, pairing each 0-cell it reaches
    with the 1-cell that reached it: mate[i] is i for a seed, the cell
    paired with i, or -1.  seeds counts the components of the 1-skeleton.
    """
    dims, facets = data
    # lo[1] and lo[2]; every range past the top dimension ends at len(dims)
    n0, n01 = (*data.ranges, len(dims), len(dims))[1:3]
    mate = [-1] * len(dims)
    for v in range(n0):
        if facets[v]:
            raise ConsistencyError(f"0-cell {v} has a facet")
    star: list[list[int]] = [[] for _ in range(n0)]
    for e in range(n0, n01):
        fs = facets[e]
        # a facet list not of length 2 fails as (0, 0): one end twice
        a, b = fs if len(fs) == 2 else (0, 0)
        if a == b or not (0 <= a < n0 and 0 <= b < n0):
            raise ConsistencyError(
                f"1-cell {e} does not join two distinct 0-cells")
        star[a].append(e)
        star[b].append(e)
    seeds = 0
    for v in range(n0):
        if mate[v] >= 0:
            continue
        mate[v] = v
        seeds += 1
        reached = [v]
        for u in reached:  # grows while it is read: breadth first
            for e in star[u]:
                if mate[e] < 0:
                    a, b = facets[e]
                    w = b if a == u else a
                    if mate[w] < 0:
                        mate[w] = e
                        mate[e] = w
                        reached.append(w)
    return mate, seeds


def _check_and_coreduce(data: ChainData):
    """Check the cells and remove Mrozek-Batko coreduction pairs in one
    sweep up the dimensions: (f, mate, seeds), or ConsistencyError.

    data.forest checks the order and the 0- and 1-cells and pairs the
    forest's, on a copy of its mate.  From dimension 2 up, one read of each
    d-cell checks that its facets lie in the range of dimension d - 1 and
    that its boundary is nonempty and squares to zero over GF(2): every
    index occurs an even number of times among the sorted facets of its
    facets, iff s[::2] == s[1::2] (by induction up the dimensions, s is
    empty only when the facet list is).  The same read counts the cell's facets left: a cell with
    exactly one is removed with that facet; later passes revisit, in cell
    order, only the cells left with two or more, until one removes nothing
    (at most 8 passes per dimension on the benchmark workloads, seeds 1, 7
    and 7919, and on Hom(petersen, K4)).  Removing a (d-1, d) pair changes
    the count of facets left only in dimensions d and d + 1, so one sweep
    from the bottom up is complete and needs no cofacet lists.

    mate[i] is -1 for a cell left in the residue, i for a seed, and
    otherwise the cell removed with i.  The residue, with the boundary
    restricted to it, has the GF(2) homology of the complex minus one b_0
    generator per seed: two distinct endpoints per 1-cell leave each
    component empty of 0-cells before the next seed.
    """
    facets, lo = data[1], data.ranges
    mate, seeds = data.forest
    mate = mate[:]  # the forest belongs to the layout
    for d in range(2, len(lo) - 1):
        below, start = lo[d - 1], lo[d]
        paired = False
        todo = []  # cells with two or more facets left
        for c in range(start, lo[d + 1]):
            s = []  # the facets of the facets, with multiplicity
            left = 0
            for j in facets[c]:
                if not below <= j < start:
                    raise ConsistencyError(f"cell {c} (dim {d}) has a facet "
                                           f"{j} of dim other than {d - 1}")
                s += facets[j]
                if mate[j] < 0:
                    left += 1
                    one = j
            s.sort()
            if not s or s[::2] != s[1::2]:
                raise ConsistencyError(f"boundary of cell {c} is empty or "
                                       "does not square to zero")
            if left == 1:
                mate[c] = one
                mate[one] = c
                paired = True
            elif left:
                todo.append(c)
        while paired:
            paired = False
            keep = []
            for c in todo:
                one = -1
                for j in facets[c]:
                    if mate[j] < 0:
                        if one >= 0:
                            keep.append(c)
                            break
                        one = j
                else:
                    if one >= 0:
                        mate[c] = one
                        mate[one] = c
                        paired = True
            todo = keep
    return [b - a for a, b in pairwise(lo)], mate, seeds


def _convolve(a, b) -> tuple[int, ...]:
    """The graded sequence of a product: out[k] = sum of a[i] * b[k - i]."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def betti_gf2(c) -> BettiProfile:
    """GF(2) Betti numbers of a regular CW / ordered Delta complex.

    A complex of at least SPLIT_MIN_CELLS cells whose `factors()` lists
    factors is their product: each factor takes the path below, and the
    Betti numbers and f-vector are the convolutions of theirs (Kunneth over
    a field), with the Euler characteristic read from that f-vector.
    Otherwise one sweep up the dimensions checks every cell and removes
    coreduction pairs (_check_and_coreduce), with no full boundary column
    and no cofacet list.  GF(2) elimination runs only on the residue,
    listed by dimension from the same index ranges; its boundary matrices
    are checked against MATRIX_BIT_CAP before any of their columns is
    built.

    The residue is ranked with clearing, from the top dimension down to d_2.
    The rank of d_{k+1} reports its pivot rows, the lowest rows of its reduced
    columns; those k-cells are left out of d_k.  Each one's column lies in
    the span of the columns after it, so by induction from the last one
    down it lies in the span of the columns kept, and rank d_k is
    unchanged.
    """
    split = getattr(c, "factors", None)
    parts = split() if split and len(c) >= SPLIT_MIN_CELLS else ()
    if parts:
        profiles = [betti_gf2(p) for p in parts]
        betti = reduce(_convolve, (p.betti for p in profiles))
        f = reduce(_convolve, (p.f_vector for p in profiles))
        euler = sum((-1) ** k * fk for k, fk in enumerate(f))
        return BettiProfile(betti, euler, f)
    dims, facets = data = c.chain_data()
    if not dims:
        return BettiProfile((), 0, ())
    f, mate, seeds = _check_and_coreduce(data)
    top = len(f) - 1
    # the residue by dimension, each range taking the next f[d] indices; a
    # cell's row is its place in its dimension
    ids = iter(range(len(dims)))
    cells = [[i for i in islice(ids, n) if mate[i] < 0] for n in f]
    local = {i: r for same_dim in cells for r, i in enumerate(same_dim)}
    rf = list(map(len, cells))
    # the forest pairs or seeds every 0-cell, so d_1 is zero on the residue
    for k in range(2, top + 1):
        if rf[k] * rf[k - 1] > MATRIX_BIT_CAP:
            raise ResourceError(f"residue boundary matrix {rf[k - 1]}x{rf[k]}"
                                f" exceeds {MATRIX_BIT_CAP} bits")
    # clearing, from the top down: the pivot rows of d_{k+1} are k-cells
    # whose columns of d_k need not be built
    ranks = [0] * (top + 2)
    cleared: set[int] = set()
    for k in range(top, 1, -1):
        cols = []
        for r, i in enumerate(cells[k]):
            if r not in cleared:
                col = 0
                for j in facets[i]:
                    if mate[j] < 0:
                        col |= 1 << local[j]
                cols.append(col)
        cleared = set()
        if cols:
            ranks[k] = gf2_rank(cols, cleared)
    betti = [rf[k] - ranks[k] - ranks[k + 1] for k in range(top + 1)]
    betti[0] += seeds
    if min(betti) < 0:  # rank d_k + rank d_{k+1} > rf[k]: d d = 0 forbids it
        raise ConsistencyError(f"negative Betti number in {betti}")
    euler = sum((-1) ** k * fk for k, fk in enumerate(f))
    if euler != sum((-1) ** k * b for k, b in enumerate(betti)):
        raise ConsistencyError(
            f"Euler characteristic {euler} != alternating Betti sum of {betti}"
            f" ({seeds} coreduction seeds)")
    return BettiProfile(tuple(betti), euler, tuple(f))


POSET_ISO_CAP = 512


def find_poset_isomorphism(p: Poset, q: Poset) -> list[int] | None:
    """Search for an order isomorphism p -> q keeping grades; list or None."""
    if len(p) != len(q):
        return None
    if len(p) > POSET_ISO_CAP:
        raise ResourceError(
            f"poset isomorphism search capped at {POSET_ISO_CAP} elements")
    covers = ([sum(1 << j for j in c) for c in x.covers] for x in (p, q))
    return match_arcs(*covers, p.grades, q.grades)
