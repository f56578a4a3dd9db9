"""Simplicial complexes, posets, GF(2) homology, components.

Every complex object in the package exposes `chain_data() -> (dims, facets)`
where `dims[i]` is the cell dimension and `facets[i]` lists the indices of
the codimension-1 faces of cell i (each exactly once: regular CW / ordered
Delta-complex boundary over GF(2)).  The functions here consume only that.

`SimplicialComplex` is the one simplicial complex class: simplices are
vertex tuples, and a simplex's facets are the tuples one vertex shorter.
`order_complex` builds one from a poset's chains, each a simplex with its
elements as vertices; on the face poset of a regular CW complex it is the
barycentric subdivision.  `Poset.chains` builds the chains a length at a
time, each extended by every element above its greatest one, then sorts
once.  `SimplicialComplex.chain_data` takes the simplices a block of equal
length at a time, with one column of face indices per dropped position,
so the per-simplex work runs in C-level map and itemgetter calls.  Each
row is sorted: a chain lists its elements least first, not in ascending
index order, so the indices of its facets need not ascend.

`betti_gf2` checks the chain data one cell at a time (facet dimensions,
two endpoints per 1-cell, and the boundary of the boundary of that cell
over GF(2), from the sorted facets of its facets), with no full boundary
column and no cofacet list.  It then removes Mrozek-Batko coreduction pairs
(Mrozek & Batko, "Coreduction homology algorithm", DCG 41, 2009): a
spanning forest over the 1-cells, then in-order sweeps over each dimension
from 2 up, which need only the facets.  GF(2) elimination runs only on the
cells that are left; MATRIX_BIT_CAP bounds those residue
matrices, checked before any of their columns is built.  The residue is
ranked from its top dimension down with clearing (Chen & Kerber,
"Persistent homology computation with a twist", EuroCG 2011): a reduced
column of d_{k+1} whose lowest bit is row i makes column i of d_k a sum of
the columns after it, so that column is never built.

A complex may also offer `factors()`, complexes whose product it is cell by
cell (HomComplex does for a disconnected source, after checking the
product).  From SPLIT_MIN_CELLS cells up, `betti_gf2` then runs on each
factor alone and convolves their Betti numbers and f-vectors, by the
Kunneth theorem over the field GF(2) (Hatcher, Algebraic Topology,
Thm 3B.6); the product's chain data is never built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import compress, count, groupby
from operator import itemgetter

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


@dataclass(frozen=True)
class BettiProfile:
    betti: tuple[int, ...]
    euler: int
    f_vector: tuple[int, ...]

    def to_json_obj(self) -> dict:
        return {"betti": list(self.betti), "euler": self.euler,
                "f_vector": list(self.f_vector)}


class SimplicialComplex:
    """Simplicial complex of vertex tuples, closed under nonempty faces.

    A simplex is a chain, least first, or ascending vertex numbers; its
    facets are the simplices that drop one vertex.  `simplices`, given in
    lexicographic order, is sorted in place, stably by length: (length,
    tuple) order.
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

    def index(self) -> dict[tuple[int, ...], int]:
        """Simplex -> its position in `simplices`."""
        return self._index

    def chain_data(self):
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
            self._chain = (dims, facets)
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

    def less(self, i: int, j: int) -> bool:
        return bool(self.below[j] >> i & 1)

    def leq(self, i: int, j: int) -> bool:
        return i == j or self.less(i, j)

    def op(self) -> "Poset":
        top = max(self.grades, default=0)
        covers = [[] for _ in self.grades]
        for i, cov in enumerate(self.covers):
            for j in cov:
                covers[j].append(i)
        return Poset([top - g for g in self.grades], covers)

    def chains(self, mask: int | None = None) -> list[tuple[int, ...]]:
        """All nonempty chains inside `mask` (default: every element), each
        as a tuple of its elements from least to greatest, in lexicographic
        order.  They are built a length at a time: each chain of one level
        grows by every element of the mask above its greatest element."""
        n = len(self.grades)
        if mask is None:
            mask = (1 << n) - 1
        elif mask >> n:
            raise DomainError(f"mask {mask:#x} names an element outside "
                              f"the {n}-element poset")
        # ups[j]: the 1-tuples of the elements of the mask above j
        ups = [[(i,) for i in bits(m & mask)] for m in self.above]
        level = [(i,) for i in bits(mask)]
        out = []
        while level:
            out += level
            level = [c + u for c in level for u in ups[c[-1]]]
        out.sort()
        return out


def face_poset(c) -> Poset:
    """The face poset of a complex: elements are its cells, covers = facets."""
    dims, facets = c.chain_data()
    return Poset(dims, facets)


def order_complex(p: Poset, mask: int | None = None) -> SimplicialComplex:
    """The order complex of the chains inside `mask` (default: all of p)."""
    return SimplicialComplex(p.chains(mask))


def f_vector(c) -> tuple[int, ...]:
    dims, _ = c.chain_data()
    if not dims:
        return ()
    out = [0] * (max(dims) + 1)
    for d in dims:
        out[d] += 1
    return tuple(out)


def merge_classes(n: int, pairs) -> list[int]:
    """Union-find over range(n): labels[i] names the class of i once every
    (i, j) in `pairs` is merged; equal labels mean the same class."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in pairs:
        parent[find(i)] = find(j)
    return [find(i) for i in range(n)]


def skeleton_labels(c) -> tuple[list[int], list[int]]:
    """(dims, labels): cells with equal labels lie in one component of the
    1-skeleton of c."""
    dims, facets = c.chain_data()
    return dims, merge_classes(len(dims), ((i, j) for i, d in enumerate(dims)
                                           if d == 1 for j in facets[i]))


def connected_components(c) -> int:
    """Components of the 1-skeleton; equals b_0 by CW connectivity."""
    dims, labels = skeleton_labels(c)
    return len({labels[i] for i, d in enumerate(dims) if d == 0})


def _coreduce(dims, facets):
    """Mrozek-Batko coreduction of chain data, swept up by dimension.

    Every removal is elementary: a cell with exactly one facet left goes
    together with that facet.  Removing a (d-1, d) pair changes the count
    of facets left only for cells of dimensions d and d + 1, so the
    dimensions can be swept in turn, from the bottom up, with no cofacet
    lists.

    Dimensions 0 and 1: a 0-cell that nothing has reached yet is removed
    as the seed of a new component, and a breadth-first spanning tree over
    the 1-cells grows from it; each 0-cell it reaches is removed with the
    1-cell that reached it, whose other endpoint was already gone.  Only
    the 0-cells get lists of their 1-cells.

    Dimension d >= 2: passes over the d-cells still present, in cell
    order, each removing every cell with exactly one facet left together
    with that facet.  A pass visits only the cells that the one before
    left with two or more facets, and the dimension ends with a pass that
    removes nothing.  So a dimension costs passes x cells: at most 8
    passes, this last one included, on the benchmark workloads (seeds 1, 7
    and 7919, three labellings each) and on Hom(petersen, K4).

    Returns (mate, seeds).  mate[i] is -1 for a cell left in the residue, i
    itself for a 0-cell taken as the seed of a component, and otherwise the
    cell removed together with i: a coface whose only facet still present
    was i, or that facet.  The residue, with the boundary restricted to it,
    has the GF(2) homology of the whole complex minus one b_0 generator for
    each of the `seeds` components.  A component is emptied of 0-cells
    before the next seed only if every 1-cell has two distinct endpoints,
    which betti_gf2 checks first.
    """
    mate = [-1] * len(dims)
    star: dict[int, list[int]] = {v: [] for v in _cells_of(dims, 0)}
    for e in _cells_of(dims, 1):
        a, b = facets[e]
        star[a].append(e)
        star[b].append(e)
    seeds = 0
    for v in star:
        if mate[v] >= 0:
            continue
        # a 0-cell nothing has reached yet starts a new component
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
    del star
    for d in range(2, max(dims, default=-1) + 1):
        todo = _cells_of(dims, d)
        paired = True
        while paired:
            paired = False
            keep = []  # cells with two or more facets left
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
    return mate, seeds


def _cells_of(dims, d):
    """The cells of dimension d, ascending, without building a list."""
    return compress(count(), map(d.__eq__, dims))


def _check_cells(dims, facets) -> list[int]:
    """One pass over the cells: the f-vector, or ConsistencyError.

    Every facet of a k-cell must have dimension k - 1, and a 1-cell must
    have two distinct endpoints.  For a cell of dimension >= 2 the facets
    of its facets are sorted: its boundary squares to zero over GF(2) iff
    every index occurs an even number of times, iff s[::2] == s[1::2].
    """
    f = [0] * (max(dims, default=-1) + 1)
    for i, fs in enumerate(facets):
        d = dims[i]
        f[d] += 1
        below = d - 1
        s = []  # the facets of the facets, with multiplicity
        for j in fs:
            if dims[j] != below:
                raise ConsistencyError(
                    f"cell {i} (dim {d}) has a facet of dim {dims[j]}")
            s += facets[j]
        if d >= 2:
            s.sort()
            if s[::2] != s[1::2]:
                raise ConsistencyError(f"boundary square nonzero at cell {i}")
        elif d == 1 and (len(fs) != 2 or fs[0] == fs[1]):
            # coreduction seeds one 0-cell per component; that counts b_0
            # only if every 1-cell joins two distinct 0-cells
            raise ConsistencyError(
                f"1-cell {i} does not have two distinct endpoints")
    return f


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
    Otherwise the facet checks and the boundary-square check run cell by
    cell on the whole complex (_check_cells), and coreduction sweeps it up
    by dimension (_coreduce); neither builds a full boundary column or a
    cofacet list.  GF(2) elimination runs only on the coreduction residue,
    whose boundary matrices are checked against MATRIX_BIT_CAP before any
    of their columns is built.

    The residue is ranked with clearing, from the top dimension down.  The
    rank of d_{k+1} reports its pivot rows, the lowest rows of its reduced
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
    dims, facets = c.chain_data()
    if not dims:
        return BettiProfile((), 0, ())
    f = _check_cells(dims, facets)
    mate, seeds = _coreduce(dims, facets)
    top = len(f) - 1
    # the residue by dimension; a cell's row is its place in its dimension
    cells: list[list[int]] = [[] for _ in range(top + 1)]
    local: dict[int, int] = {}
    for i in [i for i, m in enumerate(mate) if m < 0]:
        same_dim = cells[dims[i]]
        local[i] = len(same_dim)
        same_dim.append(i)
    rf = list(map(len, cells))
    for k in range(1, top + 1):
        if rf[k] * rf[k - 1] > MATRIX_BIT_CAP:
            raise ResourceError(f"residue boundary matrix {rf[k - 1]}x{rf[k]}"
                                f" exceeds {MATRIX_BIT_CAP} bits")
    # clearing, from the top down: the pivot rows of d_{k+1} are k-cells
    # whose columns of d_k need not be built
    ranks = [0] * (top + 2)
    cleared: set[int] = set()
    for k in range(top, 0, -1):
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
