"""Z/2-actions on Hom complexes, quotients, and the height of w_1.

A free involution a of Hom(G,H) induced by an automorphism gamma of G, held
as its permutation of cell indices, acts on cell orbits, and the orbits
form a regular CW complex: a cell and its image share no face.  If phi lay
under both eta and eta∘gamma, the pointwise intersection of eta and
eta∘gamma would contain phi, so it would be a cell, and gamma would fix
it.  (For the swap of vertices 0 and 1 of K_m this is plain: a face
(A',B',...) and its swap (B',A',...) both lie under eta = (A,B,...) only
if A' lies in A and B, which are disjoint.)  So the facets of an orbit are
the orbits of either cell's facets, each once, read off the representative.

w_1 and its cup powers come from the transfer (Smith-Gysin) sequence
0 -> C*(X/Z2) -> C*(X) -> C*(X/Z2) -> 0 over GF(2).  Its connecting map is
the cup product with w_1: lift a quotient cocycle onto the representatives
(zero on the other sheet), apply the coboundary of X, and read the result
off the representatives.  Starting from the all-ones 0-cochain, k steps
give a cocycle representing w_1^k.

`quotient` builds the barycentric subdivision of X/a as the order complex
of the orbit complex's face poset.  Each chain of orbits o_0 < ... < o_k
lifts to exactly one orbit {t, a(t)} of chains of X: the top cell is either
cell of o_k, and each lower cell is then forced, since no cell lies under
both eta and a(eta).  Dropping an orbit from the chain drops its cell from
the lift, so faces match too.  Heights and bounds do not use it.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import repeat
from operator import lshift, or_, rshift

from . import topology
from ._kernels import gf2_in_span
from .errors import ConsistencyError, DomainError, ResourceError
from .graphs import Graph, bits, complete, validate_involution
from .homcx import HomComplex, build_hom
from .topology import (ChainData, betti_gf2, f_vector, face_poset,
                       merge_classes)


def induced_involution(x: HomComplex, gamma) -> tuple[int, ...]:
    """The cell permutation eta -> eta∘gamma for an automorphism gamma of G.

    The image of a packed key moves fields, not cells: the fields of the
    vertices gamma fixes stay (k & keep), and each other vertex v takes the
    field of gamma[v] by one shift and mask, over all keys at once.  Sorted
    by image, a dimension block lists the cells whose images are its keys
    in key order, which is its share of the involution.  A cell whose image
    the complex lacks is named in a DomainError.
    """
    gamma = validate_involution(x.g, gamma)
    n, w = x.n_g, x.n_h
    full = (1 << w) - 1
    keep = 0
    moves = []  # (shift op, distance, destination field)
    for v in range(n):
        dst, src = (n - 1 - v) * w, (n - 1 - gamma[v]) * w
        if src == dst:
            keep |= full << dst
        elif src > dst:
            moves.append((rshift, src - dst, full << dst))
        else:
            moves.append((lshift, dst - src, full << dst))
    keys = x.keys
    images = list(map(keep.__and__, keys))
    for op, by, field in moves:
        images = list(map(or_, images,
                          map(field.__and__, map(op, keys, repeat(by)))))
    perm, a = [], 0
    while a < len(keys):
        b = bisect_right(keys, keys[a].bit_count(), a, key=int.bit_count)
        order = sorted(range(a, b), key=images.__getitem__)
        if list(map(images.__getitem__, order)) != keys[a:b]:
            block = set(keys[a:b])
            for i in range(a, b):
                if images[i] not in block:
                    raise DomainError(f"cell {x.cell_label(i)} has its image "
                                      f"under gamma outside the complex")
            raise ConsistencyError("a cell is listed more than once")
        perm += order
        a = b
    return tuple(perm)


class OrbitComplex:
    """CW complex of the cell orbits {eta, a(eta)} of a free involution a,
    given as its cell permutation; a fixed cell raises DomainError before
    any facet is read.

    Orbits are numbered by their lower cell index, so each dimension block
    of x holds half as many orbits, in order.  reps[t] is the cell chosen to
    stand for orbit t: the lower cell index of each orbit, or, given
    `rep_seed`, either cell at random from that seed.  Only the facets of
    the representatives are read, each as its orbit.
    """

    def __init__(self, x, a: tuple[int, ...], rep_seed: int | None = None):
        rng = random.Random(rep_seed) if rep_seed is not None else None
        orb = [-1] * len(a)
        self.reps = reps = []
        for i, j in enumerate(a):
            if i == j:
                raise DomainError(
                    f"action is not free: cell {x.cell_label(i)} is fixed")
            if orb[i] < 0:
                orb[i] = orb[j] = len(reps)
                reps.append(j if rng is not None and rng.random() < 0.5 else i)
        self._keys = rk = list(map(x.keys.__getitem__, reps))
        dims, facets = x.facet_scan(orb, lambda lo, hi: rk[lo // 2:hi // 2])
        for r, fs in zip(reps, facets):
            fs.sort()
            if len(set(fs)) != len(fs):
                raise ConsistencyError(
                    f"two facets of cell {r} lie in one orbit of the involution")
        self._chain = ChainData(dims, facets)
        # w_1^0: the all-ones 0-cochain, one bit per 0-orbit
        self._w = [(1 << (self._chain.ranges[1] if dims else 0)) - 1]

    def __len__(self):
        return len(self.reps)

    @property
    def dim(self) -> int:
        return len(self._chain.ranges) - 2

    def chain_data(self) -> ChainData:
        return self._chain

    def coboundary_columns(self, k: int) -> list[int]:
        """delta: C^{k-1} -> C^k, one column per (k-1)-orbit, bits over the
        k-orbits in order."""
        if not 1 <= k <= self.dim:
            return []
        lo, mid, hi = self._chain.ranges[k - 1:k + 2]
        facets = self._chain[1]
        cols = [0] * (mid - lo)
        for t in range(mid, hi):
            bit = 1 << (t - mid)
            for j in facets[t]:
                cols[j - lo] ^= bit
        return cols

    def w_power_vector(self, k: int) -> int:
        """A cocycle representing w_1^k, as a bitmask over the k-orbits."""
        if not 0 <= k <= self.dim:
            return 0
        facets, start, rk = self._chain[1], self._chain.ranges, self._keys
        while len(self._w) <= k:
            d = len(self._w)
            lift = {start[d - 1] + t for t in bits(self._w[-1])}
            out = 0
            for s, t in enumerate(range(start[d], start[d + 1])):
                # delta_X of the lift on t's representative: the lifted
                # facet orbits whose representatives its key contains
                key = rk[t]
                if sum(not rk[j] & ~key for j in facets[t] if j in lift) & 1:
                    out |= 1 << s
            self._w.append(out)
        return self._w[k]


def quotient(x, a: tuple[int, ...]) -> topology.SimplicialComplex:
    """The barycentric-subdivision quotient X/a: the order complex of the
    face poset of the orbit complex.  Only the benchmark's RP^n case and
    the tests build it; the program reads the orbit complex itself."""
    return topology.order_complex(face_poset(OrbitComplex(x, a)))


def _height(q: OrbitComplex) -> int:
    top = q.dim
    f = f_vector(q)
    for k in range(1, top + 1):
        if f[k - 1] * f[k] > topology.MATRIX_BIT_CAP:
            raise ResourceError(f"coboundary matrix {f[k - 1]}x{f[k]} exceeds "
                                f"{topology.MATRIX_BIT_CAP} bits")
    for k in range(1, top + 1):
        if gf2_in_span(q.coboundary_columns(k), q.w_power_vector(k)):
            return k - 1
    return top


def sw_height(x, a: tuple[int, ...], rep_seed: int | None = None) -> int:
    """Largest k with w_1^k != 0 on the quotient (0 if w_1 = 0).

    `rep_seed` picks each orbit's representative cell at random from that
    seed (None: the lower cell index); the height does not depend on it.
    Every coboundary matrix is checked against MATRIX_BIT_CAP before any
    elimination runs.
    """
    return _height(OrbitComplex(x, a, rep_seed))


def has_invariant_component(x, a: tuple[int, ...]) -> bool:
    """Is some connected component mapped to itself?  (Blocks maps to S^0.)

    Read on X's own 1-skeleton: every component holds a 0-cell and `a`
    permutes the 0-cells, so this holds iff some 0-cell v shares a component
    with a(v).  A fixed cell's component does: `a` permutes its 0-cells.
    """
    data = x.chain_data()
    data.forest  # checks the 0- and 1-cells
    n0, n01 = (*data.ranges, len(data[0]), len(data[0]))[1:3]
    labels = merge_classes(n0, data[1][n0:n01])
    return any(labels[v] == labels[a[v]] for v in range(n0))


def _swap_map(m: int) -> tuple[int, ...]:
    return (1, 0) + tuple(range(2, m))


def _swap_action(g: Graph, m: int, budget: int | None):
    """Hom(K_m,g) and its swap of K_m's vertices 0 and 1, a cell permutation;
    free, as a fixed eta has eta(0) = eta(1) and the edge 01 needs a loop."""
    if m < 2:
        raise DomainError("need m >= 2 for the swap action")
    if not g.is_loopless():
        raise DomainError("chromatic bound needs a loopless graph")
    x = build_hom(complete(m), g, budget)
    if not x.keys:
        raise DomainError(f"no homomorphisms from K_{m}; bound undefined")
    return x, induced_involution(x, _swap_map(m))


def coloring_bound(g: Graph, m: int) -> int:
    """Chromatic lower bound sw_height(Hom(K_m,g), swap) + m."""
    return sw_height(*_swap_action(g, m, None)) + m


def equivariant_report(g: Graph, m: int, budget: int | None) -> dict:
    x, a = _swap_action(g, m, budget)
    q = OrbitComplex(x, a)
    k = _height(q)
    return {"free": True,  # _swap_action admits no fixed cell
            "quotient_betti": list(betti_gf2(q).betti),
            "sw_height": k,
            "bound": k + m}
