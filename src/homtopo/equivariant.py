"""Z/2-actions on Hom complexes, quotients, and the height of w_1.

A free involution a of Hom(G,H) induced by an automorphism gamma of G acts
on cell orbits, and the orbits form a regular CW complex: a cell and its
image share no face.  If phi lay under both eta and eta∘gamma, the
pointwise intersection of eta and eta∘gamma would contain phi, so it
would be a cell, and gamma would fix it.  (For the swap of vertices 0 and
1 of K_m this is plain: a face (A',B',...) and its swap (B',A',...) both
lie under eta = (A,B,...) only if A' lies in A and B, which are disjoint.)
So the facets of an orbit are the orbits of the facets of either cell in
it, each once.

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
from dataclasses import dataclass
from itertools import repeat
from operator import lshift, or_, rshift

from . import topology
from ._kernels import gf2_in_span
from .errors import ConsistencyError, DomainError, ResourceError
from .graphs import Graph, bits, complete, validate_involution
from .homcx import HomComplex, build_hom
from .topology import (SimplicialComplex, betti_gf2, connected_components,
                       dim_ranges, f_vector, face_poset, order_complex)


@dataclass(frozen=True)
class Involution:
    perm: tuple[int, ...]       # on cell indices
    free: bool
    fixed: tuple[int, ...]      # fixed cell indices, if any


def induced_involution(x: HomComplex, gamma) -> Involution:
    """The cell map eta -> eta∘gamma for an automorphism gamma of the source.

    The image of a packed key moves fields, not cells: the fields of the
    vertices gamma fixes stay (k & keep), and each other vertex v takes the
    field of gamma[v] by one shift and mask, over all keys at once.  A
    complex not closed under gamma raises DomainError naming a cell whose
    image it lacks.
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
    index = x.index()
    try:
        perm = tuple(map(index.__getitem__, images))
    except KeyError:
        i = next(i for i, k in enumerate(images) if k not in index)
        raise DomainError(f"cell {x.cell_label(i)} has its image under "
                          f"gamma outside the complex") from None
    fixed = tuple(i for i, j in enumerate(perm) if i == j)
    return Involution(perm, not fixed, fixed)


def _require_free(x: HomComplex, a: Involution) -> None:
    if not a.free:
        raise DomainError(
            f"action is not free: cell {x.cell_label(a.fixed[0])} is fixed")


class OrbitComplex:
    """CW complex of the cell orbits {eta, a(eta)} of a free involution.

    x must list its cells in dimension order, as the chain-data protocol
    of topology requires; orbits are numbered by their lower cell index,
    so topology's dim_ranges finds _start[d], the first orbit of dimension d.
    reps[t] is the cell chosen to stand for orbit t.
    """

    def __init__(self, x, a: Involution, rep_seed: int | None = None):
        _require_free(x, a)
        xdims, xfacets = x.chain_data()
        rng = random.Random(rep_seed) if rep_seed is not None else None
        orb = [-1] * len(xdims)
        reps = []
        for i, j in enumerate(a.perm):
            if orb[i] < 0:
                orb[i] = orb[j] = len(reps)
                reps.append(j if rng is not None and rng.random() < 0.5 else i)
        dims = [xdims[r] for r in reps]
        facets = []
        for r in reps:
            fs = {orb[j] for j in xfacets[r]}
            if len(fs) != len(xfacets[r]):
                raise ConsistencyError(
                    f"two facets of cell {r} lie in one orbit of the involution")
            facets.append(sorted(fs))
        self.complex = x
        self.reps = reps
        self._chain = (dims, facets)
        self._start = dim_ranges(dims)
        # w_1^0: the all-ones 0-cochain, one bit per 0-orbit
        self._w = [(1 << (self._start[1] if dims else 0)) - 1]

    def __len__(self):
        return len(self.reps)

    @property
    def dim(self) -> int:
        return len(self._start) - 2

    def chain_data(self):
        return self._chain

    def coboundary_columns(self, k: int) -> list[int]:
        """delta: C^{k-1} -> C^k, one column per (k-1)-orbit, bits over the
        k-orbits in order."""
        if not 1 <= k <= self.dim:
            return []
        lo, mid, hi = self._start[k - 1:k + 2]
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
        xfacets = self.complex.chain_data()[1]
        reps, start = self.reps, self._start
        while len(self._w) <= k:
            d = len(self._w)
            vec = self._w[-1]
            # the lift: representatives of the (d-1)-orbits where vec is 1
            lo = start[d - 1]
            lift = {reps[lo + t] for t in bits(vec)}
            out = 0
            for s, t in enumerate(range(start[d], start[d + 1])):
                # delta_X of the lift on the representative of orbit t
                if sum(j in lift for j in xfacets[reps[t]]) & 1:
                    out |= 1 << s
            self._w.append(out)
        return self._w[k]


def orbit_complex(x, a: Involution, rep_seed: int | None = None) -> OrbitComplex:
    """The orbit complex of `a`; `rep_seed` picks the representative sheet
    at random (None: the lower cell index of each orbit)."""
    return OrbitComplex(x, a, rep_seed)


def quotient(x, a: Involution) -> SimplicialComplex:
    """The barycentric-subdivision quotient X/a: the order complex of the
    face poset of the orbit complex."""
    return order_complex(face_poset(orbit_complex(x, a)))


def _height(q: OrbitComplex, cap: int | None) -> int:
    top = q.dim
    cap = top if cap is None else min(cap, top)
    f = f_vector(q)
    for k in range(1, cap + 1):
        if f[k - 1] * f[k] > topology.MATRIX_BIT_CAP:
            raise ResourceError(f"coboundary matrix {f[k - 1]}x{f[k]} exceeds "
                                f"{topology.MATRIX_BIT_CAP} bits")
    for k in range(1, cap + 1):
        if gf2_in_span(q.coboundary_columns(k), q.w_power_vector(k)):
            return k - 1
    return cap


def sw_height(x, a: Involution, cap: int | None = None,
              rep_seed: int | None = None) -> int:
    """Largest k with w_1^k != 0 on the quotient (0 if w_1 = 0), at most `cap`.

    Every coboundary matrix up to `cap` is checked against MATRIX_BIT_CAP
    before any elimination runs.
    """
    return _height(orbit_complex(x, a, rep_seed), cap)


def has_invariant_component(x, a: Involution) -> bool:
    """Is some connected component mapped to itself?  (Blocks maps to S^0.)

    A fixed cell lies in one.  A free involution swaps the c - fixed
    components it does not fix in pairs, so X/a has (c + fixed) / 2.
    """
    return (not a.free or 2 * connected_components(orbit_complex(x, a))
            > connected_components(x))


def _swap_map(m: int) -> tuple[int, ...]:
    return (1, 0) + tuple(range(2, m))


def _swap_action(g: Graph, m: int, budget: int | None):
    """Hom(K_m,g) and the swap of K_m's vertices 0 and 1 acting on it."""
    if m < 2:
        raise DomainError("need m >= 2 for the swap action")
    if not g.is_loopless():
        raise DomainError("chromatic bound needs a loopless graph")
    x = build_hom(complete(m), g, budget)
    if not x.keys:
        raise DomainError(f"no homomorphisms from K_{m}; bound undefined")
    return x, induced_involution(x, _swap_map(m))


def coloring_bound(g: Graph, m: int = 2, budget: int | None = None) -> int:
    """Chromatic lower bound sw_height(Hom(K_m,g), swap) + m."""
    return sw_height(*_swap_action(g, m, budget)) + m


def equivariant_report(g: Graph, m: int = 2, budget: int | None = None) -> dict:
    x, a = _swap_action(g, m, budget)
    q = orbit_complex(x, a)
    k = _height(q, None)
    return {"free": a.free,
            "quotient_betti": list(betti_gf2(q).betti),
            "sw_height": k,
            "bound": k + m}
