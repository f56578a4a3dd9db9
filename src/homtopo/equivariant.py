"""Z/2-actions on Hom complexes, quotients, and the height of w_1.

The quotient of a free cellular involution is taken after one barycentric
subdivision: vertices are cell-orbits graded by cell dimension, simplices
are orbit-chains with a chosen lift.  Because the involution preserves
dimension and chains have strictly increasing dimension, no chain meets its
own image, faces of a simplex land on pairwise distinct orbit-chains, and
the Alexander-Whitney cup product applies in the grade order.

w labels an edge orbit-chain (c < d) by sheet(c) xor sheet(d), where
sheet = 0 exactly on the chosen orbit representatives: the classifying
cocycle of the double cover, so its cup powers represent powers of w_1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ._kernels import gf2_in_span
from .errors import DomainError
from .graphs import Graph, complete, validate_involution
from .homcx import HomComplex, build_hom
from .topology import betti_gf2, face_poset, skeleton_labels


@dataclass(frozen=True)
class Involution:
    carrier: object
    perm: tuple[int, ...]       # on cell indices
    free: bool
    fixed: tuple[int, ...]      # fixed cell indices, if any


def induced_involution(x: HomComplex, gamma) -> Involution:
    """The cell map eta -> eta∘gamma for an automorphism gamma of the source."""
    gamma = validate_involution(x.g, gamma)
    idx = x.index()
    perm = []
    for k in x.keys:
        cell = x.cell_of(k)
        image = tuple(cell[gamma[v]] for v in range(x.n_g))
        perm.append(idx[x.key_of(image)])
    perm = tuple(perm)
    fixed = tuple(i for i, j in enumerate(perm) if i == j)
    return Involution(x, perm, not fixed, fixed)


class QuotientComplex:
    """Ordered Delta-complex of orbit-chains of a free cellular involution."""

    def __init__(self, x, a: Involution, rep_seed: int | None = None):
        if not a.free:
            i = a.fixed[0]
            label = x.cell_label(i) if hasattr(x, "cell_label") else str(i)
            raise DomainError(f"action is not free: cell {label} is fixed")
        p = face_poset(x)
        perm = a.perm
        m = len(p)
        rng = random.Random(rep_seed) if rep_seed is not None else None
        orb = [-1] * m
        sheet = [0] * m
        reps = []
        grades = []
        for i in range(m):
            if orb[i] >= 0:
                continue
            j = perm[i]
            rep = i
            if rng is not None and rng.random() < 0.5:
                rep = j
            t = len(reps)
            orb[i] = orb[j] = t
            sheet[i] = 0 if i == rep else 1
            sheet[j] = 1 - sheet[i]
            reps.append(rep)
            grades.append(p.grades[i])
        self.complex = x
        self.perm = perm
        self.orb = orb
        self.sheet = sheet
        self.reps = reps
        self.orbit_grades = grades

        lifts = {}
        for chain in p.chains():
            mirror = tuple(perm[c] for c in chain)
            lift = min(chain, mirror)
            lifts[lift] = True
        self.simplices = sorted(lifts, key=lambda t: (len(t), t))
        self._index = {t: i for i, t in enumerate(self.simplices)}
        self._chain = None
        # local (within-dimension) numbering
        self._local = []
        self._buckets: list[list[int]] = []
        for i, t in enumerate(self.simplices):
            d = len(t) - 1
            while len(self._buckets) <= d:
                self._buckets.append([])
            self._local.append(len(self._buckets[d]))
            self._buckets[d].append(i)

    def __len__(self):
        return len(self.simplices)

    @property
    def dim(self) -> int:
        return len(self._buckets) - 1

    def _canon(self, t: tuple) -> tuple:
        return min(t, tuple(self.perm[c] for c in t))

    def face_index(self, i: int, drop: int) -> int:
        t = self.simplices[i]
        return self._index[self._canon(t[:drop] + t[drop + 1:])]

    def chain_data(self):
        if self._chain is None:
            dims = [len(t) - 1 for t in self.simplices]
            facets = []
            for i, t in enumerate(self.simplices):
                if len(t) == 1:
                    facets.append([])
                else:
                    facets.append(sorted(self.face_index(i, d)
                                         for d in range(len(t))))
            self._chain = (dims, facets)
        return self._chain

    def w_value(self, i: int) -> int:
        """The cup power w^k on the k-simplex i (k = its dimension)."""
        t = self.simplices[i]
        out = 1
        for a, b in zip(t, t[1:]):
            out &= self.sheet[a] ^ self.sheet[b]
        return out

    def w_power_vector(self, k: int) -> int:
        """w^k as a bitmask over the local order of k-simplices."""
        if k >= len(self._buckets):
            return 0
        vec = 0
        for pos, i in enumerate(self._buckets[k]):
            if self.w_value(i):
                vec |= 1 << pos
        return vec

    def coboundary_columns(self, k: int) -> list[int]:
        """delta: C^{k-1} -> C^k, one column per (k-1)-simplex."""
        if k >= len(self._buckets) or k < 1:
            return []
        cols = [0] * len(self._buckets[k - 1])
        for i in self._buckets[k]:
            s = self._local[i]
            t = self.simplices[i]
            for d in range(len(t)):
                cols[self._local[self.face_index(i, d)]] ^= 1 << s
        return cols


def quotient(x, a: Involution, rep_seed: int | None = None) -> QuotientComplex:
    return QuotientComplex(x, a, rep_seed)


def sw_height(x, a: Involution, cap: int | None = None,
              rep_seed: int | None = None) -> int:
    """Largest k with w^k not a coboundary on the quotient (0 if w is one)."""
    q = quotient(x, a, rep_seed)
    top = q.dim
    cap = top if cap is None else min(cap, top)
    for k in range(1, cap + 1):
        target = q.w_power_vector(k)
        if gf2_in_span(q.coboundary_columns(k), target):
            return k - 1
    return cap


def has_invariant_component(x, a: Involution) -> bool:
    """Is some connected component mapped to itself?  (Blocks maps to S^0.)"""
    dims, labels = skeleton_labels(x)
    return any(dims[i] == 0 and labels[i] == labels[a.perm[i]]
               for i in range(len(dims)))


def _swap_map(m: int) -> tuple[int, ...]:
    return (1, 0) + tuple(range(2, m))


def coloring_bound(g: Graph, m: int = 2, budget: int | None = None) -> int:
    """Chromatic lower bound sw_height(Hom(K_m,g), swap) + m."""
    if m < 2:
        raise DomainError("need m >= 2 for the swap action")
    if not g.is_loopless():
        raise DomainError("chromatic bound needs a loopless graph")
    x = build_hom(complete(m), g, budget)
    if not x.keys:
        raise DomainError(f"no homomorphisms from K_{m}; bound undefined")
    a = induced_involution(x, _swap_map(m))
    return sw_height(x, a) + m


def equivariant_report(g: Graph, m: int = 2, budget: int | None = None) -> dict:
    if m < 2:
        raise DomainError("need m >= 2 for the swap action")
    x = build_hom(complete(m), g, budget)
    if not x.keys:
        raise DomainError(f"no homomorphisms from K_{m}; bound undefined")
    a = induced_involution(x, _swap_map(m))
    q = quotient(x, a)
    k = sw_height(x, a)
    return {"free": a.free,
            "quotient_betti": list(betti_gf2(q).betti),
            "sw_height": k,
            "bound": k + m}
