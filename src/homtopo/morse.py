"""Partial matchings on a complex's face data, acyclicity, and poset-map
fiber checks.  Acyclicity is a property of the Hasse diagram alone (Forman,
"Morse theory for cell complexes", Adv. Math. 134, 1998), so a matching
reads its complex's chain_data() and nothing else: the facets are the covers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetError, DomainError
from .formulas import kmn_cells
from .graphs import Graph, bits, complete
from .homcx import CELL_BUDGET, HomComplex, build_hom, neighborhood_complex
from .topology import Poset, face_poset


@dataclass
class PartialMatching:
    """mu maps matched-down cells of `carrier` to the coface each pairs with."""

    carrier: object
    mu: dict[int, int]

    def validate(self):
        facets = self.carrier.chain_data()[1]
        ups = set(self.mu.values())
        if len(ups) != len(self.mu):
            raise DomainError("matching is not injective")
        for x, y in self.mu.items():
            if x in ups or y in self.mu:
                raise DomainError(f"matching not a partial pairing at ({x},{y})")
            if not (0 <= y < len(facets) and x in facets[y]):
                raise DomainError(f"matched pair ({x},{y}) is not a covering")

    def critical_indices(self) -> list[int]:
        touched = set(self.mu) | set(self.mu.values())
        cells = len(self.carrier.chain_data()[0])
        return [i for i in range(cells) if i not in touched]

    def to_json_obj(self, acyclic: bool) -> dict:
        return {"acyclic": acyclic, "critical": len(self.critical_indices()),
                "matched_pairs": len(self.mu)}


def is_acyclic(m: PartialMatching) -> bool:
    """No directed cycle when matched covers point up and the rest down.

    Kahn's count (CACM 5, 1962): the cells no arc enters start a list, and
    each cell on it frees its successors of one arc; a successor left with
    none joins the list.  It reaches every cell iff there is no cycle.
    """
    m.validate()
    facets = m.carrier.chain_data()[1]
    out = [[j for j in fs if m.mu.get(j) != i] for i, fs in enumerate(facets)]
    for x, y in m.mu.items():
        out[x].append(y)
    into = [0] * len(out)
    for js in out:
        for j in js:
            into[j] += 1
    free = [i for i, k in enumerate(into) if not k]
    for i in free:  # grows while it is read
        for j in out[i]:
            into[j] -= 1
            if not into[j]:
                free.append(j)
    return len(free) == len(out)


def kmn_matching(m: int, n: int):
    """The collapse matching on A_1 inside Hom(K_m,K_n).

    A_1 keeps the cells whose entries away from vertex 0 avoid the last
    target vertex; eta with that vertex absent from eta(0) is matched with
    eta(0) extended by it.  Returns (matching, critical subcomplex); the
    critical cells are exactly those with eta(0) = {last}.  Vertex 0's
    field is the highest of a key, so each test is one mask on the key and
    eta is facet [0] of its partner, which adds the key's highest bit.

    The cell count of Hom(K_m,K_n) is checked against CELL_BUDGET before
    anything is enumerated.
    """
    if not 2 <= m <= n:
        raise DomainError(f"need 2 <= m <= n, got ({m},{n})")
    cells = kmn_cells(m, n)
    if cells > CELL_BUDGET:
        raise BudgetError(f"cell budget {CELL_BUDGET} exceeded: "
                          f"Hom(K_{m},K_{n}) has {cells} cells", found=cells)
    x = build_hom(complete(m), complete(n))
    # the last target's bit in vertex 0's field, and in all the others
    last0 = 1 << (m * n - 1)
    rest = sum(1 << (v * n + n - 1) for v in range(m - 1))
    a1 = HomComplex(x.g, x.h, [k for k in x.keys if not k & rest])
    facets, top0 = a1.chain_data()[1], 1 << (n - 1)
    mu = {facets[i][0]: i for i, k in enumerate(a1.keys)
          if k & last0 and k >> (m - 1) * n != top0}
    crit = [k for k in a1.keys if k >> (m - 1) * n == top0]
    return PartialMatching(a1, mu), HomComplex(x.g, x.h, crit)


def critical_drops_to_smaller(critical: HomComplex, m: int, n: int) -> bool:
    """Does deleting vertex 0 carry the critical cells onto Hom(K_{m-1},K_{n-1})?"""
    small = build_hom(complete(m - 1), complete(n - 1))
    try:
        dropped = {small.key_of(critical.cell_of(k)[1:])
                   for k in critical.keys}
    except DomainError:  # a mask holds the last target, n - 1
        return False
    return dropped == set(small.keys)


@dataclass(frozen=True)
class PosetMap:
    source: Poset
    target: Poset
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != len(self.source):
            raise DomainError("map length != source size")
        for i in range(len(self.source)):
            for j in self.source.covers[i]:
                if not self.target.leq(self.values[j], self.values[i]):
                    raise DomainError(f"map not order-preserving at cover ({j},{i})")


def _fiber_masks(f: PosetMap) -> dict[int, int]:
    fib: dict[int, int] = {}
    for e, q in enumerate(f.values):
        fib[q] = fib.get(q, 0) | (1 << e)
    return fib


def _greatest(p: Poset, mask: int):
    for g in bits(mask):
        if mask & ~(p.below[g] | (1 << g)) == 0:
            return g
    return None


def check_quillen_B(f: PosetMap) -> bool:
    """For every p and q <= f(p): does the fiber over q under p have a
    greatest element?"""
    fib = _fiber_masks(f)
    src, tgt = f.source, f.target
    for p in range(len(src)):
        under = src.below[p] | (1 << p)
        fp = f.values[p]
        for q in list(bits(tgt.below[fp])) + [fp]:
            part = fib.get(q, 0) & under
            if part == 0 or _greatest(src, part) is None:
                return False
    return True


def check_quillen_A_proxy(f: PosetMap) -> bool:
    """Is every fiber nonempty with a greatest element (so contractible)?"""
    fib = _fiber_masks(f)
    return all(fib.get(q, 0) and _greatest(f.source, fib[q]) is not None
               for q in range(len(f.target)))


def neighborhood_poset_map(g: Graph):
    """The cell map (A,B) -> A from Hom(K_2,g) to the neighborhood complex.

    Returns (PosetMap, hom complex, neighborhood complex).
    """
    x = build_hom(complete(2), g)
    nc = neighborhood_complex(g)
    src = face_poset(x)
    tgt = face_poset(nc)
    index = nc.index()
    values = []
    for k in x.keys:
        a, _ = x.cell_of(k)
        values.append(index[tuple(bits(a))])
    return PosetMap(src, tgt, tuple(values)), x, nc
