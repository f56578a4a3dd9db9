"""Partial matchings on face posets, acyclicity, and poset-map fiber checks."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetError, DomainError
from .formulas import kmn_cells
from .graphs import Graph, bits, complete
from .homcx import CELL_BUDGET, HomComplex, build_hom, neighborhood_complex
from .topology import Poset, face_poset


@dataclass
class PartialMatching:
    """mu maps matched-down elements to the covering element they pair with."""

    poset: Poset
    mu: dict[int, int]
    carrier: object = None  # optional complex the poset came from

    def validate(self):
        ups = set(self.mu.values())
        if len(ups) != len(self.mu):
            raise DomainError("matching is not injective")
        for x, y in self.mu.items():
            if x in ups or y in self.mu:
                raise DomainError(f"matching not a partial pairing at ({x},{y})")
            if x not in self.poset.covers[y]:
                raise DomainError(f"matched pair ({x},{y}) is not a covering")

    def critical_indices(self) -> list[int]:
        touched = set(self.mu) | set(self.mu.values())
        return [i for i in range(len(self.poset)) if i not in touched]

    def to_json_obj(self, acyclic: bool) -> dict:
        return {"acyclic": acyclic, "critical": len(self.critical_indices()),
                "matched_pairs": len(self.mu)}


def is_acyclic(m: PartialMatching) -> bool:
    """No directed cycle when matched covers point up and the rest down."""
    m.validate()
    p = m.poset
    n = len(p)
    out: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        for j in p.covers[i]:
            if m.mu.get(j) == i:
                out[j].append(i)
            else:
                out[i].append(j)
    color = [0] * n  # 0 fresh, 1 on stack, 2 done
    for s in range(n):
        if color[s]:
            continue
        stack = [(s, 0)]
        color[s] = 1
        while stack:
            v, k = stack[-1]
            if k < len(out[v]):
                stack[-1] = (v, k + 1)
                w = out[v][k]
                if color[w] == 1:
                    return False
                if color[w] == 0:
                    color[w] = 1
                    stack.append((w, 0))
            else:
                color[v] = 2
                stack.pop()
    return True


def kmn_matching(m: int, n: int):
    """The collapse matching on A_1 inside Hom(K_m,K_n).

    A_1 keeps the cells whose entries away from vertex 0 avoid the last
    target vertex; eta with that vertex absent from eta(0) is matched with
    eta(0) extended by it.  Returns (matching, critical subcomplex); the
    critical cells are exactly those with eta(0) = {last}.

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
    w = n
    last = n - 1
    shift0 = (m - 1) * w
    full = (1 << w) - 1

    def in_a1(key: int) -> bool:
        for j in range(1, m):
            if key >> ((m - 1 - j) * w + last) & 1:
                return False
        return True

    a1_keys = [k for k in x.keys if in_a1(k)]
    a1 = HomComplex(x.g, x.h, a1_keys)
    idx = a1.index()
    mu: dict[int, int] = {}
    crit: list[int] = []
    for k in a1_keys:
        head = k >> shift0 & full
        if not head >> last & 1:
            mu[idx[k]] = idx[k | (1 << (shift0 + last))]
        elif head == 1 << last:
            crit.append(k)
    matching = PartialMatching(face_poset(a1), mu, carrier=a1)
    critical = HomComplex(x.g, x.h, crit)
    return matching, critical


def critical_drops_to_smaller(critical: HomComplex, m: int, n: int) -> bool:
    """Does deleting vertex 0 carry the critical cells onto Hom(K_{m-1},K_{n-1})?"""
    w = n
    full = (1 << (n - 1)) - 1
    dropped = set()
    for k in critical.keys:
        key2 = 0
        for j in range(1, m):
            mask = k >> ((m - 1 - j) * w) & ((1 << w) - 1)
            if mask & ~full:
                return False
            key2 |= mask << ((m - 2 - (j - 1)) * (n - 1))
        dropped.add(key2)
    small = build_hom(complete(m - 1), complete(n - 1))
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
