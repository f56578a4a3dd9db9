"""The four benchmark workloads: seeded inputs, timed cases and their oracles.

A case is a timed call into homtopo's public API plus an untimed check of
its result against an oracle that does not reuse the code under test: the
wedge formula f(m,n), the cycle component count, the sphere and product of
sphere profiles of trees and forests, the Babson-Kozlov connectivity bound
(Hom(G,K_n) is (n - maxdeg(G) - 2)-connected), the chromatic number, and
the Euler identity checked against an f-vector the benchmark counts itself.
Checks raise nothing and use no ``assert``, so ``python -O`` keeps them.

Layers are reached through module attributes (``homcx.build_hom``, not a
name imported into this file) so that the traced pass sees every call.

The seed feeds ``fold_pairs`` and ``random_graphs`` and picks the vertex
relabellings of the fixed corpus graphs, a fresh one for each pass of a run
(``variant``), so that one run averages over several labellings.  Every
oracle is invariant under relabelling; cell order, enumeration order and
hashing are not, and one labelling can make a case 40% slower than another.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial
from typing import Callable

from homtopo import (corpus, equivariant, folds, formulas, graphs, homcx,
                     morse, topology)
from homtopo.errors import BudgetError
from homtopo.graphs import Graph, complete, cycle

WORKLOADS = ("betti-sweep", "fold-sweep", "components", "equivariant")

# filter cap of the fold-sweep corpus (verify's fast setting): a build that
# hits it is counted as a cap hit, not as a failure
FOLD_CELL_CAP = 6_000
# random betti-sweep pairs must fit under this cap when they are drawn
RANDOM_CELL_CAP = 300
RANDOM_PAIRS = 400


@dataclass
class Case:
    label: str
    run: Callable[[], object]
    # untimed: returns a mismatch message or None, and adds sizes to tally
    check: Callable[[object, dict], str | None]
    capped: bool = False


# ------------------------------------------------------------ oracles

def trim(betti) -> list[int]:
    out = list(betti)
    while out and out[-1] == 0:
        out.pop()
    return out


def sphere(d: int) -> list[int]:
    return [2] if d == 0 else [1] + [0] * (d - 1) + [1]


def product_of_spheres(k: int, d: int) -> list[int]:
    if d == 0:
        return [2 ** k]
    out = [0] * (k * d + 1)
    for j in range(k + 1):
        out[j * d] += comb(k, j)
    return out


def wedge_profile(m: int, n: int) -> list[int]:
    """Betti numbers of Hom(K_m,K_n): a wedge of f(m,n) (n-m)-spheres."""
    if m > n:
        return []
    if m == n:
        return [factorial(n)]
    return trim([1] + [0] * (n - m - 1) + [formulas.f_wedge(m, n)])


def big_components(g: Graph) -> int:
    """Connected components with at least one edge."""
    seen = out = 0
    for v in range(g.n):
        if seen >> v & 1:
            continue
        comp, frontier = 1 << v, 1 << v
        while frontier:
            nxt = 0
            for w in range(g.n):
                if frontier >> w & 1:
                    nxt |= g.adj[w]
            frontier = nxt & ~comp
            comp |= frontier
        seen |= comp
        out += comp.bit_count() >= 2
    return out


def max_degree(g: Graph) -> int:
    return max((row.bit_count() for row in g.adj), default=0)


def euler_problem(f_vector, betti) -> str | None:
    chi_f = sum((-1) ** k * x for k, x in enumerate(f_vector))
    chi_b = sum((-1) ** k * x for k, x in enumerate(betti))
    if chi_f != chi_b:
        return f"Euler {chi_f} from f-vector != {chi_b} from Betti"
    return None


def hom_f_vector(x) -> tuple[int, ...]:
    """f-vector of a Hom complex counted from its packed keys."""
    f: list[int] = []
    for k in x.keys:
        d = k.bit_count() - x.n_g
        while len(f) <= d:
            f.append(0)
        f[d] += 1
    return tuple(f)


def check_hom_betti(x, prof, tally, expect=None, target_n=None):
    """Euler identity, f-vector, connectivity bound, then `expect`."""
    f = hom_f_vector(x)
    tally["cells"] = tally.get("cells", 0) + len(x.keys)
    if tuple(prof.f_vector) != f:
        return f"f-vector {prof.f_vector} != counted {f}"
    problem = euler_problem(f, prof.betti)
    if problem:
        return problem
    if target_n is not None and x.keys:
        for i in range(target_n - max_degree(x.g) - 1):
            if i < len(prof.betti) and prof.betti[i] != (i == 0):
                return f"b_{i} = {prof.betti[i]} breaks the connectivity bound"
    if expect is not None and trim(prof.betti) != expect:
        return f"Betti {trim(prof.betti)} != {expect}"
    return None


def valid_isomorphism(g: Graph, h: Graph, f) -> bool:
    if f is None or len(f) != g.n or sorted(f) != list(range(h.n)):
        return False
    return all((g.adj[u] >> v & 1) == (h.adj[f[u]] >> f[v] & 1)
               for u in range(g.n) for v in range(g.n))


# ------------------------------------------------------------ inputs

def relabel(g: Graph, seed: int, variant: int, name: str) -> Graph:
    perm = list(range(g.n))
    random.Random(f"{seed}/{variant}/{name}").shuffle(perm)
    adj = [0] * g.n
    for u in range(g.n):
        for v in range(g.n):
            if g.adj[u] >> v & 1:
                adj[perm[u]] |= 1 << perm[v]
    return Graph(g.n, tuple(adj))


def hom_betti(g: Graph, h: Graph, budget=None):
    x = homcx.build_hom(g, h, budget)
    return x, topology.betti_gf2(x)


def betti_case(label, g, n, expect=None, budget=None, capped=False):
    h = complete(n)
    return Case(label, lambda: hom_betti(g, h, budget),
                lambda r, t: check_hom_betti(r[0], r[1], t, expect, n),
                capped)


def _grid(max_n):
    return [(m, n) for m in range(2, 5) for n in range(m, max_n + 1)]


@lru_cache(maxsize=None)
def random_pairs(seed: int, tiny: bool) -> list[tuple[Graph, int]]:
    """Seeded random (G, n) with G on 4-7 vertices, Hom(G,K_n) under the cap."""
    want = 4 if tiny else RANDOM_PAIRS
    cap = RANDOM_CELL_CAP // 3 if tiny else RANDOM_CELL_CAP
    rng = random.Random(f"{seed}/targets")
    out = []
    for g in corpus.random_graphs(8 * want, seed, 4, 7):
        n = rng.randint(3, 5)
        try:
            homcx.build_hom(g, complete(n), budget=cap)
        except BudgetError:
            continue
        out.append((g, n))
        if len(out) == want:
            return out
    raise RuntimeError(f"seed {seed}: too few random pairs under the cap")


def betti_sweep(seed: int, variant: int, tiny: bool) -> list[Case]:
    cases = [betti_case(f"K{m}->K{n}", complete(m), n, wedge_profile(m, n))
             for m, n in _grid(5 if tiny else 7)]
    for t in range(3, 7 if tiny else 10):
        c = relabel(cycle(t), seed, variant, f"C{t}")
        want = formulas.cycle_components(t)
        cases.append(Case(
            f"C{t}->K3", lambda c=c: hom_betti(c, complete(3)),
            lambda r, tl, want=want: check_hom_betti(r[0], r[1], tl, None, 3)
            or (None if r[1].betti[0] == want
                else f"b_0 {r[1].betti[0]} != cycle_components {want}")))
    c5 = relabel(cycle(5), seed, variant, "C5")
    cases.append(betti_case("C5->K4", c5, 4, [1, 1, 1, 1]))
    if not tiny:
        cases.append(betti_case("C5->K5", c5, 5))
    for i, (g, n) in enumerate(random_pairs(seed, tiny)):
        cases.append(betti_case(f"random{i}->K{n}", g, n))
    return cases


@lru_cache(maxsize=None)
def fold_pairs(seed: int, tiny: bool):
    return corpus.fold_pairs(3 if tiny else 30, seed,
                             FOLD_CELL_CAP // 3 if tiny else FOLD_CELL_CAP)


def fold_sweep(seed: int, variant: int, tiny: bool) -> list[Case]:
    cases = []
    max_v = 4 if tiny else 7
    cap = FOLD_CELL_CAP // 3 if tiny else FOLD_CELL_CAP
    k2 = complete(2)
    for g, h in fold_pairs(seed, tiny):
        v = folds.smallest_policy(folds.dominated_pairs(g)).v
        cases.append(Case(f"fold {g.adj}->{h.adj}",
                          lambda g=g, h=h, v=v: (hom_betti(g, h),
                                                 hom_betti(folds.fold(g, v), h)),
                          _check_fold))
    for size in range(2, max_v + 1):
        for i, t in enumerate(corpus.all_trees(size)):
            t = relabel(t, seed, variant, f"tree{size}.{i}")
            cases.append(core_case(f"core tree{size}.{i}", t, k2))
            for n in (3, 4, 5):
                cases.append(betti_case(f"tree{size}.{i}->K{n}", t, n,
                                        sphere(n - 2), cap, True))
    for size in range(1, max_v + 1):
        for i, fo in enumerate(corpus.all_forests(size)):
            fo = relabel(fo, seed, variant, f"forest{size}.{i}")
            cg = graphs.complement(fo)
            m = graphs.max_independent_set(fo)
            big = big_components(fo)
            cases.append(core_case(f"core co-forest{size}.{i}", cg,
                                   complete(m)))
            for n in (3, 4, 5):
                cases.append(betti_case(f"forest{size}.{i}->K{n}", fo, n,
                                        product_of_spheres(big, n - 2),
                                        cap, True))
                cases.append(betti_case(f"co-forest{size}.{i}->K{n}", cg, n,
                                        wedge_profile(m, n), cap, True))
    for m in range(2, 5 if tiny else 7):
        for n in range(m, 5 if tiny else 7):
            cases.append(Case(f"kmn {m},{n}",
                              lambda m=m, n=n: _kmn(m, n),
                              lambda r, t, m=m, n=n: _check_kmn(r, t, m, n)))
    return cases


def _check_fold(r, tally):
    (x, before), (y, after) = r
    return (check_hom_betti(x, before, tally)
            or check_hom_betti(y, after, tally)
            or (None if trim(before.betti) == trim(after.betti)
                else f"fold changed Betti {before.betti} -> {after.betti}"))


def core_case(label, g, want):
    def run():
        core, trace = folds.irreducible_core(g)
        return core, trace, graphs.find_isomorphism(core, want)

    def check(r, tally):
        core, trace, iso = r
        tally["folds"] = tally.get("folds", 0) + len(trace.removed)
        if not valid_isomorphism(core, want, iso):
            return f"core on {core.n} vertices is not K_{want.n}"
        return None

    return Case(label, run, check)


def _kmn(m, n):
    pm, crit = morse.kmn_matching(m, n)
    return (pm, morse.is_acyclic(pm),
            morse.critical_drops_to_smaller(crit, m, n),
            topology.betti_gf2(pm.carrier))


def _check_kmn(r, tally, m, n):
    pm, acyclic, drops, prof = r
    if not acyclic:
        return "matching has a cycle"
    if not drops:
        return "critical cells do not drop to Hom(K_{m-1},K_{n-1})"
    return check_hom_betti(pm.carrier, prof, tally, wedge_profile(m - 1, n - 1))


# with these, one pass of components takes 15 s (K16->K8 7-10 s,
# petersen->K5 5 s) and one of equivariant 17 s (coloring_bound(K6) 14 s):
# a 20 s run then holds a single pass and its metrics spread 15-40% over
# seeds, so they are left out
HEAVY_COMPONENTS = ("K16", "petersen")
HEAVY_EQUIVARIANT = ("K6",)


def corpus_graphs(seed: int, variant: int, tiny: bool,
                  skip) -> dict[str, Graph]:
    return {name: relabel(g, seed, variant, name)
            for name, g in corpus.loopless_corpus(5 if tiny else None).items()
            if g.num_edges() and name not in skip}


def components(seed: int, variant: int, tiny: bool) -> list[Case]:
    cases = []
    for name, g in corpus_graphs(seed, variant, tiny,
                                 HEAVY_COMPONENTS).items():
        # K_{d+2} and, on up to 7 vertices, K_{d+3}: both are connected by
        # the Babson-Kozlov bound
        for extra in (2, 3) if g.n <= 7 else (2,):
            h = complete(max_degree(g) + extra)
            cases.append(Case(
                f"components {name}->K{h.n}",
                lambda g=g, h=h: homcx.count_hom_components(g, h),
                lambda r, t: None if r == 1 else f"{r} components"))
    for t in range(3, 7 if tiny else 10):
        c = relabel(cycle(t), seed, variant, f"C{t}")
        want = formulas.cycle_components(t)
        cases.append(Case(
            f"components C{t}->K3",
            lambda c=c: topology.connected_components(
                homcx.build_hom(c, complete(3))),
            lambda r, tl, want=want: None if r == want
            else f"{r} components, cycle_components says {want}"))
    return cases


TIGHT = ("K3", "K4", "K5", "C5", "petersen")


def equivariant_sweep(seed: int, variant: int, tiny: bool) -> list[Case]:
    cases = []
    for name, g in corpus_graphs(seed, variant, tiny,
                                 HEAVY_EQUIVARIANT).items():
        cases.append(Case(f"bound {name}",
                          lambda g=g: equivariant.coloring_bound(g, 2),
                          lambda r, t, g=g, name=name: _check_bound(
                              r, g, 2, name in TIGHT)))
    k5 = complete(5)
    cases.append(Case("bound K5 m=3",
                      lambda: equivariant.coloring_bound(k5, 3),
                      lambda r, t: _check_bound(r, k5, 3, False)))
    for n in range(3, 6 if tiny else 7):
        cases.append(Case(f"Hom(K2,K{n})/swap", lambda n=n: _rp(n),
                          lambda r, t, n=n: _check_rp(r, t, n)))
    return cases


def _check_bound(b, g, m, tight):
    chi = graphs.chromatic_number(g)
    if not m <= b <= chi:
        return f"bound {b} outside [{m}, chi={chi}]"
    if tight and b != chi:
        return f"bound {b} != chi {chi}"
    return None


def _rp(n):
    x = homcx.build_hom(complete(2), complete(n))
    q = equivariant.quotient(x, equivariant.induced_involution(x, (1, 0)))
    return q, topology.betti_gf2(q)


def _check_rp(r, tally, n):
    q, prof = r
    tally["simplices"] = tally.get("simplices", 0) + len(q.simplices)
    f = [0] * (q.dim + 1)
    for s in q.simplices:
        f[len(s) - 1] += 1
    if tuple(prof.f_vector) != tuple(f):
        return f"f-vector {prof.f_vector} != counted {f}"
    problem = euler_problem(f, prof.betti)
    if problem:
        return problem
    if trim(prof.betti) != [1] * (n - 1):
        return f"Betti {trim(prof.betti)} != RP^{n - 2}"
    return None


CASE_LISTS = {
    "betti-sweep": betti_sweep,
    "fold-sweep": fold_sweep,
    "components": components,
    "equivariant": equivariant_sweep,
}


def make_cases(workload: str, seed: int, variant: int,
               tiny: bool) -> list[Case]:
    return CASE_LISTS[workload](seed, variant, tiny)
