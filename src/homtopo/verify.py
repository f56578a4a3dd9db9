"""Named verification checks: each acceptance property runs as one check
with an explicit expected/computed pair, assembled into an ordered report.

Checks are independent and run one after another in the requested order;
all values are plain JSON types so identical runs emit identical bytes.
"""

from __future__ import annotations

import time
from itertools import permutations
from math import comb, factorial

from .corpus import (all_forests, all_trees, fold_pairs, loopless_corpus,
                     random_graphs)
from .equivariant import (OrbitComplex, coloring_bound,
                          has_invariant_component, induced_involution,
                          sw_height)
from .errors import BudgetError, DomainError, ResourceError
from .folds import core_uniqueness_check, dominated_pairs, fold, \
    irreducible_core, smallest_policy
from .formulas import (cycle_components, f_table, f_wedge, mn_face_poset,
                       rho_isomorphism_check, verify_generating_identity)
from .graphs import (Graph, are_isomorphic, chromatic_number, complement,
                     complete, cycle, max_independent_set)
from .homcx import _components, build_hom, count_hom_components
from .morse import (check_quillen_A_proxy, check_quillen_B,
                    critical_drops_to_smaller, is_acyclic, kmn_matching,
                    neighborhood_poset_map)
from .topology import (betti_gf2, connected_components, f_vector, face_poset,
                       find_poset_isomorphism)

# both suites: the corpus seed, the fold pairs drawn, and the random graphs
# and tie-break policies of the core-uniqueness check
SEED = 0
FOLD_PAIRS = 30
CORE_GRAPHS = 50
CORE_TRIALS = 20

# cell_cap bounds each complex the fold check builds; hom_work_budget is the
# most homomorphisms the connectivity check lists for one pair; a pair with
# more is skipped
SUITES = {
    "fast": {"full": False, "cell_cap": 6_000, "hom_work_budget": 3_000_000},
    "full": {"full": True, "cell_cap": 20_000, "hom_work_budget": 30_000_000},
}


def _trim(betti) -> list[int]:
    """Betti profile with trailing zeros dropped (padding-insensitive)."""
    out = list(betti)
    while out and out[-1] == 0:
        out.pop()
    return out


def _sphere(d: int) -> list[int]:
    """GF(2) Betti of S^d (d >= 0)."""
    return [2] if d == 0 else [1] + [0] * (d - 1) + [1]


def _product_of_spheres(k: int, d: int) -> list[int]:
    """GF(2) Betti of (S^d)^k: coefficients of (1 + t^d)^k."""
    if d == 0:
        return [2 ** k]
    out = [0] * (k * d + 1)
    for j in range(k + 1):
        out[j * d] += comb(k, j)
    return out


def _wedge_profile(m: int, n: int) -> list[int]:
    if m == n:
        return [factorial(n)]
    return _trim([1] + [0] * (n - m - 1) + [f_wedge(m, n)])


def check_wedge_counts(cfg: dict):
    pairs = [(m, n) for m in range(2, 5) for n in range(m, 8)]
    expected = {f"{m},{n}": _wedge_profile(m, n) for m, n in pairs}
    computed = {f"{m},{n}": _trim(betti_gf2(build_hom(complete(m),
                                                      complete(n))).betti)
                for m, n in pairs}
    return expected, computed


def check_formula_tri_agreement(cfg: dict):
    # f_table raises ConsistencyError on any disagreement; the count shows
    # that every (m, n) with m <= n <= 12 was walked
    table = f_table(12, 12)
    methods_agree = len(table) == 12 * 13 // 2
    gen = all(verify_generating_identity(m, 12) for m in range(1, 13))
    chi = all(r["chi"] == 1 + (-1) ** (r["n"] - r["m"]) * r["f"]
              for r in table)
    expected = {"methods": True, "generating": True, "chi-identity": True}
    return expected, {"methods": methods_agree, "generating": gen,
                      "chi-identity": chi}


def check_sphere_polytope(cfg: dict):
    expected: dict = {}
    computed: dict = {}
    for n in range(3, 7):
        expected[f"betti-K2K{n}"] = _sphere(n - 2)
        computed[f"betti-K2K{n}"] = _trim(
            betti_gf2(build_hom(complete(2), complete(n))).betti)
    for n in (2, 3, 4):
        expected[f"rho-{n}"] = True
        computed[f"rho-{n}"] = rho_isomorphism_check(n)
    expected["search-2"] = True
    q = face_poset(build_hom(complete(2), complete(3))).op()
    computed["search-2"] = find_poset_isomorphism(mn_face_poset(2), q) \
        is not None
    return expected, computed


def check_cycle_examples(cfg: dict):
    x5 = build_hom(cycle(5), complete(3))
    x6 = build_hom(cycle(6), complete(3))
    x7 = build_hom(cycle(7), complete(3))
    f6 = f_vector(x6)
    expected = {"C5-f": [30, 30], "C5-betti": [2, 2], "C7-betti": [2, 2],
                "C7-components": 2, "C6-components": 7, "C6-3cells": 6,
                "c_t-match": True}
    computed = {
        "C5-f": list(f_vector(x5)),
        "C5-betti": _trim(betti_gf2(x5).betti),
        "C7-betti": _trim(betti_gf2(x7).betti),
        "C7-components": connected_components(x7),
        "C6-components": connected_components(x6),
        "C6-3cells": f6[3] if len(f6) > 3 else 0,
        "c_t-match": all(
            connected_components(build_hom(cycle(t), complete(3)))
            == cycle_components(t) for t in range(3, 10)),
    }
    return expected, computed


def _cayley_matches(n: int) -> bool:
    """1-skeleton of Hom(K_{n-1},K_n) vs the Cayley graph of S_n generated
    by the transpositions (j, n-1), via the completion bijection: a
    permutation's first n-1 values, one bit per field, are a 0-cell's key."""
    x = build_hom(complete(n - 1), complete(n))
    data = x.chain_data()
    n0, n01 = data.ranges[1:3]
    verts, cayley = [], set()
    for pi in permutations(range(n)):
        masks = [1 << v for v in pi]
        verts.append(x.key_of(masks[:n - 1]))
        for j in range(n - 1):
            tau = masks[:]
            tau[j], tau[n - 1] = tau[n - 1], tau[j]
            cayley.add(frozenset((verts[-1], x.key_of(tau[:n - 1]))))
    if x.keys[:n0] != sorted(verts):
        return False
    edges = {frozenset(x.keys[j] for j in data[1][i]) for i in range(n0, n01)}
    return edges == cayley


def check_cayley_graph(cfg: dict):
    expected = {"n=3": True, "n=4": True}
    return expected, {f"n={n}": _cayley_matches(n) for n in (3, 4)}


def _betti_within(g: Graph, h: Graph, cap: int):
    try:
        return _trim(betti_gf2(build_hom(g, h, budget=cap)).betti)
    except (BudgetError, ResourceError):
        return None


def _big_component_count(fo: Graph) -> int:
    """Connected components with at least two vertices."""
    return sum(c.bit_count() >= 2 for c in _components(fo.adj))


def check_fold_soundness(cfg: dict):
    failures: list[str] = []
    pairs = fold_pairs(FOLD_PAIRS, SEED, cfg["cell_cap"])
    for g, h in pairs:
        r = smallest_policy(dominated_pairs(g))
        before = betti_gf2(build_hom(g, h)).betti
        after = betti_gf2(build_hom(fold(g, r.v), h)).betti
        if _trim(before) != _trim(after):
            failures.append(f"pair {g.adj}->{h.adj}")
    k2 = complete(2)
    checked = 0
    for size in range(2, 8):
        for t in all_trees(size):
            if not are_isomorphic(irreducible_core(t)[0], k2):
                failures.append(f"tree core {t.adj}")
            for n in (3, 4, 5):
                got = _betti_within(t, complete(n), cfg["cell_cap"])
                if got is not None:
                    checked += 1
                    if got != _sphere(n - 2):
                        failures.append(f"tree betti {t.adj} n={n}")
    for size in range(1, 8):
        for fo in all_forests(size):
            m = max_independent_set(fo)
            cg = complement(fo)
            if not are_isomorphic(irreducible_core(cg)[0], complete(m)):
                failures.append(f"forest core {fo.adj}")
            big = _big_component_count(fo)
            for n in (3, 4, 5):
                got = _betti_within(fo, complete(n), cfg["cell_cap"])
                if got is not None:
                    checked += 1
                    if got != _product_of_spheres(big, n - 2):
                        failures.append(f"forest betti {fo.adj} n={n}")
                got = _betti_within(cg, complete(n), cfg["cell_cap"])
                if got is not None:
                    checked += 1
                    if got != (_wedge_profile(m, n) if m <= n else []):
                        failures.append(f"forest complement {fo.adj} n={n}")
    expected = {"pairs": FOLD_PAIRS, "failures": [],
                "enough-direct-betti": True}
    computed = {"pairs": len(pairs), "failures": failures[:10],
                "enough-direct-betti": checked >= 30}
    return expected, computed, {"direct-betti-checked": checked}


def check_core_uniqueness(cfg: dict):
    graphs = random_graphs(CORE_GRAPHS, SEED + 1, n_lo=4, n_hi=10,
                           require_edge=False)
    bad = sum(1 for g in graphs if not core_uniqueness_check(g, CORE_TRIALS))
    expected = {"graphs": CORE_GRAPHS, "non-unique": 0}
    return expected, {"graphs": len(graphs), "non-unique": bad}


def check_morse_kmn(cfg: dict):
    failures = []
    for m in range(2, 7):
        for n in range(m, 7):
            pm, crit = kmn_matching(m, n)
            if not is_acyclic(pm):
                failures.append(f"acyclic {m},{n}")
            if not critical_drops_to_smaller(crit, m, n):
                failures.append(f"critical {m},{n}")
            a1 = _trim(betti_gf2(pm.carrier).betti)
            small = _trim(betti_gf2(
                build_hom(complete(m - 1), complete(n - 1))).betti)
            if a1 != small:
                failures.append(f"betti {m},{n}")
    return {"failures": []}, {"failures": failures}


def check_quillen(cfg: dict):
    failures = []
    for name, g in loopless_corpus(7).items():
        pmap, x, nc = neighborhood_poset_map(g)
        if not check_quillen_B(pmap):
            failures.append(f"B {name}")
        if not check_quillen_A_proxy(pmap):
            failures.append(f"A-proxy {name}")
        if _trim(betti_gf2(x).betti) != _trim(betti_gf2(nc).betti):
            failures.append(f"betti {name}")
    return {"failures": []}, {"failures": failures}


def check_equivariant_bounds(cfg: dict):
    expected: dict = {}
    computed: dict = {}
    for n in (3, 4, 5):
        x = build_hom(complete(2), complete(n))
        a = induced_involution(x, (1, 0))
        expected[f"rp-betti-{n}"] = [1] * (n - 1)
        computed[f"rp-betti-{n}"] = _trim(betti_gf2(OrbitComplex(x, a)).betti)
        expected[f"height-{n}"] = n - 2
        computed[f"height-{n}"] = sw_height(x, a)
    x = build_hom(complete(2), complete(4))
    a = induced_involution(x, (1, 0))
    expected["seed-independent"] = True
    computed["seed-independent"] = all(
        sw_height(x, a, rep_seed=s) == 2 for s in (1, 2, 3))
    x34 = build_hom(complete(3), complete(4))
    a34 = induced_involution(x34, (1, 0, 2))
    # height >= 1 means w != 0, i.e. no equivariant map to antipodal S^0,
    # which the component analysis must confirm independently
    expected["k3k4-height"] = 1
    computed["k3k4-height"] = sw_height(x34, a34)
    expected["k3k4-invariant-component"] = True
    computed["k3k4-invariant-component"] = has_invariant_component(x34, a34)

    sound = []
    tight = {}
    tight_expect = {"K3": 3, "K4": 4, "K5": 5, "K6": 6, "C5": 3,
                    "petersen": 3}
    skipped = []
    for name, g in loopless_corpus().items():
        if g.num_edges() == 0:
            continue
        try:
            b = coloring_bound(g, 2)
        except ResourceError:
            skipped.append(name)
            continue
        chi = chromatic_number(g)
        if b > chi:
            sound.append(f"{name}: bound {b} > chi {chi}")
        if name in tight_expect:
            tight[name] = b
    expected["soundness-failures"] = []
    computed["soundness-failures"] = sound
    expected["tight"] = tight_expect
    computed["tight"] = tight
    return expected, computed, {"skipped": skipped}


def check_connectivity(cfg: dict):
    failures = []
    checked = 0
    skipped = []
    for name, g in loopless_corpus().items():
        if g.num_edges() == 0:
            continue
        d = max(g.degree(v) for v in range(g.n))
        cols = (d + 2, d + 3) if cfg["full"] else (d + 2,)
        for n in cols:
            try:
                comps = count_hom_components(g, complete(n),
                                             budget=cfg["hom_work_budget"])
            except BudgetError:
                skipped.append(f"{name},{n}")
                continue
            checked += 1
            if comps != 1:
                failures.append(f"{name},{n}: {comps}")
    expected = {"failures": [], "enough-checked": True}
    computed = {"failures": failures, "enough-checked": checked >= 10}
    return expected, computed, {"checked": checked, "skipped": skipped}


def check_exclusions(cfg: dict):
    # out-of-scope results are replaced by the property checks above; the
    # one in-scope fragment is the GF(2) Betti spot-check below
    excluded = ["odd-cycle-chromatic-proof", "stiefel-homeomorphism",
                "integral-torsion"]
    expected = {"excluded": excluded, "C5K4-betti": [1, 1, 1, 1]}
    x = build_hom(cycle(5), complete(4))
    return expected, {"excluded": excluded,
                      "C5K4-betti": _trim(betti_gf2(x).betti)}


CHECKS = {
    "wedge-counts": check_wedge_counts,
    "formula-tri-agreement": check_formula_tri_agreement,
    "sphere-polytope": check_sphere_polytope,
    "cycle-examples": check_cycle_examples,
    "cayley-graph": check_cayley_graph,
    "fold-soundness": check_fold_soundness,
    "core-uniqueness": check_core_uniqueness,
    "morse-kmn": check_morse_kmn,
    "quillen": check_quillen,
    "equivariant-bounds": check_equivariant_bounds,
    "connectivity": check_connectivity,
    "exclusions": check_exclusions,
}


def run_checks(names, suite: str) -> dict:
    if suite not in SUITES:
        raise DomainError(f"unknown suite {suite!r}")
    cfg = SUITES[suite]
    todo = list(CHECKS) if names is None else list(names)
    for name in todo:
        if name not in CHECKS:
            raise DomainError(f"unknown check {name!r}")

    def run(name):
        t0 = time.perf_counter()
        notes = None
        try:
            out = CHECKS[name](cfg)
            expected, computed = out[0], out[1]
            notes = out[2] if len(out) > 2 else None
            status = "pass" if expected == computed else "fail"
        except Exception as e:  # a crashed check is a failed check
            expected = "no error"
            computed = f"{type(e).__name__}: {e}"
            status = "fail"
        row = {"name": name, "expected": expected, "computed": computed,
               "status": status,
               "elapsed": round(time.perf_counter() - t0, 3)}
        if notes:
            row["notes"] = notes
        return row

    rows = [run(name) for name in todo]
    ok = all(r["status"] == "pass" for r in rows)
    return {"suite": suite, "checks": rows, "status": "pass" if ok else "fail"}
