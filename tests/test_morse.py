"""Matching validity and acyclicity, the K_m/K_n collapse, and the fiber
conditions for poset maps."""

import random

import pytest

from homtopo import morse
from homtopo.errors import BudgetError, DomainError
from homtopo.graphs import complete, cycle, petersen
from homtopo.homcx import build_hom
from homtopo.morse import (PartialMatching, PosetMap, check_quillen_A_proxy,
                           check_quillen_B, critical_drops_to_smaller,
                           is_acyclic, kmn_matching, neighborhood_poset_map)
from homtopo.topology import (ChainData, Poset, SimplicialComplex, betti_gf2,
                              face_poset)


class Faces:
    """A carrier that is nothing but its face data."""

    def __init__(self, dims, facets):
        self.data = ChainData(dims, facets)

    def chain_data(self):
        return self.data


def segment():
    # {a}, {b} < {ab}
    return SimplicialComplex([(0,), (1,), (0, 1)])


def test_matching_validation():
    c = segment()
    PartialMatching(c, {0: 2}).validate()
    with pytest.raises(DomainError):
        PartialMatching(c, {0: 2, 1: 2}).validate()  # not injective
    with pytest.raises(DomainError):
        PartialMatching(c, {0: 1}).validate()        # not a covering
    for y in (3, -1):  # no such cell, and not one counted from the end
        with pytest.raises(DomainError):
            PartialMatching(c, {0: y}).validate()
    bigger = Faces([0, 1, 2], [[], [0], [1]])
    with pytest.raises(DomainError):
        PartialMatching(bigger, {0: 1, 1: 2}).validate()  # 1 used twice


def test_acyclic_positive():
    m = PartialMatching(segment(), {0: 2})
    assert is_acyclic(m)
    assert m.critical_indices() == [1]
    assert m.to_json_obj(True) == {"acyclic": True, "critical": 1,
                                   "matched_pairs": 1}


def test_acyclic_negative():
    # two vertices a,b and two edges x,y joining them; matching a->x, b->y
    # flows a->x->b->y->a
    c = Faces([0, 0, 1, 1], [[], [], [0, 1], [0, 1]])
    assert not is_acyclic(PartialMatching(c, {0: 2, 1: 3}))
    assert is_acyclic(PartialMatching(c, {0: 2}))


def random_matching(facets, rng):
    """Each cell, in random order, is matched with a random facet that is
    still free, most of the time."""
    used, mu = set(), {}
    for i in rng.sample(range(len(facets)), len(facets)):
        free = [j for j in facets[i] if j not in used]
        if i not in used and free and rng.random() < 0.8:
            j = rng.choice(free)
            mu[j] = i
            used |= {i, j}
    return mu


def has_cycle(facets, mu):
    """Oracle: a depth-first search for an arc back onto its own path, with
    matched covers pointing up and the rest down."""
    out = [[] for _ in facets]
    for i, fs in enumerate(facets):
        for j in fs:
            if mu.get(j) == i:
                out[j].append(i)
            else:
                out[i].append(j)
    state = [0] * len(facets)  # 0 unseen, 1 on the path, 2 done

    def visit(v):
        state[v] = 1
        for w in out[v]:
            if state[w] == 1 or not state[w] and visit(w):
                return True
        state[v] = 2
        return False

    return any(not state[v] and visit(v) for v in range(len(facets)))


def test_acyclic_agrees_with_a_cycle_search():
    rng = random.Random(2)
    outcomes = set()
    for g, h in [(complete(2), complete(4)), (cycle(5), complete(3)),
                 (complete(3), complete(4)), (complete(2), complete(5))]:
        x = build_hom(g, h)
        facets = x.chain_data()[1]
        for _ in range(150):
            mu = random_matching(facets, rng)
            acyclic = is_acyclic(PartialMatching(x, mu))
            assert acyclic == (not has_cycle(facets, mu))
            outcomes.add(acyclic)
    assert outcomes == {True, False}


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (2, 4), (3, 3), (3, 4),
                                 (3, 5), (4, 4), (4, 5), (5, 5)])
def test_kmn_matching(m, n):
    pm, crit = kmn_matching(m, n)
    assert is_acyclic(pm)
    # partition property: every A_1 cell is matched or critical
    assert 2 * len(pm.mu) + len(pm.critical_indices()) == len(pm.carrier)
    assert len(crit) == len(pm.critical_indices())
    assert len(crit) == len(build_hom(complete(m - 1), complete(n - 1)))
    assert critical_drops_to_smaller(crit, m, n)


@pytest.mark.parametrize("m,n", [(m, n) for n in range(2, 7)
                                 for m in range(2, n + 1)])
def test_kmn_pairs_match_a_key_dict(m, n):
    # oracle: each A_1 key without the last target at vertex 0 is paired
    # with that key plus it, both looked up in a dict over every key
    pm, _ = kmn_matching(m, n)
    keys = pm.carrier.keys
    idx = {k: i for i, k in enumerate(keys)}
    last0 = 1 << (m * n - 1)
    want = {idx[k]: idx[k | last0] for k in keys if not k & last0}
    assert list(pm.mu.items()) == list(want.items())


def test_kmn_subcomplex_shape():
    pm, _ = kmn_matching(3, 4)
    a1 = pm.carrier
    last = 3
    for k in a1.keys:
        cell = a1.cell_of(k)
        assert all(not cell[j] >> last & 1 for j in range(1, 3))
    assert betti_gf2(a1).betti == betti_gf2(build_hom(complete(2),
                                                      complete(3))).betti


def test_kmn_budget_checked_before_enumerating(monkeypatch):
    def no_build(*args):
        raise AssertionError("build_hom called past the budget")

    monkeypatch.setattr(morse, "build_hom", no_build)
    with pytest.raises(BudgetError) as err:
        kmn_matching(9, 12)
    assert err.value.found == 14_270_256_000
    with pytest.raises(BudgetError) as err:
        kmn_matching(2, 15)  # 3^15 - 2^16 + 1 cells, past CELL_BUDGET
    assert err.value.found == 14_283_372
    monkeypatch.setattr(morse, "CELL_BUDGET", 389)
    with pytest.raises(BudgetError) as err:
        kmn_matching(3, 5)
    assert err.value.found == 390
    monkeypatch.undo()
    monkeypatch.setattr(morse, "CELL_BUDGET", 390)  # exactly the cell count
    pm, _ = kmn_matching(3, 5)
    assert is_acyclic(pm)


def test_kmn_domain():
    with pytest.raises(DomainError):
        kmn_matching(1, 3)
    with pytest.raises(DomainError):
        kmn_matching(4, 3)


# ------------------------------------------------------------ poset maps

def test_poset_map_validation():
    chain = Poset([0, 1], [[], [0]])
    anti = Poset([0, 0], [[], []])
    PosetMap(chain, chain, (0, 1))
    with pytest.raises(DomainError):
        PosetMap(chain, chain, (1, 0))  # reverses the cover
    with pytest.raises(DomainError):
        PosetMap(anti, chain, (0,))


def test_quillen_b_identity():
    p = face_poset(build_hom(complete(2), complete(3)))
    f = PosetMap(p, p, tuple(range(len(p))))
    assert check_quillen_B(f) is True


def test_quillen_b_witness():
    chain = Poset([0, 1], [[], [0]])
    top_only = PosetMap(Poset([0], [[]]), chain, (1,))
    # the fiber over the bottom, under the one element, is empty
    assert check_quillen_B(top_only) is False
    bottom_only = PosetMap(Poset([0], [[]]), chain, (0,))
    assert check_quillen_B(bottom_only) is True


def test_quillen_a_proxy():
    chain = Poset([0, 1], [[], [0]])
    anti = Poset([0, 0], [[], []])
    point = Poset([0], [[]])
    assert check_quillen_A_proxy(PosetMap(chain, point, (0, 0))) is True
    # two incomparable elements: no greatest one
    assert check_quillen_A_proxy(PosetMap(anti, point, (0, 0))) is False
    # the top of the chain is missed: its fiber is empty
    assert check_quillen_A_proxy(PosetMap(point, chain, (0,))) is False
    assert check_quillen_A_proxy(PosetMap(chain, chain, (0, 1))) is True


@pytest.mark.parametrize("g", [cycle(5), complete(4), petersen()])
def test_neighborhood_map_fibers(g):
    f, x, nc = neighborhood_poset_map(g)
    assert check_quillen_B(f) is True
    assert check_quillen_A_proxy(f) is True
    assert betti_gf2(x).betti[0] == betti_gf2(nc).betti[0]
