"""Coreduction inside betti_gf2: differential properties against direct
elimination over every cell, a certificate for the pairing it removes, the
residue sizes that pin its queue order, and the Euler bookkeeping check."""

import os
import subprocess
import sys

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import homtopo
from homtopo import topology
from homtopo._kernels import pure
from homtopo.equivariant import _swap_map, induced_involution, quotient
from homtopo.errors import BudgetError, ConsistencyError
from homtopo.graphs import complete, cycle
from homtopo.homcx import build_hom
from homtopo.morse import PartialMatching, is_acyclic
from homtopo.topology import (SimplicialComplex, betti_gf2, face_poset,
                              order_complex)
from test_homcx import small_graphs
from test_topology import OpenEdge, posets


def direct_betti(c):
    """GF(2) Betti numbers by elimination over the full boundary matrices."""
    dims, facets = c.chain_data()
    if not dims:
        return ()
    top = max(dims)
    f = [0] * (top + 1)
    local = []
    for d in dims:
        local.append(f[d])
        f[d] += 1
    cols = [[] for _ in range(top + 1)]
    for i, d in enumerate(dims):
        col = 0
        for j in facets[i]:
            col |= 1 << local[j]
        cols[d].append(col)
    ranks = [0] * (top + 2)
    for k in range(1, top + 1):
        ranks[k] = pure.gf2_rank(cols[k])
    return tuple(f[k] - ranks[k] - ranks[k + 1] for k in range(top + 1))


def residue_and_matching(c):
    """(residue cell dims, seeds, PartialMatching of the removed pairs)."""
    dims, facets = c.chain_data()
    _, cofacets = topology._check_cells(dims, facets)
    mate, seeds = topology._coreduce(dims, facets, cofacets)
    mu = {i: m for i, m in enumerate(mate) if m >= 0 and dims[m] > dims[i]}
    residue = [dims[i] for i, m in enumerate(mate) if m < 0]
    return residue, seeds, PartialMatching(face_poset(c), mu, carrier=c)


@st.composite
def small_complexes(draw):
    """A simplicial complex on 6 vertices spanned by up to 6 random simplices."""
    tops = draw(st.lists(st.integers(1, 63), max_size=6))
    return SimplicialComplex(6, tops)


# ------------------------------------------------------------ differential

@settings(max_examples=200, deadline=None, derandomize=True)
@given(small_graphs(5), small_graphs(4))
def test_hom_betti_matches_direct(g, h):
    try:
        x = build_hom(g, h, budget=4000)
    except BudgetError:
        reject()
    assert betti_gf2(x).betti == direct_betti(x)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(small_complexes())
def test_order_complex_of_face_poset_matches_direct(c):
    sd = order_complex(face_poset(c))
    assert betti_gf2(c).betti == direct_betti(c)
    assert betti_gf2(sd).betti == direct_betti(sd)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(posets())
def test_order_complex_of_poset_matches_direct(p):
    c = order_complex(p)
    assert betti_gf2(c).betti == direct_betti(c)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_swap_quotient_matches_direct(n):
    x = build_hom(complete(2), complete(n))
    q = quotient(x, induced_involution(x, _swap_map(2)))
    assert betti_gf2(q).betti == direct_betti(q) == (1,) * (n - 1)


# ------------------------------------------------------------ the pairing

@pytest.mark.parametrize("g,h", [(complete(3), complete(5)),
                                 (cycle(5), complete(4))])
def test_pairing_is_an_acyclic_matching(g, h):
    x = build_hom(g, h)
    residue, seeds, m = residue_and_matching(x)
    m.validate()
    assert is_acyclic(m)
    assert len(m.critical_indices()) == len(residue) + seeds


@settings(max_examples=40, deadline=None, derandomize=True)
@given(small_graphs(4), small_graphs(4))
def test_pairing_is_an_acyclic_matching_random(g, h):
    try:
        x = build_hom(g, h, budget=1500)
    except BudgetError:
        reject()
    residue, seeds, m = residue_and_matching(x)
    assert is_acyclic(m)
    assert len(m.critical_indices()) == len(residue) + seeds


def test_k4_k7_residue_is_the_critical_spheres():
    # Hom(K4,K7) is a wedge of f(4,7) = 1681 three-spheres
    residue, seeds, _ = residue_and_matching(build_hom(complete(4), complete(7)))
    assert seeds == 1
    assert len(residue) == 1681 and set(residue) == {3}


def test_c5_k5_residue_is_small():
    # first-in first-out order leaves ~3,000 of 45,540 cells; a stack ~25,000
    x = build_hom(cycle(5), complete(5))
    residue, seeds, _ = residue_and_matching(x)
    assert len(x.keys) == 45540
    assert len(residue) <= 4000


# ------------------------------------------------------------ guard rails

def test_one_cells_need_two_endpoints():
    with pytest.raises(ConsistencyError):
        betti_gf2(OpenEdge())


def test_euler_check_catches_a_miscounted_seed(monkeypatch):
    real = topology._coreduce

    def one_seed_too_many(dims, facets, cofacets):
        mate, seeds = real(dims, facets, cofacets)
        return mate, seeds + 1

    monkeypatch.setattr(topology, "_coreduce", one_seed_too_many)
    with pytest.raises(ConsistencyError):
        betti_gf2(build_hom(complete(2), complete(4)))


EULER_UNDER_O = """
from homtopo import topology
from homtopo.errors import ConsistencyError
from homtopo.graphs import complete
from homtopo.homcx import build_hom
real = topology._coreduce
topology._coreduce = lambda *data: (real(*data)[0], real(*data)[1] + 1)
try:
    topology.betti_gf2(build_hom(complete(2), complete(4)))
except ConsistencyError:
    print("caught")
"""


def test_euler_check_survives_optimize():
    src = os.path.dirname(os.path.dirname(homtopo.__file__))
    out = subprocess.run([sys.executable, "-O", "-c", EULER_UNDER_O],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "caught"
