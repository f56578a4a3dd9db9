"""Free involutions, subdivision quotients, the classifying cocycle, and
chromatic lower bounds."""

import pytest

from homtopo.equivariant import (coloring_bound, equivariant_report,
                                 has_invariant_component, induced_involution,
                                 quotient, sw_height)
from homtopo.errors import DomainError
from homtopo.graphs import (chromatic_number, complete, cycle, disjoint_union,
                            petersen)
from homtopo.homcx import build_hom
from homtopo.topology import betti_gf2, face_poset

FLIP = (1, 0)


def flip_complex(h):
    x = build_hom(complete(2), h)
    return x, induced_involution(x, FLIP)


def test_induced_involution():
    x, a = flip_complex(complete(3))
    assert a.free and a.fixed == ()
    perm = a.perm
    assert all(perm[perm[i]] == i for i in range(len(x)))
    # flipping ({0},{1}) gives ({1},{0})
    i = x.index()[x.key_of((0b001, 0b010))]
    assert perm[i] == x.index()[x.key_of((0b010, 0b001))]
    with pytest.raises(DomainError):
        induced_involution(x, (0, 1, 2))  # wrong source size


def test_fixed_cell_detected():
    # the antipode of C_4 fixes cells with eta(0) = eta(2), eta(1) = eta(3)
    x = build_hom(cycle(4), complete(3))
    a = induced_involution(x, (2, 3, 0, 1))
    assert not a.free and a.fixed
    with pytest.raises(DomainError):
        quotient(x, a)


def test_quotient_counts():
    x, a = flip_complex(complete(4))
    q = quotient(x, a)
    chains = face_poset(x).chains()
    assert 2 * len(q) == len(chains)
    px = betti_gf2(x)
    pq = betti_gf2(q)
    assert px.euler == 2 * pq.euler
    dims, facets = q.chain_data()
    for i, fs in enumerate(facets):
        assert len(fs) == (0 if dims[i] == 0 else dims[i] + 1)
        assert len(set(fs)) == len(fs)  # faces pairwise distinct


@pytest.mark.parametrize("n,height", [(3, 1), (4, 2), (5, 3)])
def test_projective_quotients(n, height):
    x, a = flip_complex(complete(n))
    q = quotient(x, a)
    assert betti_gf2(q).betti == (1,) * (n - 1)
    assert sw_height(x, a) == height


def test_coboundary_squares_to_zero():
    x, a = flip_complex(complete(4))
    q = quotient(x, a)
    for k in range(1, q.dim):
        lower = q.coboundary_columns(k)
        upper = q.coboundary_columns(k + 1)
        for col in lower:
            acc = 0
            for pos, c in enumerate(upper):
                if col >> pos & 1:
                    acc ^= c
            assert acc == 0


def test_w_power_vanishing_chain():
    # heights are downward closed: w^k is a coboundary exactly above them
    from homtopo._kernels import gf2_in_span
    for h in (complete(4), cycle(4), cycle(6)):
        x, a = flip_complex(h)
        q = quotient(x, a)
        chain = [gf2_in_span(q.coboundary_columns(k), q.w_power_vector(k))
                 for k in range(1, q.dim + 1)]
        k = sw_height(x, a)
        assert chain == [False] * k + [True] * (len(chain) - k)


def test_rep_seed_independence():
    x, a = flip_complex(complete(4))
    heights = {sw_height(x, a, rep_seed=s) for s in (None, 1, 2, 3)}
    assert heights == {2}


def test_point_quotient():
    # Hom(K_2,K_2) = two swapped points; quotient is one point
    x, a = flip_complex(complete(2))
    q = quotient(x, a)
    assert len(q) == 1 and betti_gf2(q).betti == (1,)
    assert sw_height(x, a) == 0


def test_invariant_component_iff_positive_height():
    targets = [complete(2), complete(3), complete(4), cycle(5),
               disjoint_union(complete(2), complete(2))]
    for h in targets:
        x, a = flip_complex(h)
        assert has_invariant_component(x, a) == (sw_height(x, a) >= 1)


def test_invariant_component_values():
    x, a = flip_complex(complete(2))
    assert not has_invariant_component(x, a)
    x, a = flip_complex(complete(3))
    assert has_invariant_component(x, a)  # the hexagon is connected
    x, a = flip_complex(disjoint_union(complete(2), complete(2)))
    assert not has_invariant_component(x, a)  # four points swapped in pairs


def test_coloring_bound():
    assert coloring_bound(complete(2)) == 2
    assert coloring_bound(complete(3)) == 3
    assert coloring_bound(cycle(5)) == 3
    assert coloring_bound(cycle(6)) == 2
    assert coloring_bound(petersen()) == 3 == chromatic_number(petersen())
    with pytest.raises(DomainError):
        coloring_bound(complete(3), m=1)
    with pytest.raises(DomainError):
        coloring_bound(complete(3, looped=True))
    with pytest.raises(DomainError):
        coloring_bound(complete(1))  # K_2 has nowhere to go


def test_bound_sound_on_small_graphs():
    for g in (complete(4), cycle(7), disjoint_union(cycle(5), complete(2))):
        assert coloring_bound(g) <= chromatic_number(g)


def test_higher_m_bound():
    # the swap of two K_3 vertices also acts freely
    assert coloring_bound(complete(4), m=3) == 4


def test_equivariant_report():
    rep = equivariant_report(cycle(5))
    assert rep["free"] is True
    assert rep["bound"] == rep["sw_height"] + 2 == 3
    assert rep["quotient_betti"][0] == 1


@pytest.mark.parametrize("m", [1, 0])
def test_report_needs_m_at_least_2(m):
    with pytest.raises(DomainError, match=r"need m >= 2 for the swap action"):
        equivariant_report(complete(3), m)
