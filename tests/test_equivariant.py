"""Free involutions, orbit complexes, the connecting map that gives w_1,
chromatic lower bounds, and the subdivision quotient, each checked against
a plain mirror-and-min construction of the quotient from chains of X."""

import itertools
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homtopo import _kernels, equivariant, topology
from homtopo.corpus import loopless_corpus
from homtopo.equivariant import (OrbitComplex, _swap_map, coloring_bound,
                                 equivariant_report, has_invariant_component,
                                 induced_involution, quotient, sw_height)
from homtopo.errors import DomainError, ResourceError
from homtopo.graphs import (chromatic_number, complete, cycle, disjoint_union,
                            from_edges, kneser, petersen,
                            validate_involution)
from homtopo.homcx import HomComplex, build_hom
from homtopo.topology import betti_gf2, f_vector, face_poset
from test_homcx import traced_in_fresh_interpreter

FLIP = (1, 0)


def flip_complex(h):
    x = build_hom(complete(2), h)
    return x, induced_involution(x, FLIP)


def swap_complex(g, m):
    x = build_hom(complete(m), g)
    return x, induced_involution(x, _swap_map(m))


# ------------------------------------------- the subdivided quotient oracle

def mirror_min_quotient(x, a):
    """(simplices, chain_data) of X/a built the plain way: every chain of the
    face poset and its mirror, keep the smaller; each face is mirrored and
    the smaller taken again."""
    def canon(t):
        return min(t, tuple(a[c] for c in t))

    simplices = sorted({canon(t) for t in face_poset(x).chains()},
                       key=lambda t: (len(t), t))
    index = {t: i for i, t in enumerate(simplices)}
    dims = [len(t) - 1 for t in simplices]
    facets = [sorted(index[canon(t[:d] + t[d + 1:])] for d in range(len(t)))
              if len(t) > 1 else [] for t in simplices]
    return simplices, (dims, facets)


def orbit_numbering(a):
    """orb[cell]: orbits numbered in the order of their lower cells."""
    orb = {}
    for i, j in enumerate(a):
        if i not in orb:
            orb[i] = orb[j] = len(orb) // 2
    return orb


def assert_quotient_matches_oracle(x, a):
    """quotient(x, a) is the mirror-min quotient with each lift read as its
    chain of orbits: a bijection of simplices that carries facets to
    facets."""
    q = quotient(x, a)
    simplices, (dims, facets) = mirror_min_quotient(x, a)
    orb = orbit_numbering(a)
    image = [tuple(orb[c] for c in t) for t in simplices]
    assert sorted(image) == sorted(q.simplices)
    where = {t: i for i, t in enumerate(q.simplices)}
    to_q = [where[t] for t in image]
    qdims, qfacets = q.chain_data()
    for i, j in enumerate(to_q):
        assert qdims[j] == dims[i]
        assert qfacets[j] == sorted(to_q[f] for f in facets[i])
    return q


# ------------------------------------------------- the subdivision oracle

class Subdivided:
    """w^k and delta on the barycentric-subdivision quotient.

    w labels an edge orbit-chain (c < d) by sheet(c) xor sheet(d), where
    sheet = 0 exactly on the chosen orbit representatives (the lower cell
    index, or a coin flip per orbit under `rep_seed`): the classifying
    cocycle of the double cover, and its Alexander-Whitney cup power w^k is
    the product of those labels along a k-simplex.
    """

    def __init__(self, x, a, rep_seed=None):
        self.simplices, (self.dims, self.facets) = mirror_min_quotient(x, a)
        self.dim = max(self.dims)
        rng = random.Random(rep_seed) if rep_seed is not None else None
        sheet = {}
        for i, j in enumerate(a):
            if i not in sheet:
                flip = rng is not None and rng.random() < 0.5
                sheet[i], sheet[j] = int(flip), int(not flip)
        self.sheet = sheet
        self.local, self.count = [], [0] * (self.dim + 1)
        for d in self.dims:
            self.local.append(self.count[d])
            self.count[d] += 1

    def w_power_vector(self, k):
        vec = 0
        for i, t in enumerate(self.simplices):
            if self.dims[i] == k and all(self.sheet[u] != self.sheet[v]
                                         for u, v in zip(t, t[1:])):
                vec |= 1 << self.local[i]
        return vec

    def coboundary_columns(self, k):
        cols = [0] * self.count[k - 1]
        for i, d in enumerate(self.dims):
            if d == k:
                for j in self.facets[i]:
                    cols[self.local[j]] ^= 1 << self.local[i]
        return cols

    def height(self):
        for k in range(1, self.dim + 1):
            if _kernels.gf2_in_span(self.coboundary_columns(k),
                                    self.w_power_vector(k)):
                return k - 1
        return self.dim


def assert_coboundary_squares_to_zero(c, top):
    for k in range(1, top):
        lower = c.coboundary_columns(k)
        upper = c.coboundary_columns(k + 1)
        assert lower and upper
        for col in lower:
            acc = 0
            for pos, u in enumerate(upper):
                if col >> pos & 1:
                    acc ^= u
            assert acc == 0


def vanishing_chain(c, top):
    return [_kernels.gf2_in_span(c.coboundary_columns(k), c.w_power_vector(k))
            for k in range(1, top + 1)]


def assert_matches_oracle(g, m):
    x, a = swap_complex(g, m)
    # the swap is free on a loopless target: equivariant_report's "free"
    assert all(i != j for i, j in enumerate(a))
    for seed in (None, 3):
        want = Subdivided(x, a, seed).height()
        assert sw_height(x, a, rep_seed=seed) == want
    assert coloring_bound(g, m) == want + m
    q = assert_quotient_matches_oracle(x, a)
    assert betti_gf2(OrbitComplex(x, a)).betti == betti_gf2(q).betti


def test_induced_involution():
    x, a = flip_complex(complete(3))
    assert all(a[a[i]] == i != a[i] for i in range(len(x)))
    # flipping ({0},{1}) gives ({1},{0})
    idx = {k: i for i, k in enumerate(x.keys)}
    i = idx[x.key_of((0b001, 0b010))]
    assert a[i] == idx[x.key_of((0b010, 0b001))]
    with pytest.raises(DomainError):
        induced_involution(x, (0, 1, 2))  # wrong source size


def test_involution_of_a_complex_not_closed_under_gamma():
    # the one cell ({0},{1}) swaps to ({1},{0}), which is not listed
    x = build_hom(complete(2), complete(3))
    y = HomComplex(x.g, x.h, x.keys[:1])
    with pytest.raises(DomainError, match=r"\(\{0\},\{1\}\) has its image"):
        induced_involution(y, FLIP)


def involutions(g):
    """Every automorphism of g of order dividing 2, the identity included."""
    out = []
    for gamma in itertools.permutations(range(g.n)):
        try:
            out.append(validate_involution(g, gamma))
        except DomainError:
            pass
    return out


SMALL_SOURCES = loopless_corpus(max_n=4)


@pytest.mark.parametrize("g", SMALL_SOURCES.values(), ids=SMALL_SOURCES.keys())
def test_involution_moves_fields_like_cells(g):
    # the image keys come from shifted fields; the plain route unpacks each
    # key to its cell, permutes the masks and packs the image again
    for n in (3, 4, 5):
        x = build_hom(g, complete(n))
        idx = {k: i for i, k in enumerate(x.keys)}
        for gamma in involutions(g):
            plain = tuple(idx[x.key_of(tuple(x.cell_of(k)[gamma[v]]
                                             for v in range(g.n)))]
                          for k in x.keys)
            assert induced_involution(x, gamma) == plain


def test_fixed_cell_detected(monkeypatch):
    # the antipode of C_4 fixes cells with eta(0) = eta(2), eta(1) = eta(3)
    x = build_hom(cycle(4), complete(3))
    a = induced_involution(x, (2, 3, 0, 1))
    fixed = [i for i, j in enumerate(a) if i == j]
    assert fixed
    # the lowest fixed cell is named, before any chain data is read
    label = re.escape(x.cell_label(fixed[0]))
    read = []
    chain_data = x.chain_data
    monkeypatch.setattr(x, "chain_data",
                        lambda: read.append(1) or chain_data())
    for refuse in (quotient, OrbitComplex, sw_height):
        with pytest.raises(DomainError,
                           match=f"action is not free: cell {label} is fixed"):
            refuse(x, a)
    assert read == []
    monkeypatch.undo()
    assert has_invariant_component(x, a)  # the component of a fixed cell


QUOTIENT_CASES = {
    **{f"K2->K{n}": (complete(2), complete(n), FLIP) for n in range(2, 7)},
    **{f"K2->C{n}": (complete(2), cycle(n), FLIP) for n in range(4, 8)},
    "K2->petersen": (complete(2), petersen(), FLIP),
    "K3->K4": (complete(3), complete(4), (1, 0, 2)),
    "K3->K5": (complete(3), complete(5), (1, 0, 2)),
}


@pytest.mark.parametrize("g,h,gamma", QUOTIENT_CASES.values(),
                         ids=QUOTIENT_CASES.keys())
def test_quotient_matches_mirror_min(g, h, gamma):
    x = build_hom(g, h)
    assert_quotient_matches_oracle(x, induced_involution(x, gamma))


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


@pytest.mark.parametrize("n,simplices", [(3, 12), (4, 145), (5, 2100),
                                         (6, 36361)])
def test_quotient_walks_chains_once_from_lower_cells(monkeypatch, n, simplices):
    x, a = flip_complex(complete(n))
    walked = []
    chains = topology.Poset.chains

    def counting(self, *args, **kwargs):
        out = chains(self, *args, **kwargs)
        walked.append(len(out))
        return out

    monkeypatch.setattr(topology.Poset, "chains", counting)
    q = quotient(x, a)
    # one walk, over the orbits, and every chain it yields is kept
    assert walked == [len(q.simplices)] == [simplices]
    monkeypatch.undo()
    assert_quotient_matches_oracle(x, a)


def test_orbit_counts():
    x, a = flip_complex(complete(4))
    q = OrbitComplex(x, a)
    assert 2 * len(q) == len(x)
    assert 2 * betti_gf2(q).euler == betti_gf2(x).euler
    assert 2 * f_vector(q)[2] == f_vector(x)[2]
    xdims, xfacets = x.chain_data()
    dims, facets = q.chain_data()
    assert dims == sorted(dims)
    orb = {}
    for t, r in enumerate(q.reps):
        orb[r] = orb[a[r]] = t
    assert len(orb) == len(x)
    for t, r in enumerate(q.reps):
        assert dims[t] == xdims[r]
        # the facets of an orbit, each once, from either cell in it
        for cell in (r, a[r]):
            assert facets[t] == sorted({orb[j] for j in xfacets[cell]})
            assert len(facets[t]) == len(xfacets[cell])


@pytest.mark.parametrize("n,height", [(3, 1), (4, 2), (5, 3)])
def test_projective_quotients(n, height):
    x, a = flip_complex(complete(n))
    q = quotient(x, a)
    assert betti_gf2(q).betti == (1,) * (n - 1)
    assert sw_height(x, a) == height == Subdivided(x, a).height()


KEPT_AFTER_BETTI = """
import tracemalloc
from homtopo.equivariant import induced_involution, quotient
from homtopo.graphs import complete
from homtopo.homcx import build_hom
from homtopo.topology import betti_gf2
x = build_hom(complete(2), complete(5))
a = induced_involution(x, (1, 0))
tracemalloc.start()
q = quotient(x, a)
built = tracemalloc.get_traced_memory()[0]
betti = betti_gf2(q).betti
kept = tracemalloc.get_traced_memory()[0]
print(len(q), *betti, kept, built)
"""


def test_quotient_keeps_its_face_data_not_its_index():
    # betti_gf2 builds the face data once; the tuple -> index map that built
    # them is read by nothing after, so the quotient lets it go.  On
    # Hom(K2,K5)/swap the memory kept after betti_gf2 is 1.50-1.51 times
    # that of the bare quotient on Python 3.10-3.12, 1.81 times with the
    # index
    *counts, kept, built = traced_in_fresh_interpreter(KEPT_AFTER_BETTI)
    assert counts == [2100, 1, 1, 1, 1]
    assert kept / built < 1.6


def test_coboundary_squares_to_zero():
    x, a = flip_complex(complete(4))
    q = OrbitComplex(x, a)
    assert_coboundary_squares_to_zero(q, q.dim)


def test_subdivided_coboundary_squares_to_zero():
    x, a = flip_complex(complete(4))
    s = Subdivided(x, a)
    assert_coboundary_squares_to_zero(s, s.dim)


def test_w_power_vanishing_chain():
    # heights are downward closed: w^k is a coboundary exactly above them,
    # and every w^k is a cocycle
    for h in (complete(4), cycle(4), cycle(6)):
        x, a = flip_complex(h)
        q = OrbitComplex(x, a)
        k = sw_height(x, a)
        chain = vanishing_chain(q, q.dim)
        assert chain == [False] * k + [True] * (len(chain) - k)
        for j in range(q.dim):
            w = q.w_power_vector(j)
            delta = 0
            for pos, c in enumerate(q.coboundary_columns(j + 1)):
                if w >> pos & 1:
                    delta ^= c
            assert delta == 0


def test_subdivided_w_power_vanishing_chain():
    for h in (complete(4), cycle(4), cycle(6)):
        x, a = flip_complex(h)
        s = Subdivided(x, a)
        k = s.height()
        chain = vanishing_chain(s, s.dim)
        assert chain == [False] * k + [True] * (len(chain) - k)
        assert k == sw_height(x, a)


def test_rep_seed_independence():
    x, a = flip_complex(complete(4))
    heights = {sw_height(x, a, rep_seed=s) for s in (None, 1, 2, 3)}
    assert heights == {2}


def test_point_quotient():
    # Hom(K_2,K_2) = two swapped points; quotient is one point
    x, a = flip_complex(complete(2))
    q = quotient(x, a)
    assert len(q) == 1 and betti_gf2(q).betti == (1,)
    q = OrbitComplex(x, a)
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


def invariant_component_by_labels(x, a):
    """Oracle: union-find labels over the 1-skeleton of x, then a 0-cell
    whose image under a carries its label."""
    dims, facets = x.chain_data()
    parent = list(range(len(dims)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for e, d in enumerate(dims):
        if d == 1:
            for v in facets[e]:
                parent[find(v)] = find(e)
    return any(d == 0 and find(i) == find(a[i])
               for i, d in enumerate(dims))


@st.composite
def loopless_graphs(draw, max_n):
    """Any loopless graph on 1..max_n vertices, disconnected ones included."""
    n = draw(st.integers(1, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    return from_edges(n, [e for e, k in zip(pairs, keep) if k])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(loopless_graphs(6))
@example(disjoint_union(complete(2), complete(3)))  # one of 3 is invariant
def test_invariant_component_matches_union_find_labels(h):
    x, a = flip_complex(h)
    assert has_invariant_component(x, a) == invariant_component_by_labels(x, a)


def test_coloring_bound():
    assert coloring_bound(complete(2), 2) == 2
    assert coloring_bound(complete(3), 2) == 3
    assert coloring_bound(cycle(5), 2) == 3
    assert coloring_bound(cycle(6), 2) == 2
    assert coloring_bound(petersen(), 2) == 3 == chromatic_number(petersen())
    with pytest.raises(DomainError):
        coloring_bound(complete(3), m=1)
    with pytest.raises(DomainError):
        coloring_bound(complete(3, looped=True), 2)
    with pytest.raises(DomainError):
        coloring_bound(complete(1), 2)  # K_2 has nowhere to go


def test_bound_sound_on_small_graphs():
    for g in (complete(4), cycle(7), disjoint_union(cycle(5), complete(2))):
        assert coloring_bound(g, 2) <= chromatic_number(g)


def test_higher_m_bound():
    # the swap of two K_3 vertices also acts freely
    assert coloring_bound(complete(4), m=3) == 4


def test_equivariant_report():
    rep = equivariant_report(cycle(5), 2, None)
    assert rep["free"] is True
    assert rep["bound"] == rep["sw_height"] + 2 == 3
    assert rep["quotient_betti"][0] == 1


@pytest.mark.parametrize("m", [1, 0])
def test_report_needs_m_at_least_2(m):
    with pytest.raises(DomainError, match=r"need m >= 2 for the swap action"):
        equivariant_report(complete(3), m, None)


# --------------------------------------- orbit complex against the oracle

CORPUS = {name: g for name, g in loopless_corpus().items()
          if name != "K6"}  # K6 subdivided: 36,361 simplices, about 14 s


@pytest.mark.parametrize("m,cases", [(2, 23), (3, 5)])
def test_orbit_matches_subdivided_on_corpus(m, cases):
    checked = 0
    for g in CORPUS.values():
        if build_hom(complete(m), g).keys:
            assert_matches_oracle(g, m)
            checked += 1
    assert checked == cases


@st.composite
def loopless_graphs(draw, max_n):
    n = draw(st.integers(2, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    return from_edges(n, [e for e, k in zip(pairs, keep) if k])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(loopless_graphs(5), st.sampled_from((2, 3)))
def test_orbit_matches_subdivided_property(g, m):
    if build_hom(complete(m), g).keys:
        assert_matches_oracle(g, m)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_projective_orbit_quotients(n):
    x, a = flip_complex(complete(n))
    assert betti_gf2(OrbitComplex(x, a)).betti == (1,) * (n - 1)
    assert sw_height(x, a) == n - 2


def test_pinned_quotient_betti():
    assert equivariant_report(complete(5), 3, None)["quotient_betti"] \
        == [1, 1, 15]
    assert equivariant_report(petersen(), 2, None)["quotient_betti"] \
        == [1, 6, 0]


@pytest.mark.parametrize("g,bound", [(complete(6), 6), (complete(7), 7),
                                     (complete(8), 8), (kneser(2, 6), 4)])
def test_bounds_past_the_subdivision(g, bound):
    # kneser(2,6) has chi = 6 - 4 + 2 = 4 (Lovasz)
    assert coloring_bound(g, 2) == bound


def test_height_checks_the_cap_before_any_span_test(monkeypatch):
    x, a = flip_complex(complete(5))
    f = f_vector(OrbitComplex(x, a))
    largest = max(f[k - 1] * f[k] for k in range(1, len(f)))
    spans = []
    monkeypatch.setattr(equivariant, "gf2_in_span",
                        lambda cols, t: spans.append(len(cols)))
    monkeypatch.setattr(topology, "MATRIX_BIT_CAP", largest - 1)
    with pytest.raises(ResourceError, match="coboundary matrix"):
        sw_height(x, a)
    assert spans == []
    with pytest.raises(ResourceError):
        coloring_bound(complete(5), 2)
    assert spans == []
    monkeypatch.undo()
    monkeypatch.setattr(topology, "MATRIX_BIT_CAP", largest)
    assert sw_height(x, a) == 3
