"""Chain-data consumers: GF(2) homology against known spaces, posets, and
the poset-isomorphism search."""

import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homtopo import topology
from homtopo.equivariant import OrbitComplex, induced_involution
from homtopo.errors import ConsistencyError, DomainError, ResourceError
from homtopo.graphs import bits, complete, cycle, disjoint_union
from homtopo.homcx import build_hom
from homtopo.topology import (Poset, SimplicialComplex, betti_gf2,
                              connected_components, f_vector, face_poset,
                              find_poset_isomorphism, order_complex)


def closure(tops):
    """Every nonempty face of the vertex-mask simplices in `tops`, as
    ascending vertex tuples in lexicographic order."""
    faces = set()
    for m in tops:
        sub = m
        while sub:
            faces.add(tuple(bits(sub)))
            sub = (sub - 1) & m
    return sorted(faces)


def simplex(k):
    """The full k-simplex."""
    return SimplicialComplex(closure([(1 << (k + 1)) - 1]))


def sphere(k):
    """Boundary of the (k+1)-simplex."""
    full = (1 << (k + 2)) - 1
    return SimplicialComplex(closure([full ^ (1 << v) for v in range(k + 2)]))


# the 6-vertex triangulation of the projective plane
RP2_TRIANGLES = ["123", "124", "135", "146", "156",
                 "236", "245", "256", "345", "346"]


def rp2():
    sims = [sum(1 << (int(c) - 1) for c in t) for t in RP2_TRIANGLES]
    return SimplicialComplex(closure(sims))


def test_closure_and_order():
    s = simplex(3)
    dims, facets = s.chain_data()
    assert dims == sorted(dims)
    assert s.simplices == sorted(s.simplices, key=lambda t: (len(t), t))
    assert all(fs == sorted(fs) for fs in facets)


def test_missing_face_is_inconsistent():
    with pytest.raises(ConsistencyError, match="not face-closed"):
        SimplicialComplex([(0, 1, 2)]).chain_data()


def test_missing_face_names_a_simplex_that_lacks_it():
    # the triangle lacks the edge (0, 2); the edge (3, 4) lacks the point 4
    for tops, simplex, face in (([(0, 1), (1, 2), (0, 1, 2)], (0, 1, 2),
                                 (0, 2)),
                                ([(0, 1), (3, 4)], (3, 4), (4,))):
        points = sorted({(v,) for t in tops for v in t} - {face})
        with pytest.raises(ConsistencyError, match=re.escape(
                f"simplex {simplex} lacks the face {face}: not face-closed")):
            SimplicialComplex(points + tops).chain_data()


def test_repeated_simplex_is_inconsistent():
    # one point listed twice would count b_0 = 2
    with pytest.raises(ConsistencyError, match="more than once"):
        SimplicialComplex([(0,), (0,)])


@pytest.mark.parametrize("simplices", [[()], [(0, 1), (0,), (1,), ()]])
def test_empty_simplex_is_bad_input(simplices):
    with pytest.raises(DomainError, match="empty simplex"):
        SimplicialComplex(simplices)


def facets_one_at_a_time(c):
    """The per-simplex definition: a simplex's facets are the sorted indices
    of its one-vertex drops."""
    index = c.index()
    return [sorted(index[t[:d] + t[d + 1:]] for d in range(len(t)))
            if len(t) > 1 else [] for t in c.simplices]


@st.composite
def shuffled_complexes(draw, n=6):
    """A random face-closed complex on n vertices whose tuples list their
    vertices in one random order, not ascending, given in random order."""
    rank = draw(st.permutations(range(n)))
    tops = draw(st.lists(st.integers(1, (1 << n) - 1), max_size=5))
    faces = [tuple(sorted(t, key=rank.index)) for t in closure(tops)]
    return draw(st.permutations(faces))


@settings(deadline=None, derandomize=True)
@given(shuffled_complexes())
def test_chain_data_by_columns_matches_each_simplex(simplices):
    c = SimplicialComplex(list(simplices))
    dims, facets = c.chain_data()
    assert dims == [len(t) - 1 for t in c.simplices]
    assert facets == facets_one_at_a_time(c)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_simplex_contractible(k):
    assert betti_gf2(simplex(k)).betti == (1,) + (0,) * k


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_sphere_betti(k):
    want = (2,) if k == 0 else (1,) + (0,) * (k - 1) + (1,)
    assert betti_gf2(sphere(k)).betti == want


def test_rp2_betti():
    c = rp2()
    # sanity of the input: a closed surface, every edge in exactly 2 triangles
    dims, facets = c.chain_data()
    edge_use = [0] * len(dims)
    for i, d in enumerate(dims):
        if d == 2:
            for j in facets[i]:
                edge_use[j] += 1
    assert all(edge_use[i] == 2 for i, d in enumerate(dims) if d == 1)
    assert f_vector(c) == (6, 15, 10)
    p = betti_gf2(c)
    assert p.betti == (1, 1, 1) and p.euler == 1


def test_disjoint_pieces():
    two = SimplicialComplex(closure([0b000111, 0b111000]))
    p = betti_gf2(two)
    assert p.betti == (2, 0, 0) and p.euler == 2
    assert connected_components(two) == 2


def naive_components(c):
    dims, facets = c.chain_data()
    n = len(dims)
    adj = [set() for _ in range(n)]
    for i, fs in enumerate(facets):
        for j in fs:
            adj[i].add(j)
            adj[j].add(i)
    seen, out = set(), 0
    for s in range(n):
        if s in seen:
            continue
        out += 1
        stack = [s]
        seen.add(s)
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return out


def flip_orbits(h):
    """The orbit complex of the flip of K_2 acting on Hom(K_2, h)."""
    x = build_hom(complete(2), h)
    return OrbitComplex(x, induced_involution(x, (1, 0)))


@pytest.mark.parametrize("c", [
    sphere(1), rp2(), simplex(2),
    SimplicialComplex(closure([0b00011, 0b01100, 0b10000])),
    build_hom(cycle(6), complete(3)),  # 7 components
    # the swapped points of Hom(K_2,K_2), and the hexagon of Hom(K_2,K_3)
    # folded onto itself: 2 components
    flip_orbits(disjoint_union(complete(2), complete(3))),
])
def test_components_oracle(c):
    assert connected_components(c) == naive_components(c)
    assert betti_gf2(c).betti[0] == naive_components(c)


def test_betti_euler_identity():
    for c in (sphere(2), rp2(), simplex(3)):
        p = betti_gf2(c)
        assert sum((-1) ** k * b for k, b in enumerate(p.betti)) == p.euler
        assert sum((-1) ** k * f for k, f in enumerate(p.f_vector)) == p.euler


# ------------------------------------------------------------ posets

def test_poset_validation():
    with pytest.raises(DomainError):
        Poset([0, 0], [[], [0]])  # cover does not increase grade
    p = Poset([0, 0, 1], [[], [], [0, 1]])
    assert p.leq(0, 2) and not p.leq(2, 0) and p.leq(2, 2)
    assert not p.leq(0, 1) and not p.leq(1, 0)


def transitive_closure_oracle(p):
    n = len(p)
    under = [set(p.covers[i]) for i in range(n)]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            new = set()
            for j in under[i]:
                new |= under[j]
            if not new <= under[i]:
                under[i] |= new
                changed = True
    return under


def test_below_matches_closure():
    p = face_poset(sphere(1))
    under = transitive_closure_oracle(p)
    for i in range(len(p)):
        assert {j for j in range(len(p)) if p.below[i] >> j & 1} == under[i]


def test_op_flips_order():
    p = face_poset(simplex(2))
    q = p.op()
    for i in range(len(p)):
        for j in range(len(p)):
            assert p.leq(i, j) == q.leq(j, i)


def brute_chains(p):
    n = len(p)
    out = []

    def grow(chain):
        if chain:
            out.append(tuple(chain))
        start = chain[-1] if chain else None
        for j in range(n):
            if start is None or start != j and p.leq(start, j):
                grow(chain + [j])

    grow([])
    return out


def test_chains_oracle():
    p = face_poset(simplex(2))
    assert sorted(p.chains()) == sorted(brute_chains(p))


@st.composite
def posets(draw, max_n=7, top=3):
    """Up to max_n elements in grades 0..top, each covering a random lower
    set."""
    n = draw(st.integers(0, max_n))
    grades = draw(st.lists(st.integers(0, top), min_size=n, max_size=n))
    covers = [[j for j in range(n) if grades[j] < grades[i]
               and draw(st.booleans())] for i in range(n)]
    return Poset(grades, covers)


@settings(deadline=None, derandomize=True)
@given(posets())
def test_chains_of_random_posets(p):
    want = brute_chains(p)
    assert p.chains() == sorted(want, key=lambda t: (len(t), t))
    c = order_complex(p)
    assert c.simplices == sorted(want, key=lambda t: (len(t), t))
    assert c.dim == max(map(len, want), default=0) - 1
    # the facets of a chain are the chains one element shorter inside it
    dims, facets = c.chain_data()
    for i, t in enumerate(c.simplices):
        assert dims[i] == len(t) - 1
        assert facets[i] == sorted(c.simplices.index(s) for s in want
                                   if len(s) == len(t) - 1 and set(s) < set(t))


def test_face_poset_grading():
    x = build_hom(complete(2), complete(3))
    p = face_poset(x)
    dims, facets = x.chain_data()
    assert p.grades == dims and [list(c) for c in p.covers] == facets


def test_order_complex_is_subdivision():
    # barycentric subdivision preserves GF(2) homology
    for c in (sphere(1), rp2()):
        sd = order_complex(face_poset(c))
        assert betti_gf2(sd).betti == betti_gf2(c).betti


@st.composite
def poset_pairs(draw):
    """A graded poset on up to 6 elements and, relabelled, either a copy of
    it or another poset with the same grades; few grades give large
    classes that colour refinement cannot split."""
    p = draw(posets(6, draw(st.integers(1, 3))))
    n, grades = len(p), p.grades
    covers = p.covers
    if not draw(st.booleans()):
        covers = [[j for j in range(n) if grades[j] < grades[i]
                   and draw(st.booleans())] for i in range(n)]
    perm = draw(st.permutations(range(n)))
    inv = sorted(range(n), key=perm.__getitem__)
    return p, Poset([grades[inv[t]] for t in range(n)],
                    [[perm[j] for j in covers[inv[t]]] for t in range(n)])


def keeps_grades_and_covers(p, q, phi):
    return all(p.grades[i] == q.grades[phi[i]]
               and sorted(phi[j] for j in p.covers[i]) == q.covers[phi[i]]
               for i in range(len(p)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(poset_pairs())
def test_poset_isomorphism_matches_brute_force(pair):
    p, q = pair
    brute = any(keeps_grades_and_covers(p, q, phi)
                for phi in itertools.permutations(range(len(q))))
    phi = find_poset_isomorphism(p, q)
    assert (phi is not None) == brute
    if phi is not None:
        assert sorted(phi) == list(range(len(q)))
        assert keeps_grades_and_covers(p, q, phi)


def test_find_poset_isomorphism_positive():
    p = face_poset(sphere(1))
    # rebuild with relabeled elements
    n = len(p)
    perm = [(i * 5 + 2) % n for i in range(n)]
    assert sorted(perm) == list(range(n))
    inv = [0] * n
    for i, j in enumerate(perm):
        inv[j] = i
    q = Poset([p.grades[inv[t]] for t in range(n)],
              [[perm[j] for j in p.covers[inv[t]]] for t in range(n)])
    phi = find_poset_isomorphism(p, q)
    assert phi is not None
    for i in range(n):
        assert sorted(phi[j] for j in p.covers[i]) == q.covers[phi[i]]
    # the two tops are the rarer class, so they are placed before the
    # elements they cover and only the cover arcs into those elements
    # tell them apart
    p = Poset([1, 1, 0, 0, 0, 0], [[2, 3], [4, 5], [], [], [], []])
    q = Poset([0, 1, 0, 0, 1, 0], [[], [0, 5], [], [], [2, 3], []])
    phi = find_poset_isomorphism(p, q)
    assert phi is not None and keeps_grades_and_covers(p, q, phi)


def test_find_poset_isomorphism_negative():
    p = face_poset(sphere(1))
    q = face_poset(simplex(1))
    assert find_poset_isomorphism(p, q) is None  # different sizes
    a = Poset([0, 0, 1, 1], [[], [], [0, 1], [0, 1]])
    b = Poset([0, 0, 1, 1], [[], [], [0, 1], [0]])
    assert find_poset_isomorphism(a, b) is None  # cover counts differ
    # same refinement profile, incompatible cover structure
    hexagon = face_poset(SimplicialComplex(
        closure([1 << u | 1 << ((u + 1) % 6) for u in range(6)])))
    two_tri = face_poset(SimplicialComplex(
        closure([0b011, 0b110, 0b101, 0b011000, 0b110000, 0b101000])))
    assert find_poset_isomorphism(hexagon, two_tri) is None

    # four tops over six elements covered twice each: K_4 against a 4-cycle
    # with two opposite edges doubled; refinement sees one colour per grade
    def incidence(edges):
        return Poset([0] * 6 + [1] * 4,
                     [[]] * 6 + [[e for e, ab in enumerate(edges) if t in ab]
                                 for t in range(4)])

    k4 = incidence([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    c4 = incidence([(0, 1), (0, 1), (1, 2), (2, 3), (2, 3), (3, 0)])
    assert find_poset_isomorphism(k4, c4) is None


def test_poset_isomorphism_cap():
    p = face_poset(build_hom(complete(2), complete(6)))
    with pytest.raises(ResourceError):
        find_poset_isomorphism(p, p)


# ------------------------------------------------------------ guard rails

class BrokenFacetDim:
    # a 2-cell lists a 0-cell among its facets
    def chain_data(self):
        return topology.ChainData([0, 0, 1, 2], [[], [], [0, 1], [0]])


class BrokenSquare:
    # two 1-cells between the same endpoints, one 2-cell with a single facet:
    # its boundary-of-boundary is the two endpoints, nonzero over GF(2)
    def chain_data(self):
        return topology.ChainData([0, 0, 1, 1, 2],
                                  [[], [], [0, 1], [0, 1], [2]])


class OpenEdge:
    # a 1-cell with a single endpoint: not a regular CW complex
    def chain_data(self):
        return topology.ChainData([0, 1], [[], [0]])


class ThreeParallelEdges:
    # a 2-cell bounded by three 1-cells between the same two endpoints: each
    # endpoint occurs three times among the facets of its facets, and every
    # occurrence has an equal neighbour once sorted, so a check that only
    # looks for a pair fails to see the odd count
    def chain_data(self):
        return topology.ChainData([0, 0, 1, 1, 1, 2],
                                  [[], [], [0, 1], [0, 1], [0, 1], [2, 3, 4]])


class EmptyBoundary:
    # a 2-cell with no facets beside a point: the sweep would read it as a
    # 2-sphere, (1, 0, 1)
    def chain_data(self):
        return topology.ChainData([0, 2], [[], []])


BROKEN = [BrokenFacetDim, BrokenSquare, OpenEdge, ThreeParallelEdges,
          EmptyBoundary]


def dense_check(dims, facets) -> bool:
    """Oracle: does chain data pass the facet-dimension, endpoint,
    nonempty-boundary and boundary-square checks?  Builds every full
    boundary column, one bit per cell of the dimension below, and XORs the
    columns of each cell's facets."""
    top = max(dims)
    local = [0] * len(dims)
    buckets = [[] for _ in range(top + 1)]
    for i, d in enumerate(dims):
        local[i] = len(buckets[d])
        buckets[d].append(i)
    prev = []
    for k in range(top + 1):
        cols = []
        for i in buckets[k]:
            col = 0
            for j in facets[i]:
                if dims[j] != k - 1:
                    return False
                col |= 1 << local[j]
            if k == 1 and (col.bit_count() != 2 or len(facets[i]) != 2):
                return False
            if k and not facets[i]:
                return False
            acc = 0
            for j in facets[i]:
                acc ^= prev[local[j]]
            if acc:
                return False
            cols.append(col)
        prev = cols
    return True


def per_cell_accepts(dims, facets) -> bool:
    try:
        topology._check_and_coreduce(topology.ChainData(dims, facets))
    except ConsistencyError:
        return False
    return True


@st.composite
def perturbed_chain_data(draw):
    """Chain data of a random simplicial complex, then at most one change to
    one cell's facet list: a facet dropped, added or swapped for another
    cell of any dimension (never listed twice)."""
    c = SimplicialComplex(closure(draw(st.lists(st.integers(1, 31),
                                                max_size=5))))
    dims, facets = c.chain_data()
    facets = [list(fs) for fs in facets]
    if dims and draw(st.booleans()):
        i = draw(st.integers(0, len(dims) - 1))
        j = draw(st.integers(0, len(dims) - 1))
        kind = draw(st.sampled_from(["drop", "add", "swap"]))
        fs = facets[i]
        if kind != "add" and fs:
            del fs[draw(st.integers(0, len(fs) - 1))]
        if kind != "drop" and j not in fs:
            fs.append(j)
            fs.sort()
    return dims, facets


@settings(max_examples=300, deadline=None, derandomize=True)
@given(perturbed_chain_data())
def test_per_cell_check_matches_dense_columns(data):
    dims, facets = data
    if dims:
        assert per_cell_accepts(dims, facets) == dense_check(dims, facets)


@pytest.mark.parametrize("c", [simplex(3), sphere(2), rp2(),
                               build_hom(cycle(5), complete(3))]
                         + [b() for b in BROKEN],
                         ids=["simplex3", "sphere2", "rp2", "C5-K3"]
                         + [b.__name__ for b in BROKEN])
def test_per_cell_check_matches_dense_columns_on_fixtures(c):
    dims, facets = c.chain_data()
    accepted = per_cell_accepts(dims, facets)
    assert accepted == dense_check(dims, facets)
    assert accepted == (type(c) not in BROKEN)


def _residue_shape(x):
    """Per dimension, the number of cells coreduction leaves in x."""
    dims, facets = data = x.chain_data()
    f, mate, _ = topology._check_and_coreduce(data)
    rf = [0] * len(f)
    for i, m in enumerate(mate):
        if m < 0:
            rf[dims[i]] += 1
    return f, rf


def test_full_matrix_over_the_cap_is_not_refused(monkeypatch):
    # the cap bounds the residue that is ranked, not the whole complex
    x = build_hom(cycle(5), complete(4))
    f, rf = _residue_shape(x)
    cap = max(a * b for a, b in zip(rf, rf[1:]))
    assert min(a * b for a, b in zip(f, f[1:])) > cap
    monkeypatch.setattr(topology, "MATRIX_BIT_CAP", cap)
    assert betti_gf2(x).betti == (1, 1, 1, 1)


def test_matrix_cap_checked_before_any_rank(monkeypatch):
    x = build_hom(cycle(5), complete(4))
    _, rf = _residue_shape(x)
    products = [a * b for a, b in zip(rf, rf[1:])]
    # only the top residue matrix is over the cap; the others get ranked
    # first if the cap is checked one dimension at a time
    assert products[-1] > max(products[:-1])
    monkeypatch.setattr(topology, "MATRIX_BIT_CAP", products[-1] - 1)

    def no_rank(*args):
        raise AssertionError("rank computed before the cap check")

    monkeypatch.setattr(topology, "gf2_rank", no_rank)
    with pytest.raises(ResourceError):
        betti_gf2(x)


def test_consistency_guards():
    for broken in BROKEN:
        with pytest.raises(ConsistencyError):
            betti_gf2(broken())


class EdgeBeforeEnds:
    # a valid 1-cell listed before its two endpoints
    def chain_data(self):
        return topology.ChainData([1, 0, 0], [[1, 2], [], []])


class TriangleAmongEdges:
    # a filled triangle whose 2-cell is listed before its last edge
    def chain_data(self):
        return topology.ChainData([0, 0, 0, 1, 1, 2, 1],
                                  [[], [], [], [0, 1], [1, 2], [3, 4, 6],
                                   [0, 2]])


@pytest.mark.parametrize("c", [EdgeBeforeEnds(), TriangleAmongEdges()],
                         ids=["edge-before-ends", "triangle-among-edges"])
def test_cells_out_of_dimension_order_are_inconsistent(c):
    # the same cells in dimension order are a valid complex
    dims, facets = c.chain_data()
    at = sorted(range(len(dims)), key=dims.__getitem__)
    new = {i: k for k, i in enumerate(at)}
    assert dense_check(sorted(dims), [sorted(new[j] for j in facets[i])
                                      for i in at])
    for read in (betti_gf2, f_vector, connected_components):
        with pytest.raises(ConsistencyError, match="nondecreasing dimension"):
            read(c)


def test_betti_leaves_the_cached_forest_as_built():
    # the forest belongs to the layout: coreduction pairs cells on a copy
    # of its mate, so later readers see the forest as it was grown
    x = build_hom(cycle(5), complete(4))
    betti_gf2(x)
    data = x.chain_data()
    assert data.forest == topology._spanning_forest(topology.ChainData(*data))


def test_components_need_two_endpoints_per_edge():
    # f_vector reads only the dimension ranges; the forest reads the edges
    assert f_vector(OpenEdge()) == (1, 1)
    with pytest.raises(ConsistencyError, match="two distinct 0-cells"):
        connected_components(OpenEdge())
