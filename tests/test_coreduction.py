"""Coreduction inside betti_gf2: differential properties against direct
elimination over every cell, the one sweep against a separate check and
coreduction, the columns that clearing leaves to rank, a certificate for
the pairing it removes, the residue sizes that pin its sweep order, a strip
that takes one pass per triangle, the traced memory of a run, and the
Euler bookkeeping check."""

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from homtopo import _kernels, topology
from homtopo.equivariant import _swap_map, induced_involution, quotient
from homtopo.errors import BudgetError, ConsistencyError
from homtopo.graphs import complete, cycle, petersen
from homtopo.homcx import build_hom
from homtopo.morse import PartialMatching, is_acyclic
from homtopo.topology import (SimplicialComplex, betti_gf2,
                              connected_components, face_poset, order_complex)
from test_homcx import run_fresh, small_graphs, traced_in_fresh_interpreter
from test_topology import (EmptyBoundary, OpenEdge, closure, perturbed_chain_data,
                           posets)


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
        ranks[k] = _kernels.gf2_rank(cols[k], set())
    return tuple(f[k] - ranks[k] - ranks[k + 1] for k in range(top + 1))


def residue_and_matching(c):
    """(residue cell dims, seeds, PartialMatching of the removed pairs)."""
    dims, facets = data = c.chain_data()
    _, mate, seeds = topology._check_and_coreduce(data)
    mu = {i: m for i, m in enumerate(mate) if m >= 0 and dims[m] > dims[i]}
    residue = [dims[i] for i, m in enumerate(mate) if m < 0]
    return residue, seeds, PartialMatching(c, mu)


def reference_check(dims, facets):
    """Oracle: the check as a pass of its own over the cells in index
    order, with no use of their order: the f-vector, or ConsistencyError."""
    f = [0] * (max(dims, default=-1) + 1)
    for i, fs in enumerate(facets):
        d = dims[i]
        f[d] += 1
        s = []
        for j in fs:
            if dims[j] != d - 1:
                raise ConsistencyError(f"cell {i} has a facet of dim {dims[j]}")
            s += facets[j]
        if d >= 2:
            s.sort()
            if not fs or s[::2] != s[1::2]:
                raise ConsistencyError(f"boundary of cell {i} is empty or "
                                       "does not square to zero")
        elif d == 1 and (len(fs) != 2 or fs[0] == fs[1]):
            raise ConsistencyError(f"1-cell {i} lacks two distinct endpoints")
    return f


def reference_coreduce(dims, facets):
    """Oracle: coreduction as a sweep of its own, each dimension's cells
    found by a scan over every cell: the spanning forest over the 1-cells,
    then passes over each dimension from 2 up until one removes nothing.
    Returns (mate, seeds)."""
    mate = [-1] * len(dims)
    star = {v: [] for v, d in enumerate(dims) if d == 0}
    for e in [e for e, d in enumerate(dims) if d == 1]:
        for v in facets[e]:
            star[v].append(e)
    seeds = 0
    for v in star:
        if mate[v] >= 0:
            continue
        mate[v] = v
        seeds += 1
        reached = [v]
        for u in reached:
            for e in star[u]:
                if mate[e] < 0:
                    a, b = facets[e]
                    w = b if a == u else a
                    if mate[w] < 0:
                        mate[w] = e
                        mate[e] = w
                        reached.append(w)
    for d in range(2, max(dims, default=-1) + 1):
        todo = [c for c, dc in enumerate(dims) if dc == d]
        paired = True
        while paired:
            paired = False
            keep = []
            for c in todo:
                left = [j for j in facets[c] if mate[j] < 0]
                if len(left) == 1:
                    mate[c] = left[0]
                    mate[left[0]] = c
                    paired = True
                elif left:
                    keep.append(c)
            todo = keep
    return mate, seeds


@st.composite
def small_complexes(draw):
    """A simplicial complex on 6 vertices spanned by up to 6 random simplices."""
    tops = draw(st.lists(st.integers(1, 63), max_size=6))
    return SimplicialComplex(closure(tops))


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


@st.composite
def sweep_cases(draw):
    """A random simplicial complex, the order complex of a random poset, a
    small Hom complex with loops allowed on both sides, or the chain data of
    a simplicial complex with one facet list perturbed."""
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return draw(small_complexes()).chain_data()
    if kind == 1:
        return order_complex(draw(posets(max_n=10, top=4))).chain_data()
    if kind == 2:
        try:
            return build_hom(draw(small_graphs(4)), draw(small_graphs(4)),
                             budget=3000).chain_data()
        except BudgetError:
            reject()
    return draw(perturbed_chain_data())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sweep_cases())
@example(build_hom(cycle(5), complete(4)).chain_data())
@example(OpenEdge().chain_data())
@example(EmptyBoundary().chain_data())
def test_one_sweep_matches_check_then_coreduce(data):
    dims, facets = data
    if not dims:
        reject()
    try:
        want = (reference_check(dims, facets),
                *reference_coreduce(dims, facets))
    except ConsistencyError:
        with pytest.raises(ConsistencyError):
            topology._check_and_coreduce(topology.ChainData(dims, facets))
    else:
        assert topology._check_and_coreduce(
            topology.ChainData(dims, facets)) == want


# ------------------------------------------------------------ clearing

class Cells:
    """Chain data alone, so that betti_gf2 ranks it without factors()."""

    def __init__(self, c):
        self.data = c.chain_data()

    def chain_data(self):
        return self.data


def residue(c):
    """The coreduction residue by dimension, in cell order, and column(i),
    the boundary of residue cell i restricted to the residue: each row is
    the place of a cell among the residue cells of its dimension."""
    dims, facets = data = c.chain_data()
    _, mate, _ = topology._check_and_coreduce(data)
    cells = [[] for _ in range(max(dims) + 1)]
    row = {}
    for i, m in enumerate(mate):
        if m < 0:
            row[i] = len(cells[dims[i]])
            cells[dims[i]].append(i)

    def column(i):
        return sum(1 << row[j] for j in facets[i] if j in row)

    return cells, column


def clearing_steps(c, spans=True):
    """Run betti_gf2 on c, recording each call of topology.gf2_rank, and
    match the calls to the residue from the top dimension down.

    The columns ranked for d_k must be those of the residue k-cells that are
    not pivot rows of the rank of d_{k+1}, in cell order; no call is made for
    a dimension with no such column, nor for d_1: the forest leaves no
    0-cell in the residue, so d_1 is zero there.  Returns (profile, steps),
    where steps[k] = (residue k-cells, columns ranked, cleared rows, rank)
    for k >= 2.  With `spans`, each cleared column is also checked to lie
    in the span of the ranked ones.
    """
    real, calls = topology.gf2_rank, []

    def spy(cols, pivot_rows=None):
        rank = real(cols, pivot_rows)
        # a hash, not the columns: those of petersen -> K4 take about 70 MB
        calls.append((len(cols), hash(tuple(cols)), pivot_rows, rank))
        return rank

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(topology, "gf2_rank", spy)
        profile = betti_gf2(Cells(c))
    cells, column = residue(c)
    assert cells[0] == []
    steps, cleared = {}, set()
    for k in range(len(cells) - 1, 1, -1):
        kept = [column(i) for r, i in enumerate(cells[k]) if r not in cleared]
        if spans:
            for r in cleared:
                assert _kernels.gf2_in_span(kept, column(cells[k][r]))
        rows, rank = cleared, 0
        cleared = set()
        if kept:
            n, digest, cleared, rank = calls.pop(0)
            assert (n, digest) == (len(kept), hash(tuple(kept)))
        steps[k] = (len(cells[k]), len(kept), rows, rank)
        del kept
    assert not calls
    return profile, steps


@st.composite
def clearing_cases(draw):
    """A random build_hom complex, the order complex of a random poset, or a
    simplicial complex on 8 vertices spanned by 6 to 10 random simplices.
    Coreduction leaves two adjacent dimensions to the residue of few of the
    first two kinds; the third clears columns in about a fifth of draws."""
    kind = draw(st.integers(0, 2))
    if kind == 0:
        try:
            return build_hom(draw(small_graphs(5)), draw(small_graphs(4)),
                             budget=4000)
        except BudgetError:
            reject()
    if kind == 1:
        return order_complex(draw(posets(max_n=10, top=4)))
    return SimplicialComplex(closure(draw(st.lists(st.integers(1, 255),
                                                   min_size=6, max_size=10))))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(clearing_cases())
@example(build_hom(cycle(5), complete(4)))
@example(build_hom(cycle(6), complete(3)))
def test_clearing_ranks_only_the_uncleared_columns(c):
    if not c.chain_data()[0]:
        reject()
    profile, steps = clearing_steps(c)
    assert profile.betti == direct_betti(c)
    cells, column = residue(c)
    ranks = [_kernels.gf2_rank(list(map(column, cs)), set())
             for cs in cells] + [0]
    for k, (rf, ranked, cleared, rank) in steps.items():
        assert rank == ranks[k]
        assert ranked == rf - ranks[k + 1] == rf - len(cleared)


def test_petersen_k4_betti_with_clearing():
    # the full residue of Hom(petersen, K4) takes ~4.6 million column XORs
    # to rank; clearing builds and ranks only the columns counted here
    profile, steps = clearing_steps(build_hom(petersen(), complete(4)),
                                    spans=False)
    assert profile.betti == (1, 6, 265, 20, 0, 0, 0)
    assert sorted(steps) == [2, 3, 4, 5, 6]
    for k, (rf, ranked, cleared, _) in steps.items():
        rank_above = steps[k + 1][3] if k < 6 else 0
        assert ranked == rf - rank_above == rf - len(cleared)


# ------------------------------------------------------------ cohomology

def coboundary_betti(c):
    """GF(2) Betti numbers of c by a route that shares no elimination code
    with betti_gf2: the coboundary columns of the coreduction residue (each
    residue k-cell's residue cofacets), reduced from dimension 0 up by the
    XOR loop below, each survivor keyed by its highest row.  Clearing from
    below: a reduced column of delta_{k-1} is a cocycle, so the coboundary
    of its pivot k-cell is a sum of those of lower k-cells, and that column
    is never reduced."""
    cells, column = residue(c)
    seeds = topology._check_and_coreduce(c.chain_data())[2]
    cob = [[0] * len(cs) for cs in cells]
    for d in range(1, len(cells)):
        for r, i in enumerate(cells[d]):
            col = column(i)
            while col:
                low = col & -col
                cob[d - 1][low.bit_length() - 1] |= 1 << r
                col ^= low
    rank = [0] * (len(cells) + 1)  # rank[k]: of d_k, that is of delta_{k-1}
    cleared = set()
    for k in range(len(cells)):
        pivots = {}
        for r, col in enumerate(cob[k]):
            if r in cleared:
                continue
            while col:
                other = pivots.get(col.bit_length())
                if other is None:
                    pivots[col.bit_length()] = col
                    break
                col ^= other
        rank[k + 1] = len(pivots)
        cleared = {p - 1 for p in pivots}
    betti = [len(cs) - rank[k] - rank[k + 1] for k, cs in enumerate(cells)]
    betti[0] += seeds  # the forest's roots; no 0-cell is left to the residue
    return tuple(betti)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(clearing_cases())
def test_coboundary_route_matches_betti(c):
    if not c.chain_data()[0]:
        reject()
    assert coboundary_betti(c) == betti_gf2(c).betti


def test_petersen_k4_coboundary_route():
    # the residue's 80,741 coboundary columns take 34,489 XORs to reduce
    x = build_hom(petersen(), complete(4))
    assert coboundary_betti(x) == betti_gf2(x).betti == (1, 6, 265, 20,
                                                         0, 0, 0)


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
    # the sweep by dimension leaves 3,245 of 45,540 cells; a queue of cells
    # freed by their faces' removal left 3,017, and a stack about 25,000
    x = build_hom(cycle(5), complete(5))
    residue, seeds, _ = residue_and_matching(x)
    assert len(x.keys) == 45540
    assert len(residue) <= 4000


class Strip:
    """A strip of n triangles (i, i+1, i+2) on the vertices 0..n+1, with the
    triangles listed from the last one down.  The spanning tree from vertex
    0 takes the edges (0,1) and (i,i+2), so only triangle 0 starts with one
    edge left, and each removal frees the triangle listed before it."""

    def __init__(self, n):
        edges = sorted([(i, i + 1) for i in range(n + 1)]
                       + [(i, i + 2) for i in range(n)])
        at = {e: n + 2 + k for k, e in enumerate(edges)}
        self.dims = [0] * (n + 2) + [1] * len(edges) + [2] * n
        self.facets = ([[] for _ in range(n + 2)] + [list(e) for e in edges]
                       + [[at[i, i + 1], at[i, i + 2], at[i + 1, i + 2]]
                          for i in reversed(range(n))])

    def chain_data(self):
        return topology.ChainData(self.dims, self.facets)


class CountedReads(list):
    """A facet list that counts the reads of 2-cells' entries."""

    def __init__(self, facets, dims):
        super().__init__(facets)
        self.dims, self.reads = dims, 0

    def __getitem__(self, i):
        self.reads += self.dims[i] == 2
        return super().__getitem__(i)


def test_strip_against_the_sweep_takes_a_pass_per_triangle():
    n = 120
    c = Strip(n)
    assert betti_gf2(c).betti == (1, 0, 0)
    residue, seeds, m = residue_and_matching(c)
    assert residue == [] and seeds == 1
    assert is_acyclic(m)
    facets = CountedReads(c.facets, c.dims)
    topology._check_and_coreduce(topology.ChainData(c.dims, facets))
    # pass k visits the n - k + 1 triangles still present
    assert facets.reads >= n * (n + 1) // 2


BETTI_ON_BUILT_PEAK = """
import tracemalloc
from homtopo.graphs import complete, cycle
from homtopo.homcx import build_hom
from homtopo.topology import betti_gf2
x = build_hom(cycle(5), complete(5))
x.chain_data()
tracemalloc.start()
betti = betti_gf2(x).betti
print(tracemalloc.get_traced_memory()[1], *betti)
"""


def test_betti_on_built_face_data_stays_small():
    # the check pass and coreduction keep no per-cell list of their own:
    # 7.4 MB traced in process with cofacet lists, about 1.5 MB without;
    # 1.98 MB in a fresh interpreter on Python 3.11
    peak, *betti = traced_in_fresh_interpreter(BETTI_ON_BUILT_PEAK)
    assert betti == [1, 0, 1, 1, 0, 1]
    assert peak < 3_000_000


# ------------------------------------------------------------ guard rails

def test_one_cells_need_two_endpoints():
    with pytest.raises(ConsistencyError):
        betti_gf2(OpenEdge())


def test_euler_check_catches_a_miscounted_seed(monkeypatch):
    real = topology._check_and_coreduce

    def one_seed_too_many(data):
        f, mate, seeds = real(data)
        return f, mate, seeds + 1

    monkeypatch.setattr(topology, "_check_and_coreduce", one_seed_too_many)
    with pytest.raises(ConsistencyError):
        betti_gf2(build_hom(complete(2), complete(4)))


EULER_UNDER_O = """
from homtopo import topology
from homtopo.errors import ConsistencyError
from homtopo.graphs import complete
from homtopo.homcx import build_hom
real = topology._check_and_coreduce
topology._check_and_coreduce = lambda *data: (*real(*data)[:2],
                                              real(*data)[2] + 1)
try:
    topology.betti_gf2(build_hom(complete(2), complete(4)))
except ConsistencyError:
    print("caught")
"""


def test_euler_check_survives_optimize():
    assert run_fresh(EULER_UNDER_O, "-O").strip() == "caught"


def test_negative_betti_number_is_inconsistent(monkeypatch):
    # one rank too many at d_4 of Hom(C5,K5), the first one taken, would
    # give (1,0,1,1,-1,0).  The Euler check cannot see it: the alternating
    # Betti sum telescopes to the residue's, whatever the ranks are
    real = topology.gf2_rank
    calls = []

    def first_rank_too_high(cols, cleared):
        calls.append(len(cols))
        return real(cols, cleared) + (len(calls) == 1)

    monkeypatch.setattr(topology, "gf2_rank", first_rank_too_high)
    with pytest.raises(ConsistencyError,
                       match=r"negative Betti number in \[1, 0, 1, 1, -1, 0\]"):
        betti_gf2(build_hom(cycle(5), complete(5)))
    assert calls[0] == 443  # the columns of d_4 on the residue


def test_d1_is_never_ranked(monkeypatch):
    # the forest seeds or pairs every 0-cell, so the residue holds none and
    # d_1 is zero on it: b_0 is the seed count.  A rank of d_1 one too high
    # would give Hom(C4,K3) the Betti numbers (0,0,0), which no check sees
    x = build_hom(cycle(4), complete(3))
    cells, column = residue(x)
    real, calls = topology.gf2_rank, []

    def spy(cols, cleared):
        calls.append(list(cols))
        return real(cols, cleared)

    monkeypatch.setattr(topology, "gf2_rank", spy)
    profile = betti_gf2(x)
    assert calls == [list(map(column, cells[2]))]  # d_2 alone
    assert profile.betti == (1, 1, 0)
    assert profile.betti[0] == connected_components(x)


NEGATIVE_UNDER_O = """
from homtopo import topology
from homtopo.errors import ConsistencyError
from homtopo.graphs import complete, cycle
from homtopo.homcx import build_hom
real, calls = topology.gf2_rank, []
def first_rank_too_high(cols, cleared):
    calls.append(len(cols))
    return real(cols, cleared) + (len(calls) == 1)
topology.gf2_rank = first_rank_too_high
try:
    topology.betti_gf2(build_hom(cycle(5), complete(5)))
except ConsistencyError as e:
    print(e)
"""


def test_negative_betti_check_survives_optimize():
    assert run_fresh(NEGATIVE_UNDER_O, "-O").strip() == (
        "negative Betti number in [1, 0, 1, 1, -1, 0]")
