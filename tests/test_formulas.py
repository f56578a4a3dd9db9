"""Exact enumeration formulas, cross-checked against the complexes they
describe, and the polytope model of Hom(K_2, K_{n+1})."""

import itertools
import time
from math import comb, factorial

import pytest

from homtopo import formulas
from homtopo.errors import ConsistencyError, DomainError, ResourceError
from homtopo.formulas import (FORMULA_N_MAX, MN_MAX, TABLE_N_MAX,
                              MnFaceLabel, chi_hom, cycle_components,
                              f_table, f_wedge, kmn_cells, mn_face_poset,
                              mn_faces, mn_symmetry, rho_cell,
                              rho_isomorphism_check,
                              verify_generating_identity)
from homtopo.graphs import complete, cycle
from homtopo.homcx import build_hom
from homtopo.topology import betti_gf2, connected_components


def brute_stirling2(n, k):
    """Oracle: count surjections onto k blocks by inclusion-exclusion."""
    if k == 0:
        return int(n == 0)
    surj = sum((-1) ** j * comb(k, j) * (k - j) ** n for j in range(k + 1))
    return surj // factorial(k)


def test_stirling2():
    for k in range(9):
        column = itertools.islice(formulas._stirling_column(k), 8)
        assert list(column) == [brute_stirling2(n, k) for n in range(8)]


def test_f_known_values():
    assert f_wedge(3, 4) == 13
    assert f_wedge(3, 5) == 29
    assert f_wedge(4, 5) == 121
    assert f_wedge(4, 6) == 479
    assert f_wedge(4, 7) == 1681
    assert f_wedge(5, 5) == factorial(5) - 1
    assert f_wedge(1, 9) == 0
    assert f_wedge(4, 3) == 0
    with pytest.raises(DomainError):
        f_wedge(0, 3)


def test_chi():
    assert chi_hom(3, 3) == 6
    assert chi_hom(1, 7) == 1
    for m in range(1, 9):
        for n in range(m, 10):
            assert chi_hom(m, n) == 1 + (-1) ** (m - n) * f_wedge(m, n)
    # m = 2 gives the Euler characteristic of a sphere
    assert chi_hom(2, 5) == 0 and chi_hom(2, 6) == 2


@pytest.mark.parametrize("m,n", [(m, n) for m in (2, 3, 4)
                                 for n in range(m, 6)])
def test_chi_matches_complex(m, n):
    assert betti_gf2(build_hom(complete(m), complete(n))).euler \
        == chi_hom(m, n)


def test_kmn_cells_counts_the_complex():
    for m in range(1, 5):
        for n in range(1, 7):
            assert kmn_cells(m, n) == len(build_hom(complete(m), complete(n)))
    assert kmn_cells(9, 12) == 14_270_256_000


def test_kmn_cells_zero_when_m_exceeds_n():
    # each source vertex needs a target vertex of its own
    for m in range(2, 7):
        for n in range(1, m):
            assert kmn_cells(m, n) == len(build_hom(complete(m),
                                                    complete(n))) == 0
    start = time.perf_counter()
    assert kmn_cells(20000, 3) == 0
    assert time.perf_counter() - start < 0.1
    with pytest.raises(DomainError):
        kmn_cells(0, 3)


def test_generating_identity():
    assert all(verify_generating_identity(m, 20) for m in range(1, 9))
    with pytest.raises(DomainError):
        verify_generating_identity(2, 0)


def test_chi_exact_past_float_precision():
    # (-1)^(m-n) with n > m is a float; the sign must stay an exact int
    assert chi_hom(3, 55) == 2 ** 55 - 2
    for m in range(1, 6):
        for n in range(m, 81):
            assert chi_hom(m, n) == 1 + (-1) ** (n - m) * f_wedge(m, n)


def test_large_n_without_recursion():
    # f(3,n) = 2^n - 3 in closed form
    assert f_wedge(3, 1000) == 2 ** 1000 - 3
    assert next(itertools.islice(formulas._stirling_column(3), 1000, None)) \
        == brute_stirling2(1000, 3)
    assert chi_hom(3, 1000) == 4 - 2 ** 1000
    assert verify_generating_identity(3, 1000)


def test_size_caps():
    n = FORMULA_N_MAX + 1
    for call in (lambda: f_wedge(3, n), lambda: chi_hom(3, n),
                 lambda: verify_generating_identity(3, n),
                 lambda: kmn_cells(3, n),
                 lambda: f_table(3, TABLE_N_MAX + 1)):
        with pytest.raises(ResourceError):
            call()
    assert f_wedge(n, 3) == 0    # m > n needs no work


def test_cycle_components_formula():
    assert [cycle_components(t) for t in range(3, 10)] == \
        [6, 1, 2, 7, 2, 3, 8]
    with pytest.raises(DomainError):
        cycle_components(2)
    for t in range(3, 9):
        assert connected_components(build_hom(cycle(t), complete(3))) \
            == cycle_components(t)


# ------------------------------------------------------------ the polytope

def test_mn_face_counts():
    for n in range(1, 5):
        faces = mn_faces(n)
        assert len(faces) == 3 ** (n + 1) - 2 ** (n + 2) + 1
        assert len(faces) == len(build_hom(complete(2), complete(n + 1)))
        assert max(lab.dim for lab in faces) == n - 1
    with pytest.raises(DomainError):
        mn_faces(0)
    with pytest.raises(ResourceError):
        mn_faces(MN_MAX + 1)


def test_mn_rhombic_dodecahedron():
    # M_3 is the rhombic dodecahedron: 14 vertices, 24 edges, 12 rhombi
    by_dim = [0, 0, 0]
    for lab in mn_faces(3):
        by_dim[lab.dim] += 1
    assert by_dim == [14, 24, 12]


def test_mn_label_validation():
    MnFaceLabel("star+", (1, 0, "*"))
    with pytest.raises(DomainError):
        MnFaceLabel("star+", (0, 0))        # needs a 1
    with pytest.raises(DomainError):
        MnFaceLabel("star-", (1, 0))        # wrong alphabet
    with pytest.raises(DomainError):
        MnFaceLabel("middle", (1, "*"))     # a middle face needs a 0 too
    with pytest.raises(DomainError):
        MnFaceLabel("middle", (-1, 0))      # wrong alphabet
    with pytest.raises(DomainError):
        MnFaceLabel("weird", (1,))


def test_mn_vertices_realize_faces():
    # a star face is a cube of its free digits; a middle face joins the
    # top cube of f with that cube one digit lower, one dimension up
    for lab in mn_faces(2) + mn_faces(3):
        vs = lab.vertices()
        assert len(vs) == 2 ** lab.dim
        for v in vs:
            assert all(d in (0, 1, 2) for d in v)


def test_mn_poset_graded():
    p = mn_face_poset(3)
    assert sorted(set(p.grades)) == [0, 1, 2]
    for i, cov in enumerate(p.covers):
        for j in cov:
            assert p.grades[j] == p.grades[i] - 1


def test_mn_symmetry_involution():
    faces = mn_faces(3)
    sym = mn_symmetry(faces)
    assert all(sym[sym[i]] == i for i in range(len(faces)))
    kinds = {"star+": "star-", "star-": "star+", "middle": "middle"}
    for i, lab in enumerate(faces):
        assert faces[sym[i]].kind == kinds[lab.kind]


def test_rho_cell_values():
    # a positive-star vertex of M_2 and its image cell
    a, b = rho_cell(MnFaceLabel("star+", (1, 0)))
    assert (a, b) == (0b001, 0b110)
    a, b = rho_cell(MnFaceLabel("star-", (-1, 0)))
    assert (a, b) == (0b110, 0b001)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_rho_isomorphism(n):
    assert rho_isomorphism_check(n)


def test_rho_check_fails_when_containment_does_not_reverse(monkeypatch):
    # complemented vertex sets turn every strict face relation around, so
    # containment of faces then matches containment of cells, not its reverse
    vertex_masks = formulas._vertex_masks

    def complemented(faces):
        masks = vertex_masks(faces)
        full = (1 << max(masks).bit_length()) - 1
        return [full ^ m for m in masks]

    monkeypatch.setattr(formulas, "_vertex_masks", complemented)
    assert not rho_isomorphism_check(2)
    assert not rho_isomorphism_check(3)


def test_f_table():
    rows = f_table(3, 4)
    assert {(r["m"], r["n"]) for r in rows} == \
        {(m, n) for m in (1, 2, 3) for n in range(m, 5)}
    rows = f_table(14, 24)
    assert [(r["m"], r["n"]) for r in rows] == \
        [(m, n) for m in range(1, 15) for n in range(m, 25)]
    for r in rows:
        assert r["f"] == f_wedge(r["m"], r["n"])
        assert r["chi"] == chi_hom(r["m"], r["n"])


def test_method_disagreement_raises(monkeypatch):
    closed = formulas._f_closed_values

    def off_by_one(m, n):
        for v in closed(m, n):
            yield v + (m == 3 and n == 5)
            n += 1

    monkeypatch.setattr(formulas, "_f_closed_values", off_by_one)
    for call in (lambda: f_wedge(3, 5), lambda: chi_hom(3, 5)):
        with pytest.raises(ConsistencyError, match=r"f\(3,5\)"):
            call()


def test_table_method_disagreement_raises(monkeypatch):
    closed = formulas._f_closed_values

    def off_by_one(m, n):
        for v in closed(m, n):
            yield v + (m == 3 and n == 5)
            n += 1

    monkeypatch.setattr(formulas, "_f_closed_values", off_by_one)
    assert f_table(2, 8)
    with pytest.raises(ConsistencyError, match=r"f\(3,5\)"):
        f_table(3, 8)


def _shift_all_f_streams(monkeypatch):
    # all three f streams agree on a wrong value: only the chi identity sees it
    def shifted(real):
        return lambda *a: (v + 1 for v in real(*a))

    for name in ("_f_closed_values", "_f_stirling_values"):
        monkeypatch.setattr(formulas, name, shifted(getattr(formulas, name)))
    # the recurrence is the corner -1 diagonal stream; chi's (corner 0) stays
    diagonals = formulas._kmn_diagonals
    monkeypatch.setattr(
        formulas, "_kmn_diagonals", lambda m, corner, sign:
        (v + (corner == -1) for v in diagonals(m, corner, sign)))


def test_table_chi_identity_raises(monkeypatch):
    _shift_all_f_streams(monkeypatch)
    with pytest.raises(ConsistencyError, match=r"chi\(1,1\)"):
        f_table(3, 5)


def test_chi_identity_raises(monkeypatch):
    _shift_all_f_streams(monkeypatch)
    for call in (lambda: f_wedge(3, 5), lambda: chi_hom(3, 5)):
        with pytest.raises(ConsistencyError, match=r"chi\("):
            call()
