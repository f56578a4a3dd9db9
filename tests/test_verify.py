"""Verification harness: the two suites, helpers, report shape."""

import pytest

from homtopo import verify
from homtopo.errors import DomainError
from homtopo.homcx import HomComplex
from homtopo.verify import (CHECKS, _product_of_spheres, _sphere, _trim,
                            _wedge_profile, run_checks)


def test_trim():
    assert _trim([1, 0, 1, 0, 0]) == [1, 0, 1]
    assert _trim([0, 0]) == []
    assert _trim([]) == []
    assert _trim((2,)) == [2]


def test_sphere_profiles():
    assert _sphere(0) == [2]
    assert _sphere(1) == [1, 1]
    assert _sphere(3) == [1, 0, 0, 1]


def test_product_of_spheres():
    assert _product_of_spheres(1, 2) == _sphere(2)
    # torus: (S^1)^2 has Betti (1, 2, 1)
    assert _product_of_spheres(2, 1) == [1, 2, 1]
    assert _product_of_spheres(3, 1) == [1, 3, 3, 1]
    assert _product_of_spheres(2, 2) == [1, 0, 2, 0, 1]
    assert _product_of_spheres(3, 0) == [8]


def test_wedge_profile():
    assert _wedge_profile(3, 3) == [6]          # 3! points
    assert _wedge_profile(2, 3) == [1, 1]       # one circle
    assert _wedge_profile(2, 4) == [1, 0, 1]    # one 2-sphere
    assert _wedge_profile(3, 5) == [1, 0, 29]   # 29 spheres in degree n - m
    assert _wedge_profile(4, 6) == [1, 0, 479]


def test_run_checks_suites():
    assert run_checks(["exclusions"], "full")["suite"] == "full"
    with pytest.raises(DomainError, match="unknown suite"):
        run_checks(["exclusions"], "medium")


def test_run_checks_report_shape():
    report = run_checks(["exclusions"], "fast")
    assert report["suite"] == "fast"
    assert report["status"] == "pass"
    (row,) = report["checks"]
    assert row["name"] == "exclusions"
    assert row["status"] == "pass"
    assert row["expected"] == row["computed"]
    assert isinstance(row["elapsed"], float)


def test_run_checks_order_is_declaration_order():
    names = ["cayley-graph", "exclusions", "formula-tri-agreement"]
    report = run_checks(names, "fast")
    assert [r["name"] for r in report["checks"]] == names


def test_run_checks_unknown_name():
    with pytest.raises(DomainError):
        run_checks(["no-such-check"], "fast")


def test_crashed_check_is_failed(monkeypatch):
    def boom(cfg):
        raise ValueError("synthetic crash")

    monkeypatch.setitem(CHECKS, "exclusions", boom)
    report = run_checks(["exclusions"], "fast")
    assert report["status"] == "fail"
    (row,) = report["checks"]
    assert row["status"] == "fail"
    assert row["computed"] == "ValueError: synthetic crash"
    assert row["expected"] == "no error"


def test_notes_surface_in_row():
    def chatty(cfg):
        return 1, 1, "extra detail"

    saved = dict(CHECKS)
    CHECKS["exclusions"] = chatty
    try:
        report = run_checks(["exclusions"], "fast")
    finally:
        CHECKS.clear()
        CHECKS.update(saved)
    (row,) = report["checks"]
    assert row["status"] == "pass" and row["notes"] == "extra detail"


def test_cayley_check_sees_a_missing_edge(monkeypatch):
    # drop one 1-cell of Hom(K3,K4) and every cell above it: the complex is
    # still face-closed, and its 1-skeleton lacks one Cayley edge
    assert verify._cayley_matches(4) is True
    real = verify.build_hom

    def lacking_an_edge(g, h):
        x = real(g, h)
        gone = next(k for k in x.keys if k.bit_count() - x.n_g == 1)
        return HomComplex(x.g, x.h, [k for k in x.keys if (k & gone) != gone])

    monkeypatch.setattr(verify, "build_hom", lacking_an_edge)
    assert verify._cayley_matches(4) is False
