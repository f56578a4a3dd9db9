"""Acceptance gate: every headline claim as one exact pass/fail line.

Each criterion runs the corresponding named check at the fast budget and
demands exact equality of its expected/computed pair — no tolerances.
"""

import pytest

from homtopo.verify import CHECKS, SUITES

CRITERIA = [
    ("01-wedge-counts", "wedge-counts"),
    ("02-formula-tri-agreement", "formula-tri-agreement"),
    ("03-sphere-polytope", "sphere-polytope"),
    ("04-cycle-examples", "cycle-examples"),
    ("05-cayley-graph", "cayley-graph"),
    ("06-fold-soundness", "fold-soundness"),
    ("07-core-uniqueness", "core-uniqueness"),
    ("08-morse-kmn", "morse-kmn"),
    ("09-quillen", "quillen"),
    ("10-equivariant-bounds", "equivariant-bounds"),
    ("11-connectivity", "connectivity"),
    ("12-exclusions", "exclusions"),
]


@pytest.mark.parametrize("criterion,check", CRITERIA,
                         ids=[c for c, _ in CRITERIA])
def test_acceptance(criterion, check):
    out = CHECKS[check](SUITES["fast"])
    expected, computed = out[0], out[1]
    assert expected == computed, (
        f"{criterion}: expected {expected!r}, computed {computed!r}")
