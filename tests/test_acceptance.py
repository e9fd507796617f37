"""Acceptance checks, one per shipped guarantee.

Each test replays one named check from tmss.verification, prints its
PASS/FAIL line with timing, and fails if the check fails or overruns its
budget.  The same suite is reachable from the command line via
``tmss verify all``.
"""

import pytest

from tmss.verification import ALL_CHECKS, check_tower_values

CHECKS = dict(ALL_CHECKS)


def replay(name):
    result = CHECKS[name]()
    print(result.line())
    assert result.passed, result.detail
    assert result.ok, f"budget overrun: {result.seconds:.2f}s > {result.budget}s"


def test_c01_tower_values():
    replay("tower-values")


def test_c02_base_values():
    replay("base-values")


def test_c03_substitution_diagonal():
    replay("substitution-diagonal")


def test_c04_word_problem():
    replay("word-problem")


def test_c05_nucleus():
    replay("nucleus")


def test_c06_algebra_relations():
    replay("algebra-relations")


def test_c07_homomorphism_laws():
    replay("homomorphism-laws")


def test_c08_counting_defect():
    replay("counting-defect")


def test_c09_sigma_additivity():
    replay("sigma-additivity")


def test_c10_range_witnesses():
    replay("range-witnesses")


def test_c11_fixed_point_oracle():
    replay("fixed-point-oracle")


def test_c12_boundedness():
    replay("boundedness")


def test_c13_julia_renderer():
    replay("julia-renderer")


def test_registry_matches_criterion_count():
    assert len(ALL_CHECKS) == 13


@pytest.mark.parametrize("qs, k_max", [((2, 3, 5), 0), ((), 5)])
def test_tower_values_fails_when_it_checks_no_value(qs, k_max):
    result = check_tower_values(qs=qs, k_max=k_max)
    assert not result.passed and result.detail == "no value checked"
