"""Acceptance checks, one per shipped guarantee.

One test replays every check registered in tmss.verification, prints its
PASS/FAIL line with timing, and fails if the check fails or overruns its
budget.  The same suite is reachable from the command line via
``tmss verify all``.
"""

import pytest

from tmss import verification
from tmss.verification import ALL_CHECKS, check_tower_values


@pytest.mark.parametrize(
    "check", [check for _, check in ALL_CHECKS],
    ids=[f"c{n:02d}-{name}" for n, (name, _) in enumerate(ALL_CHECKS, 1)])
def test_replay(check):
    result = check()
    print(result.line())
    assert result.passed, result.detail
    assert result.ok, f"budget overrun: {result.seconds:.2f}s > {result.budget}s"


def test_registry_matches_criterion_count():
    names = [name for name, _ in ALL_CHECKS]
    assert names == [
        "tower-values", "base-values", "substitution-diagonal", "word-problem",
        "nucleus", "algebra-relations", "homomorphism-laws", "counting-defect",
        "sigma-additivity", "range-witnesses", "fixed-point-oracle",
        "boundedness", "julia-renderer"]
    public = [value for attr, value in vars(verification).items()
              if attr.startswith("check_")]
    assert len(public) == len(ALL_CHECKS)
    assert set(public) == {check for _, check in ALL_CHECKS}


@pytest.mark.parametrize("qs, k_max", [((2, 3, 5), 0), ((), 5)])
def test_tower_values_fails_when_it_checks_no_value(qs, k_max):
    result = check_tower_values(qs=qs, k_max=k_max)
    assert not result.passed and result.detail == "no value checked"


def test_a_check_that_raises_fails_naming_the_exception():
    result = check_tower_values(qs=(1,), k_max=1)
    assert (result.name, result.passed) == ("tower-values", False)
    assert result.detail == ("raised ValueError: "
                             "alphabet size must be at least 2, got 1")
