"""Acceptance gate: every exit criterion runs at its stated scale and
tolerance, printing one pass/fail line per criterion."""

import pytest

from rosefold import acceptance


@pytest.mark.parametrize("criterion", acceptance.CRITERIA.values(), ids=lambda c: c.__name__)
def test_criterion(criterion):
    result = criterion()
    print(result.line())
    assert result.passed, result.line()


@pytest.mark.parametrize(
    "correct, seconds, status",
    [(True, 0.5, "PASS"), (True, 1.0, "SLOW"), (True, 2.0, "SLOW"), (False, 0.5, "FAIL"), (False, 2.0, "FAIL")],
)
def test_line_names_the_cause(correct, seconds, status):
    # a right answer at or over its limit fails as SLOW, a wrong one as FAIL
    result = acceptance.CriterionResult("x", correct, seconds, 1.0, "d")
    assert result.passed == (status == "PASS")
    assert result.line() == f"{status} x: d [{seconds:.3f}s (limit 1s)]"
