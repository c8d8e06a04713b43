"""Acceptance gate: every exit criterion runs at its stated scale and
tolerance, printing one pass/fail line per criterion."""

import pytest

from rosefold import acceptance


@pytest.mark.parametrize("criterion", acceptance.CRITERIA.values(), ids=lambda c: c.__name__)
def test_criterion(criterion):
    result = criterion()
    print(result.line())
    assert result.passed, result.line()
