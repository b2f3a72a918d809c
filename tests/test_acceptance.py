"""Acceptance gate: run every criterion and print its pass/fail line."""

from __future__ import annotations

import pytest

from omsr.suite import CRITERIA, run_all


@pytest.mark.parametrize(
    "number",
    range(1, len(CRITERIA) + 1),
    ids=[f"{n:02d}-{name}" for n, (name, _, _) in enumerate(CRITERIA, 1)],
)
def test_criterion(number: int) -> None:
    (result,) = run_all((number,))
    print(result.line())
    assert result.number == number
    assert result.name == CRITERIA[number - 1][0]
    assert result.passed, result.detail
