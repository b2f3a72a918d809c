"""Acceptance gate: run every criterion and print its pass/fail line."""

from __future__ import annotations

import pytest

from omsr import suite
from omsr.groups import make_cyclic
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


def test_nonexistence_criterion_fails_on_a_witness(monkeypatch) -> None:
    # Z5 m=2 has a witness, so its exhaustion claim must fail, not raise
    z5 = make_cyclic(5)[0]
    monkeypatch.setattr(suite, "nonexistence_instances", lambda: [("Z5", z5, 2)])
    (result,) = run_all((6,))
    assert not result.passed
    assert result.detail == "(Z5, m=2): FOUND, expected exhaustion"
