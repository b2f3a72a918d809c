"""The benchmark's calls into the package, each made once on a cheap case.

``perfbench/`` drives the package through module attributes, function
signatures and result fields of its own choosing.  For every workload this
runs the set-up with a fixed seed, one verdict call and the workload's check
of its answer, so that a change which breaks one of them fails here and not
only in a benchmark run.  The modules come from the package already imported
by the tests; ``perfbench/`` is read, never changed.
"""

from __future__ import annotations

import importlib
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from run import MODULES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# the cheapest case of each workload, by label (repeated cases end in " #k")
CHEAPEST = {
    "family-verify": "klein-m3",
    "exhaustive-search": "Z4 m=2",
    "symmetric-aut": "arcless nv=7",
}


def test_every_workload_has_a_case_here() -> None:
    assert set(CHEAPEST) == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(CHEAPEST))
def test_workload_call_on_its_cheapest_case_checks_out(name: str) -> None:
    mods = SimpleNamespace(**{n: importlib.import_module(f"omsr.{n}") for n in MODULES})
    workload = WORKLOADS[name]
    inputs = workload.setup(mods, random.Random(f"{name}:1"))
    case = next(c for c in inputs.cases if c.label.split(" #")[0] == CHEAPEST[name])
    result = workload.call(mods, case.copies[0])
    assert workload.check(result, case.expected) is None
    assert workload.decided(result) >= 1
