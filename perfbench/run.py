"""Benchmark of the omsr verdict pipeline.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload family-verify --seed 1 --seconds 30 --trace 0

The load is a closed loop: one process, one caller, each verdict call made
after the previous one returns, no threads and no worker processes.  Set-up
(import, emit, relabel, build every input) runs ``SETUP_REPEATS`` times and
reports the median.  A pass calls the verdict once on every case of the
workload; passes repeat until the next one would end after ``--seconds``, and
never fewer than the workload's ``min_passes``.  Every verdict is checked
against its known answer.  A short reference loop is timed before every
set-up and every call, and the end-to-end times are scaled by it, so that
drift in the speed of a shared host largely cancels out.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics.  With ``--trace 1`` the run makes at least two pairs of
passes, one untraced and one traced over the same inputs, and reports the
per-layer metrics of the traced passes plus the tracing overhead.  Each run
also writes ``perfbench/results/BENCH_<label>.json`` and, when traced, the
spans.  See ``perfbench/NOTES.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import platform
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

from spans import SpanRecorder, instrument, layer_metrics
from workloads import WORKLOADS, Inputs, Workload

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"
MODULES = ("autgroup", "constructions", "digraphs", "groups", "mcayley", "perms", "search", "verify")
SETUP_REPEATS = 9
# the tail is the highest percentile with at least this many samples beyond it
TAIL_BEYOND = 10
# End-to-end times are scaled to a machine on which reference_loop() takes
# REFERENCE_S; see "Reference-scaled times" in NOTES.md.
REFERENCE_S = 0.004


@dataclass
class Pass:
    call_s: list[float] = field(default_factory=list)
    reference_s: list[float] = field(default_factory=list)
    decided: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        """Time to every verdict of the pass."""
        return sum(self.call_s)


def reference_loop() -> int:
    """Fixed interpreter work of the kinds the program does (tuples, sets,
    dict updates, a keyed sort), using nothing from the program."""
    rows = [tuple((i * 7 + j * 13) % 97 for j in range(6)) for i in range(320)]
    counts: dict[tuple[int, int], int] = {}
    for _ in range(6):
        for row in rows:
            key = (row[0], len(set(row)))
            counts[key] = counts.get(key, 0) + sum(row)
        rows.sort(key=lambda r: (counts[(r[0], len(set(r)))], r))
    return len(counts)


def time_reference() -> float:
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def load_program() -> SimpleNamespace:
    """Import the package afresh from the checkout's ``src`` directory."""
    for name in [n for n in sys.modules if n == "omsr" or n.startswith("omsr.")]:
        del sys.modules[name]
    package = importlib.import_module("omsr")
    origin = Path(package.__file__).resolve()
    if not origin.is_relative_to(ROOT / "src"):
        raise ImportError(f"omsr was imported from {origin}, not from this checkout")
    return SimpleNamespace(**{n: importlib.import_module(f"omsr.{n}") for n in MODULES})


def set_up(workload: Workload, seed: int) -> tuple[float, SimpleNamespace, Inputs]:
    start = time.perf_counter()
    mods = load_program()
    inputs = workload.setup(mods, random.Random(f"{workload.name}:{seed}"))
    return time.perf_counter() - start, mods, inputs


def run_pass(
    workload: Workload, mods, inputs: Inputs, index: int, rec: SpanRecorder | None = None
) -> Pass:
    gc.collect()
    done = Pass()
    results = []
    for number, case in enumerate(inputs.cases):
        if rec is not None:
            rec.verdict_id = index * len(inputs.cases) + number
        arg = case.copies[index % len(case.copies)]
        done.reference_s.append(time_reference())
        began = time.perf_counter()
        try:
            result = workload.call(mods, arg)
        except Exception as exc:  # a raising verdict is a failed call, not a crash
            result = exc
        done.call_s.append(time.perf_counter() - began)
        results.append((case, result))
    for case, result in results:
        where = f"{case.label} (copy {index % len(case.copies)})"
        if isinstance(result, Exception):
            done.errors.append(f"{where}: {type(result).__name__}: {result}")
            continue
        problem = workload.check(result, case.expected)
        if problem is not None:
            done.errors.append(f"{where}: {problem}")
            continue
        done.decided += workload.decided(result)
    return done


def nearest_rank(values: list[float], level: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(level * len(ordered)) - 1)]


def end_to_end(
    workload: Workload, inputs: Inputs, passes: list[Pass], setups: list[float], scale: float
):
    """End-to-end metrics, every time multiplied by ``scale``."""
    calls = [s for p in passes for s in p.call_s]
    # The percentile is fixed by the fewest samples any run takes, so it keeps
    # one meaning however many passes fit in the run.
    floor = workload.min_passes * len(inputs.cases)
    level = 1 - TAIL_BEYOND / floor
    metrics = {
        "setup_s": (scale * statistics.median(setups), "s"),
        "wall_s": (scale * statistics.median(p.wall_s for p in passes), "s"),
        "verdict_p50_s": (scale * statistics.median(calls), "s"),
        "verdict_tail_s": (scale * nearest_rank(calls, level), "s"),
        "candidates_per_s": (sum(p.decided for p in passes) / (scale * sum(calls)), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    samples = {
        "setup_s": len(setups),
        "wall_s": len(passes),
        "verdict_p50_s": len(calls),
        "verdict_tail_s": len(calls),
        "verdict_tail_percentile": round(100 * level, 2),
        "candidates_per_s": len(calls),
    }
    return metrics, samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    sys.path.insert(0, str(ROOT / "src"))
    setups: list[float] = []
    reference: list[float] = []
    try:
        for _ in range(SETUP_REPEATS):
            reference.append(time_reference())
            seconds, mods, inputs = set_up(workload, args.seed)
            setups.append(seconds)
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + args.seconds
    passes: list[Pass] = []
    traced: list[Pass] = []
    rec = SpanRecorder() if args.trace else None
    while True:
        index = len(passes)
        if rec is None:
            passes.append(run_pass(workload, mods, inputs, index))
        else:
            # a pair runs the same copies untraced and traced; which goes first
            # alternates, so neither side keeps the advantage of a warmer heap
            for with_spans in (index % 2 == 1, index % 2 == 0):
                if with_spans:
                    with instrument(mods, rec):
                        traced.append(run_pass(workload, mods, inputs, index, rec))
                else:
                    passes.append(run_pass(workload, mods, inputs, index))
        enough = len(passes) >= (2 if rec is not None else workload.min_passes)
        pass_s = statistics.median(p.wall_s for p in passes + traced) * (2 if rec else 1)
        if enough and time.perf_counter() + pass_s > deadline:
            break

    every = passes + traced
    attempted = sum(len(p.call_s) for p in every)
    errors = [e for p in every for e in p.errors]
    label = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    report = {
        "label": label,
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "attempted": attempted,
        "failed": len(errors),
        "error_rate": len(errors) / attempted,
        "errors": errors[:20],
        "notes": list(workload.notes),
        "cases": {
            case.label: statistics.median(p.call_s[i] for p in passes)
            for i, case in enumerate(inputs.cases)
        },
        "pass_wall_s": [p.wall_s for p in passes],
    }
    if rec is None:
        reference += [s for p in passes for s in p.reference_s]
        loop_s = statistics.median(reference)
        metrics, samples = end_to_end(workload, inputs, passes, setups, REFERENCE_S / loop_s)
        raw, _ = end_to_end(workload, inputs, passes, setups, 1.0)
        report["samples"] = samples | {"reference_loop": len(reference)}
        report["reference_loop_s"] = loop_s
        report["raw_metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in raw.items()}
    else:
        metrics = layer_metrics(rec, len(traced))
        metrics["constructions.emit_s"] = (inputs.emit_s, "s")
        overhead = statistics.median(t.wall_s - p.wall_s for p, t in zip(passes, traced))
        untraced = statistics.median(p.wall_s for p in passes)
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["trace.overhead_ratio"] = (overhead / untraced, "ratio")
        report["samples"] = {"traced_passes": len(traced), "spans": len(rec.spans)}
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"BENCH_{label}.json").write_text(json.dumps(report, indent=2) + "\n")
    if rec is not None:
        rec.write(RESULTS / f"SPANS_{label}.jsonl.gz", verdicts=len(inputs.cases))

    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}", file=sys.stderr)
    for error in errors[:20]:
        print(f"FAILED {error}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": report["metrics"],
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
