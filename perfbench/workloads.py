"""The benchmark's workloads: seeded inputs, the verdict call, known answers.

A workload is a list of cases.  Each case holds ``COPIES`` seed-relabelled
copies of one input and the answer the verdict must give; pass p of a run
calls every case once, on copy p mod ``COPIES``, so successive passes average
over relabellings.  Every known answer comes from a theorem, a closed form,
an orbit-stabilizer count or a count frozen in the repository's tests; none
is produced by a second call into the engine under test.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from math import factorial
from typing import Any, Callable

from relabel import (
    element_relabelling,
    permutation,
    relabel_digraph,
    relabel_group,
    relabel_matrix,
)

COPIES = 8

# The six excluded (group, m) pairs: candidates tested and the |Aut| histogram,
# as frozen in the repository's search tests (176 candidates in all).
EXCLUDED_PAIRS: dict[tuple[str, int], tuple[int, dict[int, int]]] = {
    ("Z2", 2): (0, {}),
    ("Z2", 3): (0, {}),
    ("Z2", 4): (152, {6: 64, 8: 48, 16: 24, 24: 16}),
    ("Z3", 2): (0, {}),
    ("Z4", 2): (24, {8: 8, 16: 8, 24: 8}),
    ("Z2xZ2", 2): (0, {}),
}

# Trivial group, m = 7: the candidates are the labelled regular tournaments on
# 7 vertices.  There are three isomorphism classes, with |Aut| = 3, 7 and 21,
# and each class holds 7!/|Aut| labelled copies.
TRIVIAL_M7_AUT_ORDERS = (3, 7, 21)
TRIVIAL_M7_HISTOGRAM = {a: factorial(7) // a for a in TRIVIAL_M7_AUT_ORDERS}
TRIVIAL_M7_CANDIDATES = 2640
# The default budget refuses this space on its rows^m pre-estimate of
# 20^7 = 1.28e9, so the benchmark passes a budget above that estimate.
TRIVIAL_M7_BUDGET = 2 * 10**9


# ---------------------------------------------------------------------------
# Digraphs whose automorphism group has a closed form.
# ---------------------------------------------------------------------------

def arcless_rows(nv: int) -> list[list[int]]:
    return [[] for _ in range(nv)]


def arcless_aut(nv: int) -> int:
    return factorial(nv)


def disjoint_cycles_rows(count: int, length: int) -> list[list[int]]:
    """``count`` disjoint directed cycles of ``length`` vertices each."""
    return [
        [c * length + (i + 1) % length]
        for c in range(count)
        for i in range(length)
    ]


def disjoint_cycles_aut(count: int, length: int) -> int:
    # rotate each cycle independently, then permute the cycles
    return length**count * factorial(count)


def lex_cycle_rows(length: int, k: int) -> list[list[int]]:
    """Lexicographic product C_L[k]: each vertex of a directed L-cycle becomes
    an independent set of k vertices, all joined to the next set."""
    return [
        [((i + 1) % length) * k + b for b in range(k)]
        for i in range(length)
        for _ in range(k)
    ]


def lex_cycle_aut(length: int, k: int) -> int:
    # S_k wr Z_L for a directed cycle of length >= 3
    return factorial(k) ** length * length


# (label, rows, |Aut|, calls per pass).  Each call is on its own relabelled
# copy.  Many mid-sized calls rather than a few of 0.5 to 1.6 s: relabelling
# moves one graph's time by up to 2x, and only many samples a run keep the
# spread between seeds small.  An arcless digraph is the same under every
# relabelling, so the median (arcless 7) and the tail (arcless 8) fall on
# calls whose time does not depend on the seed.
SYMMETRIC_GRAPHS: tuple[tuple[str, list[list[int]], int, int], ...] = (
    ("arcless nv=7", arcless_rows(7), arcless_aut(7), 3),
    ("arcless nv=8", arcless_rows(8), arcless_aut(8), 3),
    ("4 x C3", disjoint_cycles_rows(4, 3), disjoint_cycles_aut(4, 3), 3),
    ("4 x C4", disjoint_cycles_rows(4, 4), disjoint_cycles_aut(4, 4), 3),
    ("3 x C5", disjoint_cycles_rows(3, 5), disjoint_cycles_aut(3, 5), 3),
    ("C3[3]", lex_cycle_rows(3, 3), lex_cycle_aut(3, 3), 3),
    ("C4[3]", lex_cycle_rows(4, 3), lex_cycle_aut(4, 3), 6),
    ("C8[2]", lex_cycle_rows(8, 2), lex_cycle_aut(8, 2), 3),
)


# ---------------------------------------------------------------------------
# Workload definitions.
# ---------------------------------------------------------------------------

@dataclass
class Case:
    label: str
    copies: list[Any]
    expected: Any


@dataclass
class Inputs:
    cases: list[Case]
    emit_s: float = 0.0


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[Any, random.Random], Inputs]
    call: Callable[[Any, Any], Any]
    # (result, expected) -> None when the verdict matches, else a message
    check: Callable[[Any, Any], str | None]
    # digraphs whose automorphism group the call decided
    decided: Callable[[Any], int]
    # passes every run makes even past --seconds; fixes the tail percentile
    min_passes: int
    # findings about the program seen while choosing the inputs, not fixed here
    notes: tuple[str, ...] = ()


def _numbered(label: str, count: int) -> list[str]:
    return [label] if count == 1 else [f"{label} #{i}" for i in range(1, count + 1)]


def _family_setup(mods, rng: random.Random) -> Inputs:
    groups, constructions = mods.groups, mods.constructions
    z2 = groups.make_cyclic(2)
    klein = groups.klein_four()
    # (label, (group, generators), m, calls per pass).  The mid-sized
    # instances run several times a pass, each on its own relabelled copy,
    # so the median and the tail sit inside a cluster of like calls.
    instances = [
        ("z2-general m=120", z2, 120, 1),
        ("cyclic-general n=40 m=20", groups.make_cyclic(40), 20, 1),
        ("klein-general m=40", klein, 40, 3),
        ("two-gen A4 m=12", groups.standard_two_generated("A4"), 12, 2),
        ("two-gen D5 m=12", groups.standard_two_generated("D5"), 12, 4),
        ("two-gen Q8 m=12", groups.standard_two_generated("Q8"), 12, 2),
        ("z2-table m=10", z2, 10, 1),
        ("klein-m3", klein, 3, 1),
        ("klein-m4", klein, 4, 1),
    ]
    start = time.perf_counter()
    emitted = []
    for label, (group, spec), m, per_pass in instances:
        conn = constructions.construct_omsr(group, spec, m)
        if not isinstance(conn, mods.mcayley.ConnectionMatrix):
            raise RuntimeError(f"{label}: no construction emitted ({conn})")
        emitted.append((label, group, conn, per_pass))
    emit_s = time.perf_counter() - start
    cases = []
    for label, group, conn, per_pass in emitted:
        for name in _numbered(label, per_pass):
            copies = []
            for _ in range(COPIES):
                sigma = element_relabelling(group.n, rng)
                pi = permutation(conn.m, rng)
                copies.append(
                    (relabel_group(group, sigma), relabel_matrix(conn, sigma, pi))
                )
            cases.append(Case(name, copies, group.n))
    return Inputs(cases, emit_s)


def _family_check(report, order: int) -> str | None:
    got = (report.verdict, report.aut_order, report.oriented, report.regular3)
    want = ("OMSR", order, True, True)
    return None if got == want else f"(verdict, |Aut|, oriented, 3-regular) = {got}, want {want}"


def _search_setup(mods, rng: random.Random) -> Inputs:
    search, groups = mods.search, mods.groups
    # (label, group, m, budget, (candidates, histogram), calls per pass).
    # The two pairs with candidates run several times a pass, so that the
    # median call falls among the Z4 searches and the tail among the Z2 ones
    # rather than on the edge between two spaces of different size.
    per_pass = {("Z2", 4): 3, ("Z4", 2): 5}
    spaces = [
        (
            f"{name} m={m}",
            group,
            m,
            search.DEFAULT_BUDGET,
            EXCLUDED_PAIRS[(name, m)],
            per_pass.get((name, m), 1),
        )
        for name, group, m in search.nonexistence_instances()
    ]
    spaces.append(
        (
            "trivial m=7",
            groups.make_cyclic(1)[0],
            7,
            TRIVIAL_M7_BUDGET,
            (TRIVIAL_M7_CANDIDATES, TRIVIAL_M7_HISTOGRAM),
            1,
        )
    )
    cases = []
    for label, group, m, budget, expected, per_pass in spaces:
        for name in _numbered(label, per_pass):
            copies = [
                (
                    search.SearchSpace(
                        relabel_group(group, element_relabelling(group.n, rng)), m
                    ),
                    budget,
                )
                for _ in range(COPIES)
            ]
            cases.append(Case(name, copies, expected))
    return Inputs(cases)


def _search_call(mods, inputs):
    space, budget = inputs
    return mods.search.exhaustive_search(
        space, budget=budget, exact_histogram=True, jobs=1
    )


def _search_check(outcome, expected) -> str | None:
    candidates, histogram = expected
    got = (outcome.status, outcome.candidates_tested, outcome.aut_order_histogram)
    want = ("EXHAUSTED", candidates, histogram)
    return None if got == want else f"(status, candidates, histogram) = {got}, want {want}"


def _symmetric_setup(mods, rng: random.Random) -> Inputs:
    digraph = mods.digraphs.Digraph
    cases = []
    for label, rows, order, per_pass in SYMMETRIC_GRAPHS:
        graph = digraph(len(rows), rows)
        for name in _numbered(label, per_pass):
            copies = [
                relabel_digraph(graph, permutation(graph.nv, rng))
                for _ in range(COPIES)
            ]
            cases.append(Case(name, copies, order))
    return Inputs(cases)


def _symmetric_check(order: int, expected: int) -> str | None:
    return None if order == expected else f"|Aut| = {order}, want {expected}"


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="family-verify",
            setup=_family_setup,
            call=lambda mods, inputs: mods.verify.verify_connection(*inputs),
            check=_family_check,
            decided=lambda report: 1,
            min_passes=3,
        ),
        Workload(
            name="exhaustive-search",
            setup=_search_setup,
            call=_search_call,
            check=_search_check,
            decided=lambda outcome: outcome.candidates_tested,
            min_passes=4,
            notes=(
                "trivial m=7 needs an explicit budget: the default budget refuses "
                "it on its rows^m pre-estimate 20^7 = 1.28e9, against 2640 real "
                "candidates",
                "`omsr explore --mode exhaustive --n 10` ends with BUDGET (exit 3) "
                "after 0 candidates: its default budget of 10^6 row steps runs out "
                "before the first complete digraph",
            ),
        ),
        Workload(
            name="symmetric-aut",
            setup=_symmetric_setup,
            call=lambda mods, graph: mods.autgroup.automorphism_group(graph).order(),
            check=_symmetric_check,
            decided=lambda order: 1,
            min_passes=5,
        ),
    )
}
