"""Tests of the benchmark's own parts: relabelling, known answers, spans.

Run from the root of the checkout:

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import random
import sys
from math import factorial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest  # noqa: E402

from omsr import autgroup, constructions, groups, perms, search, verify  # noqa: E402
from omsr.digraphs import Digraph  # noqa: E402
from relabel import (  # noqa: E402
    element_relabelling,
    permutation,
    relabel_digraph,
    relabel_group,
    relabel_matrix,
)
from spans import SpanRecorder, instrument, layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    EXCLUDED_PAIRS,
    SYMMETRIC_GRAPHS,
    TRIVIAL_M7_AUT_ORDERS,
    TRIVIAL_M7_CANDIDATES,
    TRIVIAL_M7_HISTOGRAM,
    arcless_aut,
    arcless_rows,
    disjoint_cycles_aut,
    disjoint_cycles_rows,
    lex_cycle_aut,
    lex_cycle_rows,
)

GROUPS = {
    "Z4": groups.make_cyclic(4),
    "Z2^2": groups.klein_four(),
    "A4": groups.standard_two_generated("A4"),
    "Q8": groups.standard_two_generated("Q8"),
}


def test_generators_are_seeded_permutations() -> None:
    for make in (element_relabelling, permutation):
        first = make(9, random.Random(5))
        assert sorted(first) == list(range(9))
        assert first == make(9, random.Random(5))
    assert element_relabelling(9, random.Random(5))[0] == 0


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_relabelled_group_is_a_valid_isomorphic_group(name: str) -> None:
    group, _ = GROUPS[name]
    sigma = element_relabelling(group.n, random.Random(name))
    copy = relabel_group(group, sigma)  # the constructor validates the tables
    assert isinstance(copy, groups.FiniteGroup) and copy.n == group.n
    for a in range(group.n):
        assert copy.inv[sigma[a]] == sigma[group.inv[a]]
        for b in range(group.n):
            assert copy.mult[sigma[a]][sigma[b]] == sigma[group.mult[a][b]]


def test_relabelling_keeps_the_verdict_and_aut_order() -> None:
    group, spec = GROUPS["Z2^2"]
    conn = constructions.construct_omsr(group, spec, 4)
    rng = random.Random(3)
    for _ in range(3):
        sigma = element_relabelling(group.n, rng)
        moved = relabel_matrix(conn, sigma, permutation(conn.m, rng))
        assert moved != conn or sigma == tuple(range(group.n))
        report = verify.verify_connection(relabel_group(group, sigma), moved)
        assert (report.verdict, report.aut_order) == ("OMSR", 4)

    graph = Digraph(9, lex_cycle_rows(3, 3))
    for _ in range(3):
        copy = relabel_digraph(graph, permutation(graph.nv, rng))
        assert copy.arc_count == graph.arc_count
        assert autgroup.automorphism_group(copy).order() == lex_cycle_aut(3, 3)


@pytest.mark.parametrize(
    "rows,order",
    [
        (arcless_rows(5), arcless_aut(5)),
        (disjoint_cycles_rows(2, 3), disjoint_cycles_aut(2, 3)),
        (lex_cycle_rows(3, 2), lex_cycle_aut(3, 2)),
        (lex_cycle_rows(4, 2), lex_cycle_aut(4, 2)),
    ],
    ids=["arcless5", "2xC3", "C3[2]", "C4[2]"],
)
def test_closed_forms_match_the_brute_force_oracle(rows, order) -> None:
    graph = Digraph(len(rows), rows)
    assert autgroup.brute_force_automorphisms(graph).order() == order


def test_known_answer_tables_are_self_consistent() -> None:
    # orbit-stabilizer: each class of regular tournaments on 7 vertices holds
    # 7!/|Aut| labelled copies, and the classes cover every candidate
    assert TRIVIAL_M7_HISTOGRAM == {3: 1680, 7: 720, 21: 240}
    assert sum(TRIVIAL_M7_HISTOGRAM.values()) == TRIVIAL_M7_CANDIDATES == 2640
    assert sum(factorial(7) // a for a in TRIVIAL_M7_AUT_ORDERS) == 2640
    for candidates, histogram in EXCLUDED_PAIRS.values():
        assert sum(histogram.values()) == candidates
    assert sum(c for c, _ in EXCLUDED_PAIRS.values()) == 176
    pairs = {(name, m) for name, _, m in search.nonexistence_instances()}
    assert pairs == set(EXCLUDED_PAIRS)
    assert disjoint_cycles_aut(5, 3) == 3**5 * factorial(5)
    assert lex_cycle_aut(5, 3) == factorial(3) ** 5 * 5
    assert len({label for label, _, _, _ in SYMMETRIC_GRAPHS}) == len(SYMMETRIC_GRAPHS)


def test_instrument_records_layers_and_restores_the_modules() -> None:
    from types import SimpleNamespace

    mods = SimpleNamespace(
        autgroup=autgroup, perms=perms, search=search, verify=verify
    )
    before = {
        (module, attr): getattr(module, attr)
        for module, attr in [
            (autgroup, "automorphism_group"),
            (autgroup, "refine"),
            (autgroup, "_Chain"),
            (perms, "_Chain"),
            (search, "build"),
            (verify, "verify_connection"),
        ]
    }
    rec = SpanRecorder()
    with instrument(mods, rec):
        outcome = mods.search.exhaustive_search(search.SearchSpace(GROUPS["Z4"][0], 2))
        order = mods.autgroup.automorphism_group(Digraph(6, lex_cycle_rows(3, 2))).order()
    assert (outcome.candidates_tested, order) == (24, 24)
    for (module, attr), original in before.items():
        assert getattr(module, attr) is original
    assert all(span is not None for span in rec.spans)
    layers = layer_metrics(rec, passes=1)
    assert layers["search.candidates"] == (24, "count")
    # exact histograms: the bounded call plus the exact one for each candidate
    assert layers["search.engine_calls_per_candidate"][0] == 2
    assert layers["autgroup.automorphism_group.calls"][0] == 49
    assert layers["mcayley.build.calls"][0] == 24
    assert layers["autgroup.refine.calls"][0] > 0
    assert 0 < layers["perms.chain.sifts"][0] <= layers["autgroup.leaf.calls"][0]
