from __future__ import annotations

import itertools
import json
import random
from math import comb
from pathlib import Path

import pytest

from omsr.autgroup import automorphism_group
from omsr.digraphs import is_k_regular, is_oriented, is_weakly_connected
from omsr.groups import direct_product, klein_four, make_cyclic, standard_two_generated
from omsr.mcayley import ConnectionMatrix, build
from omsr import search
from omsr.search import (
    BudgetExceeded,
    SearchOutcome,
    SearchSpace,
    enumerate_rows,
    exhaustive_search,
    nonexistence_instances,
    search_trivial_aut_digraph,
)

Z1 = make_cyclic(1)[0]
Z2 = make_cyclic(2)[0]
Z3 = make_cyclic(3)[0]
Z4 = make_cyclic(4)[0]
Z5 = make_cyclic(5)[0]
Z24 = make_cyclic(24)[0]


def _mask_elements(mask: int) -> tuple[int, ...]:
    return tuple(b for b in range(mask.bit_length()) if mask >> b & 1)


def _tables(space: SearchSpace) -> list[list[tuple[int, ...]]]:
    """The per-cell masks of the rows of each table of the search, in order."""
    rows = search._Rows(space)
    return [[rows[p][0] for p in search._ones(table)] for table in rows.tables]


def _table_rows(group, m: int, k: int, i: int, oriented: bool = True) -> list[tuple[int, ...]]:
    """The per-cell masks of the rows of table ``i`` of the search, in order."""
    return _tables(SearchSpace(group, m, k, oriented))[i]


def _firsts(space: SearchSpace) -> list[int]:
    """The pick index of each first row, in branch order."""
    return list(search._ones(search._Rows(space).tables[0]))


def _keys(space: SearchSpace) -> list[tuple]:
    """The orbit key of each first row, in branch order."""
    rows = search._Rows(space)
    return [rows.orbit_key([], 0, first) for first in search._ones(rows.tables[0])]


def _leads(space: SearchSpace) -> list[bool]:
    """Whether each branch is the first of its orbit key, in branch order:
    the branches that a fresh run evaluates."""
    keys = _keys(space)
    return [keys.index(key) == branch for branch, key in enumerate(keys)]


def _product_reference(space: SearchSpace):
    """Unpruned mirror of the search: filter the full row product.

    Enumerates every combination of per-row assignments, keeps those whose
    column sums and cross-cell orientation are valid, and evaluates them in
    the same lexicographic order the depth-first search visits.  Used to show
    the search's pruning is lossless.
    """
    m, k, group = space.m, space.k, space.group
    rows = _tables(space)
    tested = 0
    histogram: dict[int, int] = {}
    for combo in itertools.product(*rows):
        if any(
            sum(bin(combo[i][j]).count("1") for i in range(m)) != k
            for j in range(m)
        ):
            continue
        if space.require_oriented and any(
            group.inv[t] in _mask_elements(combo[j][i])
            for i in range(m)
            for j in range(m)
            for t in _mask_elements(combo[i][j])
        ):
            continue
        conn = ConnectionMatrix.from_entries(
            m,
            {
                (i, j): _mask_elements(combo[i][j])
                for i in range(m)
                for j in range(m)
                if combo[i][j]
            },
        )
        tested += 1
        gamma = build(group, conn)
        if space.require_connected and not is_weakly_connected(gamma):
            continue
        order = automorphism_group(gamma).order()
        histogram[order] = histogram.get(order, 0) + 1
        if order == group.n:
            return "FOUND", conn, tested, histogram
    return "EXHAUSTED", None, tested, histogram


# ---------------------------------------------------------------------------
# Row enumeration.
# ---------------------------------------------------------------------------

def test_enumerate_rows_counts() -> None:
    # C(6, 3) picks of Z2 m=3; a loop-free table 0 leaves out the identity's
    # slot in cell 0, so C(5, 3) without the oriented condition
    assert len(enumerate_rows(Z2, 3, 3)) == 20
    assert len(_table_rows(Z2, 3, 3, 0, oriented=False)) == 10
    assert len(_table_rows(Z2, 3, 3, 0)) == 4
    assert len(_table_rows(Z2, 2, 3, 0)) == 0
    assert len(_table_rows(Z3, 2, 3, 0)) == 7
    assert len(_table_rows(Z4, 2, 3, 0)) == 16
    assert len(_table_rows(klein_four()[0], 2, 3, 0)) == 4
    assert len(_table_rows(Z5, 1, 3, 0)) == 0
    assert len(_table_rows(make_cyclic(7)[0], 1, 3, 0)) == 8


def test_enumerate_rows_row_properties() -> None:
    rows = _table_rows(Z4, 2, 3, 0)
    assert rows == sorted(rows)
    for row in rows:
        assert sum(bin(mask).count("1") for mask in row) == 3
        diag = _mask_elements(row[0])
        assert not any(Z4.inv[t] in diag for t in diag)


@pytest.mark.parametrize(
    "group,m",
    [
        (Z1, 5),
        (Z2, 3),
        (Z2, 4),
        (Z3, 2),
        (Z4, 2),
        (klein_four()[0], 2),
        (standard_two_generated("S3")[0], 2),
    ],
    ids=["z1-m5", "z2-m3", "z2-m4", "z3-m2", "z4-m2", "z2xz2-m2", "s3-m2"],
)
def test_enumerate_rows_matches_its_definition(group, m) -> None:
    # the picks are every m-tuple of element masks with k elements in all,
    # in sorted order; table i keeps those whose diagonal cell i holds no
    # loop (the identity) and, oriented, no element together with its inverse
    def fits_the_diagonal(mask: int, oriented: bool) -> bool:
        elements = _mask_elements(mask)
        if oriented:
            return not any(group.inv[t] in elements for t in elements)
        return 0 not in elements

    tuples = list(itertools.product(range(1 << group.n), repeat=m))
    for k in range(5):
        sized = sorted(row for row in tuples if sum(bin(c).count("1") for c in row) == k)
        assert enumerate_rows(group, m, k) == sized, k
        for oriented in (False, True):
            tables = _tables(SearchSpace(group, m, k, oriented))
            for i, table in enumerate(tables):
                reference = [row for row in sized if fits_the_diagonal(row[i], oriented)]
                assert table == reference, (k, i, oriented)


@pytest.mark.parametrize(
    "group,m,status,candidates",
    [
        (Z1, 6, "FOUND", 15),
        (Z1, 7, "FOUND", 7),
        (Z2, 2, "EXHAUSTED", 1),
        (Z2, 3, "FOUND", 2),
        (Z3, 2, "FOUND", 3),
        (Z4, 2, "FOUND", 18),
        (Z5, 2, "FOUND", 2),
    ],
    ids=["z1-m6", "z1-m7", "z2-m2", "z2-m3", "z3-m2", "z4-m2", "z5-m2"],
)
def test_digon_spaces_hold_no_loops(group, m, status, candidates) -> None:
    # without the oriented condition a diagonal cell may hold an involution,
    # but never the identity: that would put a loop at each vertex of a block
    space = SearchSpace(group, m, require_oriented=False)
    for i, table in enumerate(_tables(space)):
        assert not any(cells[i] & 1 for cells in table), i
    outcome = exhaustive_search(space)
    assert (outcome.status, outcome.candidates_tested) == (status, candidates)
    if outcome.witness is not None:
        assert all(0 not in outcome.witness.sets[i][i] for i in range(m))
        graph = build(group, outcome.witness)
        assert not any(graph.has_arc(v, v) for v in range(graph.nv))


def test_a_space_past_the_pick_limit_is_refused_before_any_pick(monkeypatch) -> None:
    # Z1000 m=2 has C(2000, 3) picks and the explorer at n=200 C(200, 3);
    # Z60 m=2 and A5 m=2, with C(120, 3) = 280,840 each, stay within the limit
    monkeypatch.setattr(search, "enumerate_rows", lambda *args: pytest.fail("enumerated"))
    limit = f"more than the limit of {search.MAX_PICKS}"
    with pytest.raises(ValueError, match=f"has 1331334000 row picks, {limit}"):
        exhaustive_search(SearchSpace(make_cyclic(1000)[0], 2))
    with pytest.raises(ValueError, match=f"has 1313400 row picks, {limit}"):
        search_trivial_aut_digraph(200, 3)
    # past mcayley.MAX_BLOCKS the explorer refuses the block count first
    with pytest.raises(ValueError, match="block count 5000 exceeds the limit of 4096"):
        search_trivial_aut_digraph(5000, 3)
    assert comb(120, 3) <= search.MAX_PICKS < comb(200, 3)


def test_search_space_validation() -> None:
    with pytest.raises(ValueError):
        SearchSpace(Z2, 0)
    with pytest.raises(ValueError):
        SearchSpace(Z2, 2, k=-1)


# ---------------------------------------------------------------------------
# Pruned search agrees with the unpruned row-product filter.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "group,m,k",
    # Z1 m=5 k=2 has 6^5 = 7,776 row combinations, and over the trivial group
    # a later row adds at most min(k, |G|) = 1 element to a column
    [(Z2, 3, 3), (Z3, 2, 3), (Z4, 2, 3), (Z1, 5, 2)],
    ids=["z2-m3", "z3-m2", "z4-m2", "z1-m5-k2"],
)
def test_pruning_is_lossless_on_exhausted_spaces(group, m, k) -> None:
    space = SearchSpace(group, m, k)
    outcome = exhaustive_search(space)
    status, witness, tested, histogram = _product_reference(space)
    assert outcome.status == status == "EXHAUSTED"
    assert witness is None and outcome.witness is None
    assert outcome.candidates_tested == tested
    assert outcome.aut_order_histogram == histogram


def test_pruning_is_lossless_on_a_found_space() -> None:
    space = SearchSpace(Z5, 2, require_connected=True)
    outcome = exhaustive_search(space)
    status, witness, tested, histogram = _product_reference(space)
    assert outcome.status == status == "FOUND"
    assert outcome.witness == witness
    assert outcome.candidates_tested == tested
    assert outcome.aut_order_histogram == histogram


# ---------------------------------------------------------------------------
# Non-existence certification.
# ---------------------------------------------------------------------------

def test_nonexistence_instances_cover_the_six_excluded_pairs() -> None:
    pairs = [(name, group.n, m) for name, group, m in nonexistence_instances()]
    assert pairs == [
        ("Z2", 2, 2),
        ("Z2", 2, 3),
        ("Z2", 2, 4),
        ("Z3", 3, 2),
        ("Z4", 4, 2),
        ("Z2xZ2", 4, 2),
    ]


def test_nonexistence_suite_frozen_evidence() -> None:
    reports = {
        (name, m): exhaustive_search(SearchSpace(group, m)).to_json()
        for name, group, m in nonexistence_instances()
    }
    assert all(r["status"] == "EXHAUSTED" for r in reports.values())
    # spaces so tight the structural pruning leaves nothing to test
    for key in (("Z2", 2), ("Z2", 3), ("Z3", 2), ("Z2xZ2", 2)):
        assert reports[key]["candidates_tested"] == 0
        assert reports[key]["aut_order_histogram"] == {}
    # spaces with candidates, none reaching |Aut| = |G|
    assert reports[("Z2", 4)]["candidates_tested"] == 152
    assert reports[("Z2", 4)]["aut_order_histogram"] == {
        "6": 64, "8": 48, "16": 24, "24": 16,
    }
    assert reports[("Z4", 2)]["candidates_tested"] == 24
    assert reports[("Z4", 2)]["aut_order_histogram"] == {"8": 8, "16": 8, "24": 8}


def test_connected_z5_two_block_witness() -> None:
    outcome = exhaustive_search(SearchSpace(Z5, 2, require_connected=True))
    assert outcome.status == "FOUND"
    assert outcome.candidates_tested == 2
    conn = outcome.witness
    assert {
        (i, j): set(conn.sets[i][j]) for i in range(2) for j in range(2)
    } == {(0, 0): {1}, (0, 1): {0, 1}, (1, 0): {1, 2}, (1, 1): {2}}
    gamma = build(Z5, conn)
    assert is_oriented(gamma) and is_weakly_connected(gamma)
    assert automorphism_group(gamma).order() == 5


@pytest.mark.parametrize(
    "space,exact",
    [
        (SearchSpace(Z5, 2), True),
        (SearchSpace(Z5, 2, require_connected=True), True),
        (SearchSpace(standard_two_generated("Q8")[0], 3), True),
        (SearchSpace(Z1, 8), False),
    ],
    ids=["z5-m2", "z5-m2-connected", "q8-m3", "z1-m8-inexact"],
)
def test_the_witness_builds_the_last_candidate_the_engine_saw(monkeypatch, space, exact) -> None:
    # the search packs its candidates' rows from block_rows, as build does:
    # the digraph whose order ended the search is the witness's build
    seen = []
    engine = search.automorphism_group

    def capture(graph, **kwargs):
        seen.append(graph)
        return engine(graph, **kwargs)

    monkeypatch.setattr(search, "automorphism_group", capture)
    outcome = exhaustive_search(space, exact_histogram=exact)
    assert outcome.status == "FOUND"
    assert seen[-1] == build(space.group, outcome.witness)


@pytest.mark.parametrize(
    "group,m", [(Z2, 3), (Z24, 2)], ids=["z2-m3", "z24-m2"]
)
def test_small_budget_raises_budget_exceeded(group, m) -> None:
    # Z24 m=2 has C(48, 3) slot choices per row: the row tables, not 2^24
    # element masks, bound the work done before the first row is tried
    with pytest.raises(BudgetExceeded, match="budget of 10 in branch"):
        exhaustive_search(SearchSpace(group, m), budget=10)


def test_negative_budget_raises_value_error() -> None:
    with pytest.raises(ValueError, match="budget must be nonnegative, got -3"):
        exhaustive_search(SearchSpace(Z4, 2), budget=-3)
    for mode in ("exhaustive", "randomized"):
        with pytest.raises(ValueError, match="budget must be nonnegative, got -1"):
            search_trivial_aut_digraph(8, 3, mode=mode, budget=-1)
    # a budget of 0 stays valid and stops at the first row or sample
    with pytest.raises(BudgetExceeded, match="budget of 0 in branch 0"):
        exhaustive_search(SearchSpace(Z4, 2), budget=0)
    assert search_trivial_aut_digraph(8, 3, mode="randomized", budget=0).status == "BUDGET"


def test_the_search_runs_in_one_process() -> None:
    # ``jobs`` stays for callers that pass jobs=1; any other value is refused
    space = SearchSpace(Z4, 2)
    assert exhaustive_search(space, jobs=1).to_json() == exhaustive_search(space).to_json()
    for jobs in (0, 2):
        with pytest.raises(ValueError, match=f"jobs must be 1, got {jobs}"):
            exhaustive_search(space, jobs=jobs)


@pytest.mark.parametrize(
    "group,m,candidates",
    [(Z2, 5, 1), (Z3, 4, 58), (Z1, 8, 98), (Z24, 2, 2)],
    ids=["z2-m5", "z3-m4", "z1-m8", "z24-m2"],
)
def test_default_budget_decides_small_spaces(group, m, candidates) -> None:
    # the budget counts work done, so a space with (#rows)^m far above the
    # budget is still decided when its search is short
    outcome = exhaustive_search(SearchSpace(group, m))
    assert (outcome.status, outcome.candidates_tested) == ("FOUND", candidates)


_Z2_M4_OUTCOME = {
    "schema": 1,
    "status": "EXHAUSTED",
    "witness": None,
    "candidates_tested": 152,
    "aut_order_histogram": {"6": 64, "8": 48, "16": 24, "24": 16},
}


@pytest.mark.parametrize(
    "group,m,stops",
    [
        # branch 0 of Z2 m=4 does 467 units of work, the whole space 7,372
        (Z2, 4, {0: 0, 466: 0, 467: 1, 468: 1, 2000: 4, 4000: 9, 7371: 19, 7372: _Z2_M4_OUTCOME}),
        # branch 0 of Z1 m=7 does 52,693 units, branches 0 and 1 88,846
        (Z1, 7, {1: 0, 52692: 0, 52693: 1, 88846: 2}),
    ],
    ids=["z2-m4", "z1-m7"],
)
def test_budget_stops_are_frozen(group, m, stops) -> None:
    # each budget maps to the branch the search stops in, or to its outcome
    space = SearchSpace(group, m)
    for budget, stop in stops.items():
        if isinstance(stop, dict):
            assert exhaustive_search(space, budget).to_json() == stop, budget
            continue
        message = (
            "the rows tried and candidates completed passed the budget"
            f" of {budget} in branch {stop}"
        )
        with pytest.raises(BudgetExceeded) as stopped:
            exhaustive_search(space, budget)
        assert str(stopped.value) == message


@pytest.fixture
def engine_calls(monkeypatch) -> list:
    """Records one entry per automorphism-group call the search makes."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return automorphism_group(*args, **kwargs)

    monkeypatch.setattr(search, "automorphism_group", counting)
    return calls


def test_one_job_runs_each_branch_under_the_budget_left(engine_calls) -> None:
    # branches 0 and 1 of Z1 m=7 do 88,846 units of work with 264 candidates,
    # so the budget stop comes at the first row of branch 2; branch 1 is a
    # twin of branch 0, and the twins within branch 0 take their siblings'
    # histograms, so only 17 of branch 0's 132 candidates reach the engine
    with pytest.raises(BudgetExceeded, match="budget of 88846 in branch 2") as stopped:
        exhaustive_search(SearchSpace(Z1, 7), budget=88846)
    assert len(engine_calls) == 17
    assert stopped.value.candidates_tested == 264


# ---------------------------------------------------------------------------
# Mask filtering against the row-by-row walk.
# ---------------------------------------------------------------------------

def _reference_tables(space: SearchSpace) -> list[list[tuple]]:
    """The m row tables as the search kept them before one mask set served
    a space: table i holds, in order, the picks of ``enumerate_rows`` whose
    cell i holds no loop and, oriented, no element with its inverse, each
    decorated with its popcounts, non-empty cells and inverses."""
    group, m = space.group, space.m
    rows = []
    for cells in enumerate_rows(group, m, space.k):
        sizes = tuple(bin(c).count("1") for c in cells)
        inverses = tuple(sum(1 << group.inv[e] for e in _mask_elements(c)) for c in cells)
        rows.append((cells, sizes, tuple(j for j in range(m) if cells[j]), inverses))
    return [
        [row for row in rows if not row[0][i] & (row[3][i] if space.require_oriented else 1)]
        for i in range(m)
    ]


def _row_fits(space: SearchSpace, col_sums: list, chosen: list, i: int, row: tuple) -> bool:
    """The search's row test before mask filtering, on one node's state."""
    m, k = space.m, space.k
    _, sizes, support, inverses = row
    for j in support:
        if col_sums[j] + sizes[j] > k:
            return False
        if space.require_oriented and j < i and inverses[j] & chosen[j][i]:
            return False
    left = (m - 1 - i) * min(k, space.group.n)
    return left >= k or min(c + s for c, s in zip(col_sums, sizes)) >= k - left


def _row_by_row(
    space: SearchSpace, tables: list, budget: int, branch: int, evaluate: bool, spans=None
):
    """Reference branch search on ``_reference_tables``: every row of every
    table goes through ``_row_fits`` and counts as one unit of work, checked
    against the budget as it is tried.  Returns what
    ``search._search_branch`` returns for the first row of branch
    ``branch``.  With ``spans``, each fitting row above the last that the
    walk completes is appended to it as (depth, cells, work and candidates
    before its subtree, work and candidates after)."""
    group, m = space.group, space.m
    steps = tested = 0
    status = "EXHAUSTED"
    histogram: dict[int, int] = {}
    witness = None
    chosen: list = [()] * m
    col_sums = [0] * m

    def descend(i: int) -> bool:
        nonlocal steps, tested, status, witness
        for row in (tables[0][branch],) if i == 0 else tables[i]:
            steps += 1
            if steps + tested > budget:
                status = "BUDGET"
                return True
            if not _row_fits(space, col_sums, chosen, i, row):
                continue
            cells, sizes, support, _ = row
            chosen[i] = cells
            if i < m - 1:
                for j in support:
                    col_sums[j] += sizes[j]
                before = steps + tested, tested
                done = descend(i + 1)
                for j in support:
                    col_sums[j] -= sizes[j]
                if done:
                    return True
                if spans is not None:
                    spans.append((i, cells, *before, steps + tested, tested))
                continue
            tested += 1
            if not evaluate:
                continue
            conn = ConnectionMatrix(
                m, tuple(tuple(frozenset(_mask_elements(c)) for c in row) for row in chosen)
            )
            graph = build(group, conn)
            if space.require_connected and not is_weakly_connected(graph):
                continue
            order = automorphism_group(graph).order()
            histogram[order] = histogram.get(order, 0) + 1
            if order == group.n:
                status, witness = "FOUND", conn
                return True
        return False

    descend(0)
    return status, witness, tested, histogram, steps + tested


_FILTER_SPACES = {
    **{f"{name}-m{m}": SearchSpace(group, m) for name, group, m in nonexistence_instances()},
    "Z1-m7": SearchSpace(Z1, 7),
    "Z1-m8": SearchSpace(Z1, 8),
    "Q8-m3": SearchSpace(standard_two_generated("Q8")[0], 3),
    "Z2^3-m2": SearchSpace(direct_product(klein_four()[0], Z2), 2),
    "Z2-m4-connected": SearchSpace(Z2, 4, require_connected=True),
    "Z4-m2-connected": SearchSpace(Z4, 2, require_connected=True),
    "S3-m2-connected": SearchSpace(standard_two_generated("S3")[0], 2, require_connected=True),
    "Z1-m5-k2": SearchSpace(Z1, 5, 2),
    "Z2-m3-k2": SearchSpace(Z2, 3, 2),
    "Z2-m2-digons": SearchSpace(Z2, 2, require_oriented=False),
    "Z1-m6-digons": SearchSpace(Z1, 6, require_oriented=False),
    # the packed column sums take k.bit_length() bits a column: none at k=0,
    # three at k=4 and k=5
    "Z3-m2-k0": SearchSpace(Z3, 2, 0),
    "Z3-m3-k4": SearchSpace(Z3, 3, 4),
    "Z1-m6-k4-digons": SearchSpace(Z1, 6, 4, require_oriented=False),
    "Z2-m4-k5-digons": SearchSpace(Z2, 4, 5, require_oriented=False),
}


@pytest.mark.parametrize("space", _FILTER_SPACES.values(), ids=_FILTER_SPACES.keys())
def test_mask_filtering_matches_the_row_by_row_walk(space) -> None:
    # the branches in order on one mask set up to the first witness
    rows = search._Rows(space)
    reference = _reference_tables(space)
    for branch, (first, evaluate) in enumerate(zip(search._ones(rows.tables[0]), _leads(space))):
        assert rows[first][0] == reference[0][branch][0]
        got = search._search_branch(space, rows, True, search.DEFAULT_BUDGET, first, evaluate)
        assert got == _row_by_row(space, reference, search.DEFAULT_BUDGET, branch, evaluate), branch
        if got[0] == "FOUND":
            break


def _stops_match(
    space: SearchSpace, budgets, leads: list[bool], total: int, rows=None
) -> list[int]:
    """Each run merges the first ``len(leads)`` branches as one job does,
    evaluating branch b when ``leads[b]``, each under the budget its earlier
    branches left, up to the first stop, and compares every branch with the
    row-by-row walk.  Only a stopped branch's work may differ.  The branches
    do ``total`` units of work in all.  Every run searches on one ``rows``,
    a fresh ``_Rows`` when None, so each finds the fit cache its earlier
    runs left.  Returns the budgets under which no branch stopped."""
    rows = search._Rows(space) if rows is None else rows
    reference = _reference_tables(space)
    unstopped = []
    for budget in budgets:
        left = budget
        for branch, (first, evaluate) in enumerate(zip(_firsts(space), leads)):
            got = search._search_branch(space, rows, True, left, first, evaluate)
            want = _row_by_row(space, reference, left, branch, evaluate)
            assert got[:4] == want[:4], (budget, branch)
            if got[0] == "BUDGET":
                break
            assert got[4] == want[4], (budget, branch)
            left -= got[4]
        else:
            # a last candidate completes after the last check, one unit past
            # the budget at most
            assert left == budget - total >= -1, budget
            unstopped.append(budget)
    return unstopped


def test_mask_filtering_stops_at_every_budget_where_the_row_by_row_walk_does() -> None:
    # Z4 m=2 does 296 units of work in all, and every smaller budget stops
    space = SearchSpace(Z4, 2)
    assert _stops_match(space, range(296 + 1), _leads(space), 296) == [296]


@pytest.mark.parametrize("evaluate", [True, False], ids=["evaluate", "count"])
@pytest.mark.parametrize(
    "space,branches,total,budgets,samples",
    [
        # all of Z2 m=4, whose branch 0 does 467 units
        (SearchSpace(Z2, 4), 20, 7372, (466, 467, 7371, 7372), 12),
        # the first two branches of Z1 m=7, branch 0 52,693 units
        (SearchSpace(Z1, 7), 2, 88846, (52692, 52693, 88845), 4),
        # each branch of Z7 m=1 is one row and one candidate, which completes
        # after the last check: at an odd budget the branch ends one unit
        # past it, not stopped
        (SearchSpace(make_cyclic(7)[0], 1), 8, 16, range(17), 0),
    ],
    ids=["z2-m4", "z1-m7", "z7-m1"],
)
def test_mask_filtering_stops_at_sampled_budgets_where_the_row_by_row_walk_does(
    space, branches, total, budgets, samples, evaluate
) -> None:
    # stops with up to m - 1 rows active, each counted at its position in
    # its table; the budgets at the branch ends and a seeded sample between
    sample = random.Random(total).sample(range(total), samples)
    _stops_match(space, (*budgets, *sample), [evaluate] * branches, total)


@pytest.mark.parametrize("space", _FILTER_SPACES.values(), ids=_FILTER_SPACES.keys())
def test_masks_select_the_rows_row_fits_accepts(space) -> None:
    # random descents reach states at every depth
    m = space.m
    rows = search._Rows(space)
    reference = _reference_tables(space)
    rng = random.Random(1)
    for _ in range(200):
        chosen: list = [()] * m
        col_sums = [0] * m
        for i in range(m):
            fitting = [row for row in reference[i] if _row_fits(space, col_sums, chosen, i, row)]
            # the packed column sums and, oriented, the cells the rows above
            # put in column i
            sums = sum(c << rows.width * j for j, c in enumerate(col_sums))
            incoming = sum(chosen[l][i] << space.group.n * l for l in range(i))
            if not space.require_oriented:
                incoming = 0
            fits = rows.fitting(rows.tables[i], i, sums, incoming)
            assert [row[0] for row in fitting] == [rows[p][0] for p in search._ones(fits)]
            if not fitting:
                break
            cells, sizes, _, _ = rng.choice(fitting)
            chosen[i] = cells
            col_sums = [c + s for c, s in zip(col_sums, sizes)]


@pytest.mark.parametrize("space", _FILTER_SPACES.values(), ids=_FILTER_SPACES.keys())
def test_the_tables_of_a_space_share_their_rows(space) -> None:
    # one decorated tuple per pick of enumerate_rows, which every table's
    # mask selects from; a pick's popcounts are packed in fields wide
    # enough for a column sum of k
    rows = search._Rows(space)
    assert [row[0] for row in rows] == enumerate_rows(space.group, space.m, space.k)
    assert rows.width == space.k.bit_length() and space.k < 1 << rows.width
    field = (1 << rows.width) - 1
    for cells, delta, support in rows:
        assert [delta >> rows.width * j & field for j in range(space.m)] == [
            bin(c).count("1") for c in cells
        ]
        assert delta < 1 << rows.width * space.m
        assert support == tuple(j for j, c in enumerate(cells) if c)
    assert max(table.bit_length() for table in rows.tables) <= len(rows)
    assert rows.lengths == [table.bit_count() for table in rows.tables]


@pytest.mark.parametrize("evaluate", [True, False], ids=["evaluate", "count"])
@pytest.mark.parametrize("space", _FILTER_SPACES.values(), ids=_FILTER_SPACES.keys())
def test_one_fit_cache_serves_the_branches_in_any_order(space, evaluate) -> None:
    # each branch on a fresh _Rows, then all of them on one _Rows in branch
    # order, then on another in reverse order.  Each branch runs under 60,000
    # units, past the 52,693 of Z1 m=7's largest, so only Z1 m=8 and Q8 m=3
    # stop early, and Q8 m=3 runs every 148th of its 1,480 branches
    firsts = _firsts(space)
    firsts = firsts[:: 1 if len(firsts) <= 60 else len(firsts) // 10]

    def run(rows, first):
        return search._search_branch(space, rows, True, 60_000, first, evaluate)

    fresh = [run(search._Rows(space), first) for first in firsts]
    rows = search._Rows(space)
    assert [run(rows, first) for first in firsts] == fresh
    rows = search._Rows(space)
    assert [run(rows, first) for first in reversed(firsts)] == fresh[::-1]


@pytest.mark.parametrize("evaluate", [True, False], ids=["evaluate", "count"])
@pytest.mark.parametrize(
    "space,branches,total,samples",
    [(SearchSpace(Z2, 4), 20, 7372, 8), (SearchSpace(Z1, 7), 2, 88846, 4)],
    ids=["z2-m4", "z1-m7"],
)
def test_budget_stops_hold_on_a_fit_cache_filled_in_reverse(
    space, branches, total, samples, evaluate
) -> None:
    # the cache first filled by every branch in reverse order, so the
    # budgeted runs read masks that later branches made
    rows = search._Rows(space)
    for first in reversed(_firsts(space)):
        search._search_branch(space, rows, True, search.DEFAULT_BUDGET, first, False)
    assert rows.fit_cache
    sample = random.Random(total + 1).sample(range(total), samples)
    _stops_match(space, (total - 1, total, *sample), [evaluate] * branches, total, rows)


def test_z1_m7_ands_masks_at_3628_of_its_27000_nodes(monkeypatch) -> None:
    # the 20 nodes at depth 0 and the 20 at depth 1 AND their masks; below,
    # a node ANDs only when no branch has met its key yet
    depths = []
    fitting = search._Rows.fitting

    def counting(self, fits, i, sums, incoming):
        depths.append(i)
        return fitting(self, fits, i, sums, incoming)

    monkeypatch.setattr(search._Rows, "fitting", counting)
    exhaustive_search(SearchSpace(Z1, 7))
    assert len(depths) == 3628
    assert depths.count(0) == depths.count(1) == 20


@pytest.mark.parametrize(
    "space,status",
    [
        (SearchSpace(Z3, 2), "EXHAUSTED"),
        (SearchSpace(Z4, 2), "EXHAUSTED"),
        (SearchSpace(klein_four()[0], 2), "EXHAUSTED"),
        (SearchSpace(Z5, 2), "FOUND"),
        (SearchSpace(Z2, 4), "EXHAUSTED"),
    ],
    ids=["z3-m2", "z4-m2", "z2^2-m2", "z5-m2", "z2-m4"],
)
def test_only_nodes_below_depth_1_fill_the_fit_cache(monkeypatch, space, status) -> None:
    # a two-block search has no such node, so none of its masks, 33 KB each
    # at Z60 m=2, outlives the branch that made it
    made = []

    class Recorded(search._Rows):
        def __init__(self, *args) -> None:
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(search, "_Rows", Recorded)
    assert exhaustive_search(space).status == status
    (rows,) = made
    assert bool(rows.fit_cache) == (space.m > 2)


def test_z1_m7_work_per_branch() -> None:
    # the budget units each branch of Z1 m=7 spends, twins included: 542,260
    # in all, 88,846 for the first two
    space = SearchSpace(Z1, 7)
    rows = search._Rows(space)
    work = [
        search._search_branch(space, rows, True, search.DEFAULT_BUDGET, first, branch == 0)[-1]
        for branch, first in enumerate(_firsts(space))
    ]
    assert work == [
        52693, 36153, 33173, 33173, 32953, 29973, 29973, 22513, 22513, 19433,
        32753, 29773, 29773, 22313, 22313, 19233, 20793, 20793, 17713, 14253,
    ]
    assert sum(work) == 542_260


# ---------------------------------------------------------------------------
# First-row orbit reuse.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "group,m,candidates,histogram,calls",
    [
        # the labelled regular tournaments on 7 vertices: 7!/|Aut| copies of
        # each of the three classes, all 20 first rows in one orbit, and
        # twins below row 0 leave 17 of branch 0's 132 candidates to evaluate
        (Z1, 7, 2640, {3: 1680, 7: 720, 21: 240}, 17),
        (Z2, 4, 152, {6: 64, 8: 48, 16: 24, 24: 16}, 10),
        (Z4, 2, 24, {8: 8, 16: 8, 24: 8}, 8),
    ],
    ids=["z1-m7", "z2-m4", "z4-m2"],
)
def test_only_orbit_leaders_reach_the_engine(
    engine_calls, group, m, candidates, histogram, calls
) -> None:
    outcome = exhaustive_search(SearchSpace(group, m))
    assert (outcome.status, outcome.candidates_tested) == ("EXHAUSTED", candidates)
    assert outcome.aut_order_histogram == histogram
    assert len(engine_calls) == calls


def _first_row_orbit(group, row: tuple[int, ...]) -> set[tuple[int, ...]]:
    """The images of a first row under permuting blocks 1..m-1 and
    relabelling each block j >= 1 by g -> a*g, which sends T(0, j) to
    a*T(0, j)."""
    m = len(row)
    images = set()
    for order in itertools.permutations(range(1, m)):
        for translates in itertools.product(group.mult, repeat=m - 1):
            images.add((row[0], *(
                sum(1 << product[t] for t in _mask_elements(row[j]))
                for j, product in zip(order, translates)
            )))
    return images


def test_leaders_are_the_least_rows_of_their_orbits() -> None:
    # two first rows share an orbit key exactly when one is the other's image,
    # so the first row of each key in table 0 is its orbit's least row
    for group, m in ((Z4, 2), (Z2, 4), (Z3, 3), (Z1, 7)):
        rows = search._Rows(SearchSpace(group, m))
        firsts = list(search._ones(rows.tables[0]))
        table = {rows[p][0] for p in firsts}
        keys = [rows.orbit_key([], 0, p) for p in firsts]
        for p, key in zip(firsts, keys):
            orbit = _first_row_orbit(group, rows[p][0])
            assert {rows[q][0] for q, other in zip(firsts, keys) if other == key} == table & orbit
            assert rows[firsts[keys.index(key)]][0] == min(orbit)
    keys = _keys(SearchSpace(Z4, 2))
    assert [keys.index(key) for key in keys] == [0, 0, 0, 0, 4, 5, 4, 4, 5, 4, 10, 11, 10, 10, 11, 10]
    # Z1 m=7: permuting blocks 1..6 joins all 20 first rows
    assert len(set(_keys(SearchSpace(Z1, 7)))) == 1


@pytest.mark.parametrize(
    "space,budgets",
    [
        (SearchSpace(Z2, 4), (10**12, 500, 5000)),
        (SearchSpace(Z2, 4, require_connected=True), (10**12, 5000)),
        (SearchSpace(Z4, 2), (10**12, 150)),
        (SearchSpace(Z4, 2, require_connected=True), (10**12,)),
        (SearchSpace(make_cyclic(6)[0], 2), (10**12, 500)),
        (SearchSpace(standard_two_generated("S3")[0], 2, require_connected=True), (10**12,)),
    ],
    ids=["z2-m4", "z2-m4-connected", "z4-m2", "z4-m2-connected", "z6-m2", "s3-m2-connected"],
)
def test_reuse_gives_the_outputs_of_evaluating_every_branch(monkeypatch, space, budgets) -> None:
    def outcomes() -> list:
        results = []
        for budget in budgets:
            try:
                results.append(exhaustive_search(space, budget).to_json())
            except BudgetExceeded as exc:
                results.append(str(exc))
        return results

    reduced = outcomes()
    # every row its own key: the search without reuse at any depth
    monkeypatch.setattr(search._Rows, "orbit_key", lambda self, chosen, i, p: p)
    assert outcomes() == reduced


def test_a_resumed_run_evaluates_twins_of_earlier_leaders(engine_calls, tmp_path) -> None:
    # the leaders of Z4 m=2 are branches 0, 4, 5, 10 and 11, and the stop at
    # budget 100 checkpoints branches 0..4; on resuming, branch 6 is the first
    # of leader 4's key that the run meets, so it is evaluated with 5, 10 and
    # 11, and 7 and 9 take its histogram: four branches of two candidates
    space = SearchSpace(Z4, 2)
    path = str(tmp_path / "ckpt.json")
    with pytest.raises(BudgetExceeded, match="budget of 100 in branch 5"):
        exhaustive_search(space, 100, checkpoint_path=path)
    before = len(engine_calls)
    resumed = exhaustive_search(space, checkpoint_path=path).to_json()
    assert len(engine_calls) - before == 8
    assert resumed == exhaustive_search(space).to_json()


def test_a_twin_whose_count_differs_from_its_leader_raises(monkeypatch, tmp_path) -> None:
    # branches 0..3 of Z4 m=2 complete no candidate and branch 4 completes
    # two, so giving every first row one key fails at branch 4
    monkeypatch.setattr(search._Rows, "orbit_key", lambda self, chosen, i, p: ())
    path = tmp_path / "ckpt.json"
    with pytest.raises(RuntimeError, match="branch 4 completed 2 .* leader 0 completed 0"):
        exhaustive_search(SearchSpace(Z4, 2), checkpoint_path=str(path))
    assert json.loads(path.read_text())["last_completed_branch"] == 3


def _twin_subtrees(space: SearchSpace) -> list[int]:
    """Checks by brute force that fitting sibling rows of one orbit key root
    subtrees of equal candidate counts and equal exact histograms, at every
    depth the search compares keys; returns the number of twins with
    candidates at each depth 0..m-2."""
    group, m = space.group, space.m
    rows = search._Rows(space)
    pick = {row[0]: p for p, row in enumerate(rows)}
    tables = _reference_tables(space)
    chosen: list = [()] * m
    col_sums = [0] * m
    twins = [0] * (m - 1)

    def walk(i: int) -> tuple[int, dict[int, int]]:
        if i == m:
            conn = ConnectionMatrix(
                m, tuple(tuple(frozenset(_mask_elements(c)) for c in row) for row in chosen)
            )
            graph = build(group, conn)
            if space.require_connected and not is_weakly_connected(graph):
                return 1, {}
            return 1, {automorphism_group(graph).order(): 1}
        count, histogram, subtrees = 0, {}, {}
        for row in tables[i]:
            if not _row_fits(space, col_sums, chosen, i, row):
                continue
            cells, sizes, _, _ = row
            chosen[i] = cells
            col_sums[:] = [c + s for c, s in zip(col_sums, sizes)]
            subtree = walk(i + 1)
            col_sums[:] = [c - s for c, s in zip(col_sums, sizes)]
            count += subtree[0]
            for order, c in subtree[1].items():
                histogram[order] = histogram.get(order, 0) + c
            if i < m - 1:
                key = rows.orbit_key(chosen, i, pick[cells])
                if key in subtrees:
                    assert subtrees[key] == subtree, (i, chosen[:i], cells)
                    twins[i] += subtree[0] > 0
                subtrees.setdefault(key, subtree)
        return count, histogram

    walk(0)
    return twins


@pytest.mark.parametrize(
    "space,twins",
    [
        (SearchSpace(Z1, 6, 2), [9, 46, 42, 12, 0]),
        (SearchSpace(Z2, 4), [18, 28, 12]),
        (SearchSpace(Z3, 3), [44, 36]),
        (SearchSpace(standard_two_generated("S3")[0], 2), [38]),
        (SearchSpace(Z2, 4, require_connected=True), [18, 28, 12]),
        (SearchSpace(Z1, 5, 2, require_oriented=False), [5, 12, 4, 0]),
    ],
    ids=["z1-m6-k2", "z2-m4", "z3-m3", "s3-m2", "z2-m4-connected", "z1-m5-k2-digons"],
)
def test_rows_of_one_key_root_twin_subtrees(space, twins) -> None:
    assert _twin_subtrees(space) == twins


def test_a_twin_below_row_0_whose_count_differs_raises(monkeypatch) -> None:
    # one key for every row below row 0 joins siblings of different counts
    orbit_key = search._Rows.orbit_key
    monkeypatch.setattr(
        search._Rows,
        "orbit_key",
        lambda self, chosen, i, p: orbit_key(self, chosen, i, p) if i == 0 else (),
    )
    with pytest.raises(RuntimeError, match=r"row \d+ at depth \d+ completed \d+ candidates,"
                       r" but its twin row \d+ completed \d+"):
        exhaustive_search(SearchSpace(Z1, 7))


def test_the_explorer_finds_twins_in_a_digon_space(engine_calls) -> None:
    # the walk passes no incoming cells in a space with digons, so the keys
    # read the rows above from the chosen rows; the reuse leaves the counts
    # and the exact histogram as they are without it
    out = search_trivial_aut_digraph(5, 2, False, "exhaustive")
    assert (out.status, out.candidates_tested) == ("EXHAUSTED", 216)
    space = SearchSpace(Z1, 5, 2, require_oriented=False)
    before = len(engine_calls)
    reduced = exhaustive_search(space).to_json()
    calls = len(engine_calls) - before
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search._Rows, "orbit_key", lambda self, chosen, i, p: p)
        before = len(engine_calls)
        assert exhaustive_search(space).to_json() == reduced
        assert calls < len(engine_calls) - before


@pytest.mark.parametrize("space", [SearchSpace(Z1, 7), SearchSpace(Z2, 4)], ids=["z1-m7", "z2-m4"])
def test_a_budget_stop_inside_a_twin_below_row_0_is_the_row_by_row_walks(space) -> None:
    # the twin is branch 0's first depth-1 row whose key an earlier sibling
    # with candidates had; twenty budgets inside its subtree stop there, and
    # the search walks it again evaluating, so each stop's histogram is that
    # of the candidates completed before it
    rows = search._Rows(space)
    pick = {row[0]: p for p, row in enumerate(rows)}
    reference = _reference_tables(space)
    spans: list = []
    _row_by_row(space, reference, search.DEFAULT_BUDGET, 0, True, spans)
    first = reference[0][0][0]
    keys = set()
    for depth, cells, start, tested, end, done in spans:
        if depth == 1 and done > tested:
            key = rows.orbit_key([first, cells], 1, pick[cells])
            if key in keys:
                break
            keys.add(key)
    else:
        pytest.fail("branch 0 has no twin below row 0")
    stops = []
    for budget in range(start + 1, end - 1, max(1, (end - start) // 20)):
        want = _row_by_row(space, reference, budget, 0, True)
        assert search._search_branch(space, rows, True, budget, pick[first], True)[:4] == want[:4]
        stops.append(want)
    assert {stop[0] for stop in stops} == {"BUDGET"}
    assert any(stop[2] > tested for stop in stops)


def test_a_first_witness_search_finds_the_leader_of_each_branch_it_runs(monkeypatch) -> None:
    # Z5 m=2 connected is FOUND after 2 candidates, long before the last of
    # table 0's rows: only the branches it reaches ask for their keys
    orbit_key, search_branch = search._Rows.orbit_key, search._search_branch
    asked, ran = [], []

    def counting_key(self, chosen, i, p):
        asked.append(p)
        return orbit_key(self, chosen, i, p)

    def counting_branch(*args):
        ran.append(args[4])
        return search_branch(*args)

    space = SearchSpace(Z5, 2, require_connected=True)
    monkeypatch.setattr(search._Rows, "orbit_key", counting_key)
    monkeypatch.setattr(search, "_search_branch", counting_branch)
    outcome = exhaustive_search(space)
    assert (outcome.status, outcome.candidates_tested) == ("FOUND", 2)
    assert asked == ran
    assert len(asked) < search._Rows(space).tables[0].bit_count()


@pytest.mark.parametrize(
    "run,status,tested,matrices",
    [
        (lambda: exhaustive_search(SearchSpace(Z4, 2)), "EXHAUSTED", 24, 0),
        (lambda: exhaustive_search(SearchSpace(Z5, 2, require_connected=True)), "FOUND", 2, 1),
        (lambda: search_trivial_aut_digraph(7, 2, True, "exhaustive"), "FOUND", 4, 1),
    ],
    ids=["z4-m2", "z5-m2-connected", "rigid-n7-k2"],
)
def test_only_a_witness_becomes_a_connection_matrix(
    monkeypatch, run, status, tested, matrices
) -> None:
    # a candidate goes to the engine as a plain digraph built from its rows
    made = []

    def counting(*args):
        made.append(args)
        return ConnectionMatrix(*args)

    monkeypatch.setattr(search, "ConnectionMatrix", counting)
    outcome = run()
    assert (outcome.status, outcome.candidates_tested, len(made)) == (status, tested, matrices)


def test_outcome_json_shape() -> None:
    outcome = exhaustive_search(SearchSpace(Z4, 2))
    payload = outcome.to_json()
    assert payload["schema"] == 1
    assert payload["status"] == "EXHAUSTED"
    assert payload["witness"] is None
    assert payload["aut_order_histogram"] == {"8": 8, "16": 8, "24": 8}
    json.dumps(payload)  # serializable as-is


# ---------------------------------------------------------------------------
# Checkpointing.
# ---------------------------------------------------------------------------

def test_checkpoint_resume_matches_clean_run(tmp_path) -> None:
    space = SearchSpace(Z4, 2)
    clean = exhaustive_search(space)
    path = str(tmp_path / "ckpt.json")

    # branches 0..7 of Z4 m=2 do 144 units of work, so the stop is in branch 8
    with pytest.raises(BudgetExceeded, match="budget of 150 in branch 8"):
        exhaustive_search(space, budget=150, checkpoint_path=path)
    assert json.loads(Path(path).read_text())["last_completed_branch"] == 7

    resumed = exhaustive_search(space, checkpoint_path=path)
    assert resumed.to_json() == clean.to_json()
    # the resumed run checkpoints every branch it merges
    assert json.loads(Path(path).read_text())["last_completed_branch"] == 15


def test_checkpoint_for_other_space_raises(tmp_path) -> None:
    path = tmp_path / "ckpt.json"
    exhaustive_search(SearchSpace(Z4, 2), checkpoint_path=str(path))
    written = path.read_bytes()
    with pytest.raises(ValueError, match='space {"group": "Z4".* not {"group": "Z3"'):
        exhaustive_search(SearchSpace(Z3, 2), checkpoint_path=str(path))
    assert path.read_bytes() == written


def test_malformed_checkpoint_raises_value_error(tmp_path) -> None:
    from omsr.search import _read_checkpoint

    space = SearchSpace(Z4, 2)
    rows = len(_table_rows(Z4, 2, 3, 0))
    path = tmp_path / "ckpt.json"
    good = {
        "schema": 1,
        "space": space.descriptor(),
        "last_completed_branch": 3,
        "candidates_tested": 10,
        "aut_order_histogram": {"8": 2},
    }
    path.write_text(json.dumps(good))
    assert _read_checkpoint(str(path), space) == (3, 10, {8: 2})
    missing = dict(good)
    del missing["last_completed_branch"]
    bad = [
        missing,
        {**good, "last_completed_branch": "3"},
        {**good, "candidates_tested": -1},
        {**good, "aut_order_histogram": [8, 2]},
        {**good, "aut_order_histogram": {"eight": 2}},
        {**good, "aut_order_histogram": {"8": 1.5}},
        [good],
        # past the last branch, which would read as a finished search
        {**good, "last_completed_branch": 999},
        {**good, "last_completed_branch": rows},
        # more automorphism orders than candidates
        {**good, "aut_order_histogram": {"8": 11}},
        {**good, "aut_order_histogram": {"8": 6, "16": 5}},
        # "8" and "08" name one order; read as ints they merged into {8: 3}
        {**good, "aut_order_histogram": {"8": 2, "08": 3}},
    ]
    for payload in bad:
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            exhaustive_search(space, checkpoint_path=str(path))
    # "²".isdigit() holds, but int("²") fails: only ASCII decimal keys count,
    # and only the canonical decimal of an order, so no two keys name one
    for key in ("²", "８", "", "08", "0"):
        path.write_text(json.dumps({**good, "aut_order_histogram": {key: 2}}))
        with pytest.raises(ValueError, match="for this search space is malformed"):
            exhaustive_search(space, checkpoint_path=str(path))
    # one key spelt the same twice, which json would read as its last value
    path.write_text(json.dumps(good).replace('"8": 2', '"8": 2, "8": 3'))
    with pytest.raises(ValueError, match="'8' twice"):
        exhaustive_search(space, checkpoint_path=str(path))
    # the checkpoint of a finished search is valid and resumes to its outcome
    finished = {**good, "last_completed_branch": rows - 1, "candidates_tested": 24,
                "aut_order_histogram": {"8": 8, "16": 8, "24": 8}}
    path.write_text(json.dumps(finished))
    outcome = exhaustive_search(space, checkpoint_path=str(path))
    assert (outcome.status, outcome.candidates_tested) == ("EXHAUSTED", 24)
    assert outcome.aut_order_histogram == {8: 8, 16: 8, 24: 8}


def test_checkpoint_write_replaces_the_file_atomically(tmp_path, monkeypatch) -> None:
    import omsr.search as search
    from omsr.search import _write_checkpoint

    space = SearchSpace(Z4, 2)
    path = tmp_path / "ckpt.json"
    _write_checkpoint(str(path), space, 3, 10, {8: 2})
    before = path.read_text()

    def crash(src, dst) -> None:
        raise OSError("interrupted")

    # a write that dies before the rename leaves the old checkpoint whole
    monkeypatch.setattr(search.os, "replace", crash)
    with pytest.raises(OSError):
        _write_checkpoint(str(path), space, 4, 12, {8: 3})
    assert path.read_text() == before
    monkeypatch.undo()

    _write_checkpoint(str(path), space, 5, 14, {8: 4})
    assert json.loads(path.read_text())["last_completed_branch"] == 5
    assert [f.name for f in tmp_path.iterdir()] == ["ckpt.json"]


def test_a_branch_error_reaches_the_caller_at_its_branch(monkeypatch, tmp_path) -> None:
    # the error stops the merge at branch 3, so the checkpoint holds branch 2
    real = search._search_branch
    branch3 = _firsts(SearchSpace(Z4, 2))[3]

    def failing(space, rows, exact_histogram, budget, first, evaluate):
        if first == branch3:
            raise ArithmeticError("branch 3 failed")
        return real(space, rows, exact_histogram, budget, first, evaluate)

    monkeypatch.setattr(search, "_search_branch", failing)
    path = tmp_path / "ckpt.json"
    with pytest.raises(ArithmeticError, match="branch 3 failed"):
        exhaustive_search(SearchSpace(Z4, 2), checkpoint_path=str(path))
    assert json.loads(path.read_text())["last_completed_branch"] == 2


@pytest.mark.parametrize("legs", [1, 2])
def test_inexact_histograms_keep_the_verdicts_and_counts(engine_calls, tmp_path, legs) -> None:
    # without exact histograms the engine may stop once the order passes |G|,
    # so the histogram holds lower bounds whose values follow the engine's
    # order; the verdict, the witness and the counts do not move.  With two
    # legs the search first stops at a budget of 500 and then resumes from
    # its checkpoint, which carries the lower bounds of the branches merged
    stopped = []

    def inexact(space: SearchSpace, name: str) -> SearchOutcome:
        if legs == 1:
            return exhaustive_search(space, exact_histogram=False)
        path = str(tmp_path / f"{name}.json")
        try:
            exhaustive_search(space, 500, exact_histogram=False, checkpoint_path=path)
        except BudgetExceeded:
            stopped.append(name)
        return exhaustive_search(space, exact_histogram=False, checkpoint_path=path)

    for group, m in ((Z5, 2), (standard_two_generated("S3")[0], 2),
                     (standard_two_generated("Q8")[0], 2), (Z1, 8)):
        space = SearchSpace(group, m)
        exact = exhaustive_search(space).to_json()
        found = inexact(space, f"{group.name}-{m}").to_json()
        for key in ("status", "witness", "candidates_tested"):
            assert found[key] == exact[key], (group.name, key)
    for group, m in ((Z4, 2), (Z2, 4)):
        space = SearchSpace(group, m)
        exact = exhaustive_search(space)
        outcome = inexact(space, f"{group.name}-{m}")
        assert outcome.status == exact.status == "EXHAUSTED"
        assert outcome.candidates_tested == exact.candidates_tested
        counts = outcome.aut_order_histogram
        assert sum(counts.values()) == sum(exact.aut_order_histogram.values())
        assert group.n < min(counts) and max(counts) <= max(exact.aut_order_histogram)
    # Z4 m=2 finishes within 500; every other space resumes from a stop
    assert len(stopped) == (0 if legs == 1 else 5)
    # a twin takes its sibling's lower bounds, so inexact runs reuse rows
    # too: only 10 of Z2 m=4's 152 candidates reach the engine
    before = len(engine_calls)
    exhaustive_search(SearchSpace(Z2, 4), exact_histogram=False)
    assert len(engine_calls) - before == 10


# ---------------------------------------------------------------------------
# Rigid-digraph exploration.
# ---------------------------------------------------------------------------

def test_exhaustive_rigid_small_cases() -> None:
    # the complete digraph is the only 3-regular digraph on 4 vertices
    out = search_trivial_aut_digraph(4, 3, oriented=False, mode="exhaustive")
    assert (out.status, out.candidates_tested) == ("EXHAUSTED", 1)

    # 1-regular oriented digraphs are unions of cycles, never rigid
    out = search_trivial_aut_digraph(5, 1, oriented=True, mode="exhaustive")
    assert (out.status, out.candidates_tested) == ("EXHAUSTED", 24)

    # oriented 3-regular needs at least 7 vertices, so 6 is vacuous
    out = search_trivial_aut_digraph(6, 3, oriented=True, mode="exhaustive")
    assert (out.status, out.candidates_tested) == ("EXHAUSTED", 0)
    out = search_trivial_aut_digraph(2, 1, oriented=True, mode="exhaustive")
    assert (out.status, out.candidates_tested) == ("EXHAUSTED", 0)

    # the one-vertex arcless digraph is rigid
    out = search_trivial_aut_digraph(1, 0)
    assert (out.status, out.candidates_tested) == ("FOUND", 1)
    assert out.witness.nv == 1

    # k >= n leaves no loop-free candidates
    out = search_trivial_aut_digraph(3, 3)
    assert (out.status, out.candidates_tested) == ("EXHAUSTED", 0)


# (n, k, oriented, budget) -> status, candidates and witness arcs "uv ...",
# as the matrix search over the trivial group gives them in its forward pick
# order: branch 0 is the first row 0 -> n-k..n-1
EXPLORER_ANSWERS = [
    ((7, 3, True, None), "EXHAUSTED", 2640, None),
    ((6, 2, True, None), "EXHAUSTED", 570, None),
    ((5, 2, True, None), "EXHAUSTED", 24, None),
    ((8, 3, True, None), "FOUND", 98,
     "05 06 07 14 16 17 20 21 27 30 31 35 40 42 43 51 52 56 62 63 64 73 74 75"),
    ((9, 3, True, None), "FOUND", 1121,
     "06 07 08 16 17 18 21 27 28 30 34 35 40 41 42 50 51 52 62 63 65 73 74 76 83 84 85"),
    ((7, 2, True, None), "FOUND", 4, "05 06 15 16 21 24 30 32 40 41 53 54 62 63"),
    ((7, 2, False, None), "FOUND", 2, "05 06 15 16 23 24 32 34 41 43 50 52 60 61"),
    ((6, 3, False, None), "FOUND", 15,
     "03 04 05 13 14 15 20 21 25 31 32 34 40 41 42 50 52 53"),
    ((8, 2, True, None), "FOUND", 6, "06 07 16 17 24 25 31 35 40 43 50 51 62 64 72 73"),
    ((9, 3, False, 10**4), "FOUND", 7,
     "06 07 08 16 17 18 26 27 28 32 34 35 42 43 45 51 53 54 60 64 65 70 71 73 80 81 82"),
    ((10, 3, True, 10**6), "BUDGET", 126, None),
]


@pytest.mark.parametrize(
    "args,status,candidates,arcs",
    EXPLORER_ANSWERS,
    ids=[f"n{n}-k{k}-{'oriented' if o else 'digons'}" for (n, k, o, _), *_ in EXPLORER_ANSWERS],
)
def test_exhaustive_explorer_keeps_its_answers(args, status, candidates, arcs) -> None:
    n, k, oriented, budget = args
    kwargs = {} if budget is None else {"budget": budget}
    out = search_trivial_aut_digraph(n, k, oriented, "exhaustive", **kwargs)
    assert (out.status, out.candidates_tested) == (status, candidates)
    witness = None if out.witness is None else " ".join(f"{u}{v}" for u, v in out.witness.arcs())
    assert witness == arcs
    if out.witness is not None:
        assert automorphism_group(out.witness).order() == 1
    if budget is None:
        # the explorer is the first-witness search over the trivial group
        direct = exhaustive_search(SearchSpace(Z1, n, k, oriented), exact_histogram=False)
        assert (direct.status, direct.candidates_tested) == (status, candidates)
        if direct.witness is not None:
            assert build(Z1, direct.witness).arcs() == out.witness.arcs()


@pytest.mark.parametrize(
    "n,candidates,arcs",
    [
        (10, 212, "07 08 09 17 18 19 27 28 29 31 32 36 40 42 45 50 51 53 60 61 62 74 75 76 83 84"
         " 86 93 94 95"),
        (11, 1177, "0-8 0-9 0-10 1-8 1-9 1-10 2-8 2-9 2-10 3-5 3-6 3-7 4-1 4-2 4-7 5-0 5-2 5-7"
         " 6-0 6-1 6-4 7-0 7-1 7-2 8-3 8-5 8-6 9-3 9-4 9-6 10-3 10-4 10-5"),
        (12, 1551, "0-9 0-10 0-11 1-9 1-10 1-11 2-9 2-10 2-11 3-6 3-7 3-8 4-6 4-7 4-8 5-1 5-2"
         " 5-4 6-0 6-2 6-8 7-0 7-1 7-5 8-0 8-1 8-2 9-3 9-5 9-7 10-3 10-4 10-6 11-3 11-4 11-5"),
        (13, 618, "0-10 0-11 0-12 1-10 1-11 1-12 2-10 2-11 2-12 3-7 3-8 3-9 4-7 4-8 4-9 5-6 5-8"
         " 5-9 6-1 6-2 6-4 7-0 7-2 7-5 8-0 8-1 8-7 9-0 9-1 9-2 10-3 10-5 10-6 11-3 11-4 11-6"
         " 12-3 12-4 12-5"),
    ],
    ids=["n10", "n11", "n12", "n13"],
)
def test_exhaustive_explorer_defaults_to_the_search_budget(n, candidates, arcs) -> None:
    # search.DEFAULT_BUDGET units of work, where 10^6 stops n=10 after 126
    # candidates (the row above); "u-v" where a vertex has two digits
    out = search_trivial_aut_digraph(n, 3, True, "exhaustive")
    assert (out.status, out.candidates_tested) == ("FOUND", candidates)
    sep = "-" if n > 10 else ""
    assert " ".join(f"{u}{sep}{v}" for u, v in out.witness.arcs()) == arcs
    assert automorphism_group(out.witness).order() == 1


@pytest.mark.parametrize(
    "n,k,oriented", [(7, 3, True), (10, 3, True), (5, 1, True), (6, 2, False), (9, 3, False)]
)
def test_every_trivial_group_first_row_leads_to_branch_0(n, k, oriented) -> None:
    # over the trivial group relabelling vertices 1..n-1 sorts a first row's
    # cells, so every branch is a twin of branch 0 and a first-witness search
    # evaluates branch 0 alone
    rows = search._Rows(SearchSpace(Z1, n, k, oriented))
    firsts = list(search._ones(rows.tables[0]))
    assert len({rows.orbit_key([], 0, p) for p in firsts}) == 1
    assert rows[firsts[0]][0] == (0, *[0] * (n - 1 - k), *[1] * k)


def test_the_explorer_sends_only_branch_0_to_the_engine(engine_calls) -> None:
    # the 2,640 candidates that `omsr search --group cyclic:1 --m 7` counts,
    # of which 17 of branch 0's 132 reach the engine
    out = search_trivial_aut_digraph(7, 3, True, "exhaustive")
    assert (out.status, out.candidates_tested, len(engine_calls)) == ("EXHAUSTED", 2640, 17)


def test_exhaustive_rigid_respects_budget() -> None:
    out = search_trivial_aut_digraph(7, 3, oriented=True, mode="exhaustive", budget=10)
    assert out.status == "BUDGET"
    assert out.witness is None


def test_rigid_input_validation() -> None:
    with pytest.raises(ValueError):
        search_trivial_aut_digraph(0, 1)
    with pytest.raises(ValueError):
        search_trivial_aut_digraph(8, 2, mode="simulated-annealing")
    # an unknown mode is rejected before the early answers for k >= n and
    # for k = 0, which used to return EXHAUSTED for it
    for n, k in ((3, 3), (5, 0)):
        with pytest.raises(ValueError, match="unknown mode 'bogus'"):
            search_trivial_aut_digraph(n, k, mode="bogus")


def test_nine_vertex_circulant_admits_no_oriented_switch() -> None:
    # the randomized chain seeds at the circulant with jumps {1,2,3}; on
    # nine vertices every candidate 2-switch is blocked, so the chain can
    # never leave its seed and the search must time out
    n, jumps = 9, (1, 2, 3)
    outs = {v: {(v + d) % n for d in jumps} for v in range(n)}
    arcs = [(v, w) for v in range(n) for w in sorted(outs[v])]
    for (a, b), (c, d) in itertools.permutations(arcs, 2):
        if a == c or b == d or a == d or c == b:
            continue
        if d in outs[a] or b in outs[c]:
            continue
        if a in outs[d] or c in outs[b]:
            continue
        pytest.fail(f"switch {(a, b)}/{(c, d)} is available")

    out = search_trivial_aut_digraph(
        9, 3, oriented=True, mode="randomized", budget=5, seed=0
    )
    assert (out.status, out.candidates_tested) == ("BUDGET", 5)


def test_ten_vertex_circulant_does_admit_switches() -> None:
    n, jumps = 10, (1, 2, 3)
    outs = {v: {(v + d) % n for d in jumps} for v in range(n)}
    arcs = [(v, w) for v in range(n) for w in sorted(outs[v])]
    available = [
        ((a, b), (c, d))
        for (a, b), (c, d) in itertools.permutations(arcs, 2)
        if a != c and b != d and a != d and c != b
        and d not in outs[a] and b not in outs[c]
        and a not in outs[d] and c not in outs[b]
    ]
    assert available


def test_randomized_rigid_finds_a_ten_vertex_witness() -> None:
    out = search_trivial_aut_digraph(
        10, 3, oriented=True, mode="randomized", budget=50, seed=0
    )
    assert out.status == "FOUND"
    assert out.candidates_tested == 1
    graph = out.witness
    assert is_oriented(graph)
    assert is_k_regular(graph, 3)
    assert automorphism_group(graph).order() == 1


def test_rigid_outcome_json_is_marked_exploratory() -> None:
    out = search_trivial_aut_digraph(1, 0)
    payload = out.to_json()
    assert payload["exploratory"] is True
    assert payload["status"] == "FOUND"
    json.dumps(payload)
