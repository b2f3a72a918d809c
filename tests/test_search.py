from __future__ import annotations

import itertools
import json
import random
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


def _product_reference(space: SearchSpace):
    """Unpruned mirror of the search: filter the full row product.

    Enumerates every combination of per-row assignments, keeps those whose
    column sums and cross-cell orientation are valid, and evaluates them in
    the same lexicographic order the depth-first search visits.  Used to show
    the search's pruning is lossless.
    """
    m, k, group = space.m, space.k, space.group
    rows = [
        enumerate_rows(group, m, k, i, space.require_oriented) for i in range(m)
    ]
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
        if space.require_connected and not is_weakly_connected(gamma.graph):
            continue
        order = automorphism_group(gamma.graph).order()
        histogram[order] = histogram.get(order, 0) + 1
        if order == group.n:
            return "FOUND", conn, tested, histogram
    return "EXHAUSTED", None, tested, histogram


# ---------------------------------------------------------------------------
# Row enumeration.
# ---------------------------------------------------------------------------

def test_enumerate_rows_counts() -> None:
    assert len(enumerate_rows(Z2, 3, 3, 0, oriented=False)) == 20
    assert len(enumerate_rows(Z2, 3, 3, 0)) == 4
    assert len(enumerate_rows(Z2, 2, 3, 0)) == 0
    assert len(enumerate_rows(Z3, 2, 3, 0)) == 7
    assert len(enumerate_rows(Z4, 2, 3, 0)) == 16
    assert len(enumerate_rows(klein_four()[0], 2, 3, 0)) == 4
    assert len(enumerate_rows(Z5, 1, 3, 0)) == 0
    assert len(enumerate_rows(make_cyclic(7)[0], 1, 3, 0)) == 8


def test_enumerate_rows_row_properties() -> None:
    rows = enumerate_rows(Z4, 2, 3, 0)
    assert rows == sorted(rows)
    for row in rows:
        assert sum(bin(mask).count("1") for mask in row) == 3
        diag = _mask_elements(row[0])
        assert not any(Z4.inv[t] in diag for t in diag)
    with pytest.raises(ValueError):
        enumerate_rows(Z4, 2, 3, 2)


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
    # every m-tuple of element masks with k elements in all whose diagonal
    # cell holds no element together with its inverse, in sorted order
    def avoids_inverses(mask: int) -> bool:
        elements = _mask_elements(mask)
        return not any(group.inv[t] in elements for t in elements)

    tuples = list(itertools.product(range(1 << group.n), repeat=m))
    for k in range(5):
        sized = [row for row in tuples if sum(bin(c).count("1") for c in row) == k]
        for i in range(m):
            assert enumerate_rows(group, m, k, i, oriented=False) == sorted(sized)
            reference = sorted(row for row in sized if avoids_inverses(row[i]))
            assert enumerate_rows(group, m, k, i) == reference, (k, i)


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
        (i, j): set(conn.entry(i, j)) for i in range(2) for j in range(2)
    } == {(0, 0): {1}, (0, 1): {0, 1}, (1, 0): {1, 2}, (1, 1): {2}}
    gamma = build(Z5, conn)
    assert is_oriented(gamma.graph) and is_weakly_connected(gamma.graph)
    assert automorphism_group(gamma.graph).order() == 5


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
    # twin of branch 0, so only branch 0's 132 candidates reach the engine
    with pytest.raises(BudgetExceeded, match="budget of 88846 in branch 2"):
        exhaustive_search(SearchSpace(Z1, 7), budget=88846)
    assert len(engine_calls) == 132


# ---------------------------------------------------------------------------
# Mask filtering against the row-by-row walk.
# ---------------------------------------------------------------------------

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


def _row_by_row(space: SearchSpace, tables: list, budget: int, branch: int, evaluate: bool):
    """Reference branch search: every row of every table goes through
    ``_row_fits`` and counts as one unit of work, checked against the budget
    as it is tried.  Returns what ``search._search_branch`` returns."""
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
                done = descend(i + 1)
                for j in support:
                    col_sums[j] -= sizes[j]
                if done:
                    return True
                continue
            tested += 1
            if not evaluate:
                continue
            conn = ConnectionMatrix(
                m, tuple(tuple(frozenset(_mask_elements(c)) for c in row) for row in chosen)
            )
            graph = build(group, conn).graph
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
}


@pytest.mark.parametrize("space", _FILTER_SPACES.values(), ids=_FILTER_SPACES.keys())
def test_mask_filtering_matches_the_row_by_row_walk(space) -> None:
    # the branches in order on one set of tables up to the first witness, as
    # one job runs them, so a table is scanned row by row until two full
    # scans build its masks
    tables = search._matrix_tables(space)
    least: dict = {}
    for branch, (row, *_) in enumerate(tables[0]):
        args = search.DEFAULT_BUDGET, branch, search._leader(space.group, row, least) == row
        got = search._search_branch(space, tables, True, *args)
        assert got == _row_by_row(space, tables, *args), branch
        if got[0] == "FOUND":
            break
    assert not tables[0] or any(table.allow is not None for table in tables)


def test_mask_filtering_stops_at_every_budget_where_the_row_by_row_walk_does() -> None:
    # Z4 m=2 does 296 units of work in all; each run merges the branches as
    # one job does, each under the budget its earlier branches left, up to
    # the first stop.  Only a stopped branch's work may differ.
    space = SearchSpace(Z4, 2)
    least: dict = {}
    rows = enumerate_rows(Z4, 2, 3, 0)
    leads = [search._leader(Z4, row, least) == row for row in rows]
    total = 296
    for budget in range(total + 1):
        tables = search._matrix_tables(space)
        left = budget
        for branch, evaluate in enumerate(leads):
            args = left, branch, evaluate
            got = search._search_branch(space, tables, True, *args)
            want = _row_by_row(space, tables, *args)
            assert got[:4] == want[:4], (budget, branch)
            if got[0] == "BUDGET":
                break
            assert got[4] == want[4], (budget, branch)
            left -= got[4]
        else:
            assert budget == total and left == 0


@pytest.mark.parametrize("space", _FILTER_SPACES.values(), ids=_FILTER_SPACES.keys())
def test_masks_select_the_rows_row_fits_accepts(space) -> None:
    # random descents from a first row reach states at every depth
    group, m, k = space.group, space.m, space.k
    tables = search._matrix_tables(space)
    for i in range(1, m):
        left = (m - 1 - i) * min(k, group.n)
        tables[i].build_masks(i, m, k, left, group.n, space.require_oriented)
    rng = random.Random(1)
    for _ in range(200):
        chosen: list = [()] * m
        col_sums = [0] * m
        for i in range(m):
            fitting = {
                r for r, row in enumerate(tables[i]) if _row_fits(space, col_sums, chosen, i, row)
            }
            if i > 0:
                fits = tables[i].fitting(i, col_sums, chosen)
                assert fitting == {r for r, _ in tables[i].selected(fits)}
            if not fitting:
                break
            cells, sizes, _, _ = tables[i][rng.choice(sorted(fitting))]
            chosen[i] = cells
            col_sums = [c + s for c, s in zip(col_sums, sizes)]


def test_z1_m7_work_per_branch() -> None:
    # the budget units each branch of Z1 m=7 spends, twins included: 542,260
    # in all, 88,846 for the first two
    space = SearchSpace(Z1, 7)
    tables = search._matrix_tables(space)
    work = [
        search._search_branch(space, tables, True, search.DEFAULT_BUDGET, branch, branch == 0)[-1]
        for branch in range(len(tables[0]))
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
        # each of the three classes, all 20 first rows in one orbit
        (Z1, 7, 2640, {3: 1680, 7: 720, 21: 240}, 132),
        (Z2, 4, 152, {6: 64, 8: 48, 16: 24, 24: 16}, 16),
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


def test_leaders_are_the_least_rows_of_their_orbits() -> None:
    rows = enumerate_rows(Z4, 2, 3, 0)
    least: dict = {}
    leaders = [rows.index(search._leader(Z4, row, least)) for row in rows]
    assert leaders == [0, 0, 0, 0, 4, 5, 4, 4, 5, 4, 10, 11, 10, 10, 11, 10]
    for row, leader in zip(rows, leaders):
        # the leader keeps T(0,0) and its T(0,1) is a*T(0,1) for some a
        images = {sum(1 << Z4.mult[a][t] for t in _mask_elements(row[1])) for a in range(4)}
        assert rows[leader][0] == row[0] and rows[leader][1] == min(images)
    # Z1 m=7: permuting blocks 1..6 joins all 20 first rows
    rows = enumerate_rows(Z1, 7, 3, 0)
    assert {search._leader(Z1, row, {}) for row in rows} == {rows[0]}


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
    # every branch its own leader: the search without reuse
    monkeypatch.setattr(search, "_leader", lambda group, row, least: row)
    assert outcomes() == reduced


def test_a_resumed_run_evaluates_twins_of_earlier_leaders(engine_calls, tmp_path) -> None:
    # the leaders of Z4 m=2 are branches 0, 4, 5, 10 and 11, and the stop at
    # budget 100 checkpoints branches 0..4; on resuming, branches 6, 7 and 9
    # name leader 4, merged before the checkpoint, so they are evaluated in
    # full with 5, 10 and 11: six branches of two candidates
    space = SearchSpace(Z4, 2)
    path = str(tmp_path / "ckpt.json")
    with pytest.raises(BudgetExceeded, match="budget of 100 in branch 5"):
        exhaustive_search(space, 100, checkpoint_path=path)
    before = len(engine_calls)
    resumed = exhaustive_search(space, checkpoint_path=path).to_json()
    assert len(engine_calls) - before == 12
    assert resumed == exhaustive_search(space).to_json()


def test_a_twin_whose_count_differs_from_its_leader_raises(monkeypatch, tmp_path) -> None:
    # branches 0..3 of Z4 m=2 complete no candidate and branch 4 completes
    # two, so naming branch 0's row as every leader fails at branch 4
    first = enumerate_rows(Z4, 2, 3, 0)[0]
    monkeypatch.setattr(search, "_leader", lambda group, row, least: first)
    path = tmp_path / "ckpt.json"
    with pytest.raises(RuntimeError, match="branch 4 completed 2 .* leader 0 completed 0"):
        exhaustive_search(SearchSpace(Z4, 2), checkpoint_path=str(path))
    assert json.loads(path.read_text())["last_completed_branch"] == 3


def test_a_first_witness_search_finds_the_leader_of_each_branch_it_runs(monkeypatch) -> None:
    # Z5 m=2 connected is FOUND after 2 candidates, long before the last of
    # table 0's rows: only the branches it reaches ask for their leaders
    leader, search_branch = search._leader, search._search_branch
    asked, ran = [], []

    def counting_leader(group, row, least):
        asked.append(row)
        return leader(group, row, least)

    def counting_branch(*args):
        ran.append(args[4])
        return search_branch(*args)

    monkeypatch.setattr(search, "_leader", counting_leader)
    monkeypatch.setattr(search, "_search_branch", counting_branch)
    outcome = exhaustive_search(SearchSpace(Z5, 2, require_connected=True))
    assert (outcome.status, outcome.candidates_tested) == ("FOUND", 2)
    rows = enumerate_rows(Z5, 2, 3, 0)
    assert asked == [rows[branch] for branch in ran]
    assert len(asked) < len(rows)


@pytest.mark.parametrize(
    "run,status,tested,matrices",
    [
        (lambda: exhaustive_search(SearchSpace(Z4, 2)), "EXHAUSTED", 24, 0),
        (lambda: exhaustive_search(SearchSpace(Z5, 2, require_connected=True)), "FOUND", 2, 1),
        (lambda: search_trivial_aut_digraph(7, 2, True, "exhaustive"), "FOUND", 3, 1),
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
    rows = len(enumerate_rows(Z4, 2, 3, 0))
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

    def failing(space, tables, exact_histogram, budget, branch, evaluate):
        if branch == 3:
            raise ArithmeticError("branch 3 failed")
        return real(space, tables, exact_histogram, budget, branch, evaluate)

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
    # a twin takes its leader's lower bounds, so inexact runs reuse first rows
    # too: only the 16 leaders' candidates of Z2 m=4's 152 reach the engine
    before = len(engine_calls)
    exhaustive_search(SearchSpace(Z2, 4), exact_histogram=False)
    assert len(engine_calls) - before == 16


# ---------------------------------------------------------------------------
# Rigid-digraph exploration.
# ---------------------------------------------------------------------------

def test_exhaustive_rigid_small_cases() -> None:
    # the complete digraph is the only 3-regular digraph on 4 vertices
    out = search_trivial_aut_digraph(4, 3, oriented=False, mode="exhaustive")
    assert (out.status, out.candidates_tested) == ("EXHAUSTED", 1)

    # 1-regular oriented digraphs are unions of cycles, never rigid
    out = search_trivial_aut_digraph(5, 1, oriented=True, mode="exhaustive")
    assert (out.status, out.candidates_tested) == ("EXHAUSTED", 6)

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
# as the explorer's own depth-first loop gave them before it ran on the
# matrix search's branch loop over the trivial group
EXPLORER_ANSWERS = [
    ((7, 3, True, None), "EXHAUSTED", 132, None),
    ((6, 2, True, None), "EXHAUSTED", 57, None),
    ((5, 2, True, None), "EXHAUSTED", 4, None),
    ((8, 3, True, None), "FOUND", 3,
     "01 02 03 12 13 14 23 24 25 34 36 37 45 46 47 50 51 56 60 61 67 70 72 75"),
    ((9, 3, True, None), "FOUND", 3,
     "01 02 03 12 13 14 23 24 25 34 35 36 45 47 48 56 57 58 60 61 67 70 71 78 80 82 86"),
    ((7, 2, True, None), "FOUND", 3, "01 02 12 13 23 24 35 36 40 45 50 56 61 64"),
    ((7, 2, False, None), "FOUND", 16, "01 02 10 12 20 23 34 35 41 46 53 56 64 65"),
    ((6, 3, False, None), "FOUND", 9,
     "01 02 03 10 12 13 20 24 25 32 34 35 40 41 45 51 53 54"),
    ((8, 2, True, None), "FOUND", 2, "01 02 12 13 23 24 30 35 45 46 56 57 61 67 70 74"),
    ((9, 3, False, 10**4), "BUDGET", 45, None),
    ((10, 3, True, 10**6), "BUDGET", 0, None),
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
