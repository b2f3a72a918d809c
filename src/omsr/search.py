"""Exhaustive search over connection matrices and rigid-digraph exploration.

The matrix search certifies non-existence results: it enumerates every
connection matrix of a :class:`SearchSpace` depth-first by rows, prunes on
column sums and the oriented condition, and evaluates the automorphism order
of each completed candidate.  The rigid-digraph search hunts for k-regular
digraphs with trivial automorphism group; its results are exploratory and
carry no ground-truth claim.
"""

from __future__ import annotations

import json
import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import combinations
from pathlib import Path

from .autgroup import automorphism_group
from .digraphs import Digraph, is_weakly_connected
from .groups import FiniteGroup
from .mcayley import ConnectionMatrix, build

DEFAULT_BUDGET = 10**8


class BudgetExceeded(Exception):
    """The estimated or actual work exceeds the configured budget."""


@dataclass(frozen=True)
class SearchSpace:
    """One (group, m, valency) problem instance for the matrix search."""

    group: FiniteGroup
    m: int
    k: int = 3
    require_oriented: bool = True
    require_connected: bool = False

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("m must be positive")
        if self.k < 0:
            raise ValueError("valency must be nonnegative")

    def descriptor(self) -> dict:
        return {
            "group": self.group.name,
            "group_order": self.group.n,
            "m": self.m,
            "k": self.k,
            "require_oriented": self.require_oriented,
            "require_connected": self.require_connected,
        }


@dataclass
class SearchOutcome:
    status: str  # "FOUND" or "EXHAUSTED"
    witness: ConnectionMatrix | None
    candidates_tested: int
    aut_order_histogram: dict[int, int]

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "status": self.status,
            "witness": None if self.witness is None else self.witness.to_json(),
            "candidates_tested": self.candidates_tested,
            "aut_order_histogram": _histogram_json(self.aut_order_histogram),
        }


def _histogram_json(histogram: dict[int, int]) -> dict[str, int]:
    """Automorphism-order histogram with string keys in ascending order."""
    return {str(order): count for order, count in sorted(histogram.items())}


def _inverse_masks(group: FiniteGroup) -> list[int]:
    # inv_mask[M] = bitmask of inverses of the elements selected by M
    n = group.n
    table = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = (mask & -mask).bit_length() - 1
        table[mask] = table[mask & (mask - 1)] | (1 << group.inv[low])
    return table


def enumerate_rows(
    group: FiniteGroup, m: int, k: int, row: int, oriented: bool = True
) -> list[tuple[int, ...]]:
    """All assignments of one matrix row, as per-cell element bitmasks.

    Each result places exactly ``k`` elements across the ``m`` cells of the
    row, and the diagonal cell never meets its own inverse set when
    ``oriented`` is set.  Rows come out in lexicographic order with cells
    compared as numeric bitmasks, so the enumeration is reproducible.
    """
    if not 0 <= row < m:
        raise ValueError(f"row {row} outside 0..{m - 1}")
    n = group.n
    inv_mask = _inverse_masks(group) if oriented else None
    by_size: dict[int, list[int]] = {}
    for mask in range(1 << n):
        by_size.setdefault(bin(mask).count("1"), []).append(mask)

    rows: list[tuple[int, ...]] = []
    cells: list[int] = []

    def place(cell: int, remaining: int) -> None:
        if cell == m:
            if remaining == 0:
                rows.append(tuple(cells))
            return
        sizes = range(remaining + 1) if cell < m - 1 else (remaining,)
        for size in sizes:
            for mask in by_size.get(size, ()):
                if cell == row and inv_mask is not None and mask & inv_mask[mask]:
                    continue
                cells.append(mask)
                place(cell + 1, remaining - size)
                cells.pop()
        return

    # Rebuild in strict numeric order per cell: small sizes do not sort
    # before large masks, so sort the final list lexicographically.
    place(0, k)
    rows.sort()
    return rows


def _mask_elements(mask: int) -> tuple[int, ...]:
    elems = []
    while mask:
        low = (mask & -mask).bit_length() - 1
        elems.append(low)
        mask &= mask - 1
    return tuple(elems)


def _matrix_from_rows(m: int, chosen: list[tuple[int, ...]]) -> ConnectionMatrix:
    cells = {
        (i, j): _mask_elements(chosen[i][j])
        for i in range(m)
        for j in range(m)
        if chosen[i][j]
    }
    return ConnectionMatrix.from_entries(m, cells)


def _row_table(
    space: SearchSpace, row: int
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    # each row assignment paired with its per-cell popcounts
    return [
        (cells, tuple(bin(mask).count("1") for mask in cells))
        for cells in enumerate_rows(
            space.group, space.m, space.k, row, space.require_oriented
        )
    ]


def _search_branch(
    space: SearchSpace,
    tables: list[list[tuple[tuple[int, ...], tuple[int, ...]]]],
    exact_histogram: bool,
    branch: int,
) -> tuple[ConnectionMatrix | None, int, dict[int, int]]:
    """Search the subtree under first row ``branch``.

    Returns the first witness in depth-first order (or None), the number of
    completed candidates, and the histogram of their automorphism orders.
    """
    m, k, n = space.m, space.k, space.group.n
    inv_mask = _inverse_masks(space.group)
    stop = None if exact_histogram else n
    tested = 0
    histogram: dict[int, int] = {}
    witness: ConnectionMatrix | None = None
    chosen: list[tuple[int, ...]] = [()] * m
    col_sums = [0] * m

    def row_fits(i: int, cells: tuple[int, ...], sizes: tuple[int, ...]) -> bool:
        left = (m - 1 - i) * k
        for j in range(m):
            total = col_sums[j] + sizes[j]
            if total > k or k - total > left:
                return False
        if space.require_oriented:
            for j in range(i):
                if cells[j] & inv_mask[chosen[j][i]]:
                    return False
        return True

    def descend(i: int) -> bool:
        nonlocal tested, witness
        for cells, sizes in (tables[0][branch],) if i == 0 else tables[i]:
            if not row_fits(i, cells, sizes):
                continue
            chosen[i] = cells
            if i < m - 1:
                for j in range(m):
                    col_sums[j] += sizes[j]
                found = descend(i + 1)
                for j in range(m):
                    col_sums[j] -= sizes[j]
                if found:
                    return True
                continue
            conn = _matrix_from_rows(m, chosen)
            tested += 1
            gamma = build(space.group, conn)
            if space.require_connected and not is_weakly_connected(gamma.graph):
                continue
            # the right translations make |Aut| >= |G|, so an order of |G| is
            # exact even when the engine may stop early above it
            order = automorphism_group(gamma.graph, stop_order_above=stop).order()
            histogram[order] = histogram.get(order, 0) + 1
            if order == n:
                witness = conn
                return True
        return False

    descend(0)
    return witness, tested, histogram


def _search_branches(
    space: SearchSpace,
    branches: list[int],
    exact_histogram: bool,
    checkpoint_path: str | None = None,
    tested_start: int = 0,
    histogram_start: dict[int, int] | None = None,
    jobs: int = 1,
) -> tuple[ConnectionMatrix | None, int, dict[int, int]]:
    """Search ``branches`` in order, on ``jobs`` processes, and merge.

    Results merge in branch order whatever ``jobs`` is: the checkpoint is
    written after each merged branch, and the search stops at the first
    branch that holds a witness.
    """
    tables = [_row_table(space, i) for i in range(space.m)]
    search = partial(_search_branch, space, tables, exact_histogram)
    tested = tested_start
    histogram: dict[int, int] = dict(histogram_start or {})
    workers = min(jobs, len(branches))
    pool = ProcessPoolExecutor(workers) if workers > 1 else None
    try:
        results = pool.map(search, branches) if pool else map(search, branches)
        for branch, (witness, count, found) in zip(branches, results):
            tested += count
            for order, c in found.items():
                histogram[order] = histogram.get(order, 0) + c
            if witness is not None:
                return witness, tested, histogram
            if checkpoint_path is not None:
                _write_checkpoint(checkpoint_path, space, branch, tested, histogram)
    finally:
        if pool:
            # branches after a witness are dropped unrun
            pool.shutdown(cancel_futures=True)
    return None, tested, histogram


def _write_checkpoint(
    path: str,
    space: SearchSpace,
    branch: int,
    tested: int,
    histogram: dict[int, int],
) -> None:
    payload = {
        "schema": 1,
        "space": space.descriptor(),
        "last_completed_branch": branch,
        "candidates_tested": tested,
        "aut_order_histogram": _histogram_json(histogram),
    }
    # a crash mid-write must leave the previous checkpoint intact
    tmp = Path(f"{path}.tmp")
    tmp.write_text(json.dumps(payload, indent=2) + "\n")
    os.replace(tmp, path)


def _read_checkpoint(path: str, space: SearchSpace) -> tuple[int, int, dict[int, int]]:
    """Resume point for ``space``; ValueError when the checkpoint is malformed,
    counts more histogram entries than candidates, or belongs to another
    search space, so that no run overwrites it."""
    file = Path(path)
    if not file.exists():
        return -1, 0, {}
    payload = json.loads(file.read_text())
    if not isinstance(payload, dict):
        raise ValueError(f"checkpoint {path} is not a JSON object")
    if payload.get("space") != space.descriptor():
        raise ValueError(
            f"checkpoint {path} is for search space {json.dumps(payload.get('space'))},"
            f" not {json.dumps(space.descriptor())}"
        )
    branch = payload.get("last_completed_branch")
    tested = payload.get("candidates_tested")
    histogram = payload.get("aut_order_histogram", {})
    if not (
        _is_count(branch)
        and _is_count(tested)
        and isinstance(histogram, dict)
        and all(k.isdigit() and _is_count(c) for k, c in histogram.items())
    ):
        raise ValueError(f"checkpoint {path} for this search space is malformed")
    counted = sum(histogram.values())
    if counted > tested:
        raise ValueError(
            f"checkpoint {path} counts {counted} automorphism orders for {tested} candidates"
        )
    return branch, tested, {int(order): count for order, count in histogram.items()}


def _is_count(value: object) -> bool:
    return type(value) is int and value >= 0


def exhaustive_search(
    space: SearchSpace,
    budget: int = DEFAULT_BUDGET,
    exact_histogram: bool = True,
    checkpoint_path: str | None = None,
    jobs: int = 1,
) -> SearchOutcome:
    """Search every matrix in ``space`` for |Aut| = |G|.

    Returns FOUND with the first witness in depth-first order, or EXHAUSTED
    with a histogram of the automorphism orders of every completed candidate.
    Raises :class:`BudgetExceeded` before starting when the row-combination
    count ``(#rows)^m`` exceeds ``budget``.  With ``jobs > 1`` the depth-1
    subtrees run on that many processes, or one per subtree when there are
    fewer; the outcome and the checkpoints are the same as with one job.
    Raises ValueError when ``jobs < 1``, and when the checkpoint is malformed,
    belongs to another space or completed a branch the space does not have.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    row_count = len(enumerate_rows(space.group, space.m, space.k, 0, space.require_oriented))
    estimate = row_count**space.m
    if estimate > budget:
        raise BudgetExceeded(
            f"row-combination estimate {estimate} exceeds budget {budget}"
        )
    start_branch, tested0, hist0 = (
        _read_checkpoint(checkpoint_path, space)
        if checkpoint_path is not None
        else (-1, 0, {})
    )
    if start_branch >= row_count:
        # resuming past the end would report EXHAUSTED without a search
        raise ValueError(
            f"checkpoint {checkpoint_path} completed branch {start_branch},"
            f" but the search space has {row_count} branches"
        )
    witness, tested, histogram = _search_branches(
        space,
        list(range(start_branch + 1, row_count)),
        exact_histogram,
        checkpoint_path,
        tested0,
        hist0,
        jobs,
    )
    if witness is not None:
        return SearchOutcome("FOUND", witness, tested, histogram)
    return SearchOutcome("EXHAUSTED", None, tested, histogram)


def nonexistence_instances() -> list[tuple[str, FiniteGroup, int]]:
    from .groups import klein_four, make_cyclic

    z2, _ = make_cyclic(2)
    z3, _ = make_cyclic(3)
    z4, _ = make_cyclic(4)
    klein, _ = klein_four()
    return [
        ("Z2", z2, 2),
        ("Z2", z2, 3),
        ("Z2", z2, 4),
        ("Z3", z3, 2),
        ("Z4", z4, 2),
        ("Z2xZ2", klein, 2),
    ]


def verify_nonexistence_suite(budget: int = DEFAULT_BUDGET) -> list[dict]:
    """Exhaust the six excluded (group, m) instances and report the evidence.

    Raises RuntimeError if any instance unexpectedly yields a witness, since
    that would overturn the non-existence results the suite certifies.
    """
    reports = []
    for name, group, m in nonexistence_instances():
        outcome = exhaustive_search(SearchSpace(group, m), budget=budget)
        if outcome.status != "EXHAUSTED":
            raise RuntimeError(
                f"({name}, m={m}) produced a witness; expected exhaustion"
            )
        reports.append(
            {
                "group": name,
                "m": m,
                "status": outcome.status,
                "candidates_tested": outcome.candidates_tested,
                "aut_order_histogram": _histogram_json(outcome.aut_order_histogram),
            }
        )
    return reports


# ---------------------------------------------------------------------------
# Rigid digraphs (trivial automorphism group): exploratory searches.
# ---------------------------------------------------------------------------

@dataclass
class RigidSearchOutcome:
    status: str  # "FOUND", "EXHAUSTED", or "BUDGET"
    witness: Digraph | None
    candidates_tested: int

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "exploratory": True,
            "status": self.status,
            "witness": None if self.witness is None else self.witness.to_json(),
            "candidates_tested": self.candidates_tested,
        }


def _is_rigid(graph: Digraph) -> bool:
    return automorphism_group(graph, stop_order_above=1).order() == 1


def _exhaustive_rigid(
    n: int, k: int, oriented: bool, budget: int
) -> RigidSearchOutcome:
    tested = 0
    steps = 0
    out_rows: list[tuple[int, ...]] = []
    indeg = [0] * n
    witness: Digraph | None = None

    def allowed(v: int, row: tuple[int, ...]) -> bool:
        for w in row:
            if indeg[w] >= k:
                return False
            if oriented and w < v and v in out_rows[w]:
                return False
        # every later row adds at most one arc into each vertex
        left = n - 1 - v
        for w in range(n):
            extra = 1 if w in row else 0
            if k - indeg[w] - extra > left:
                return False
        return True

    def rows_for(v: int):
        if v == 0:
            # leader normalization: relabel any digraph so vertex 0 points
            # at 1..k, sound because some labeling always achieves it
            yield tuple(range(1, k + 1))
            return
        others = [w for w in range(n) if w != v]
        yield from combinations(others, k)

    def descend(v: int) -> bool:
        nonlocal tested, steps, witness
        if v == n:
            tested += 1
            graph = Digraph(n, tuple(out_rows))
            if _is_rigid(graph):
                witness = graph
                return True
            return False
        for row in rows_for(v):
            steps += 1
            if steps + tested > budget:
                raise BudgetExceeded(f"exceeded {budget} search steps")
            if not allowed(v, row):
                continue
            out_rows.append(row)
            for w in row:
                indeg[w] += 1
            if descend(v + 1):
                return True
            out_rows.pop()
            for w in row:
                indeg[w] -= 1
        return False

    try:
        if descend(0):
            return RigidSearchOutcome("FOUND", witness, tested)
        return RigidSearchOutcome("EXHAUSTED", None, tested)
    except BudgetExceeded:
        return RigidSearchOutcome("BUDGET", None, tested)


def _randomized_rigid(
    n: int, k: int, oriented: bool, budget: int, seed: int, switches: int
) -> RigidSearchOutcome:
    rng = random.Random(seed)
    # start from the circulant with jumps 1..k
    outs = [{(v + d) % n for d in range(1, k + 1)} for v in range(n)]
    arc_list = sorted((v, w) for v in range(n) for w in outs[v])

    def try_switch() -> None:
        x, y = rng.sample(range(len(arc_list)), 2)
        (a, b), (c, d) = arc_list[x], arc_list[y]
        if a == c or b == d or a == d or c == b:
            return
        if d in outs[a] or b in outs[c]:
            return
        if oriented and (a in outs[d] or c in outs[b]):
            return
        arc_list[x], arc_list[y] = (a, d), (c, b)
        outs[a].discard(b)
        outs[c].discard(d)
        outs[a].add(d)
        outs[c].add(b)

    tested = 0
    while tested < budget:
        for _ in range(switches):
            try_switch()
        tested += 1
        graph = Digraph(n, outs)
        if _is_rigid(graph):
            return RigidSearchOutcome("FOUND", graph, tested)
    return RigidSearchOutcome("BUDGET", None, tested)


def search_trivial_aut_digraph(
    n: int,
    k: int,
    oriented: bool = True,
    mode: str = "exhaustive",
    budget: int = 10**6,
    seed: int = 0,
    switches: int | None = None,
) -> RigidSearchOutcome:
    """Look for a loop-free k-regular digraph on n vertices with |Aut| = 1.

    Exploratory: a FOUND witness is verified rigid, but EXHAUSTED/BUDGET for
    one parameter choice settles nothing about the general question.
    Exhaustive mode enumerates out-neighbor rows depth-first with in-degree
    pruning and first-row leader normalization; randomized mode runs a
    degree-preserving arc-switch chain from a circulant seed and tests every
    ``switches`` swaps (default 3nk).
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    if k < 0:
        raise ValueError(f"valency must be non-negative, got k={k}")
    if switches is not None and switches < 1:
        raise ValueError(f"need at least one switch between samples, got {switches}")
    if k >= n:
        return RigidSearchOutcome("EXHAUSTED", None, 0)
    if oriented and n < 2 * k + 1:
        # out- and in-neighborhoods are disjoint k-sets avoiding the vertex
        return RigidSearchOutcome("EXHAUSTED", None, 0)
    if mode == "exhaustive" or k == 0:
        # k = 0 admits a single digraph, so the chain has nothing to walk
        return _exhaustive_rigid(n, k, oriented, budget)
    if mode == "randomized":
        return _randomized_rigid(
            n, k, oriented, budget, seed, 3 * n * k if switches is None else switches
        )
    raise ValueError(f"unknown mode {mode!r}")
