"""Exhaustive search over connection matrices and rigid-digraph exploration.

The matrix search certifies non-existence results: it enumerates every
connection matrix of a :class:`SearchSpace` depth-first by rows, prunes on
column sums and the oriented condition, and evaluates the automorphism order
of each completed candidate.  Its budget counts the work as it is done: one
unit per row tried and one per completed candidate.  The rigid-digraph search
hunts for k-regular digraphs with trivial automorphism group, exhaustively by
running the same branch loop over the trivial group; its results are
exploratory and carry no ground-truth claim.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, compress
from multiprocessing import Pipe, Process
from multiprocessing.connection import Connection
from operator import add
from pathlib import Path

from .autgroup import automorphism_group
from .digraphs import Digraph, is_weakly_connected
from .groups import FiniteGroup, make_cyclic
from .mcayley import ConnectionMatrix, block_rows, build

DEFAULT_BUDGET = 10**8


class BudgetExceeded(Exception):
    """The work done, rows tried plus candidates completed, passed the budget."""


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


def _elements(mask: int) -> list[int]:
    """The element indices selected by ``mask``, in increasing order."""
    return [e for e in range(mask.bit_length()) if mask >> e & 1]


def _inverse_mask(group: FiniteGroup, mask: int) -> int:
    """The bitmask of the inverses of the elements selected by ``mask``."""
    return sum(1 << group.inv[e] for e in _elements(mask))


def enumerate_rows(
    group: FiniteGroup, m: int, k: int, row: int, oriented: bool = True
) -> list[tuple[int, ...]]:
    """All assignments of one matrix row, as per-cell element bitmasks.

    Each result picks ``k`` of the ``m * |G|`` (cell, element) slots of the
    row, and the diagonal cell never meets its own inverse set when
    ``oriented`` is set.  Rows come out in lexicographic order with cells
    compared as numeric bitmasks, so the enumeration is reproducible.
    """
    if not 0 <= row < m:
        raise ValueError(f"row {row} outside 0..{m - 1}")
    slots = [(cell, 1 << e) for cell in range(m) for e in range(group.n)]
    rows: list[tuple[int, ...]] = []
    for picks in combinations(slots, k):
        cells = [0] * m
        for cell, bit in picks:
            cells[cell] |= bit
        if oriented and cells[row] & _inverse_mask(group, cells[row]):
            continue
        rows.append(tuple(cells))
    rows.sort()
    return rows


# each row assignment with its per-cell popcounts, non-empty cells and inverses
_RowTable = list[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]]


def _matrix_tables(space: SearchSpace) -> list[_RowTable]:
    group, m = space.group, space.m
    tables = []
    for i in range(m):
        table = []
        for cells in enumerate_rows(group, m, space.k, i, space.require_oriented):
            sizes = tuple(map(int.bit_count, cells))
            inverses = tuple(_inverse_mask(group, cell) for cell in cells)
            table.append((cells, sizes, tuple(compress(range(m), sizes)), inverses))
        tables.append(table)
    return tables


def _twins(group: FiniteGroup, rows: list[tuple[int, ...]]) -> list[int]:
    """The index in the sorted first rows ``rows`` of each row's orbit leader.

    Permuting blocks 1..m-1, and relabelling block j >= 1 by g -> a*g, which
    sends T(0, j) to a*T(0, j), map the matrices under one first row one to
    one onto those under its image, with isomorphic digraphs.  The leader
    keeps T(0, 0) and sorts the least a*T(0, j) of each cell, so it is the
    least row of its orbit and no later in ``rows`` than any other.
    """
    least: dict[int, int] = {}

    def least_image(mask: int) -> int:
        if mask not in least:
            elements = _elements(mask)
            orbit = [sum(1 << product[t] for t in elements) for product in group.mult]
            least.update(dict.fromkeys(orbit, min(orbit)))
        return least[mask]

    index = {row: i for i, row in enumerate(rows)}
    return [index[(row[0], *sorted(map(least_image, row[1:])))] for row in rows]


def _search_branch(
    space: SearchSpace,
    tables: list[_RowTable],
    exact_histogram: bool,
    budget: int,
    branch: int,
    evaluate: bool,
) -> tuple[str, ConnectionMatrix | None, int, dict[int, int], int]:
    """Search the subtree under first row ``branch``.

    Every row tried is one step of work and every completed candidate one
    more; the search stops as soon as the work passes ``budget``.  Returns
    the status (FOUND, EXHAUSTED or BUDGET), the first witness in depth-first
    order (or None), the number of completed candidates, the histogram of
    their automorphism orders, and the work done.  Without ``evaluate`` the
    candidates are only counted: no digraph, no engine call, no histogram.
    """
    group, m, k = space.group, space.m, space.k
    n = group.n
    oriented = space.require_oriented
    stop = None if exact_histogram else n
    # a later row adds at most min(k, |G|) elements to one column
    per_row = min(k, n)
    steps = tested = 0
    status = "EXHAUSTED"
    histogram: dict[int, int] = {}
    witness: ConnectionMatrix | None = None
    chosen: list[tuple[int, ...]] = [()] * m
    col_sums = [0] * m

    @lru_cache(maxsize=None)
    def row_outs(cells: tuple[int, ...]) -> list[list[int]]:
        # a block's out-lists, built once per row however often it is chosen
        return block_rows(group, [_elements(mask) for mask in cells])

    def row_fits(
        i: int, sizes: tuple[int, ...], support: tuple[int, ...], inverses: tuple[int, ...]
    ) -> bool:
        for j in support:
            if col_sums[j] + sizes[j] > k:
                return False
            if oriented and j < i and inverses[j] & chosen[j][i]:
                return False
        # the rows below must still fill every column up to k
        left = (m - 1 - i) * per_row
        return left >= k or min(map(add, col_sums, sizes)) >= k - left

    def descend(i: int) -> bool:
        nonlocal steps, tested, status, witness
        for cells, sizes, support, inverses in (tables[0][branch],) if i == 0 else tables[i]:
            steps += 1
            if steps + tested > budget:
                status = "BUDGET"
                return True
            if not row_fits(i, sizes, support, inverses):
                continue
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
            graph = Digraph(m * n, [out for row in chosen for out in row_outs(row)])
            if space.require_connected and not is_weakly_connected(graph):
                continue
            # the right translations make |Aut| >= |G|, so an order of |G| is
            # exact even when the engine may stop early above it
            order = automorphism_group(graph, stop_order_above=stop).order()
            histogram[order] = histogram.get(order, 0) + 1
            if order == n:
                status = "FOUND"
                witness = ConnectionMatrix(
                    m, tuple(tuple(frozenset(_elements(c)) for c in row) for row in chosen)
                )
                return True
        return False

    descend(0)
    return status, witness, tested, histogram, steps + tested


def _run_share(
    space: SearchSpace, tables: list[_RowTable], exact_histogram: bool, budget: int, tasks: list
):
    """Yield the result of each ``(branch, evaluate)`` task in order, each run
    under ``budget`` less the work of the earlier ones."""
    for task in tasks:
        result = _search_branch(space, tables, exact_histogram, budget, *task)
        budget -= result[-1]
        yield result


def _worker(
    pipe: Connection, space: SearchSpace, exact_histogram: bool, budget: int, tasks: list
) -> None:
    """Process entry point: run one share on tables built here and send each
    result, or the first exception, down ``pipe``."""
    try:
        for result in _run_share(space, _matrix_tables(space), exact_histogram, budget, tasks):
            pipe.send(result)
    except Exception as exc:
        pipe.send(exc)


def _received(pipe: Connection, worker: Process, tasks: list):
    """The results ``worker`` sends for its share ``tasks``, in order; its
    exception is raised where its result would be."""
    for branch, _ in tasks:
        try:
            result = pipe.recv()
        except EOFError:
            worker.join()
            raise ChildProcessError(
                f"the worker searching branch {branch} exited with code {worker.exitcode}"
            ) from None
        if isinstance(result, Exception):
            raise result
        yield result


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
        and all(k.isascii() and k.isdigit() and _is_count(c) for k, c in histogram.items())
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
    The work is counted as it is done, one unit per row tried and one per
    completed candidate, and :class:`BudgetExceeded` is raised once it passes
    ``budget``; with ``checkpoint_path`` the checkpoint then holds the last
    branch merged before the stop, so a run with a larger budget resumes
    there.

    The depth-1 subtrees, the branches, are dealt round-robin into J shares,
    J being ``jobs`` or the number of branches if smaller.  This process runs
    share 0 as the merge reaches it; each other share runs on a worker of its
    own, which builds its own row tables and sends its results down its own
    pipe.  A branch runs under the budget less the work of its share's
    earlier branches, never less than one job gives it, so merging in branch
    order gives the outcome, budget stop and checkpoints of one job.  At a
    witness, a budget stop or an error the workers are killed; a worker that
    dies raises ChildProcessError naming the branch the merge waited for.

    Relabelling blocks maps the subtrees of first rows in one orbit onto
    each other (see ``_twins``), so only the first branch of each orbit, its
    leader, goes to the automorphism engine.  A twin, a branch whose leader
    was merged earlier in the same run, still walks its rows: it counts the
    same rows tried and candidates completed, against the budget too, and
    takes the leader's histogram, so counts, histograms, budget stops and
    checkpoints stay those of the labelled search.  A twin whose candidate
    count differs from its leader's raises RuntimeError.  A branch whose
    leader was merged before a resumed checkpoint, and every branch when
    ``exact_histogram`` is False, is evaluated in full.

    Raises ValueError when ``jobs < 1`` or ``budget < 0``, and when the
    checkpoint is malformed, belongs to another space or completed a branch
    the space does not have.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    start, tested, histogram = -1, 0, {}
    if checkpoint_path is not None:
        start, tested, histogram = _read_checkpoint(checkpoint_path, space)
    tables = _matrix_tables(space)
    first_rows = [cells for cells, *_ in tables[0]]
    rows = len(first_rows)
    if start >= rows:
        # resuming past the end would report EXHAUSTED without a search
        raise ValueError(
            f"checkpoint {checkpoint_path} completed branch {start},"
            f" but the search space has {rows} branches"
        )
    # an engine stop gives a lower bound that depends on labels, so without
    # exact histograms every branch is its own leader
    leaders = _twins(space.group, first_rows) if exact_histogram else list(range(rows))
    tasks = [(branch, not start < leaders[branch] < branch) for branch in range(start + 1, rows)]
    # a leader's (count, histogram) is kept until its last twin is merged
    last_twin = {leaders[branch]: branch for branch, evaluate in tasks if not evaluate}
    kept: dict[int, tuple[int, dict[int, int]]] = {}
    work = 0
    # task i belongs to share i mod n_shares; share 0 runs here, lazily
    n_shares = max(1, min(jobs, len(tasks)))
    shares = [_run_share(space, tables, exact_histogram, budget, tasks[0::n_shares])]
    workers: list[tuple[Process, Connection]] = []
    try:
        for w in range(1, n_shares):
            ours, theirs = Pipe(duplex=False)
            args = theirs, space, exact_histogram, budget, tasks[w::n_shares]
            worker = Process(target=_worker, args=args, daemon=True)
            worker.start()
            theirs.close()
            workers.append((worker, ours))
            shares.append(_received(ours, worker, tasks[w::n_shares]))
        results = (next(shares[i % n_shares]) for i in range(len(tasks)))
        for (branch, evaluate), (status, witness, count, found, done) in zip(tasks, results):
            work += done
            if status == "BUDGET" or work > budget:
                raise BudgetExceeded(
                    f"the rows tried and candidates completed passed the budget"
                    f" of {budget} in branch {branch}"
                )
            if not evaluate:
                leader = leaders[branch]
                leader_count, found = (
                    kept.pop(leader) if last_twin[leader] == branch else kept[leader]
                )
                if count != leader_count:
                    raise RuntimeError(
                        f"branch {branch} completed {count} candidates, but its"
                        f" orbit leader {leader} completed {leader_count}"
                    )
            if branch in last_twin:
                kept[branch] = count, found
            tested += count
            for order, c in found.items():
                histogram[order] = histogram.get(order, 0) + c
            if witness is not None:
                return SearchOutcome("FOUND", witness, tested, histogram)
            if checkpoint_path is not None:
                _write_checkpoint(checkpoint_path, space, branch, tested, histogram)
    finally:
        # kill, not await, the workers still running; none holds a shared lock
        for worker, pipe in workers:
            worker.kill()
            worker.join()
            pipe.close()
    return SearchOutcome("EXHAUSTED", None, tested, histogram)


def nonexistence_instances() -> list[tuple[str, FiniteGroup, int]]:
    from .groups import klein_four

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


def _exhaustive_rigid(
    n: int, k: int, oriented: bool, budget: int
) -> RigidSearchOutcome:
    # over the trivial group a matrix row is one vertex's out-neighbours:
    # loop-free rows, and the leader row 0 -> 1..k, sound because some
    # labelling of any digraph achieves it
    @lru_cache(maxsize=None)
    def row(targets: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        # 0/1 cells are their own popcounts and inverses; vertices share rows
        cells = tuple(1 if w in targets else 0 for w in range(n))
        return cells, cells, targets, cells

    tables = [[row(tuple(range(1, k + 1)))]]
    for v in range(1, n):
        tables.append([row(t) for t in combinations([w for w in range(n) if w != v], k)])
    space = SearchSpace(make_cyclic(1)[0], n, k, oriented)
    status, witness, tested, _, _ = _search_branch(space, tables, False, budget, 0, True)
    graph = None if witness is None else build(space.group, witness).graph
    return RigidSearchOutcome(status, graph, tested)


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
        if automorphism_group(graph, stop_order_above=1).order() == 1:
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
    Exhaustive mode is the matrix search over the trivial group, one block per
    vertex: out-neighbor rows depth-first with in-degree pruning and
    first-row leader normalization, BUDGET once the rows tried plus the
    candidates completed pass ``budget``.  Randomized mode runs a
    degree-preserving arc-switch chain from a circulant seed and tests every
    ``switches`` swaps (default 3nk), at most ``budget`` samples.  Raises
    ValueError when ``budget < 0``.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    if k < 0:
        raise ValueError(f"valency must be non-negative, got k={k}")
    if switches is not None and switches < 1:
        raise ValueError(f"need at least one switch between samples, got {switches}")
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
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
