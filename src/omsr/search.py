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
from functools import lru_cache, reduce
from itertools import combinations, compress
from operator import add, or_
from pathlib import Path

from .autgroup import automorphism_group
from .digraphs import Digraph, is_weakly_connected
from .groups import FiniteGroup, _unique_keys, make_cyclic
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


@lru_cache(maxsize=1 << 16)
def _elements(mask: int) -> tuple[int, ...]:
    """The element indices selected by ``mask``, in increasing order."""
    return tuple(e for e in range(mask.bit_length()) if mask >> e & 1)


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


class _RowTable(list):
    """The assignments of one matrix row in sorted order, each with its
    per-cell popcounts, non-empty cells and inverses, and the masks that
    pick the rows fitting a search node.

    The masks stay unbuilt (``allow`` is None) until the search has scanned
    the table in full twice (``scans``): building them costs about one scan,
    and a first-witness search or an explorer run scans most of its tables
    once or not at all.  They live on the table, so they never outlive the
    rows they index.
    """

    def __init__(self, rows=()) -> None:
        super().__init__(rows)
        self.scans = 0
        self.allow: list[tuple[int, ...]] | None = None
        self.keep: list[list[int]] = []

    def build_masks(self, i: int, m: int, k: int, left: int, n: int, oriented: bool) -> None:
        """Build the masks of table ``i``, bit r for row r, in one pass.

        ``allow[j][c]`` holds the rows whose cell j fits a column sum of c,
        that is k - left - c <= |cell j| <= k - c: the column stays within k,
        and the at most ``left`` elements the later rows add can still fill
        it.  When the rows are oriented, ``keep[j][e]`` for j < i holds the
        rows whose cell j's inverse set misses element e.
        """
        width = (len(self) + 7) // 8
        # by_size[j][s - 1]: the rows with |cell j| = s, for s = 1..k
        by_size = [[bytearray(width) for _ in range(k)] for _ in range(m)]
        clash = [[bytearray(width) for _ in range(n)] for _ in range(i if oriented else 0)]
        for r, (_, sizes, support, inverses) in enumerate(self):
            byte, bit = r >> 3, 1 << (r & 7)
            for j in support:
                by_size[j][sizes[j] - 1][byte] |= bit
                if j < len(clash):
                    for e in _elements(inverses[j]):
                        clash[j][e][byte] |= bit
        full = (1 << len(self)) - 1
        self.allow = []
        for buffers in by_size:
            sized = [int.from_bytes(buffer, "little") for buffer in buffers]
            sized.insert(0, full ^ reduce(or_, sized, 0))
            self.allow.append(
                tuple(reduce(or_, sized[max(0, k - left - c) : k - c + 1]) for c in range(k + 1))
            )
        self.keep = [[full ^ int.from_bytes(b, "little") for b in cell] for cell in clash]

    def fitting(self, i: int, col_sums: list[int], chosen: list[tuple[int, ...]]) -> int:
        """The rows of table ``i`` that fit below the rows ``chosen`` with
        ``col_sums``, bit r for row r; needs the masks."""
        fits = -1
        for column, c in zip(self.allow, col_sums):
            fits &= column[c]
        for cell, row in zip(self.keep, chosen):
            if row[i]:
                for e in _elements(row[i]):
                    fits &= cell[e]
        return fits

    def selected(self, fits: int):
        """The index and row of each row that ``fits`` selects, in order."""
        # one string search per row: fits & -fits would copy the whole int
        bits = bin(fits)[:1:-1]
        r = bits.find("1")
        while r >= 0:
            yield r, self[r]
            r = bits.find("1", r + 1)


def _matrix_tables(space: SearchSpace) -> list[_RowTable]:
    group, m = space.group, space.m
    tables = []
    for i in range(m):
        table = _RowTable()
        for cells in enumerate_rows(group, m, space.k, i, space.require_oriented):
            sizes = tuple(map(int.bit_count, cells))
            inverses = tuple(_inverse_mask(group, cell) for cell in cells)
            table.append((cells, sizes, tuple(compress(range(m), sizes)), inverses))
        tables.append(table)
    return tables


def _leader(group: FiniteGroup, row: tuple[int, ...], least: dict[int, int]) -> tuple[int, ...]:
    """The leader of first row ``row``'s orbit, itself a first row.

    Permuting blocks 1..m-1, and relabelling block j >= 1 by g -> a*g, which
    sends T(0, j) to a*T(0, j), map the matrices under one first row one to
    one onto those under its image, with isomorphic digraphs.  The leader
    keeps T(0, 0) and sorts the least a*T(0, j) of each cell, so it is the
    least row of its orbit and no later in table 0 than any other.
    ``least`` maps each cell met so far to its least image; one search
    keeps one.
    """
    for mask in row[1:]:
        if mask not in least:
            elements = _elements(mask)
            orbit = [sum(1 << product[t] for t in elements) for product in group.mult]
            least.update(dict.fromkeys(orbit, min(orbit)))
    return (row[0], *sorted(least[mask] for mask in row[1:]))


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
    more; the search stops once the work passes ``budget``.  Returns the
    status (FOUND, EXHAUSTED or BUDGET), the first witness in depth-first
    order (or None), the number of completed candidates, the histogram of
    their automorphism orders, and the work done.  Without ``evaluate`` the
    candidates are only counted: no digraph, no engine call, no histogram.

    A node tests its table's rows one by one with ``row_fits`` until the
    table has been scanned in full twice; then the table builds its masks
    (``_RowTable.build_masks``), and a node ANDs the masks its column sums
    and chosen cells select and visits only the set bits.  A skipped row
    still counts as tried: the rows up to each visited one, and the rest of
    the table at the end of the scan, are added to the work, and the budget
    is checked at each visited row and at the end.  No candidate completes between two
    checks, so the status and the candidate count at a stop are those of a
    check at every row; only the work a BUDGET result returns may be larger.
    A node of the last table that only counts adds its rows and candidates
    at once when that keeps the work within the budget.
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

    def row_fits(i: int, row: tuple[tuple[int, ...], ...]) -> bool:
        _, sizes, support, inverses = row
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
        table = tables[i]
        rows = (table[branch],) if i == 0 else table
        masked = i > 0 and table.allow is not None
        if not masked:
            found = ((r, row) for r, row in enumerate(rows) if row_fits(i, row))
        else:
            fits = table.fitting(i, col_sums, chosen)
            if i == m - 1 and not evaluate:
                # only counting: when the work stays within the budget even
                # after the last row, no row of this scan stops the search
                count = fits.bit_count()
                if steps + tested + len(rows) + count <= budget:
                    steps += len(rows)
                    tested += count
                    return False
            found = table.selected(fits)
        tried = 0
        for r, (cells, sizes, support, inverses) in found:
            # every row up to this one was tried, the skipped ones included
            steps += r + 1 - tried
            tried = r + 1
            if steps + tested > budget:
                status = "BUDGET"
                return True
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
        if tried < len(rows):
            steps += len(rows) - tried
            if steps + tested > budget:
                status = "BUDGET"
                return True
        if not masked and i > 0:
            table.scans += 1
            if table.scans == 2:
                table.build_masks(i, m, k, (m - 1 - i) * per_row, n, oriented)
        return False

    descend(0)
    return status, witness, tested, histogram, steps + tested


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
    search space, so that no run overwrites it. A histogram key must be the
    canonical decimal of its order, so no two keys name one order."""
    file = Path(path)
    if not file.exists():
        return -1, 0, {}
    payload = json.loads(file.read_text(), object_pairs_hook=_unique_keys)
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
        and all(k.isascii() and k.isdigit() and k[0] != "0" and _is_count(c)
                for k, c in histogram.items())
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

    The depth-1 subtrees, the branches, are searched one after another in
    branch order, each under the budget less the work of the earlier ones,
    and a checkpoint is written after each branch.  ``jobs`` remains only for
    callers of the old signature (perfbench/workloads.py) and must be 1.

    Once the search has scanned a row table in full twice, the table keeps
    masks that pick each node's fitting rows for the later branches (see
    ``_search_branch``).  Every count, histogram, witness, budget stop and
    checkpoint stays that of testing each row in turn.

    Relabelling blocks maps the subtrees of first rows in one orbit onto
    each other, so only the first branch of each orbit, its leader, goes to
    the automorphism engine; a branch finds its leader row (``_leader``)
    when it is reached.  A twin, a branch whose leader row was merged earlier
    in the same run, still walks its rows: it counts the same rows tried and
    candidates completed, against the budget too, and takes the leader's
    histogram, so counts, histograms, budget stops and checkpoints stay those
    of the labelled search.  A twin whose candidate count differs from its
    leader's raises RuntimeError.  A branch whose leader was merged before a
    resumed checkpoint is evaluated in full.  The run keeps each leader it
    merges, one entry per orbit, so never more entries than table 0 has rows.
    Without ``exact_histogram`` the engine may stop once the order passes
    |G|; a twin's candidates are isomorphic to its leader's, so the leader's
    lower bounds hold for the twin too.

    Raises ValueError when ``jobs != 1`` or ``budget < 0``, when the
    checkpoint's directory does not exist, and when the checkpoint is
    malformed, belongs to another space or completed a branch the space does
    not have.
    """
    if jobs != 1:
        raise ValueError(f"the search runs in one process: jobs must be 1, got {jobs}")
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    start, tested, histogram = -1, 0, {}
    if checkpoint_path is not None:
        # found now, not when the first branch's checkpoint is written
        if not Path(checkpoint_path).parent.is_dir():
            raise ValueError(
                f"checkpoint {checkpoint_path} cannot be written:"
                f" {Path(checkpoint_path).parent} is not a directory"
            )
        start, tested, histogram = _read_checkpoint(checkpoint_path, space)
    tables = _matrix_tables(space)
    rows = len(tables[0])
    if start >= rows:
        # resuming past the end would report EXHAUSTED without a search
        raise ValueError(
            f"checkpoint {checkpoint_path} completed branch {start},"
            f" but the search space has {rows} branches"
        )
    least: dict[int, int] = {}
    # each leader row merged in this run: its branch, count and histogram
    merged: dict[tuple[int, ...], tuple[int, int, dict[int, int]]] = {}
    work = 0
    for branch in range(start + 1, rows):
        row = tables[0][branch][0]
        leader = _leader(space.group, row, least)
        twin = leader in merged
        status, witness, count, found, done = _search_branch(
            space, tables, exact_histogram, budget - work, branch, not twin
        )
        work += done
        # a branch's last candidate completes after its last check, so a
        # branch that did not stop can still end one unit past its budget
        if status == "BUDGET" or work > budget:
            raise BudgetExceeded(
                f"the rows tried and candidates completed passed the budget"
                f" of {budget} in branch {branch}"
            )
        if twin:
            first, leader_count, found = merged[leader]
            if count != leader_count:
                raise RuntimeError(
                    f"branch {branch} completed {count} candidates, but its"
                    f" orbit leader {first} completed {leader_count}"
                )
        elif leader == row:
            merged[row] = branch, count, found
        tested += count
        for order, c in found.items():
            histogram[order] = histogram.get(order, 0) + c
        if witness is not None:
            return SearchOutcome("FOUND", witness, tested, histogram)
        if checkpoint_path is not None:
            _write_checkpoint(checkpoint_path, space, branch, tested, histogram)
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

    tables = [_RowTable([row(tuple(range(1, k + 1)))])]
    for v in range(1, n):
        tables.append(_RowTable(row(t) for t in combinations([w for w in range(n) if w != v], k)))
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
    ValueError when ``budget < 0`` or ``mode`` is neither of the two.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    if k < 0:
        raise ValueError(f"valency must be non-negative, got k={k}")
    if switches is not None and switches < 1:
        raise ValueError(f"need at least one switch between samples, got {switches}")
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    if mode not in ("exhaustive", "randomized"):
        raise ValueError(f"unknown mode {mode!r}")
    if k >= n:
        return RigidSearchOutcome("EXHAUSTED", None, 0)
    if oriented and n < 2 * k + 1:
        # out- and in-neighborhoods are disjoint k-sets avoiding the vertex
        return RigidSearchOutcome("EXHAUSTED", None, 0)
    if mode == "exhaustive" or k == 0:
        # k = 0 admits a single digraph, so the chain has nothing to walk
        return _exhaustive_rigid(n, k, oriented, budget)
    return _randomized_rigid(
        n, k, oriented, budget, seed, 3 * n * k if switches is None else switches
    )
