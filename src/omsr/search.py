"""Exhaustive search over connection matrices and rigid-digraph exploration.

The matrix search certifies non-existence results: it enumerates every
connection matrix of a :class:`SearchSpace` depth-first by rows, prunes on
column sums and the oriented condition with one set of bit masks over the
space's row picks, and evaluates the automorphism order of each completed
candidate.  Its budget counts the work as it is done: one unit per row tried
and one per completed candidate.  The rigid-digraph search hunts for
k-regular digraphs with trivial automorphism group, exhaustively as the
matrix search over the trivial group; its results are exploratory and carry
no ground-truth claim.
"""

from __future__ import annotations

import json
import os
import random
import sys
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations, compress, islice, repeat
from math import comb
from operator import or_
from pathlib import Path

from .autgroup import automorphism_group
from .digraphs import Digraph, is_weakly_connected
from .groups import FiniteGroup, _unique_keys, make_cyclic
from .mcayley import ConnectionMatrix, block_rows, build, check_block_count

DEFAULT_BUDGET = 10**8


class BudgetExceeded(Exception):
    """The work passed the budget once ``candidates_tested`` candidates had completed."""

    def __init__(self, message: str, candidates_tested: int) -> None:
        super().__init__(message)
        self.candidates_tested = candidates_tested


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


def _ones(mask: int):
    """The indices of the set bits of ``mask``, in increasing order."""
    # one string search per bit: mask & -mask would copy the whole int
    bits = bin(mask)[:1:-1]
    p = bits.find("1")
    while p >= 0:
        yield p
        p = bits.find("1", p + 1)


def enumerate_rows(group: FiniteGroup, m: int, k: int) -> list[tuple[int, ...]]:
    """Every pick of ``k`` of the ``m * |G|`` (cell, element) slots of a
    matrix row, as per-cell element bitmasks.

    The picks come out in lexicographic order with cells compared as numeric
    bitmasks, so the enumeration is reproducible.  This is the one place that
    makes rows: every table of a search selects its rows from these picks.
    """
    slots = [(cell, 1 << e) for cell in range(m) for e in range(group.n)]
    rows: list[tuple[int, ...]] = []
    for picks in combinations(slots, k):
        cells = [0] * m
        for cell, bit in picks:
            cells[cell] |= bit
        rows.append(tuple(cells))
    rows.sort()
    return rows


# checked before any pick is made.  A pick holds m cells, so its share of
# peak RSS grows with m: about 320 bytes at m = 2 (Z60 m = 2, 280,840 picks:
# 98 MB; Z80 m = 2, 669,920 picks: 222 MB) and 1.2 KB at m = 100 (the
# explorer at n = 100, 161,700 picks: 198 MB)
MAX_PICKS = 10**6


class _Rows(list):
    """The row picks of one search space, each decorated once as its cells,
    its packed popcounts and its non-empty cells, with the bit masks, bit p
    for pick p, that select the rows fitting a search node.

    A search node's column sums travel as one packed int, ``width`` bits per
    column, column j at bit ``width * j``: a column sum never passes k, so
    ``width`` is ``k.bit_length()`` and a row adds its packed popcounts, its
    delta, with one addition.

    ``tables[i]`` holds the picks row i may take: cell i holds no loop (the
    identity, bit 0) and, oriented, no element together with its inverse,
    and ``lengths[i]`` counts them.
    ``allow[i][j][c]`` holds the picks whose cell j fits a column sum of c at
    row i: k - left - c <= |cell j| <= k - c, ``left`` being the most
    elements the rows below can add, so the column stays within k and the
    rows below can still fill it.  Past k, more room below changes no bound,
    so the rows share at most k + 1 of these, and equal masks are one int.
    When oriented, ``keep[n * j + e]`` for j < m - 1 holds the picks whose
    cell j misses e⁻¹.

    ``fit_cache`` maps a node at depth 2 or more, in any branch, to its
    fitting mask (see ``_search_branch``); ``packed[p]`` holds pick p's cells
    laid out as the walk's incoming cells, cell j at bit ``n * m * j``, and
    in an oriented space is filled in when a branch first chooses p above
    the last row.  Both index picks by position, so both must be cleared
    whenever the pick list changes.  ``least`` keeps the least translates
    of ``orbit_key``, keyed by prefix and cell, and holds no pick.
    """

    def __init__(self, space: SearchSpace) -> None:
        group, m, k = space.group, space.m, space.k
        n = group.n
        picks = comb(m * n, k)
        if picks > MAX_PICKS:
            raise ValueError(
                f"the search space has {picks} row picks, more than the limit of {MAX_PICKS}"
            )
        rows = enumerate_rows(group, m, k)
        oriented = space.require_oriented
        self.width = k.bit_length()
        # per non-empty cell met: its size, whether a diagonal cell refuses
        # it (a loop or, oriented, an element with its inverse), its elements
        cells_of: dict[int, tuple[int, int, tuple[int, ...]]] = {}
        shifts = [self.width * j for j in range(m)]
        nbytes = (len(rows) + 7) // 8
        # sized[j][s]: the picks with |cell j| = s > 0; holds[j][e]: the
        # picks whose cell j holds e, for every cell but the last
        sized = [list(map(bytearray, repeat(nbytes, k + 1))) for _ in range(m)]
        holds = [list(map(bytearray, repeat(nbytes, n))) for _ in range(m - 1 if oriented else 0)]
        refused = list(map(bytearray, repeat(nbytes, m)))
        supports = map(tuple, map(compress, repeat(range(m)), rows))
        held, append = len(holds), self.append
        for p, (cells, support) in enumerate(zip(rows, supports)):
            byte, bit = p >> 3, 1 << (p & 7)
            delta = 0
            for j in support:
                cell = cells[j]
                if cell not in cells_of:
                    elements = _elements(cell)
                    inverse = sum(1 << group.inv[e] for e in elements)
                    cells_of[cell] = len(elements), cell & (inverse if oriented else 1), elements
                size, refuses, elements = cells_of[cell]
                delta += size << shifts[j]
                sized[j][size][byte] |= bit
                if refuses:
                    refused[j][byte] |= bit
                if j < held:
                    for e in elements:
                        holds[j][e][byte] |= bit
            append((cells, delta, support))
        full = (1 << len(rows)) - 1
        self.tables = [full ^ int.from_bytes(mask, "little") for mask in refused]
        self.lengths = [table.bit_count() for table in self.tables]
        counts = []
        for buffers in sized:
            count = [int.from_bytes(buffer, "little") for buffer in buffers]
            count[0] = full ^ reduce(or_, count)
            counts.append(count)
        # a later row adds at most min(k, |G|) elements to one column
        per_row = min(k, n)
        allow: dict[int, list[list[int]]] = {}
        # over the trivial group a cell holds at most one element, so most
        # of these sets select every pick: equal masks share one int
        masks: dict[int, int] = {}
        self.allow = []
        for i in range(m):
            left = min((m - 1 - i) * per_row, k)
            if left not in allow:
                allow[left] = []
                for count in counts:
                    column = []
                    for c in range(k + 1):
                        union = reduce(or_, count[max(0, k - left - c) : k - c + 1])
                        column.append(masks.setdefault(union, union))
                    allow[left].append(column)
            self.allow.append(allow[left])
        self.keep = [
            full ^ int.from_bytes(cell[group.inv[e]], "little") for cell in holds for e in range(n)
        ]
        self.fit_cache: dict[int, int] = {}
        self.packed: dict[int, int] = {}
        self.mult = group.mult
        self.least: dict[tuple[tuple[int, ...], int], int] = {}

    def fitting(self, fits: int, i: int, sums: int, incoming: int) -> int:
        """The picks of ``fits`` that fit as row ``i`` under the packed
        column sums ``sums``, bit p for pick p.  In an oriented space
        ``incoming`` holds the cells that the rows above put in column i,
        row l's at bit ``n * l``; otherwise it is 0."""
        field = (1 << self.width) - 1
        for column in self.allow[i]:
            fits &= column[sums & field]
            sums >>= self.width
        for b in _elements(incoming):
            fits &= self.keep[b]
        return fits

    def orbit_key(self, chosen: list[tuple[int, ...]], i: int, p: int) -> tuple:
        """Pick p's orbit key as row i under the rows ``chosen[:i]``.

        The key holds the pick's cells in blocks 0..i, then the sorted pairs
        (prefix, least translate) of its non-empty cells j > i: the prefix
        is column j's cells in rows 0..i-1, and the translate the least
        a*T(i, j) over the a with a*c = c for every cell c of the prefix,
        the prefix's stabilizer.  Permuting blocks past i with equal
        prefixes, and relabelling each moved block by g -> a*g for such an
        a, fixes blocks 0..i and rows 0..i-1 and sends row i to any row of
        the same key; it maps the matrices under one row one to one onto
        those under the other, with isomorphic digraphs.  At i = 0 every
        prefix is empty, so the key is the first row with the least
        translate of each cell past block 0 under all of G.
        """
        cells, _, support = self[p]
        least = self.least
        parts = []
        for j in support:
            if j <= i:
                continue
            prefix = tuple([row[j] for row in chosen[:i]])
            if (prefix, cells[j]) not in least:
                stabilizer = [
                    product for product in self.mult
                    if all(_translate(product, c) == c for c in prefix)
                ]
                orbit = [_translate(product, cells[j]) for product in stabilizer]
                low = min(orbit)
                for image in orbit:
                    least[prefix, image] = low
            parts.append((prefix, least[prefix, cells[j]]))
        parts.sort()
        return cells[: i + 1], *parts


def _translate(product: tuple[int, ...], mask: int) -> int:
    """The cell a*``mask``, ``product`` being a's row of the multiplication table."""
    return sum(1 << product[t] for t in _elements(mask))


def _search_branch(
    space: SearchSpace,
    rows: _Rows,
    exact_histogram: bool,
    budget: int,
    first: int,
    evaluate: bool,
) -> tuple[str, ConnectionMatrix | None, int, dict[int, int], int]:
    """Search the subtree under the first row ``rows[first]``.

    Every row tried is one step of work and every completed candidate one
    more; the search stops once the work passes ``budget``.  Returns the
    status (FOUND, EXHAUSTED or BUDGET), the first witness in depth-first
    order (or None), the number of completed candidates, the histogram of
    their automorphism orders, and the work done.  Without ``evaluate`` the
    candidates are only counted: no digraph, no engine call, no histogram.
    With it, only the first of each set of twin rows below row 0 (see
    below) sends its candidates to the engine.

    A node visits the set bits of its fitting mask: its table ANDed with the
    masks that its packed column sums and the cells the rows above put in
    its column select (``_Rows.fitting``).  The incoming cells of every
    column travel down the recursion as one packed int, column j's field of
    n * m bits at bit ``n * m * j`` and row l's cells at ``n * l`` within
    it: a chosen row enters the child's argument with one XOR of its packed
    cells and is never taken out.  From depth 2 on every branch searches the
    space's own tables, so the space's fit cache (``_Rows.fit_cache``) keeps
    each mask under the packed sums and the incoming cells shifted past
    them, and a node of any branch whose key recurs reads its mask back
    instead of ANDing it again.  Row i's column sums add up to k * i, so the
    key names the row too (at k = 0 every row fits the one empty pick).
    Depth 0 holds the branch's own first row and depth 1 one node per
    branch, so those two AND their masks each time and cache nothing: an
    m = 2 space keeps no mask past the branch that made it.

    A skipped row still counts as tried: each visited row adds the table's
    rows up to it, its position in the table, to the work, the end of the
    scan adds the rest, and the budget is checked at each visited row and at
    the end.  No candidate completes between two checks, so the status and
    the candidate count at a stop are those of a check at every row; only
    the work a BUDGET result returns may be larger.  A node adds its whole
    table to ``bound`` when it is entered, so ``bound`` is never below the
    rows tried; only once ``bound`` passes the budget does a check count the
    positions of the active rows.  A node of the last table that only counts
    adds its rows and candidates at once when that keeps the work within the
    budget.

    Sibling rows of one orbit key (``_Rows.orbit_key``) root twin subtrees,
    with equal candidate counts and isomorphic candidates.  An evaluating
    node at depth 1 up to m - 2 records a row whose subtree completed
    candidates once it reaches the next fitting row, and from then on works
    out the key of each sibling in the same run, the rows that share its
    blocks 0..i.  A sibling whose key was recorded is walked only counting:
    its rows and candidates count against the budget as before, its count
    must equal its sibling's or RuntimeError is raised, and it takes its
    sibling's automorphism orders.  When the budget stops inside such a
    twin, the work and candidates go back to their values before it and the
    twin is walked again evaluating, so the stop falls on the same row and
    the histogram holds the candidates completed before it.  Over the
    trivial group a row with one block past it has no twin, so there the
    records stop at depth m - 3.  The walk keeps one automorphism order per
    candidate completed while evaluating, and a record is a span of them.
    """
    group, m = space.group, space.m
    n = group.n
    stop = None if exact_histogram else n
    tested = 0
    # the rows tried, plus the untried rest of every active node's table
    bound = 0
    status = "EXHAUSTED"
    # one entry per candidate completed while evaluating: its automorphism
    # order, or 0 when a connected search skips it
    orders: list[int] = []
    witness: ConnectionMatrix | None = None
    oriented = space.require_oriented
    chosen: list[tuple[int, ...]] = [()] * m
    # the pick each active row is at
    at = [first] * m
    # the node of row 0 has the one row ``first``
    tables = [1 << first, *rows.tables[1:]]
    lengths = [1, *rows.lengths[1:]]
    fit_cache, packed = rows.fit_cache, rows.packed
    shift = rows.width * m
    # one column's field of the packed incoming cells
    stride = n * m
    field = (1 << stride) - 1
    last = m - 1
    # the deepest row that may have a twin: one block past it leaves only the
    # translations by its prefix's stabilizer, and none over the trivial group
    deepest = last - 1 if n > 1 else last - 2
    # a block's out-lists, built once per row however often it is chosen
    outs: dict[tuple[int, ...], list[list[int]]] = {}

    def row_outs(cells: tuple[int, ...]) -> list[list[int]]:
        if cells not in outs:
            outs[cells] = block_rows(group, [_elements(mask) for mask in cells])
        return outs[cells]

    def tried(i: int) -> int:
        # the rows tried: ``bound`` less the rows of tables 1..i after their
        # active rows (table 0 holds one row)
        return bound - sum(
            lengths[l] - (tables[l] & ((1 << at[l]) - 1)).bit_count() - 1 for l in range(1, i + 1)
        )

    def stopped(i: int) -> bool:
        # a check with rows 1..i active: stop once the work passes the budget
        nonlocal bound, status
        steps = tried(i)
        if steps + tested <= budget:
            return False
        bound, status = steps, "BUDGET"
        return True

    def twin(i: int, sums: int, incoming: int, sibling: tuple[int, int, int]) -> bool:
        # walk row i's subtree only counting and take its sibling's
        # histogram; False, with the state before the walk back, when the
        # budget stopped inside it
        nonlocal bound, tested, status, evaluate
        mark, saved = tested, bound
        evaluate = False
        inside = descend(i + 1, sums, incoming)
        evaluate = True
        if inside:
            bound, tested, status = saved, mark, "EXHAUSTED"
            return False
        first, start, end = sibling
        if tested - mark != end - start:
            raise RuntimeError(
                f"row {at[i]} at depth {i} completed {tested - mark} candidates,"
                f" but its twin row {first} completed {end - start}"
            )
        orders.extend(orders[start:end])
        return True

    def descend(i: int, sums: int, incoming: int) -> bool:
        nonlocal bound, tested, status, witness
        bound += lengths[i]
        into = incoming >> stride * i & field
        if i < 2:
            # row 0 is the branch's own and row 1 one node a branch: caching
            # them would keep a mask per branch, 33 KB each at Z60 m = 2
            fits = rows.fitting(tables[i], i, sums, into)
        else:
            key = sums | into << shift
            fits = fit_cache.get(key)
            if fits is None:
                fits = fit_cache[key] = rows.fitting(tables[i], i, sums, into)
        if i == last and not evaluate:
            # only counting: when the work stays within the budget even
            # after the last row, no row of this scan stops the search
            count = fits.bit_count()
            if bound + tested + count <= budget or tried(i - 1) + tested + count <= budget:
                tested += count
                return False
        if not fits:
            # the scan tries every row of the table and visits none
            return bound + tested > budget and tables[i] > 0 and stopped(i - 1)
        offset = n * i
        twins = evaluate and 0 < i <= deepest
        # ``tested`` before the subtree of the row visited last, and the key
        # of each row of the current run, ``run``, whose subtree completed
        # candidates: the row and its span of ``orders``
        mark = tested
        seen: dict[tuple, tuple[int, int, int]] | None = None
        for p in _ones(fits):
            at[i] = p
            # the rows tried are counted only when ``bound`` passes the budget
            if bound + tested > budget and stopped(i):
                return True
            cells, delta, support = rows[p]
            chosen[i] = cells
            if i < last:
                below = incoming
                if oriented:
                    spread = packed.get(p)
                    if spread is None:
                        spread = packed[p] = sum(cells[j] << stride * j for j in support)
                    below ^= spread << offset
                if twins:
                    if tested != mark:
                        # the fitting row before this one completed
                        # candidates.  A twin shares blocks 0..i with its
                        # sibling, and the rows that do are one run of the
                        # table, so the row is kept only if this one is in
                        # its run
                        before = (fits & (1 << p) - 1).bit_length() - 1
                        head = cells[: i + 1]
                        if rows[before][0][: i + 1] != head:
                            seen = None
                        else:
                            if seen is None or head != run:
                                seen, run = {}, head
                            seen[rows.orbit_key(chosen, i, before)] = before, mark, tested
                        mark = tested
                    if seen:
                        if cells[: i + 1] != run:
                            seen = run = None
                        else:
                            key = rows.orbit_key(chosen, i, p)
                            if key in seen and twin(i, sums + delta, below, seen[key]):
                                mark = tested
                                continue
                if descend(i + 1, sums + delta, below):
                    return True
                continue
            tested += 1
            if not evaluate:
                continue
            graph = Digraph(m * n, [out for row in chosen for out in row_outs(row)])
            if space.require_connected and not is_weakly_connected(graph):
                orders.append(0)
                continue
            # the right translations make |Aut| >= |G|, so an order of |G| is
            # exact even when the engine may stop early above it
            order = automorphism_group(graph, stop_order_above=stop).order()
            orders.append(order)
            if order == n:
                bound = tried(i)
                status = "FOUND"
                witness = ConnectionMatrix(
                    m, tuple(tuple(frozenset(_elements(c)) for c in row) for row in chosen)
                )
                return True
        # the scan ends: the rows after the last visited one were tried too
        return bound + tested > budget and p < tables[i].bit_length() - 1 and stopped(i - 1)

    descend(0, 0, 0)
    # descend refers to itself: unbinding it frees the out-lists now, not at
    # the next run of the cycle collector
    del descend, twin
    histogram = Counter(orders)
    del histogram[0]
    return status, witness, tested, dict(histogram), bound + tested


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

    One set of bit masks over the space's row picks (``_Rows``) picks each
    node's fitting rows (see ``_search_branch``); every count, histogram,
    witness, budget stop and checkpoint stays that of testing each row of
    each table in turn.  A space of more than ``MAX_PICKS`` picks raises
    ValueError before any pick is made.

    Relabelling blocks maps the subtrees of first rows in one orbit onto
    each other, so only the first branch of each orbit key
    (``_Rows.orbit_key`` at depth 0), its leader, goes to the automorphism
    engine; a branch works out its key when it is reached.  A twin, a branch
    whose key a branch merged earlier in the same run had, still walks its
    rows: it counts the same rows tried and candidates completed, against
    the budget too, and takes the leader's histogram, so counts, histograms,
    budget stops and checkpoints stay those of the labelled search.  A twin
    whose candidate count differs from its leader's raises RuntimeError.  A
    resumed run takes as leader the first branch of each key that it meets
    itself.  The run keeps each leader it merges, one entry per orbit, so
    never more entries than table 0 has rows.  Within a branch the rows
    below row 0 merge the same way (``_search_branch``).  Without
    ``exact_histogram`` the engine may stop once the order passes |G|; a
    twin's candidates are isomorphic to its leader's, so the leader's lower
    bounds hold for the twin too.

    Raises ValueError when ``jobs != 1`` or ``budget < 0``, when the
    checkpoint's directory does not exist, when the checkpoint is
    malformed, belongs to another space or completed a branch the space does
    not have, and when the walk, one level per block, passes the
    interpreter's recursion limit.
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
    rows = _Rows(space)
    branches = rows.tables[0].bit_count()
    if start >= branches:
        # resuming past the end would report EXHAUSTED without a search
        raise ValueError(
            f"checkpoint {checkpoint_path} completed branch {start},"
            f" but the search space has {branches} branches"
        )
    # the first branch of each orbit key met in this run, its leader: its
    # branch, count and histogram
    merged: dict[tuple, tuple[int, int, dict[int, int]]] = {}
    work = 0
    for branch, first in islice(enumerate(_ones(rows.tables[0])), start + 1, None):
        key = rows.orbit_key([], 0, first)
        leader = merged.get(key)
        try:
            status, witness, count, found, done = _search_branch(
                space, rows, exact_histogram, budget - work, first, leader is None
            )
        except RecursionError:
            limit = sys.getrecursionlimit()
            raise ValueError(
                f"the search of {space.m} blocks recurses once per block,"
                f" past the recursion limit of {limit}"
            ) from None
        work += done
        # a branch's last candidate completes after its last check, so a
        # branch that did not stop can still end one unit past its budget
        if status == "BUDGET" or work > budget:
            raise BudgetExceeded(
                f"the rows tried and candidates completed passed the budget"
                f" of {budget} in branch {branch}",
                tested + count,
            )
        if leader is None:
            merged[key] = branch, count, found
        else:
            first, leader_count, found = leader
            if count != leader_count:
                raise RuntimeError(
                    f"branch {branch} completed {count} candidates, but its"
                    f" orbit leader {first} completed {leader_count}"
                )
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


def _randomized_rigid(n: int, k: int, oriented: bool, budget: int, seed: int) -> RigidSearchOutcome:
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
        for _ in range(3 * n * k):
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
    budget: int | None = None,
    seed: int = 0,
) -> RigidSearchOutcome:
    """Look for a loop-free k-regular digraph on n vertices with |Aut| = 1.

    Exploratory: a FOUND witness is verified rigid, but EXHAUSTED/BUDGET for
    one parameter choice settles nothing about the general question.
    Exhaustive mode is :func:`exhaustive_search` over the trivial group, one
    block per vertex: every first row leads to branch 0's, so only its
    candidates go to the engine, and of those only the first of each set of
    twin rows below row 0 (n = 9, k = 3: 143 of the 1,121 candidates before
    the witness).  It ends with BUDGET, and the candidates
    completed so far, once the work passes ``budget``, ``DEFAULT_BUDGET``
    when it is None.  Randomized mode runs a degree-preserving arc-switch
    chain from a circulant seed and tests every 3nk swaps, at most
    ``budget`` samples, 10**6 when it is None: each sample is one engine
    call.  Raises ValueError when ``budget < 0`` or ``mode`` is unknown.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    check_block_count(n)
    if k < 0:
        raise ValueError(f"valency must be non-negative, got k={k}")
    if budget is None:
        budget = DEFAULT_BUDGET if mode == "exhaustive" else 10**6
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
        space = SearchSpace(make_cyclic(1)[0], n, k, oriented)
        try:
            outcome = exhaustive_search(space, budget, exact_histogram=False)
        except BudgetExceeded as stop:
            return RigidSearchOutcome("BUDGET", None, stop.candidates_tested)
        witness = None if outcome.witness is None else build(space.group, outcome.witness)
        return RigidSearchOutcome(outcome.status, witness, outcome.candidates_tested)
    return _randomized_rigid(n, k, oriented, budget, seed)
