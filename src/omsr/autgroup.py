"""Digraph automorphism groups via equitable partition refinement and backtracking.

The engine sees plain digraphs alone; the checks that speak of blocks live in mcayley.
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass
from functools import partial
from itertools import compress, permutations
from typing import Iterator, Sequence

from .digraphs import Digraph
# _Chain is unused here; perfbench/spans.py patches it in this module too
from .perms import PermGroup, _Chain, check_permutation  # noqa: F401

__all__ = [
    "automorphism_group",
    "brute_force_order",
    "is_automorphism",
]

BRUTE_FORCE_MAX = 10


# a split: the cell's offset, the size left there, then (score, size) of
# every fragment split off it, in score order
Event = tuple[int, int, tuple[tuple[int, int], ...]]


@dataclass(slots=True, eq=False)
class _Partition:
    """An ordered partition of 0..nv-1 into non-empty cells, each keyed by
    its offset in the concatenated cell order.

    cell_of[v] is the offset of v's cell and cell_at[offset] the set of its
    members. A child copies its parent's list and dict, so it shares the
    parent's sets; own holds the offsets whose sets the partition made
    itself, and refine copies any other set before it writes to it.
    """

    cell_of: list[int]
    cell_at: dict[int, set[int]]
    own: set[int]

    def child(self, offset: int, v: int) -> _Partition:
        """v, a member of the cell at offset, alone there, and the rest of
        that cell at offset + 1; every other set is shared."""
        cell_of = self.cell_of[:]
        cell_at = self.cell_at.copy()
        rest = cell_at[offset] - {v}
        cell_at[offset] = {v}
        cell_at[offset + 1] = rest
        for u in rest:
            cell_of[u] = offset + 1
        return _Partition(cell_of, cell_at, {offset, offset + 1})


def refine(
    graph: Digraph,
    part: _Partition,
    *,
    new_cell: int | None = None,
    record: list[Event] | None = None,
    expect: Sequence[Event] | None = None,
) -> _Partition | None:
    """Coarsest equitable refinement of an ordered partition into non-empty cells.

    Every cell is scored against a worklist of splitter cells by the pair
    (out-arcs into splitter, in-arcs from splitter); cells splitting are
    replaced in position by their fragments in ascending score order. The
    result does not depend on anything except the graph, the input cell
    order and new_cell, so repeated calls are stable.

    The worklist follows McKay's rule (McKay 1981). A cell that splits while
    still waiting on the worklist queues every piece. Any other cell was
    split against already, or vouched for, so every cell has fixed counts
    into it; the counts into one of its pieces are the whole cell's less the
    other pieces', for out-arcs and in-arcs alike. Such a cell queues every
    piece but the first largest, in piece order: the piece left in place,
    then the fragments. The choice reads only sizes and order. The worklist
    starts as every cell. With new_cell, the caller vouches that part is an
    equitable partition with the cell at offset new_cell split off one of
    its cells, and the worklist starts as that cell alone; the engine passes
    the offset of the vertex it individualizes.

    Only the vertices a splitter's arcs reach are scored, so a splitter costs
    the arcs it touches, not the size of the cells it touches. The untouched
    rest of a cell scores (0, 0), which sorts first, so it stays at the cell's
    offset with its members unmoved. Once every cell is a singleton nothing
    can split, and the worklist is dropped.

    The partition is a _Partition: cell_of, the offset of each vertex's
    cell, and cell_at, the members of the cell at each offset. A split of
    any other cell never moves an offset, and the cell at an offset only
    ever shrinks, so a worklist entry (offset, size) whose size is no longer
    the cell's belongs to a cell split since. The partition is refined in
    place and returned, at a cost that follows the splits, not nv. It may
    share sets with the partition it was copied from, as the engine's
    children share their parent's; such a set is copied before its first
    write, so the parent never changes.

    Every split is an event: the cell's offset, the size of the piece left
    there, and the (score, size) of each fragment split off, in score order.
    With record, a list, the call appends its events to it. With expect, it
    compares each event with the one at the same position there and returns
    None at the first that differs, or at the end if any are left unmatched;
    otherwise it returns what a call without it returns. Events hold only
    offsets, sizes and scores, and splitters, touched cells and fragments are
    taken in an order fixed by those, so relabelling the graph and the
    partition together leaves the events unchanged.
    """
    nv = graph.nv
    cell_of, cell_at, own = part.cell_of, part.cell_at, part.own
    if new_cell is None:
        pending = {off: len(c) for off, c in cell_at.items()}
    elif new_cell in cell_at:
        pending = {new_cell: len(cell_at[new_cell])}
    else:
        raise ValueError(f"no cell starts at offset {new_cell}")
    # the worklist entries not yet popped, offset -> size; a split re-queues
    # or drops its cell's offset, so a key always holds the cell's own size
    queue: deque[tuple[int, int]] = deque(pending.items())
    # one int per score: the in-count is at most |splitter| <= nv, so
    # out * (nv + 1) + in sorts like the pair (out, in)
    step = nv + 1
    splits = 0

    while queue and len(cell_at) < nv:
        woff, size = queue.popleft()
        members_w = cell_at[woff]
        if len(members_w) != size:
            continue
        del pending[woff]
        score: dict[int, int] = {}
        for w in members_w:
            for u in graph.in_adj[w]:
                score[u] = score.get(u, 0) + step
            for u in graph.out_adj[w]:
                score[u] = score.get(u, 0) + 1
        hit: dict[int, list[int]] = {}
        for u in score:
            hit.setdefault(cell_of[u], []).append(u)
        for coff in sorted(hit):
            members = cell_at[coff]
            if len(members) == 1:
                continue
            touched = hit[coff]
            buckets: dict[int, list[int]] = {}
            for v in touched:
                buckets.setdefault(score[v], []).append(v)
            if len(touched) < len(members):
                if coff in own:
                    members.difference_update(touched)
                else:
                    members = cell_at[coff] = members.difference(touched)
            elif len(buckets) == 1:
                continue
            else:
                members = cell_at[coff] = set(buckets.pop(min(buckets)))
            own.add(coff)
            frags = sorted(buckets.items())
            if record is not None or expect is not None:
                event = (coff, len(members), tuple((s, len(f)) for s, f in frags))
                if record is not None:
                    record.append(event)
                elif splits == len(expect) or expect[splits] != event:
                    return None
                splits += 1
            sizes = [len(members), *(len(f) for _, f in frags)]
            skip = -1 if coff in pending else sizes.index(max(sizes))
            for piece, size in enumerate(sizes):
                if piece:
                    frag = frags[piece - 1][1]
                    cell_at[coff] = set(frag)
                    own.add(coff)
                    for v in frag:
                        cell_of[v] = coff
                if piece != skip:
                    queue.append((coff, size))
                    pending[coff] = size
                coff += size
    if expect is not None and splits != len(expect):
        return None
    return part


def is_automorphism(graph: Digraph, images: Sequence[int]) -> bool:
    return _preserves_arcs(graph, check_permutation(images, graph.nv))


def _preserves_arcs(graph: Digraph, img: tuple[int, ...]) -> bool:
    masks = graph.out_masks
    for u, row in enumerate(graph.out_adj):
        acc = 0
        for v in row:
            acc |= 1 << img[v]
        if acc != masks[img[u]]:
            return False
    return True


def _forced_image(graph: Digraph, part: _Partition, a: int, b: int) -> tuple[int, ...] | bool | None:
    """The automorphism that fixes every cell setwise and every singleton and
    maps a to b, a vertex of a's cell, when the arcs force each image; False
    when none exists; None when the arcs leave it undecided.

    Each singleton is fixed and a goes to b. Each vertex a mapped vertex
    reaches keeps the images that its mapped neighbours leave it: the
    same-direction neighbours of their images, in its own cell, not yet
    used. A vertex left one image takes it, and one left none proves that no
    such automorphism exists. When the mapped vertices force no more and
    some are unmapped, the map is undecided. A complete map is returned when
    it preserves arcs, else False. Mapping a onto itself leaves every vertex
    its own image among its possible ones, so a complete map is then the
    identity, returned unchecked.

    Only a and the vertices mapped after it narrow the sets: in an equitable
    partition, as the engine's are, a singleton's arcs reach all of a cell
    or none of it. The partition is read only where the propagation reaches
    it, so past one image list allocated at C speed a try costs the reach
    of a and a count of the singleton cells.
    """
    out_adj, in_adj = graph.out_adj, graph.in_adj
    if not (out_adj[a] or in_adj[a]):
        # a shares its cell with a vertex that nothing will reach
        return None
    nv = graph.nv
    cell_of, cell_at = part.cell_of, part.cell_at
    # -1 until mapped; a singleton stays -1 and is its own image
    img = [-1] * nv
    img[a] = b
    mapped = 1
    used = {b}
    possible: dict[int, set[int]] = {}
    stack = [a]
    both = (out_adj, in_adj)
    while stack:
        w = stack.pop()
        x = img[w]
        for adj in both:
            allowed = adj[x]
            for u in adj[w]:
                if img[u] >= 0:
                    continue
                old = possible.get(u)
                if old is None:
                    old = cell_at[cell_of[u]]
                    if len(old) == 1:
                        continue
                # `-` walks the smaller side; `-=` would walk all of used
                left = old.intersection(allowed) - used
                if len(left) > 1:
                    possible[u] = left
                    continue
                if not left:
                    return False
                (y,) = left
                img[u] = y
                used.add(y)
                stack.append(u)
                mapped += 1
    singletons = list(map(len, cell_at.values())).count(1)
    if mapped + singletons < nv:
        return None
    perm = tuple([v if w < 0 else w for v, w in enumerate(img)] if singletons else img)
    return perm if a == b or _preserves_arcs(graph, perm) else False


def _split_by_triangles(graph: Digraph) -> _Partition:
    """The vertices grouped by the pair (transitive triangles with v as
    source, directed 3-cycles through v), the groups in ascending key order:
    the search's root partition."""
    masks = graph.out_masks
    groups: dict[tuple[int, int], list[int]] = {}
    for v, row in enumerate(graph.out_adj):
        back = sum(1 << u for u in graph.in_adj[v])
        src = cyc = 0
        for a in row:
            src += (masks[a] & masks[v]).bit_count()
            cyc += (masks[a] & back).bit_count()
        groups.setdefault((src, cyc), []).append(v)
    cell_of = [0] * graph.nv
    cell_at: dict[int, set[int]] = {}
    offset = 0
    for key in sorted(groups):
        members = groups[key]
        cell_at[offset] = set(members)
        for v in members:
            cell_of[v] = offset
        offset += len(members)
    return _Partition(cell_of, cell_at, set(cell_at))


def automorphism_group(graph: Digraph, *, stop_order_above: int | None = None) -> PermGroup:
    """Automorphism group of the digraph.

    The search starts from the unit partition split by a vertex invariant
    (McKay 1981), the triangle counts of _split_by_triangles. Automorphisms
    preserve them, so the split has the same group; its cells stand in
    ascending key order, so the first path's traces stay free of labels. On
    the family digraphs, whose unit partition is already equitable, it
    reaches the blocks.

    Individualization-refinement search: the first (leftmost) leaf of the tree
    fixes a reference labeling, every other discrete leaf proposes the bijection
    onto the reference and is kept when it preserves arcs. Each refinement on
    the first path records its split events (see refine); a node off it is
    refined against the events recorded at its depth and pruned at the first
    that differs. An automorphism taking the first leaf to a leaf below the
    node takes the first path's partition at each depth onto that leaf's
    path, and refine commutes with relabelling, so the events there agree:
    a pruned node has no arc-preserving leaf below it. At every node of the
    first path, a child is skipped when it lies in the orbit of an explored
    child under the generators found so far; depth-first order found each of
    them below that node, so they fix the path above it. A leaf off the first
    path that preserves arcs fixes the path down to the node where it leaves
    the first path and maps the first path's next vertex onto its own, so the
    search backjumps to that node: the rest of the subtree holds only
    products with the stabilizer already found below the node's first child.
    That own vertex lies outside the orbit of the children explored before
    it, so every such leaf enlarges the group and is kept as a generator.
    At each node of the first path, before any child is refined, the search
    tries the map of the first vertex u of the node's target cell onto
    itself (_forced_image). When the arcs force every vertex, only the
    identity fixes the path and u, and refinement after u is discrete: each
    vertex the map forces is adjacent to mapped vertices that nothing else
    in its cell is adjacent to, so refinement splits it off too. The first
    path's leaf below u is then put off, and built only before a node off
    the first path is refined. Every other child v takes the forced map of u
    onto v instead of a refinement. A permutation is the one automorphism
    that fixes the path and maps u to v, which the leaf below v would give,
    so it is kept as the generator; a proof that none exists skips v; only
    an undecided v is searched as before. The generators and the order are
    those of the search without forced maps, and on the family digraphs the
    root's refinement is the only one.
    The group's order is read off the tree (McKay 1981): with u_d the vertex
    individualized at depth d of the first path and K_d the group generated
    by the automorphisms found at or below that node, |Aut| is the product
    of the orbit sizes |u_d^K_d|, each taken when its node's children are
    done. No Schreier-Sims chain is built. Every generator found so far
    fixes the path down to the current first-path node, so it maps that
    node's target cell onto itself. The orbits are kept as one union-find
    over the members of the first path's target cells, merged as each
    generator is found: a child is skipped when its class holds an explored
    child, and |u_d^K_d| is the size of u_d's class.
    Each node's partition is a _Partition (see refine). A child copies its
    parent's cell_of list and cell_at dict, puts its vertex alone at the
    target cell's offset and the rest of that cell at the next offset, and
    is refined in place; the sets it shares are copied before their first
    write, so a parent is never changed by its children. The target is the
    first largest cell in offset order, and its members are tried in
    ascending order. A leaf's labelling is the offset of each vertex's cell.
    With stop_order_above set, the search aborts once the order of the
    subgroup found so far exceeds the bound and returns that subgroup (a
    certified lower bound, sound for threshold tests because it only ever
    finds true automorphisms). That order is exact at every moment: every
    level below the current first-path node is complete, and every
    generator fixes the first path above it.
    The search recurses once per level of the first path; the RecursionError
    of a tree deeper than the interpreter's recursion limit allows is raised
    again as a ValueError that names the limit.
    """
    nv = graph.nv
    gens: list[tuple[int, ...]] = []
    # first_leaf[v]: the position of v in the first leaf's labelling
    first_leaf: list[int] | None = None
    # traces[d]: the split events of the first path's refinement at depth d
    traces: list[list[Event]] = []
    order = 1
    # the first path's child put off by a forced node, as its parent, the
    # target offset, the vertex and the depth; built before any node off the
    # first path is refined
    deferred: list[tuple[_Partition, int, int, int]] = []
    # the orbits of the generators found so far, as a union-find that
    # relabels the smaller class on a merge: v's class is orbits[cls[v]]
    cls = list(range(nv))
    orbits = [[v] for v in range(nv)]
    # the members of the first path's target cells. The classes asked about
    # at a node are of its target cell T, which every generator found so far
    # maps onto itself, so no pair (v, gen[v]) joins T to a vertex outside
    # it, and merging over these members alone keeps them orbits
    support: set[int] = set()

    def add(gen: tuple[int, ...]) -> None:
        gens.append(gen)
        for v in support:
            big, small = cls[v], cls[gen[v]]
            if big == small:
                continue
            if len(orbits[big]) < len(orbits[small]):
                big, small = small, big
            for u in orbits[small]:
                cls[u] = big
            orbits[big] += orbits[small]
            orbits[small] = []

    def descend(part: _Partition, depth: int, new_cell: int | None = None) -> bool:
        """Refine a node's partition and search below it. True off the first
        path: a leaf below preserved arcs, and every ancestor off the path
        returns at once. True on the first path: the search aborted.
        new_cell is the offset of the vertex individualized in part, whose
        parent partition refine left equitable; None at the root."""
        nonlocal first_leaf, order
        on_path = first_leaf is None
        if on_path:
            traces.append([])
            refine(graph, part, new_cell=new_cell, record=traces[depth])
        elif refine(graph, part, new_cell=new_cell, expect=traces[depth]) is None:
            return False
        cell_of, cell_at = part.cell_of, part.cell_at
        if len(cell_at) == nv:
            if on_path:
                first_leaf = cell_of
                return False
            seq = [0] * nv
            for v, k in enumerate(cell_of):
                seq[k] = v
            cand = tuple([seq[k] for k in first_leaf])
            if not _preserves_arcs(graph, cand):
                return False
            add(cand)
            return True
        sizes = list(map(len, cell_at.values()))
        best = max(sizes)
        # the first largest cell in offset order
        target = min(compress(cell_at, map(best.__eq__, sizes)))
        cell = sorted(cell_at[target])
        first = cell[0]
        if on_path:
            support.update(cell)
        # when the arcs force the identity, refinement after `first` is
        # discrete: its leaf is put off, and each other child takes the map
        # of `first` onto it that the arcs force, if they do
        forced = on_path and _forced_image(graph, part, first, first) is not None
        if forced:
            deferred.append((part, target, first, depth + 1))
        # the explored children, and their classes as of `known` generators
        explored: list[int] = []
        done: set[int] = set()
        known = len(gens)
        for v in cell:
            if on_path:
                if known != len(gens):
                    known = len(gens)
                    done = {cls[u] for u in explored}
                if cls[v] in done:
                    continue
                explored.append(v)
                done.add(cls[v])
                if forced and v == first:
                    continue
            image = _forced_image(graph, part, first, v) if forced else None
            if image is None:
                if deferred:
                    # the first path's leaf, put off, before any node off it
                    below, offset, u, level = deferred.pop()
                    descend(below.child(offset, u), level, offset)
                hit = descend(part.child(target, v), depth + 1, target)
            else:
                hit = bool(image)
                if hit:
                    add(image)
            if hit:
                if not on_path:
                    return True
                # a generator was found at or below v, or the search aborted there;
                # either way the group found so far has order `found`
                if stop_order_above is not None:
                    found = order * len(orbits[cls[first]])
                    if found > stop_order_above:
                        order = found
                        return True
        if on_path:
            order *= len(orbits[cls[first]])
        return False

    try:
        descend(_split_by_triangles(graph), 0)
    except RecursionError:
        limit = sys.getrecursionlimit()
        raise ValueError(f"search tree depth passes the recursion limit of {limit}") from None
    return PermGroup(nv, gens, order=order)


def _arc_preserving(graph: Digraph) -> Iterator[tuple[int, ...]]:
    """Every arc-preserving permutation, from a scan of all nv! (nv <= 10)."""
    if graph.nv > BRUTE_FORCE_MAX:
        raise ValueError(f"brute force capped at {BRUTE_FORCE_MAX} vertices, got {graph.nv}")
    return filter(partial(_preserves_arcs, graph), permutations(range(graph.nv)))


def brute_force_order(graph: Digraph) -> int:
    """|Aut| as the number of arc-preserving permutations, which form the
    group; one scan counts them and none is held in a list."""
    return sum(1 for _ in _arc_preserving(graph))


def brute_force_automorphisms(graph: Digraph) -> PermGroup:
    """The brute-force scan's group, for callers of the old name
    (perfbench/test_perfbench.py); new code calls brute_force_order.

    The generators are the first arc-preserving permutation met for each
    (first moved point k, its image): with the identity, these are coset
    representatives of the stabilizer of 0..k in the stabilizer of 0..k-1,
    so together they generate the group. At most nv² are held.
    """
    reps: dict[tuple[int, int], tuple[int, ...]] = {}
    count = 0
    for p in _arc_preserving(graph):
        count += 1
        k = next((v for v, w in enumerate(p) if v != w), None)
        if k is not None:
            reps.setdefault((k, p[k]), p)
    return PermGroup(graph.nv, reps.values(), order=count)
