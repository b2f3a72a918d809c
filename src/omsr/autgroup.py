"""Digraph automorphism groups via equitable partition refinement and backtracking."""

from __future__ import annotations

from collections import deque
from functools import partial
from itertools import permutations
from typing import Container, Iterable, Iterator, Sequence

from .digraphs import Digraph, is_weakly_connected
# _Chain is unused here; perfbench/spans.py patches it in this module too
from .perms import PermGroup, _Chain, check_permutation  # noqa: F401

__all__ = [
    "refine",
    "automorphism_group",
    "brute_force_order",
    "is_automorphism",
    "check_prop21_hypotheses",
]

BRUTE_FORCE_MAX = 10


Cells = tuple[tuple[int, ...], ...]
# a split: the cell's offset, the size left there, then (score, size) of
# every fragment split off it, in score order
Event = tuple[int, int, tuple[tuple[int, int], ...]]


def refine(
    graph: Digraph,
    cells: Iterable[Iterable[int]],
    *,
    record: list[Event] | None = None,
    expect: Sequence[Event] | None = None,
) -> Cells | None:
    """Coarsest equitable refinement of an ordered partition into non-empty cells.

    Every cell is scored against a worklist of splitter cells by the pair
    (out-arcs into splitter, in-arcs from splitter); cells splitting are
    replaced in position by their fragments in ascending score order, and
    all fragments join the worklist. The result does not depend on anything
    except the graph and the input cell order, so repeated calls are stable.

    Only the vertices a splitter's arcs reach are scored, so a splitter costs
    the arcs it touches, not the size of the cells it touches. The untouched
    rest of a cell scores (0, 0), which sorts first, so it stays at the cell's
    offset with its members unmoved. Once every cell is a singleton nothing
    can split, and the worklist is dropped.

    A cell is keyed by its offset in the concatenated cell order, which a
    split of any other cell never moves. The cell at an offset only ever
    shrinks, so a worklist entry (offset, size) whose size is no longer the
    cell's belongs to a cell split since. An empty cell would share its
    offset with the next one, so it raises ValueError, and so do cells that
    do not partition 0..nv-1.

    Every split is an event: the cell's offset, the size of the piece left
    there, and the (score, size) of each fragment split off, in score order.
    With record, a list, the call appends its events to it. With expect, it
    compares each event with the one at the same position there and returns
    None at the first that differs, or at the end if any are left unmatched;
    otherwise it returns what a call without it returns. Events hold only
    offsets, sizes and scores, and splitters, touched cells and fragments are
    taken in an order fixed by those, so relabelling the graph and the cells
    together leaves the events unchanged.
    """
    nv = graph.nv
    cell_at: dict[int, set[int]] = {}
    cell_of = [-1] * nv
    offset = 0
    for cell in cells:
        members: set[int] = set()
        for v in cell:
            if not 0 <= v < nv or cell_of[v] >= 0:
                raise ValueError(f"cells do not partition 0..{nv - 1}")
            cell_of[v] = offset
            members.add(v)
        if not members:
            raise ValueError("empty cell")
        cell_at[offset] = members
        offset += len(members)
    if offset != nv:
        raise ValueError(f"cells do not partition 0..{nv - 1}")
    queue: deque[tuple[int, int]] = deque((off, len(c)) for off, c in cell_at.items())
    # one int per score: the in-count is at most |splitter| <= nv, so
    # out * (nv + 1) + in sorts like the pair (out, in)
    step = nv + 1
    splits = 0

    while queue and len(cell_at) < nv:
        woff, size = queue.popleft()
        members_w = cell_at[woff]
        if len(members_w) != size:
            continue
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
                members.difference_update(touched)
            elif len(buckets) == 1:
                continue
            else:
                members = cell_at[coff] = set(buckets.pop(min(buckets)))
            frags = sorted(buckets.items())
            if record is not None or expect is not None:
                event = (coff, len(members), tuple((s, len(f)) for s, f in frags))
                if record is not None:
                    record.append(event)
                elif splits == len(expect) or expect[splits] != event:
                    return None
                splits += 1
            queue.append((coff, len(members)))
            coff += len(members)
            for _, frag in frags:
                cell_at[coff] = set(frag)
                for v in frag:
                    cell_of[v] = coff
                queue.append((coff, len(frag)))
                coff += len(frag)
    if expect is not None and splits != len(expect):
        return None
    return tuple(tuple(sorted(cell_at[k])) for k in sorted(cell_at))


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


def _individualize(cells: Cells, idx: int, v: int) -> Cells:
    rest = tuple(u for u in cells[idx] if u != v)
    return cells[:idx] + ((v,), rest) + cells[idx + 1 :]


def _split_by_triangles(graph: Digraph, cells: Cells) -> Cells:
    """Each cell split by the pair (transitive triangles with v as source,
    directed 3-cycles through v), its fragments in place in ascending order.
    An empty cell or a vertex outside 0..nv-1 is left for refine to reject."""
    nv, masks = graph.nv, graph.out_masks
    keys = []
    for v, row in enumerate(graph.out_adj):
        back = 0
        for u in graph.in_adj[v]:
            back |= 1 << u
        src = cyc = 0
        for a in row:
            src += (masks[a] & masks[v]).bit_count()
            cyc += (masks[a] & back).bit_count()
        keys.append((src, cyc))
    split: list[tuple[int, ...]] = []
    for cell in cells:
        frags: dict[tuple[int, ...], list[int]] = {}
        for v in cell:
            frags.setdefault(keys[v] if 0 <= v < nv else (), []).append(v)
        split.extend([tuple(frags[k]) for k in sorted(frags)] or [()])
    return tuple(split)


def automorphism_group(
    graph: Digraph,
    colors: Iterable[Iterable[int]] | None = None,
    *,
    stop_order_above: int | None = None,
) -> PermGroup:
    """Automorphism group of the digraph, optionally respecting an initial coloring.

    The coloring, when given, is an ordered sequence of non-empty cells that
    partition 0..nv-1; automorphisms must map every cell onto itself.

    Before the search, each cell is split once by a vertex invariant (McKay
    1981): the transitive triangles with v as their source and the directed
    3-cycles through v, counted from the out-masks. Every automorphism
    preserves both counts, so the split colouring has the same group, and the
    fragments stand in ascending count order, so the first path's traces
    stay free of labels. A regular digraph's unit partition is already
    equitable; on the family digraphs this split reaches the blocks instead.

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
    The group's order is read off the tree (McKay 1981): with u_d the vertex
    individualized at depth d of the first path and K_d the group generated
    by the automorphisms found at or below that node, |Aut| is the product
    of the orbit sizes |u_d^K_d|, each taken when its node's children are
    done. No Schreier-Sims chain is built.
    With stop_order_above set, the search aborts once the order of the
    subgroup found so far exceeds the bound and returns that subgroup (a
    certified lower bound, sound for threshold tests because it only ever
    finds true automorphisms). That order is exact at every moment: every
    level below the current first-path node is complete, and every
    generator fixes the first path above it.
    """
    nv = graph.nv
    if colors is None:
        start: Cells = (tuple(range(nv)),)
    else:
        # refine raises ValueError unless the cells partition 0..nv-1
        start = tuple(tuple(c) for c in colors)
    gens: list[tuple[int, ...]] = []
    first_leaf: list[int] | None = None
    # traces[d]: the split events of the first path's refinement at depth d
    traces: list[list[Event]] = []
    order = 1

    def orbit(v: int, targets: Container[int] = ()) -> set[int] | None:
        """The orbit of v under the generators so far; None once it meets targets."""
        seen = {v}
        queue = [v]
        while queue:
            u = queue.pop()
            if u in targets:
                return None
            for g in gens:
                w = g[u]
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return seen

    def descend(part: Cells, depth: int) -> bool:
        """Refine a node's partition and search below it. True off the first
        path: a leaf below preserved arcs, and every ancestor off the path
        returns at once. True on the first path: the search aborted."""
        nonlocal first_leaf, order
        on_path = first_leaf is None
        if on_path:
            traces.append([])
            cells = refine(graph, part, record=traces[depth])
        else:
            cells = refine(graph, part, expect=traces[depth])
            if cells is None:
                return False
        target = -1
        best = 1
        for idx, c in enumerate(cells):
            if len(c) > best:
                best = len(c)
                target = idx
        if target < 0:
            seq = [c[0] for c in cells]
            if on_path:
                first_leaf = seq
                return False
            img = [0] * nv
            for a, b in zip(first_leaf, seq):
                img[a] = b
            cand = tuple(img)
            if not _preserves_arcs(graph, cand):
                return False
            gens.append(cand)
            return True
        cell = cells[target]
        processed: set[int] = set()
        for v in cell:
            if on_path and processed and orbit(v, processed) is None:
                continue
            if descend(_individualize(cells, target, v), depth + 1):
                if not on_path:
                    return True
                # a generator was found below v, or the search aborted there;
                # either way the group found so far has order `found`
                if stop_order_above is not None:
                    found = order * len(orbit(cell[0]))
                    if found > stop_order_above:
                        order = found
                        return True
            processed.add(v)
        if on_path:
            order *= len(orbit(cell[0]))
        return False

    descend(_split_by_triangles(graph, start), 0)
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


def check_prop21_hypotheses(gamma, aut: PermGroup, reps: Sequence[int]) -> bool:
    """Test the two hypotheses forcing Aut = R(G) on a connected block digraph.

    ``aut`` must be the digraph's full automorphism group, as the engine
    returns it. (a) every generator maps each block onto itself, and (b) for
    each supplied block representative u, the stabilizer of u fixes every
    out-neighbor of u pointwise; the stabilizer's Schreier generators are
    checked. When both hold the automorphism group must be exactly the right
    translations, so the order is cross-checked against |G|.
    """
    from .mcayley import right_translation

    graph: Digraph = gamma.graph
    n = gamma.group.n
    m = gamma.m
    if aut.degree != graph.nv:
        raise ValueError(f"degree {aut.degree} vs nv {graph.nv}")
    if not is_weakly_connected(graph):
        raise ValueError("hypothesis check requires a weakly connected digraph")
    if sorted(v // n for v in reps) != list(range(m)):
        raise ValueError(f"need exactly one representative per block, got {list(reps)}")
    # the group is the full Aut, so a permutation is a member when it preserves arcs
    if any(not _preserves_arcs(graph, right_translation(gamma, g)) for g in range(n)):
        raise ValueError("supplied group must contain every right translation")
    for p in aut.generators:
        for v in range(graph.nv):
            if p[v] // n != v // n:
                return False
    for u in reps:
        for p in aut.schreier_generators(u):
            if any(p[w] != w for w in graph.out_adj[u]):
                return False
    if aut.order() != n:
        raise RuntimeError(
            f"hypotheses hold but |Aut| = {aut.order()} != |G| = {n}; engine inconsistency"
        )
    return True
