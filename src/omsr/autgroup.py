"""Digraph automorphism groups via equitable partition refinement and backtracking."""

from __future__ import annotations

from collections import deque
from functools import partial
from itertools import permutations
from typing import Iterable, Sequence

from .digraphs import Digraph, is_weakly_connected
# _Chain is unused here; perfbench/spans.py patches it in this module too
from .perms import PermGroup, _Chain, check_permutation  # noqa: F401

__all__ = [
    "refine",
    "automorphism_group",
    "brute_force_automorphisms",
    "is_automorphism",
    "check_prop21_hypotheses",
]

BRUTE_FORCE_MAX = 10


Cells = tuple[tuple[int, ...], ...]


def refine(graph: Digraph, cells: Iterable[Iterable[int]]) -> Cells:
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
            queue.append((coff, len(members)))
            coff += len(members)
            for _, frag in sorted(buckets.items()):
                cell_at[coff] = set(frag)
                for v in frag:
                    cell_of[v] = coff
                queue.append((coff, len(frag)))
                coff += len(frag)
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


def automorphism_group(
    graph: Digraph,
    colors: Iterable[Iterable[int]] | None = None,
    *,
    stop_order_above: int | None = None,
) -> PermGroup:
    """Automorphism group of the digraph, optionally respecting an initial coloring.

    The coloring, when given, is an ordered sequence of non-empty cells that
    partition 0..nv-1; automorphisms must map every cell onto itself.

    Individualization-refinement search: the first (leftmost) leaf of the tree
    fixes a reference labeling, every other discrete leaf proposes the bijection
    onto the reference and is kept when it preserves arcs. Branches are pruned
    when their refined cell-size profile disagrees with the reference path at
    the same depth. At every node of the first path, a child is skipped when it
    lies in the orbit of an explored child under the generators found so far;
    depth-first order found each of them below that node, so they fix the path
    above it. A leaf off the first path that preserves arcs fixes the path down
    to the node where it leaves the first path and maps the first path's next
    vertex onto its own, so the search backjumps to that node whether or not
    the leaf enlarged the group: the rest of the subtree holds only products
    with the stabilizer already found below the node's first child.
    With stop_order_above set, the search aborts once the found subgroup's
    order exceeds the bound and returns that subgroup (a certified lower bound,
    sound for threshold tests because it only ever finds true automorphisms).
    """
    nv = graph.nv
    if colors is None:
        start: Cells = (tuple(range(nv)),)
    else:
        # refine raises ValueError unless the cells partition 0..nv-1
        start = tuple(tuple(c) for c in colors)
    aut = PermGroup(nv)
    first_leaf: list[int] | None = None
    path_shapes: list[tuple[int, ...]] = []
    state = {"aborted": False}

    def orbit_hits(v: int, targets: set[int]) -> bool:
        seen = {v}
        queue = [v]
        while queue:
            u = queue.pop()
            if u in targets:
                return True
            for g in aut.generators:
                w = g[u]
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return False

    def descend(cells: Cells, depth: int) -> bool:
        """Search below a node. True makes every ancestor off the first path
        return at once: a leaf below preserved arcs, or the search aborted."""
        nonlocal first_leaf
        on_path = first_leaf is None
        shape = tuple(len(c) for c in cells)
        if on_path:
            path_shapes.append(shape)
        elif depth >= len(path_shapes) or shape != path_shapes[depth]:
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
            if aut.add(cand) and stop_order_above is not None and aut.order() > stop_order_above:
                state["aborted"] = True
            return True
        cell = cells[target]
        processed: set[int] = set()
        for v in cell:
            if state["aborted"]:
                return True
            if on_path and processed and orbit_hits(v, processed):
                continue
            if descend(refine(graph, _individualize(cells, target, v)), depth + 1) and not on_path:
                return True
            processed.add(v)
        return False

    descend(refine(graph, start), 0)
    return aut


def brute_force_automorphisms(graph: Digraph) -> PermGroup:
    """Exact automorphism group by checking all nv! permutations (nv <= 10).

    The arc-preserving permutations form the group, so a first scan counts
    them and a second adjoins them only until the order reaches that count;
    none is held in a list.  RuntimeError when the order differs from the count.
    """
    nv = graph.nv
    if nv > BRUTE_FORCE_MAX:
        raise ValueError(f"brute force capped at {BRUTE_FORCE_MAX} vertices, got {nv}")
    preserving = partial(_preserves_arcs, graph)
    count = sum(map(preserving, permutations(range(nv))))
    aut = PermGroup(nv)
    for p in filter(preserving, permutations(range(nv))):
        if aut.order() == count:
            break
        aut.add(p)
    if aut.order() != count:
        raise RuntimeError(
            f"{count} arc-preserving permutations generate a group of order {aut.order()}"
        )
    return aut


def check_prop21_hypotheses(gamma, aut: PermGroup, reps: Sequence[int]) -> bool:
    """Test the two hypotheses forcing Aut = R(G) on a connected block digraph.

    (a) every generator maps each block onto itself, and (b) for each supplied
    block representative u, the stabilizer of u fixes every out-neighbor of u
    pointwise. When both hold the automorphism group must be exactly the right
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
    if any(not aut.is_member(right_translation(gamma, g)) for g in range(n)):
        raise ValueError("supplied group must contain every right translation")
    for p in aut.generators:
        for v in range(graph.nv):
            if p[v] // n != v // n:
                return False
    for u in reps:
        stab = aut.stabilizer(u)
        for p in stab.generators:
            if any(p[w] != w for w in graph.out_adj[u]):
                return False
    if aut.order() != n:
        raise RuntimeError(
            f"hypotheses hold but |Aut| = {aut.order()} != |G| = {n}; engine inconsistency"
        )
    return True
