from __future__ import annotations

import math
import random
import sys
import tracemalloc
from collections import deque
from itertools import permutations

import pytest

from omsr import autgroup, mcayley, perms, search, verify
from omsr.autgroup import (
    automorphism_group,
    brute_force_automorphisms,
    brute_force_order,
    is_automorphism,
)
from omsr.constructions import construct_omsr
from omsr.digraphs import Digraph, is_weakly_connected
from omsr.groups import klein_four, make_cyclic, standard_two_generated
from omsr.mcayley import (
    ConnectionMatrix,
    build,
    check_prop21_hypotheses,
    regular_action_group,
    vertex_of,
)
from omsr.suite import family_grid, run_all, z4_block_example


def _directed_cycle(n: int) -> Digraph:
    return Digraph.from_arcs(n, [(v, (v + 1) % n) for v in range(n)])


def _random_digraph(rng: random.Random, nv: int, p: float) -> Digraph:
    arcs = [(u, v) for u in range(nv) for v in range(nv) if u != v and rng.random() < p]
    return Digraph.from_arcs(nv, arcs)


Cells = tuple[tuple[int, ...], ...]


def _partition(nv: int, cells) -> autgroup._Partition:
    """The engine's partition of the cells in order; ValueError on an empty
    cell or on cells that do not partition 0..nv-1."""
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
    return autgroup._Partition(cell_of, cell_at, set(cell_at))


def _cells(part: autgroup._Partition) -> Cells:
    """The cells in offset order, each in ascending order."""
    cell_at = part.cell_at
    return tuple(tuple(sorted(cell_at[k])) for k in sorted(cell_at))


def _refine(graph: Digraph, cells, **keywords) -> Cells | None:
    """refine on cells given as tuples, its result read back as tuples; the
    keywords are refine's own."""
    fine = autgroup.refine(graph, _partition(graph.nv, cells), **keywords)
    return None if fine is None else _cells(fine)


def test_directed_cycle_has_cyclic_symmetry() -> None:
    for n in (3, 5, 8):
        assert automorphism_group(_directed_cycle(n)).order() == n


def test_arcless_and_complete_digraphs_have_full_symmetric_group() -> None:
    for n in (2, 4, 5):
        full = Digraph.from_arcs(n, [(u, v) for u in range(n) for v in range(n) if u != v])
        assert automorphism_group(full).order() == math.factorial(n)
    # every leaf of an arcless digraph preserves arcs, so the search finds
    # about one generator per level and tests each child of a first-path node
    # against their orbits
    for n in range(1, 61):
        assert automorphism_group(Digraph.from_arcs(n, [])).order() == math.factorial(n)


def test_directed_path_is_rigid() -> None:
    path = Digraph.from_arcs(5, [(v, v + 1) for v in range(4)])
    assert automorphism_group(path).order() == 1


def test_is_automorphism() -> None:
    cycle = _directed_cycle(4)
    assert is_automorphism(cycle, (1, 2, 3, 0))
    # reflecting a directed cycle reverses the arcs
    assert not is_automorphism(cycle, (3, 2, 1, 0))
    for malformed in ((1, 2, 3), (1, 1, 2, 3), (1, 2, 3, -4), (True, 2, 3, 0)):
        with pytest.raises(ValueError):
            is_automorphism(cycle, malformed)


def test_src_builds_no_chain(monkeypatch) -> None:
    # every verdict reads the engine's tree order, so no path through the
    # package builds a Schreier-Sims chain, not even the oracle or criteria 7-9
    built = []

    class CountedChain(perms._Chain):
        def __init__(self, *args, **kwargs) -> None:
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(perms, "_Chain", CountedChain)
    monkeypatch.setattr(autgroup, "_Chain", CountedChain)
    group, spec = make_cyclic(5)
    assert verify.verify_connection(group, construct_omsr(group, spec, 3)).verdict == "OMSR"
    outcome = search.exhaustive_search(search.SearchSpace(make_cyclic(4)[0], 2))
    assert outcome.candidates_tested == 24
    assert brute_force_order(_directed_cycle(6)) == 6
    assert brute_force_automorphisms(Digraph.from_arcs(5, [])).order() == 120
    assert all(result.passed for result in run_all((7, 8, 9)))
    assert built == []


def _chain_order(degree: int, gens) -> int:
    """Order of the group generated, from the reference Schreier-Sims chain."""
    chain = perms._Chain(degree)
    for p in gens:
        chain.extend(p)
    return chain.order()


def test_tree_order_matches_a_chain_rebuilt_from_the_generators() -> None:
    # the engine's order is a product of orbit sizes read off its search tree;
    # a Schreier-Sims chain closed over its generators recounts it independently
    rng = random.Random(27)
    for trial in range(200):
        graph = _random_digraph(rng, rng.randrange(1, 13), rng.uniform(0.05, 0.6))
        if trial % 3 == 0:
            # two copies of a digraph on at most 6 vertices, so the group is large
            half = _random_digraph(rng, rng.randrange(1, 7), rng.uniform(0.05, 0.6))
            graph = Digraph.from_arcs(
                2 * half.nv, [(u + s, v + s) for u, v in half.arcs() for s in (0, half.nv)]
            )
        exact = automorphism_group(graph).order()
        for stop in (None, 1, 2, 5):
            aut = automorphism_group(graph, stop_order_above=stop)
            assert aut.order() == _chain_order(graph.nv, aut.generators)
            if stop is None or exact <= stop:
                assert aut.order() == exact
            else:
                assert stop < aut.order() <= exact


def test_traced_module_attributes_exist() -> None:
    # the layer tracer in perfbench/spans.py swaps these names for wrappers
    traced = {
        autgroup: ("automorphism_group", "refine", "_preserves_arcs", "_Chain", "PermGroup"),
        perms: ("_Chain",),
        search: ("automorphism_group", "build", "enumerate_rows", "exhaustive_search"),
        verify: (
            "automorphism_group",
            "build",
            "verify_connection",
            "is_oriented",
            "is_k_regular",
            "is_weakly_connected",
        ),
    }
    for module, names in traced.items():
        for name in names:
            assert callable(getattr(module, name)), f"{module.__name__}.{name}"


def test_generators_returned_are_automorphisms() -> None:
    rng = random.Random(21)
    for _ in range(30):
        graph = _random_digraph(rng, rng.randrange(3, 8), 0.35)
        aut = automorphism_group(graph)
        assert all(is_automorphism(graph, p) for p in aut.generators)


def test_engine_matches_brute_force_random() -> None:
    # random and near-regular digraphs, on whose unit partition the split
    # by triangle counts differs most, each stopped below, at and above its
    # order
    rng = random.Random(22)
    for trial in range(80):
        nv = rng.randrange(1, 9 if trial % 8 == 0 else 8)
        if trial % 2:
            graph = _permutation_union(rng, nv, rng.randrange(1, 4))
        else:
            graph = _random_digraph(rng, nv, rng.uniform(0.15, 0.6))
        auts = [p for p in permutations(range(nv)) if autgroup._preserves_arcs(graph, p)]
        order = len(auts)
        assert brute_force_order(graph) == order
        assert automorphism_group(graph).order() == order
        for stop in {1, 2, order // 2, order - 1, order, rng.randrange(1, 30)}:
            bounded = automorphism_group(graph, stop_order_above=stop).order()
            assert order % bounded == 0
            assert (bounded > stop) == (order > stop), (nv, order, stop)
            assert order > stop or bounded == order


def _disjoint_cycles(lengths: list[int]) -> Digraph:
    """Disjoint directed cycles; a length of 1 is an isolated vertex."""
    arcs, base = [], 0
    for n in lengths:
        if n > 1:
            arcs += [(base + v, base + (v + 1) % n) for v in range(n)]
        base += n
    return Digraph.from_arcs(base, arcs)


def _lex_cycle(length: int, k: int) -> Digraph:
    """C_length[k]: every vertex of a directed cycle replaced by k twins."""
    return Digraph.from_arcs(
        length * k,
        [
            (i * k + a, (i + 1) % length * k + b)
            for i in range(length)
            for a in range(k)
            for b in range(k)
        ],
    )


def _closed_form_digraphs() -> list[tuple[Digraph, int]]:
    """Digraphs with large automorphism groups of known order."""
    f = math.factorial
    return [
        (Digraph.from_arcs(12, []), f(12)),
        (_disjoint_cycles([3] * 5), 3**5 * f(5)),
        (_disjoint_cycles([4] * 4), 4**4 * f(4)),
        (_lex_cycle(5, 3), f(3) ** 5 * 5),
        (_lex_cycle(3, 4), f(4) ** 3 * 3),
    ]


def test_first_path_pruning_checks_at_most_nv_leaves(monkeypatch) -> None:
    # pruning only at the root, without the backjump, these take 1,151 to
    # 10,367 leaf checks, and the arcless digraph more than 200,000
    checks = []
    preserves_arcs = autgroup._preserves_arcs

    def counted(graph, img):
        checks.append(img)
        # fail at once rather than run through thousands of leaves
        assert len(checks) <= graph.nv, "more leaf checks than vertices"
        return preserves_arcs(graph, img)

    monkeypatch.setattr(autgroup, "_preserves_arcs", counted)
    for graph, order in _closed_form_digraphs():
        checks.clear()
        assert automorphism_group(graph).order() == order
        assert checks


def _permutation_union(rng: random.Random, nv: int, k: int) -> Digraph:
    """The arcs v -> p(v) of k random permutations p, fixed points dropped.

    Such digraphs are close to regular, so their equitable partitions are
    often coarser than their orbits, and the search meets off-path nodes
    whose refinement splits unlike the first path's."""
    arcs = set()
    for _ in range(k):
        perm = list(range(nv))
        rng.shuffle(perm)
        arcs.update((v, w) for v, w in enumerate(perm) if v != w)
    return Digraph.from_arcs(nv, sorted(arcs))


def test_pruned_nodes_have_no_automorphism_onto_them(monkeypatch) -> None:
    # an off-path node is pruned when its split events differ from the first
    # path's at its depth; an automorphism mapping the first path's input
    # partition there onto the node's would make the events equal
    recorded: dict[int, tuple[list, tuple]] = {}
    pruned: list[tuple[tuple, tuple]] = []
    plain = autgroup.refine

    def watched(graph, part, *, new_cell=None, record=None, expect=None):
        # the engine's partition is refined in place, so it is read first
        cells = _cells(part)
        fine = plain(graph, part, new_cell=new_cell, record=record, expect=expect)
        if record is not None:
            # the list is kept too, so its id is not reused while looked up
            recorded[id(record)] = (record, cells)
        elif expect is not None and fine is None:
            pruned.append((recorded[id(expect)][1], cells))
        return fine

    monkeypatch.setattr(autgroup, "refine", watched)
    rng = random.Random(28)
    graphs_pruned = 0
    # the root split by triangle counts leaves few of these digraphs a
    # pruned node, so the pool is wide enough to find 20 that have one
    for trial in range(2000):
        nv = rng.randrange(2, 8)
        if trial % 3:
            graph = _permutation_union(rng, nv, rng.randrange(1, 4))
        else:
            graph = _random_digraph(rng, nv, rng.uniform(0.15, 0.6))
        recorded.clear()
        pruned.clear()
        order = automorphism_group(graph).order()
        if not pruned:
            continue
        graphs_pruned += 1
        auts = [p for p in permutations(range(nv)) if autgroup._preserves_arcs(graph, p)]
        for first, node in pruned:
            assert [len(c) for c in first] == [len(c) for c in node]
            for p in auts:
                assert any({p[v] for v in a} != set(b) for a, b in zip(first, node))
        assert order == len(auts)
    assert graphs_pruned >= 20


def test_family_instances_check_one_leaf_per_generator(monkeypatch) -> None:
    # split by triangle counts, the root refines to cells of |G| vertices,
    # and below it the search checks one leaf per generator it finds
    checks = []
    preserves_arcs = autgroup._preserves_arcs

    def counted(graph, img):
        checks.append(preserves_arcs(graph, img))
        return checks[-1]

    monkeypatch.setattr(autgroup, "_preserves_arcs", counted)
    for (group, spec), m, leaves in (
        (make_cyclic(2), 120, 1),
        (make_cyclic(40), 20, 1),
        (klein_four(), 40, 2),
        (standard_two_generated("A4"), 12, 2),
    ):
        checks.clear()
        aut = automorphism_group(build(group, construct_omsr(group, spec, m)))
        assert aut.order() == group.n
        assert checks == [True] * leaves


def test_family_instances_refine_from_their_blocks(monkeypatch) -> None:
    # the unit partition of these regular digraphs is equitable; split by
    # triangle counts, the root refines to cells of |G| vertices, and there
    # the arcs force the map of the first vertex onto each other one, so
    # the search refines the root alone
    roots = []
    plain = autgroup.refine

    def counted(graph, part, *, new_cell=None, record=None, expect=None):
        roots.append(plain(graph, part, new_cell=new_cell, record=record, expect=expect))
        return roots[-1]

    monkeypatch.setattr(autgroup, "refine", counted)
    for (group, spec), m, calls in (
        (make_cyclic(2), 120, 1),
        (make_cyclic(40), 20, 1),
        (klein_four(), 40, 1),
        (standard_two_generated("A4"), 12, 1),
    ):
        roots.clear()
        aut = automorphism_group(build(group, construct_omsr(group, spec, m)))
        assert aut.order() == group.n
        assert len(roots) == calls
        assert max(map(len, _cells(roots[0]))) == group.n


def _circulant(rng: random.Random, nv: int) -> Digraph:
    jumps = [s for s in range(1, nv) if rng.random() < 0.3] or [1 % nv]
    return Digraph.from_arcs(nv, {(v, (v + s) % nv) for v in range(nv) for s in jumps if s % nv})


def _copies(half: Digraph, k: int) -> Digraph:
    return Digraph.from_arcs(
        half.nv * k, [(u + c * half.nv, v + c * half.nv) for u, v in half.arcs() for c in range(k)]
    )


def test_forced_maps_leave_the_search_unchanged(monkeypatch) -> None:
    # with _forced_image always undecided the engine refines every child, as
    # it did before the forced maps; both must find the same generators in
    # the same order, and the same order, stopped early or not
    forced = autgroup._forced_image
    results = []

    def watched(graph, part, a, b):
        results.append(forced(graph, part, a, b))
        return results[-1]

    rng = random.Random(32)
    # a 2-regular digraph on which a forced map proves that a child of a
    # forced node has no automorphism onto it
    graphs = [Digraph.from_arcs(8, [
        (0, 6), (0, 7), (1, 5), (1, 7), (2, 4), (2, 6), (3, 4), (3, 5),
        (4, 0), (4, 1), (5, 1), (5, 3), (6, 2), (6, 3), (7, 0), (7, 2),
    ])]
    for trial in range(2100):
        nv = rng.randrange(1, 17)
        if trial % 4 == 0:
            graphs.append(_random_digraph(rng, nv, rng.uniform(0.05, 0.6)))
        elif trial % 4 == 1:
            k = rng.randrange(2, 4)
            graphs.append(_copies(_random_digraph(rng, max(1, nv // k), rng.uniform(0.1, 0.6)), k))
        elif trial % 4 == 2:
            graphs.append(_circulant(rng, nv))
        else:
            graphs.append(_permutation_union(rng, nv, rng.randrange(1, 4)))
    for graph in graphs:
        for stop in (None, rng.choice((1, 2, 3, 6, 24))):
            monkeypatch.setattr(autgroup, "_forced_image", watched)
            fast = automorphism_group(graph, stop_order_above=stop)
            monkeypatch.setattr(autgroup, "_forced_image", lambda graph, part, a, b: None)
            plain = automorphism_group(graph, stop_order_above=stop)
            assert (fast.order(), fast.generators) == (plain.order(), plain.generators)
    # forced nodes, and below them undecided children, children proved to
    # have no automorphism and generators found by forced maps all occurred
    assert None in results and False in results
    identity = sum(1 for r in results if r and r == tuple(range(len(r))))
    assert identity > 500
    assert sum(1 for r in results if r) - identity > 500


def _individualize(cells: Cells, idx: int, v: int) -> Cells:
    """The cells with v alone in place of its cell idx, the rest of that cell after it."""
    rest = tuple(u for u in cells[idx] if u != v)
    return cells[:idx] + ((v,), rest) + cells[idx + 1 :]


def _partitions(rng: random.Random, graph: Digraph) -> list[Cells]:
    """The engine's root partition and its nodes along a random path, and a
    random colouring, which need not be equitable."""
    cells = _cells(autgroup.refine(graph, autgroup._split_by_triangles(graph)))
    found = [cells]
    while len(cells) < graph.nv:
        idx = rng.choice([i for i, c in enumerate(cells) if len(c) > 1])
        cells = _refine(graph, _individualize(cells, idx, rng.choice(cells[idx])))
        found.append(cells)
    colours = [rng.randrange(3) for _ in range(graph.nv)]
    found.append(tuple(c for c in (tuple(v for v in range(graph.nv) if colours[v] == k)
                                   for k in range(3)) if c))
    return found


def test_forced_image_is_sound() -> None:
    # against every arc-preserving permutation: False means none fixes the
    # cells setwise and maps a to b, a map is the only one that does, and a
    # map of a onto itself is the identity after which refine is discrete
    rng = random.Random(33)
    outcomes = set()
    for trial in range(400):
        nv = rng.randrange(2, 9 if trial % 10 == 0 else 8)
        if trial % 3 == 0:
            graph = _random_digraph(rng, nv, rng.uniform(0.1, 0.6))
        elif trial % 3 == 1:
            graph = _permutation_union(rng, nv, rng.randrange(1, 4))
        else:
            graph = _circulant(rng, nv)
        auts = [p for p in permutations(range(nv)) if autgroup._preserves_arcs(graph, p)]
        for cells in _partitions(rng, graph):
            part = _partition(nv, cells)
            cell_of = {v: set(c) for c in cells for v in c}
            keep = [p for p in auts if all(p[v] in cell_of[v] for v in range(nv))]
            for idx, cell in enumerate(cells):
                for a in cell if len(cell) > 1 else ():
                    for b in cell:
                        image = autgroup._forced_image(graph, part, a, b)
                        if image is None:
                            outcomes.add("undecided")
                            continue
                        maps = [p for p in keep if p[a] == b]
                        if image is False:
                            outcomes.add("none")
                            assert maps == []
                            continue
                        assert maps == [image]
                        if a != b:
                            outcomes.add("map")
                            continue
                        outcomes.add("identity")
                        assert image == tuple(range(nv))
                        below = _refine(graph, _individualize(cells, idx, a))
                        assert len(below) == nv
    assert outcomes == {"undecided", "none", "map", "identity"}


def test_a_search_deeper_than_the_recursion_limit_raises_value_error() -> None:
    # the search recurses once per level of its first path, and the arcless
    # digraph on 200 vertices has 199; under a limit of 150 it once died with
    # a RecursionError
    arcless = Digraph.from_arcs(200, [])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        with pytest.raises(ValueError, match="search tree depth"):
            automorphism_group(arcless)
    finally:
        sys.setrecursionlimit(limit)


def _triangle_key(graph: Digraph, v: int) -> tuple[int, int]:
    """(transitive triangles with v as source, directed 3-cycles through v),
    counted arc by arc."""
    out = graph.out_adj[v]
    source = sum(graph.has_arc(a, b) for a in out for b in out)
    cycles = sum(graph.has_arc(b, v) for a in out for b in graph.out_adj[a])
    return source, cycles


def _split_cases() -> list[Digraph]:
    """Near-regular and random digraphs, and family digraphs."""
    rng = random.Random(29)
    cases = []
    for trial in range(60):
        nv = rng.randrange(2, 14)
        if trial % 2:
            cases.append(_permutation_union(rng, nv, rng.randrange(1, 4)))
        else:
            cases.append(_random_digraph(rng, nv, rng.uniform(0.1, 0.6)))
    for group, spec, m in list(family_grid())[::22]:
        cases.append(build(group, construct_omsr(group, spec, m)))
    return cases


def test_root_split_is_by_triangle_counts_and_commutes_with_relabelling() -> None:
    rng = random.Random(30)
    for graph in _split_cases():
        # the vertices grouped by their key, the groups in ascending key order
        groups: dict[tuple[int, int], list[int]] = {}
        for v in range(graph.nv):
            groups.setdefault(_triangle_key(graph, v), []).append(v)
        keys = sorted(groups)
        split = _cells(autgroup._split_by_triangles(graph))
        assert split == tuple(tuple(groups[k]) for k in keys)

        sigma = list(range(graph.nv))
        rng.shuffle(sigma)
        moved = _relabel(graph, sigma)
        moved_split = _cells(autgroup._split_by_triangles(moved))
        assert [_triangle_key(moved, c[0]) for c in moved_split] == keys
        assert [{sigma[v] for v in c} for c in split] == [set(c) for c in moved_split]


def _symmetric_digraphs() -> list[Digraph]:
    """Digraphs on at most 8 vertices whose automorphisms are found below the root."""
    rng = random.Random(25)
    graphs = [Digraph.from_arcs(n, []) for n in range(1, 9)]
    for lengths in ([2, 2], [3, 3], [2, 2, 2], [4, 4], [2, 2, 2, 2], [3, 3, 1, 1], [2, 3, 3],
                    [4, 2, 2], [1, 2, 2, 3], [5, 1, 1, 1], [6, 2], [2, 2, 2, 1, 1]):
        graphs.append(_disjoint_cycles(lengths))
    for length, k in ((2, 2), (2, 3), (2, 4), (3, 2), (4, 2), (3, 1)):
        graphs.append(_lex_cycle(length, k))
    for n in range(4, 9):
        for _ in range(4):
            jumps = [s for s in range(1, n) if rng.random() < 0.35] or [n // 2]
            graphs.append(Digraph.from_arcs(n, [(v, (v + s) % n) for v in range(n) for s in jumps]))
    for _ in range(12):
        half = _random_digraph(rng, rng.randrange(2, 5), rng.uniform(0.2, 0.6))
        shift = [(u + half.nv, v + half.nv) for u, v in half.arcs()]
        graphs.append(Digraph.from_arcs(2 * half.nv, list(half.arcs()) + shift))
    return graphs


def test_engine_matches_brute_force_on_symmetric_digraphs() -> None:
    for graph in _symmetric_digraphs():
        order = brute_force_order(graph)
        assert automorphism_group(graph).order() == order
        for s in {1, 2, order // 2, order - 1, order, order + 1}:
            bounded = automorphism_group(graph, stop_order_above=s).order()
            assert (bounded > s) == (order > s), (graph.nv, order, s)


def _conjugated(gens, there: list[int], back: list[int]) -> list[tuple[int, ...]]:
    """Each generator p as the map v -> back[p(there[v])]."""
    return [tuple(back[p[there[v]]] for v in range(len(there))) for p in gens]


def test_relabelling_keeps_order_and_conjugates_generators() -> None:
    rng = random.Random(26)
    graphs = [graph for graph, _ in _closed_form_digraphs()]
    for _ in range(40):
        graphs.append(_random_digraph(rng, rng.randrange(2, 26), rng.uniform(0.02, 0.5)))
    for graph in graphs:
        sigma = list(range(graph.nv))
        rng.shuffle(sigma)
        inverse = [0] * graph.nv
        for v, w in enumerate(sigma):
            inverse[w] = v
        relabelled = _relabel(graph, sigma)
        aut = automorphism_group(graph)
        moved = automorphism_group(relabelled)
        assert moved.order() == aut.order()
        # each group is the full Aut, so membership is preserving arcs
        for p in _conjugated(moved.generators, sigma, inverse):
            assert autgroup._preserves_arcs(graph, p)
        for p in _conjugated(aut.generators, inverse, sigma):
            assert autgroup._preserves_arcs(relabelled, p)


def test_stop_order_above_abort_is_sound() -> None:
    # symmetric group of order 120 on the arcless digraph: aborting at 10
    # must overshoot 10, while a completed run returns the exact order
    empty = Digraph.from_arcs(5, [])
    aborted = automorphism_group(empty, stop_order_above=10)
    assert aborted.order() > 10
    exact = automorphism_group(empty, stop_order_above=1000)
    assert exact.order() == 120

    cycle = _directed_cycle(7)
    assert automorphism_group(cycle, stop_order_above=7).order() == 7


def test_brute_force_cap() -> None:
    with pytest.raises(ValueError):
        brute_force_order(Digraph.from_arcs(11, []))
    with pytest.raises(ValueError):
        brute_force_automorphisms(Digraph.from_arcs(11, []))


def test_preserves_arcs_agrees_with_the_arc_set_definition() -> None:
    # random permutations, and the engine's generators with their products,
    # so that both answers occur
    rng = random.Random(29)
    answers = set()
    for trial in range(200):
        nv = rng.randrange(1, 9)
        if trial % 2:
            graph = _permutation_union(rng, nv, rng.randrange(1, 4))
        else:
            graph = _random_digraph(rng, nv, rng.uniform(0.05, 0.6))
        arcs = set(graph.arcs())
        gens = automorphism_group(graph).generators
        cands = [tuple(rng.sample(range(nv), nv)) for _ in range(5)]
        cands += list(gens) + [perms._compose(p, q) for p in gens for q in gens]
        for p in cands:
            expected = {(p[u], p[v]) for u, v in arcs} == arcs
            assert autgroup._preserves_arcs(graph, p) == expected
            answers.add(expected)
    assert answers == {True, False}


def test_chain_over_the_arc_preserving_permutations_has_their_count() -> None:
    # the arc-preserving permutations form a group: closed in the reference
    # chain they give a group of exactly their number, which is the oracle's
    # order; the generators of the group under the old name generate it too
    rng = random.Random(30)
    graphs = [Digraph.from_arcs(4, []), _directed_cycle(6), _lex_cycle(3, 2)]
    for trial in range(30):
        nv = rng.randrange(1, 7)
        if trial % 2:
            graphs.append(_permutation_union(rng, nv, rng.randrange(1, 3)))
        else:
            graphs.append(_random_digraph(rng, nv, rng.uniform(0.1, 0.6)))
    for graph in graphs:
        auts = [p for p in permutations(range(graph.nv)) if autgroup._preserves_arcs(graph, p)]
        assert _chain_order(graph.nv, auts) == len(auts) == brute_force_order(graph)
        group = brute_force_automorphisms(graph)
        assert group.order() == _chain_order(graph.nv, group.generators) == len(auts)
        assert len(group.generators) <= graph.nv**2


def test_brute_force_holds_no_list_of_automorphisms() -> None:
    # a list of the 8! automorphisms of arcless 8 would peak near 5 MB
    for oracle in (brute_force_order, lambda g: brute_force_automorphisms(g).order()):
        tracemalloc.start()
        try:
            order = oracle(Digraph.from_arcs(8, []))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert order == math.factorial(8)
        assert peak < 1 << 20


def test_colors_must_partition_the_vertices() -> None:
    # the tuple form every refine test goes through refuses cells that are
    # not a partition, so a malformed case fails rather than refining
    graph = _directed_cycle(4)
    for colors in (
        [(0, 1), (), (2, 3)],
        [(0, 1), (1, 2, 3)],
        [(0, 1), (3,)],
        [(0, 1, 2, -1)],
        [(0, 1, 2, 3, 4)],
        [(0, 0, 1), (2, 3)],
    ):
        with pytest.raises(ValueError):
            _refine(graph, colors)


def test_hypothesis_check_true_on_translation_only_instance() -> None:
    group, _ = make_cyclic(5)
    conn = ConnectionMatrix.from_entries(
        2, {(0, 0): {1, 2}, (0, 1): {0}, (1, 0): {1}, (1, 1): {3, 4}}
    )
    assert check_prop21_hypotheses(group, conn)


def test_hypothesis_check_false_when_aut_exceeds_translations() -> None:
    group, _ = make_cyclic(4)
    conn = ConnectionMatrix.from_entries(
        2, {(0, 0): {1}, (0, 1): {0, 1}, (1, 0): {1, 2}, (1, 1): {1}}
    )
    assert automorphism_group(build(group, conn)).order() == 8
    assert not check_prop21_hypotheses(group, conn)


def test_hypothesis_check_matches_a_brute_force_stabilizer() -> None:
    # (a) every automorphism keeps the blocks, (b) every arc-preserving
    # permutation fixing the identity's vertex u of a block fixes N+(u); the
    # check reads (b) off Schreier generators, and here the stabilizer is
    # enumerated outright
    rng = random.Random(31)
    groups = [make_cyclic(n)[0] for n in (2, 3, 4)] + [klein_four()[0]]
    cases = [z4_block_example()]
    while len(cases) < 60:
        group = rng.choice(groups)
        m = rng.randrange(1, 8 // group.n + 1)
        p = rng.uniform(0.2, 0.5)
        entries = {
            (i, j): {g for g in range(group.n) if rng.random() < p}
            for i in range(m)
            for j in range(m)
        }
        cases.append((group, ConnectionMatrix.from_entries(m, entries)))
    seen = set()
    for group, conn in cases:
        graph, n = build(group, conn), group.n
        if not is_weakly_connected(graph):
            continue
        reps = [vertex_of(group, 0, i) for i in range(conn.m)]
        auts = [p for p in permutations(range(graph.nv)) if autgroup._preserves_arcs(graph, p)]
        keeps_blocks = all(p[v] // n == v // n for p in auts for v in range(graph.nv))
        fixes_out = all(
            p[w] == w for u in reps for p in auts if p[u] == u for w in graph.out_adj[u]
        )
        assert check_prop21_hypotheses(group, conn) == (keeps_blocks and fixes_out)
        seen.add((keeps_blocks, fixes_out))
    # the blocks hold while the stabilizer moves an out-neighbour, so the
    # verdict rests on the Schreier generators
    assert {(True, True), (True, False)} <= seen


def test_hypothesis_check_input_validation() -> None:
    group, _ = make_cyclic(5)
    disconnected = ConnectionMatrix.from_entries(2, {(0, 0): {1}, (1, 1): {1}})
    with pytest.raises(ValueError, match="weakly connected"):
        check_prop21_hypotheses(group, disconnected)


def test_hypothesis_check_raises_when_the_order_contradicts_the_hypotheses(monkeypatch) -> None:
    # the right translations keep the blocks and fix no vertex, so (a) and
    # (b) hold; an engine that reports twice their order is inconsistent
    group, _ = make_cyclic(5)
    conn = ConnectionMatrix.from_entries(
        2, {(0, 0): {1, 2}, (0, 1): {0}, (1, 0): {1}, (1, 1): {3, 4}}
    )
    translations = regular_action_group(group, conn.m).generators
    monkeypatch.setattr(
        mcayley,
        "automorphism_group",
        lambda graph: perms.PermGroup(graph.nv, translations, order=2 * group.n),
    )
    with pytest.raises(RuntimeError, match="engine inconsistency"):
        check_prop21_hypotheses(group, conn)


def _is_equitable(graph: Digraph, cells: Cells) -> bool:
    """Direct count check: within a cell, all vertices agree on per-cell arc counts."""
    cell_of = {v: idx for idx, cell in enumerate(cells) for v in cell}
    for cell in cells:
        scores = set()
        for v in cell:
            score = [0] * (2 * len(cells))
            for w in graph.out_adj[v]:
                score[2 * cell_of[w]] += 1
            for w in graph.in_adj[v]:
                score[2 * cell_of[w] + 1] += 1
            scores.add(tuple(score))
        if len(scores) > 1:
            return False
    return True


def _refines_in_order(fine: Cells, coarse: Cells) -> bool:
    """Each cell of ``fine`` lies in one cell of ``coarse``, in the same cell order."""
    cell_of = {v: idx for idx, cell in enumerate(coarse) for v in cell}
    owners = []
    for cell in fine:
        if len({cell_of[v] for v in cell}) != 1:
            return False
        owners.append(cell_of[cell[0]])
    return owners == sorted(owners)


def _refine_cases() -> list[tuple[Digraph, Cells]]:
    """Seeded random and family-grid digraphs, each from the unit partition
    and from a coloured or block partition."""
    cases = []
    rng = random.Random(23)
    for _ in range(40):
        nv = rng.randrange(2, 12)
        graph = _random_digraph(rng, nv, rng.uniform(0.1, 0.6))
        colors = [rng.randrange(3) for _ in range(nv)]
        cells = [[v for v in range(nv) if colors[v] == c] for c in range(3)]
        cases.append((graph, (tuple(range(nv)),)))
        cases.append((graph, tuple(tuple(c) for c in cells if c)))
    for group, spec, m in list(family_grid())[::22]:
        gamma = build(group, construct_omsr(group, spec, m))
        blocks = tuple(tuple(range(i * group.n, (i + 1) * group.n)) for i in range(m))
        cases.append((gamma, (tuple(range(gamma.nv)),)))
        cases.append((gamma, blocks))
    return cases


def test_refine_output_is_equitable_and_refines_input() -> None:
    path = Digraph.from_arcs(3, [(0, 1), (1, 2)])
    assert not _is_equitable(path, ((0, 1, 2),))  # the check can fail

    for graph, start in _refine_cases():
        fine = _refine(graph, start)
        assert sorted(v for cell in fine for v in cell) == list(range(graph.nv))
        assert _is_equitable(graph, fine)
        assert _refines_in_order(fine, start)


def _relabel(graph: Digraph, sigma: list[int]) -> Digraph:
    return Digraph.from_arcs(graph.nv, [(sigma[u], sigma[v]) for u, v in graph.arcs()])


def test_refine_commutes_with_relabelling() -> None:
    rng = random.Random(24)
    for graph, start in _refine_cases():
        sigma = list(range(graph.nv))
        rng.shuffle(sigma)
        moved_start = tuple(tuple(sigma[v] for v in cell) for cell in start)
        fine = _refine(graph, start)
        expected = [{sigma[v] for v in cell} for cell in fine]
        assert [set(cell) for cell in _refine(_relabel(graph, sigma), moved_start)] == expected

        # the split events are the same after relabelling, and matching them
        # leaves the result as it is
        trace: list = []
        moved_trace: list = []
        assert _refine(graph, start, record=trace) == fine
        _refine(_relabel(graph, sigma), moved_start, record=moved_trace)
        assert moved_trace == trace
        assert _refine(graph, start, expect=trace) == fine
        # one event altered, one missing, or one left over: no match
        for i, (offset, stay, frags) in enumerate(trace):
            (score, size), *rest = frags
            for event in (
                (offset + 1, stay, frags),
                (offset, stay + 1, frags),
                (offset, stay, ((score + 1, size), *rest)),
                (offset, stay, ((score, size + 1), *rest)),
            ):
                assert _refine(graph, start, expect=trace[:i] + [event] + trace[i + 1 :]) is None
        if trace:
            assert _refine(graph, start, expect=trace[:-1]) is None
        assert _refine(graph, start, expect=trace + [(0, 1, ((1, 1),))]) is None


def _refine_full_scan(graph: Digraph, cells, new_cell=None) -> Cells:
    """Reference refinement that scores every member of each touched cell.

    The same splitter order, fragment order and worklist rule as ``refine``,
    so the two must return the same ordered cells: the worklist starts as
    every cell, or as the cell at offset new_cell alone, and a cell split
    after it left the worklist queues all its pieces but the first largest.
    """
    cell_at: dict[int, list[int]] = {}
    cell_of = [0] * graph.nv
    offset = 0
    for cell in cells:
        members = sorted(cell)
        if not members:
            raise ValueError("empty cell")
        cell_at[offset] = members
        for v in members:
            cell_of[v] = offset
        offset += len(members)
    pending = dict(cell_at) if new_cell is None else {new_cell: cell_at[new_cell]}
    queue: deque[tuple[int, list[int]]] = deque(pending.items())

    while queue:
        woff, members_w = queue.popleft()
        if cell_at[woff] is not members_w:
            continue
        del pending[woff]
        cnt_out: dict[int, int] = {}
        cnt_in: dict[int, int] = {}
        for w in members_w:
            for u in graph.in_adj[w]:
                cnt_out[u] = cnt_out.get(u, 0) + 1
            for u in graph.out_adj[w]:
                cnt_in[u] = cnt_in.get(u, 0) + 1
        touched = {cell_of[u] for u in cnt_out}
        touched.update(cell_of[u] for u in cnt_in)
        for coff in sorted(touched):
            members = cell_at[coff]
            if len(members) == 1:
                continue
            buckets: dict[tuple[int, int], list[int]] = {}
            for v in members:
                buckets.setdefault((cnt_out.get(v, 0), cnt_in.get(v, 0)), []).append(v)
            if len(buckets) == 1:
                continue
            pieces = [frag for _, frag in sorted(buckets.items())]
            largest = max(pieces, key=len)
            was_pending = pending.get(coff) is members
            for frag in pieces:
                cell_at[coff] = frag
                for v in frag:
                    cell_of[v] = coff
                if was_pending or frag is not largest:
                    queue.append((coff, frag))
                    pending[coff] = frag
                coff += len(frag)
    return tuple(tuple(cell_at[k]) for k in sorted(cell_at))


def _large_family_graphs() -> list[Digraph]:
    """Family digraphs past the family grid's 80 vertices."""
    graphs = []
    for (group, spec), m in (
        (make_cyclic(2), 60),
        (klein_four(), 30),
        (standard_two_generated("A4"), 9),
    ):
        graphs.append(build(group, construct_omsr(group, spec, m)))
        assert graphs[-1].nv >= 100
    return graphs


def test_refine_matches_full_scan_cell_for_cell() -> None:
    for graph, start in _refine_cases():
        assert _refine(graph, start) == _refine_full_scan(graph, start)

    # refined after one and after two vertices individualized in the unit
    # partition, which stays one cell on these digraphs
    for graph in _large_family_graphs():
        unit = (tuple(range(graph.nv)),)
        root = _refine(graph, unit)
        assert root == _refine_full_scan(graph, unit) == unit
        for v in (0, graph.nv // 2, graph.nv - 1):
            one = _individualize(root, 0, v)
            assert _refine(graph, one) == _refine_full_scan(graph, one)
            for w in (one[1][0], one[1][-1]):
                two = _individualize(one, 1, w)
                assert _refine(graph, two) == _refine_full_scan(graph, two)


def test_refine_from_the_new_singleton_alone() -> None:
    # individualizing a vertex of an equitable partition leaves every other
    # cell equitable, so refining from the new singleton alone reaches the
    # same cells; its events stay free of labels
    rng = random.Random(30)
    cases = _refine_cases() + [(g, (tuple(range(g.nv)),)) for g in _large_family_graphs()]
    children = 0
    for graph, start in cases:
        fine = _refine(graph, start)
        idx = next((i for i, cell in enumerate(fine) if len(cell) > 1), None)
        if idx is None:
            continue
        offset = sum(map(len, fine[:idx]))
        sigma = list(range(graph.nv))
        rng.shuffle(sigma)
        moved_graph = _relabel(graph, sigma)
        for v in fine[idx]:
            child = _individualize(fine, idx, v)
            trace: list = []
            fast = _refine(graph, child, new_cell=offset, record=trace)
            assert set(fast) == set(_refine(graph, child))
            assert _is_equitable(graph, fast)
            assert fast == _refine_full_scan(graph, child, offset)
            moved_child = tuple(tuple(sigma[u] for u in cell) for cell in child)
            moved_trace: list = []
            moved = _refine(moved_graph, moved_child, new_cell=offset, record=moved_trace)
            assert moved_trace == trace
            assert [set(cell) for cell in moved] == [{sigma[u] for u in cell} for cell in fast]
            children += 1
    assert children > 500
    with pytest.raises(ValueError):
        _refine(Digraph.from_arcs(3, [(0, 1)]), ((0, 1), (2,)), new_cell=1)


def test_a_child_never_disturbs_its_parent() -> None:
    # a child shares its parent's cell sets and is refined in place; the
    # sets it writes to are copied first, so the parent reads the same after
    # every child, and each child refines as its cells do in tuple form
    rng = random.Random(34)
    children = pruned = 0
    for trial in range(500):
        nv = rng.randrange(2, 17)
        if trial % 2:
            graph = _permutation_union(rng, nv, rng.randrange(1, 4))
        else:
            graph = _random_digraph(rng, nv, rng.uniform(0.05, 0.6))
        parent = autgroup._split_by_triangles(graph)
        assert autgroup.refine(graph, parent) is parent
        cells = _cells(parent)
        best = max(map(len, cells))
        if best == 1:
            continue
        idx = next(i for i, cell in enumerate(cells) if len(cell) == best)
        offset = sum(map(len, cells[:idx]))
        first_trace = None
        for v in cells[idx]:
            tuples = _individualize(cells, idx, v)
            trace: list = []
            child = autgroup.refine(graph, parent.child(offset, v), new_cell=offset, record=trace)
            assert _cells(parent) == cells
            plain: list = []
            assert _cells(child) == _refine(graph, tuples, new_cell=offset, record=plain)
            assert trace == plain
            if first_trace is None:
                first_trace = trace
            # against the first child's events, as the search refines a node
            # off its first path
            matched = autgroup.refine(
                graph, parent.child(offset, v), new_cell=offset, expect=first_trace
            )
            assert _cells(parent) == cells
            expected = _refine(graph, tuples, new_cell=offset, expect=first_trace)
            if expected is None:
                assert matched is None
                pruned += 1
            else:
                assert _cells(matched) == expected
            children += 1
    assert children > 800 and pruned > 100
