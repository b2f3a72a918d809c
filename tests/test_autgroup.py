from __future__ import annotations

import math
import random
import tracemalloc
from collections import deque
from itertools import permutations

import pytest

from omsr import autgroup, perms, search, verify
from omsr.autgroup import (
    automorphism_group,
    brute_force_automorphisms,
    brute_force_order,
    check_prop21_hypotheses,
    is_automorphism,
    refine,
)
from omsr.constructions import construct_omsr
from omsr.digraphs import Digraph, is_weakly_connected
from omsr.groups import klein_four, make_cyclic, standard_two_generated
from omsr.mcayley import ConnectionMatrix, build
from omsr.suite import family_grid, run_all, z4_block_example


def _directed_cycle(n: int) -> Digraph:
    return Digraph.from_arcs(n, [(v, (v + 1) % n) for v in range(n)])


def _random_digraph(rng: random.Random, nv: int, p: float) -> Digraph:
    arcs = [(u, v) for u in range(nv) for v in range(nv) if u != v and rng.random() < p]
    return Digraph.from_arcs(nv, arcs)


def test_directed_cycle_has_cyclic_symmetry() -> None:
    for n in (3, 5, 8):
        assert automorphism_group(_directed_cycle(n)).order() == n


def test_arcless_and_complete_digraphs_have_full_symmetric_group() -> None:
    for n in (2, 4, 5):
        empty = Digraph.from_arcs(n, [])
        full = Digraph.from_arcs(n, [(u, v) for u in range(n) for v in range(n) if u != v])
        assert automorphism_group(empty).order() == math.factorial(n)
        assert automorphism_group(full).order() == math.factorial(n)


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
        colors = None
        if trial % 2 and graph.nv >= 2:
            verts = list(range(graph.nv))
            rng.shuffle(verts)
            cut = rng.randrange(1, graph.nv)
            colors = [verts[:cut], verts[cut:]]
        exact = automorphism_group(graph, colors).order()
        for stop in (None, 1, 2, 5):
            aut = automorphism_group(graph, colors, stop_order_above=stop)
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
    # random and near-regular digraphs, on whose start partition the split
    # by triangle counts differs most, each also two-coloured and stopped
    # below, at and above its order
    rng = random.Random(22)
    for trial in range(80):
        nv = rng.randrange(1, 9 if trial % 8 == 0 else 8)
        if trial % 2:
            graph = _permutation_union(rng, nv, rng.randrange(1, 4))
        else:
            graph = _random_digraph(rng, nv, rng.uniform(0.15, 0.6))
        auts = [p for p in permutations(range(nv)) if autgroup._preserves_arcs(graph, p)]
        assert brute_force_order(graph) == len(auts)
        verts = list(range(nv))
        rng.shuffle(verts)
        cut = rng.randrange(nv)
        for colors in (None, [verts[:cut], verts[cut:]] if cut else None):
            order = sum(all({p[v] for v in c} == set(c) for c in colors or ()) for p in auts)
            assert automorphism_group(graph, colors).order() == order
            for stop in {1, 2, order // 2, order - 1, order, rng.randrange(1, 30)}:
                bounded = automorphism_group(graph, colors, stop_order_above=stop).order()
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

    def watched(graph, cells, *, record=None, expect=None):
        cells = tuple(tuple(c) for c in cells)
        fine = plain(graph, cells, record=record, expect=expect)
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
    for trial in range(1500):
        nv = rng.randrange(2, 8)
        if trial % 3:
            graph = _permutation_union(rng, nv, rng.randrange(1, 4))
        else:
            graph = _random_digraph(rng, nv, rng.uniform(0.15, 0.6))
        verts = list(range(nv))
        rng.shuffle(verts)
        cut = rng.randrange(1, nv)
        for colors in (None, [verts[:cut], verts[cut:]]):
            recorded.clear()
            pruned.clear()
            order = automorphism_group(graph, colors).order()
            if not pruned:
                continue
            graphs_pruned += 1
            auts = [p for p in permutations(range(nv)) if autgroup._preserves_arcs(graph, p)]
            for first, node in pruned:
                assert [len(c) for c in first] == [len(c) for c in node]
                for p in auts:
                    assert any({p[v] for v in a} != set(b) for a, b in zip(first, node))
            if colors is None:
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
        aut = automorphism_group(build(group, construct_omsr(group, spec, m)).graph)
        assert aut.order() == group.n
        assert checks == [True] * leaves


def test_family_instances_refine_from_their_blocks(monkeypatch) -> None:
    # the unit partition of these regular digraphs is equitable; split by
    # triangle counts, the root refines to cells of |G| vertices, so the
    # search refines the root, one path and the leaves of the generators
    roots = []
    plain = autgroup.refine

    def counted(graph, cells, *, record=None, expect=None):
        roots.append(plain(graph, cells, record=record, expect=expect))
        return roots[-1]

    monkeypatch.setattr(autgroup, "refine", counted)
    for (group, spec), m, calls in (
        (make_cyclic(2), 120, 3),
        (make_cyclic(40), 20, 3),
        (klein_four(), 40, 4),
        (standard_two_generated("A4"), 12, 4),
    ):
        roots.clear()
        aut = automorphism_group(build(group, construct_omsr(group, spec, m)).graph)
        assert aut.order() == group.n
        assert len(roots) == calls
        assert max(map(len, roots[0])) == group.n


def _triangle_key(graph: Digraph, v: int) -> tuple[int, int]:
    """(transitive triangles with v as source, directed 3-cycles through v),
    counted arc by arc."""
    out = graph.out_adj[v]
    source = sum(graph.has_arc(a, b) for a in out for b in out)
    cycles = sum(graph.has_arc(b, v) for a in out for b in graph.out_adj[a])
    return source, cycles


def _split_cases() -> list[tuple[Digraph, tuple[tuple[int, ...], ...]]]:
    """Near-regular and random digraphs, each uncoloured and two-coloured,
    and family digraphs from the unit partition."""
    rng = random.Random(29)
    cases = []
    for trial in range(60):
        nv = rng.randrange(2, 14)
        if trial % 2:
            graph = _permutation_union(rng, nv, rng.randrange(1, 4))
        else:
            graph = _random_digraph(rng, nv, rng.uniform(0.1, 0.6))
        verts = list(range(nv))
        rng.shuffle(verts)
        cut = rng.randrange(1, nv)
        cases.append((graph, (tuple(range(nv)),)))
        cases.append((graph, (tuple(verts[:cut]), tuple(verts[cut:]))))
    for group, spec, m in list(family_grid())[::22]:
        graph = build(group, construct_omsr(group, spec, m)).graph
        cases.append((graph, (tuple(range(graph.nv)),)))
    return cases


def test_root_split_is_by_triangle_counts_and_commutes_with_relabelling() -> None:
    rng = random.Random(30)
    for graph, start in _split_cases():
        split = autgroup._split_by_triangles(graph, start)
        assert _refines_in_order(split, start)
        assert sorted(v for cell in split for v in cell) == list(range(graph.nv))
        keys = []
        for cell in split:
            (key,) = {_triangle_key(graph, v) for v in cell}
            keys.append(key)
        # within each input cell the fragments stand in ascending key order
        owner = {v: idx for idx, cell in enumerate(start) for v in cell}
        for (a, ka), (b, kb) in zip(zip(split, keys), zip(split[1:], keys[1:])):
            assert owner[a[0]] != owner[b[0]] or ka < kb

        sigma = list(range(graph.nv))
        rng.shuffle(sigma)
        moved = _relabel(graph, sigma)
        moved_split = autgroup._split_by_triangles(
            moved, tuple(tuple(sigma[v] for v in cell) for cell in start)
        )
        assert [len(c) for c in moved_split] == [len(c) for c in split]
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


def test_initial_coloring_restricts_automorphisms() -> None:
    # two disjoint directed 3-cycles: swapping them is allowed only when
    # they share a color class
    arcs = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    graph = Digraph.from_arcs(6, arcs)
    free = automorphism_group(graph)
    assert free.order() == 18
    pinned = automorphism_group(graph, colors=[(0, 1, 2), (3, 4, 5)])
    assert pinned.order() == 9


def test_colors_must_partition_the_vertices() -> None:
    graph = _directed_cycle(4)
    for colors in (
        [(0, 1), (), (2, 3)],
        [(0, 1), (1, 2, 3)],
        [(0, 1), (3,)],
        [(0, 1, 2, -1)],
        [(0, 1, 2, 3, 4)],
        [(0, 0, 1), (2, 3)],
    ):
        with pytest.raises(ValueError) as raised:
            refine(graph, colors)
        # the root split leaves every check to refine, so the error is its own
        with pytest.raises(ValueError) as engine:
            automorphism_group(graph, colors=colors)
        assert str(engine.value) == str(raised.value)


def test_hypothesis_check_true_on_translation_only_instance() -> None:
    group, _ = make_cyclic(5)
    conn = ConnectionMatrix.from_entries(
        2, {(0, 0): {1, 2}, (0, 1): {0}, (1, 0): {1}, (1, 1): {3, 4}}
    )
    gamma = build(group, conn)
    aut = automorphism_group(gamma.graph)
    assert check_prop21_hypotheses(gamma, aut, [gamma.vertex_of(0, 0), gamma.vertex_of(0, 1)])


def test_hypothesis_check_false_when_aut_exceeds_translations() -> None:
    group, _ = make_cyclic(4)
    conn = ConnectionMatrix.from_entries(
        2, {(0, 0): {1}, (0, 1): {0, 1}, (1, 0): {1, 2}, (1, 1): {1}}
    )
    gamma = build(group, conn)
    aut = automorphism_group(gamma.graph)
    assert aut.order() == 8
    assert not check_prop21_hypotheses(gamma, aut, [gamma.vertex_of(0, 0), gamma.vertex_of(0, 1)])


def test_hypothesis_check_matches_a_brute_force_stabilizer() -> None:
    # (a) every automorphism keeps the blocks, (b) every arc-preserving
    # permutation fixing a representative u fixes N+(u); the check reads (b)
    # off Schreier generators, and here the stabilizer is enumerated outright
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
        gamma = build(group, conn)
        graph, n = gamma.graph, group.n
        if not is_weakly_connected(graph):
            continue
        reps = [gamma.vertex_of(0, i) for i in range(gamma.m)]
        auts = [p for p in permutations(range(graph.nv)) if autgroup._preserves_arcs(graph, p)]
        keeps_blocks = all(p[v] // n == v // n for p in auts for v in range(graph.nv))
        fixes_out = all(
            p[w] == w for u in reps for p in auts if p[u] == u for w in graph.out_adj[u]
        )
        aut = automorphism_group(graph)
        assert check_prop21_hypotheses(gamma, aut, reps) == (keeps_blocks and fixes_out)
        seen.add((keeps_blocks, fixes_out))
    # the blocks hold while the stabilizer moves an out-neighbour, so the
    # verdict rests on the Schreier generators
    assert {(True, True), (True, False)} <= seen


def test_hypothesis_check_input_validation() -> None:
    group, _ = make_cyclic(5)
    conn = ConnectionMatrix.from_entries(
        2, {(0, 0): {1, 2}, (0, 1): {0}, (1, 0): {1}, (1, 1): {3, 4}}
    )
    gamma = build(group, conn)
    aut = automorphism_group(gamma.graph)
    with pytest.raises(ValueError):
        check_prop21_hypotheses(gamma, aut, [gamma.vertex_of(0, 0)])
    disconnected = build(group, ConnectionMatrix.from_entries(2, {(0, 0): {1}, (1, 1): {1}}))
    with pytest.raises(ValueError):
        check_prop21_hypotheses(
            disconnected,
            automorphism_group(disconnected.graph),
            [disconnected.vertex_of(0, 0), disconnected.vertex_of(0, 1)],
        )


def _is_equitable(graph: Digraph, cells: tuple[tuple[int, ...], ...]) -> bool:
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


def _refines_in_order(fine: tuple[tuple[int, ...], ...], coarse: tuple[tuple[int, ...], ...]) -> bool:
    """Each cell of ``fine`` lies in one cell of ``coarse``, in the same cell order."""
    cell_of = {v: idx for idx, cell in enumerate(coarse) for v in cell}
    owners = []
    for cell in fine:
        if len({cell_of[v] for v in cell}) != 1:
            return False
        owners.append(cell_of[cell[0]])
    return owners == sorted(owners)


def _refine_cases() -> list[tuple[Digraph, tuple[tuple[int, ...], ...]]]:
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
        cases.append((gamma.graph, (tuple(range(gamma.graph.nv)),)))
        cases.append((gamma.graph, blocks))
    return cases


def test_refine_output_is_equitable_and_refines_input() -> None:
    path = Digraph.from_arcs(3, [(0, 1), (1, 2)])
    assert not _is_equitable(path, ((0, 1, 2),))  # the check can fail

    for graph, start in _refine_cases():
        fine = refine(graph, start)
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
        fine = refine(graph, start)
        expected = [{sigma[v] for v in cell} for cell in fine]
        assert [set(cell) for cell in refine(_relabel(graph, sigma), moved_start)] == expected

        # the split events are the same after relabelling, and matching them
        # leaves the result as it is
        trace: list = []
        moved_trace: list = []
        assert refine(graph, start, record=trace) == fine
        refine(_relabel(graph, sigma), moved_start, record=moved_trace)
        assert moved_trace == trace
        assert refine(graph, start, expect=trace) == fine
        # one event altered, one missing, or one left over: no match
        for i, (offset, stay, frags) in enumerate(trace):
            (score, size), *rest = frags
            for event in (
                (offset + 1, stay, frags),
                (offset, stay + 1, frags),
                (offset, stay, ((score + 1, size), *rest)),
                (offset, stay, ((score, size + 1), *rest)),
            ):
                assert refine(graph, start, expect=trace[:i] + [event] + trace[i + 1 :]) is None
        if trace:
            assert refine(graph, start, expect=trace[:-1]) is None
        assert refine(graph, start, expect=trace + [(0, 1, ((1, 1),))]) is None


def _refine_full_scan(graph: Digraph, cells) -> tuple[tuple[int, ...], ...]:
    """Reference refinement that scores every member of each touched cell.

    The same splitter order and fragment order as ``refine``, so the two must
    return the same ordered cells.
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
    queue: deque[tuple[int, list[int]]] = deque(cell_at.items())

    while queue:
        woff, members_w = queue.popleft()
        if cell_at[woff] is not members_w:
            continue
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
            for _, frag in sorted(buckets.items()):
                cell_at[coff] = frag
                for v in frag:
                    cell_of[v] = coff
                queue.append((coff, frag))
                coff += len(frag)
    return tuple(tuple(cell_at[k]) for k in sorted(cell_at))


def test_refine_matches_full_scan_cell_for_cell() -> None:
    for graph, start in _refine_cases():
        assert refine(graph, start) == _refine_full_scan(graph, start)

    # family digraphs past the grid's 80 vertices, refined after one and
    # after two vertices individualized in the unit partition, which stays
    # one cell on these digraphs
    for (group, spec), m in (
        (make_cyclic(2), 60),
        (klein_four(), 30),
        (standard_two_generated("A4"), 9),
    ):
        graph = build(group, construct_omsr(group, spec, m)).graph
        assert graph.nv >= 100
        unit = (tuple(range(graph.nv)),)
        root = refine(graph, unit)
        assert root == _refine_full_scan(graph, unit) == unit
        for v in (0, graph.nv // 2, graph.nv - 1):
            one = autgroup._individualize(root, 0, v)
            assert refine(graph, one) == _refine_full_scan(graph, one)
            for w in (one[1][0], one[1][-1]):
                two = autgroup._individualize(one, 1, w)
                assert refine(graph, two) == _refine_full_scan(graph, two)
