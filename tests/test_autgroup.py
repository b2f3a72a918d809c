from __future__ import annotations

import math
import random
import tracemalloc
from collections import deque

import pytest

from omsr import autgroup, perms, search, verify
from omsr.autgroup import (
    automorphism_group,
    brute_force_automorphisms,
    check_prop21_hypotheses,
    is_automorphism,
    refine,
)
from omsr.constructions import construct_omsr
from omsr.digraphs import Digraph
from omsr.groups import klein_four, make_cyclic, standard_two_generated
from omsr.mcayley import ConnectionMatrix, build
from omsr.suite import family_grid


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


def test_engine_closes_one_chain_per_call(monkeypatch) -> None:
    built = []

    class CountedChain(perms._Chain):
        def __init__(self, *args, **kwargs) -> None:
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(perms, "_Chain", CountedChain)
    monkeypatch.setattr(autgroup, "_Chain", CountedChain)
    for graph in (_directed_cycle(6), Digraph.from_arcs(5, []), _directed_cycle(1)):
        built.clear()
        aut = automorphism_group(graph)
        assert len(built) == 1
        assert aut._chain is built[0]


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
    rng = random.Random(22)
    for _ in range(60):
        graph = _random_digraph(rng, rng.randrange(2, 8), rng.uniform(0.15, 0.6))
        assert automorphism_group(graph).order() == brute_force_automorphisms(graph).order()


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
        order = brute_force_automorphisms(graph).order()
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
        aut = automorphism_group(graph)
        moved = automorphism_group(_relabel(graph, sigma))
        assert moved.order() == aut.order()
        assert all(aut.is_member(p) for p in _conjugated(moved.generators, sigma, inverse))
        assert all(moved.is_member(p) for p in _conjugated(aut.generators, inverse, sigma))


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
        brute_force_automorphisms(Digraph.from_arcs(11, []))


def test_brute_force_raises_when_the_arc_check_is_not_closed(monkeypatch) -> None:
    # two transpositions pass but generate all six permutations of 0..2
    passing = {(0, 1, 2), (1, 0, 2), (0, 2, 1)}
    monkeypatch.setattr(autgroup, "_preserves_arcs", lambda graph, p: p in passing)
    with pytest.raises(RuntimeError):
        brute_force_automorphisms(Digraph.from_arcs(3, []))


def test_brute_force_holds_no_list_of_automorphisms() -> None:
    # a list of the 8! automorphisms of arcless 8 would peak near 5 MB
    tracemalloc.start()
    try:
        order = brute_force_automorphisms(Digraph.from_arcs(8, [])).order()
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
        with pytest.raises(ValueError):
            automorphism_group(graph, colors=colors)
        with pytest.raises(ValueError):
            refine(graph, colors)


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
        expected = [{sigma[v] for v in cell} for cell in refine(graph, start)]
        assert [set(cell) for cell in refine(_relabel(graph, sigma), moved_start)] == expected


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
    # after two individualized vertices, the starts the engine refines below
    # the root (the unit partition stays one cell on these digraphs)
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
