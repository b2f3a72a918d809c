from __future__ import annotations

import random

import pytest

from omsr.digraphs import (
    Digraph,
    is_k_regular,
    is_oriented,
    is_weakly_connected,
    iterated_out_neighborhood,
)


def _directed_cycle(n: int) -> Digraph:
    return Digraph.from_arcs(n, [(v, (v + 1) % n) for v in range(n)])


def _random_digraph(rng: random.Random, nv: int, p: float) -> Digraph:
    arcs = [(u, v) for u in range(nv) for v in range(nv) if u != v and rng.random() < p]
    return Digraph.from_arcs(nv, arcs)


def test_from_arcs_roundtrip() -> None:
    graph = Digraph.from_arcs(4, [(0, 1), (1, 2), (2, 0), (0, 3)])
    assert graph.nv == 4
    assert graph.arc_count == 4
    assert graph.has_arc(0, 1)
    assert not graph.has_arc(1, 0)
    assert graph.arcs() == [(0, 1), (0, 3), (1, 2), (2, 0)]


def test_from_arcs_rejects_out_of_range() -> None:
    with pytest.raises(ValueError):
        Digraph.from_arcs(3, [(0, 3)])


def test_json_roundtrip_random() -> None:
    rng = random.Random(5)
    for _ in range(40):
        graph = _random_digraph(rng, rng.randrange(1, 9), rng.uniform(0.1, 0.6))
        assert graph.to_json() == {"nv": graph.nv, "arcs": [list(a) for a in graph.arcs()]}


def test_oriented_detects_digons_and_loops() -> None:
    assert is_oriented(_directed_cycle(5))
    digon = Digraph.from_arcs(3, [(0, 1), (1, 0)])
    assert not is_oriented(digon)
    loop = Digraph.from_arcs(2, [(0, 0)])
    assert not is_oriented(loop)


def test_k_regular() -> None:
    cycle = _directed_cycle(6)
    assert is_k_regular(cycle, 1)
    assert not is_k_regular(cycle, 2)
    # union of two arc-disjoint cycles on the same vertices is 2-regular
    doubled = Digraph.from_arcs(
        5, [(v, (v + 1) % 5) for v in range(5)] + [(v, (v + 2) % 5) for v in range(5)]
    )
    assert is_k_regular(doubled, 2)
    empty = Digraph.from_arcs(3, [])
    assert is_k_regular(empty, 0)


def test_connectivity() -> None:
    cycle = _directed_cycle(4)
    assert is_weakly_connected(cycle)
    path = Digraph.from_arcs(3, [(0, 1), (1, 2)])
    assert is_weakly_connected(path)
    split = Digraph.from_arcs(4, [(0, 1), (2, 3)])
    assert not is_weakly_connected(split)
    single = Digraph.from_arcs(1, [])
    assert is_weakly_connected(single)


def test_iterated_out_neighborhood() -> None:
    cycle = _directed_cycle(6)
    assert iterated_out_neighborhood(cycle, 0, 1) == frozenset({1})
    assert iterated_out_neighborhood(cycle, 0, 2) == frozenset({2})
    star = Digraph.from_arcs(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert iterated_out_neighborhood(star, 0, 1) == frozenset({1, 2})
    assert iterated_out_neighborhood(star, 0, 2) == frozenset({3})


def test_out_in_degrees_consistent_random() -> None:
    rng = random.Random(6)
    for _ in range(30):
        graph = _random_digraph(rng, rng.randrange(2, 9), 0.4)
        outs = [len(graph.out_adj[v]) for v in range(graph.nv)]
        ins = [0] * graph.nv
        for _u, v in graph.arcs():
            ins[v] += 1
        assert sum(outs) == graph.arc_count == sum(ins)


def test_to_dot_contains_labels_and_arcs() -> None:
    graph = Digraph.from_arcs(2, [(0, 1)])
    dot = graph.to_dot(labels=["a", 'b"q'], name="demo")
    assert "digraph demo {" in dot
    assert '0 [label="a"];' in dot
    assert "\\\"q" in dot
    assert "0 -> 1;" in dot
