from __future__ import annotations

import random
import tracemalloc

import pytest

from omsr.digraphs import is_k_regular, is_oriented
from omsr.groups import klein_four, make_cyclic, standard_two_generated
from omsr.mcayley import (
    MAX_BLOCKS,
    ConnectionMatrix,
    build,
    connection_is_oriented,
    oriented_breaks,
    regular_action_group,
    right_translation,
    valency_profile,
)


def test_connection_matrix_from_entries() -> None:
    conn = ConnectionMatrix.from_entries(2, {(0, 1): {0, 2}, (1, 0): {1}})
    assert conn.m == 2
    assert conn.entry(0, 1) == frozenset({0, 2})
    assert conn.entry(1, 1) == frozenset()
    assert conn.max_element() == 2


def test_connection_matrix_json_roundtrip() -> None:
    conn = ConnectionMatrix.from_entries(3, {(0, 0): {1}, (2, 1): {0, 3}})
    again = ConnectionMatrix.from_json(conn.to_json())
    assert again == conn


@pytest.mark.parametrize("key", ["２,0", "²,0", "0,٢"], ids=["fullwidth", "superscript", "arabic-indic"])
def test_connection_matrix_keys_are_ascii_decimals(key) -> None:
    # str.isdigit accepts all three; int() reads the first and last as 2 and
    # fails on the superscript
    with pytest.raises(ValueError, match='is not of the form "i,j"'):
        ConnectionMatrix.from_json({"m": 3, "sets": {key: [0]}})


def test_connection_matrix_save(tmp_path) -> None:
    import json

    conn = ConnectionMatrix.from_entries(2, {(1, 0): {1}})
    path = tmp_path / "conn.json"
    path.write_text(json.dumps(conn.to_json()))
    with open(path, "r", encoding="utf-8") as fh:
        assert ConnectionMatrix.from_json(json.load(fh)) == conn


def test_build_arc_semantics_by_hand() -> None:
    # Z3, m = 2, T(0,1) = {x}: arcs g_0 -> (x * g)_1 only
    group, _ = make_cyclic(3)
    conn = ConnectionMatrix.from_entries(2, {(0, 1): {1}})
    gamma = build(group, conn)
    expected = {(g, 3 + (1 + g) % 3) for g in range(3)}
    assert set(gamma.graph.arcs()) == expected


def test_build_rejects_elements_outside_group() -> None:
    group, _ = make_cyclic(2)
    conn = ConnectionMatrix.from_entries(2, {(0, 1): {5}})
    with pytest.raises(ValueError):
        build(group, conn)


def test_vertex_label_maps_invert_each_other() -> None:
    group, _ = make_cyclic(4)
    conn = ConnectionMatrix.from_entries(3, {})
    gamma = build(group, conn)
    for v in range(gamma.graph.nv):
        g, i = v % group.n, v // group.n
        assert gamma.vertex_of(g, i) == v


def test_connection_is_oriented_all_pairs() -> None:
    group, _ = make_cyclic(5)
    # diagonal digon: x in T(0,0) together with x^-1
    conn = ConnectionMatrix.from_entries(1, {(0, 0): {1, 4}})
    assert not connection_is_oriented(group, conn)
    # cross-block digon: 1 in T(0,1) and 1 in T(1,0)
    conn = ConnectionMatrix.from_entries(2, {(0, 1): {0}, (1, 0): {0}})
    assert not connection_is_oriented(group, conn)
    # identity on the diagonal is a loop
    conn = ConnectionMatrix.from_entries(1, {(0, 0): {0}})
    assert not connection_is_oriented(group, conn)
    conn = ConnectionMatrix.from_entries(2, {(0, 0): {1}, (0, 1): {0}, (1, 1): {4}})
    assert connection_is_oriented(group, conn)
    assert oriented_breaks(group, conn) == []
    # every breaking pair, both orders of a cross-block pair, in row order
    conn = ConnectionMatrix.from_entries(
        3, {(0, 2): {1}, (2, 0): {4}, (1, 1): {2, 3}, (1, 0): {0}, (2, 2): {1}}
    )
    assert oriented_breaks(group, conn) == [(0, 2), (1, 1), (2, 0)]


def test_block_count_limit_is_checked_before_any_matrix() -> None:
    # an empty matrix one past the limit would take over 270 MB; both ways in
    # refuse it before they allocate a cell
    for make in (
        lambda: ConnectionMatrix.from_entries(MAX_BLOCKS + 1, {}),
        lambda: ConnectionMatrix.from_json({"m": MAX_BLOCKS + 1, "sets": {}}),
    ):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="exceeds the limit"):
                make()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
    # z2-general is quoted at m = 2560
    assert MAX_BLOCKS >= 2560


def test_connection_oriented_matches_graph_oriented_random() -> None:
    rng = random.Random(12)
    groups = [make_cyclic(n)[0] for n in (2, 3, 4, 5)] + [klein_four()[0]]
    for _ in range(120):
        group = rng.choice(groups)
        m = rng.randrange(1, 4)
        entries = {
            (i, j): {g for g in range(group.n) if rng.random() < 0.3}
            for i in range(m)
            for j in range(m)
        }
        conn = ConnectionMatrix.from_entries(m, entries)
        gamma = build(group, conn)
        assert connection_is_oriented(group, conn) == is_oriented(gamma.graph)


def test_valency_profile_matches_degrees() -> None:
    group, _ = make_cyclic(3)
    conn = ConnectionMatrix.from_entries(
        2, {(0, 0): {1, 2}, (0, 1): {0}, (1, 0): {1}, (1, 1): {1, 2}}
    )
    outs, ins = valency_profile(group, conn)
    assert outs == (3, 3)
    assert ins == (3, 3)
    assert is_k_regular(build(group, conn).graph, 3)
    lopsided = ConnectionMatrix.from_entries(2, {(0, 1): {0, 1, 2}})
    outs, ins = valency_profile(group, lopsided)
    assert outs == (3, 0)
    assert ins == (0, 3)


def test_right_translation_is_automorphism_and_regular_on_blocks() -> None:
    group, spec = standard_two_generated("S3")
    conn = ConnectionMatrix.from_entries(
        2, {(0, 0): {spec.x}, (0, 1): {0}, (1, 0): {spec.y}, (1, 1): {spec.x}}
    )
    gamma = build(group, conn)
    n = group.n
    for g in range(n):
        perm = right_translation(gamma, g)
        # translation by g sends h_i to (h * g)_i
        for h in range(n):
            for i in range(2):
                assert perm[gamma.vertex_of(h, i)] == gamma.vertex_of(group.mult[h][g], i)
    # semiregular: the |G| translations are distinct and only the identity's
    # fixes a point (the action group's order is |G| by construction)
    translations = [right_translation(gamma, g) for g in range(n)]
    assert len(set(translations)) == n
    assert translations[0] == tuple(range(2 * n))
    assert all(p[v] != v for p in translations[1:] for v in range(2 * n))
    action = regular_action_group(gamma)
    assert action.order() == n
    assert {frozenset(o) for o in action.orbits()} == {
        frozenset(range(n)),
        frozenset(range(n, 2 * n)),
    }
