from __future__ import annotations

import json
import random
import tracemalloc

import pytest

from omsr.groups import (
    MAX_GROUP_ORDER,
    FiniteGroup,
    GeneratorSpec,
    direct_product,
    element_order,
    from_permutation_generators,
    generated_subgroup,
    group_from_json,
    klein_four,
    load_group_file,
    make_cyclic,
    standard_two_generated,
)

CATALOG_ORDERS = {"S3": 6, "D4": 8, "D5": 10, "Q8": 8, "A4": 12, "Z2xZ4": 8}


def _all_groups() -> list[FiniteGroup]:
    groups = [make_cyclic(n)[0] for n in range(1, 9)]
    groups.append(klein_four()[0])
    groups.extend(standard_two_generated(name)[0] for name in CATALOG_ORDERS)
    return groups


def test_cyclic_tables() -> None:
    group, spec = make_cyclic(6)
    assert group.n == 6
    assert spec.x == 1
    for a in range(6):
        for b in range(6):
            assert group.mult[a][b] == (a + b) % 6
        assert group.mult[a][group.inv[a]] == 0


def test_group_axioms_hold_on_sampled_triples() -> None:
    rng = random.Random(9)
    for group in _all_groups():
        n = group.n
        for _ in range(60):
            a, b, c = (rng.randrange(n) for _ in range(3))
            assert group.mult[group.mult[a][b]][c] == group.mult[a][group.mult[b][c]]
        for a in range(n):
            assert group.mult[0][a] == a == group.mult[a][0]
            assert group.mult[group.inv[a]][a] == 0


def test_element_order_divides_group_order() -> None:
    for group in _all_groups():
        for g in range(group.n):
            order = element_order(group, g)
            assert group.n % order == 0
        assert element_order(group, 0) == 1


def test_element_order_rejects_out_of_range() -> None:
    group, _ = make_cyclic(3)
    with pytest.raises(ValueError):
        element_order(group, 3)


def test_generated_subgroup_cyclic() -> None:
    group, spec = make_cyclic(12)
    assert generated_subgroup(group, (spec.x,)) == frozenset(range(12))
    assert generated_subgroup(group, (4,)) == frozenset({0, 4, 8})
    assert generated_subgroup(group, ()) == frozenset({0})


def test_generated_subgroup_is_closed() -> None:
    rng = random.Random(10)
    for group in _all_groups():
        seed = [rng.randrange(group.n) for _ in range(2)]
        sub = generated_subgroup(group, seed)
        assert 0 in sub
        for a in sub:
            assert group.inv[a] in sub
            for b in sub:
                assert group.mult[a][b] in sub


def test_direct_product_componentwise() -> None:
    g, _ = make_cyclic(2)
    h, _ = make_cyclic(3)
    prod = direct_product(g, h)
    assert prod.n == 6
    # element index is i * |h| + j for (i, j)
    for i1 in range(2):
        for j1 in range(3):
            for i2 in range(2):
                for j2 in range(3):
                    a = i1 * 3 + j1
                    b = i2 * 3 + j2
                    expected = ((i1 + i2) % 2) * 3 + (j1 + j2) % 3
                    assert prod.mult[a][b] == expected


def test_klein_four_shape() -> None:
    group, spec = klein_four()
    assert group.n == 4
    assert all(element_order(group, g) == 2 for g in range(1, 4))
    assert spec.y is not None
    assert generated_subgroup(group, (spec.x, spec.y)) == frozenset(range(4))


def test_from_permutation_generators_s3() -> None:
    group, spec = from_permutation_generators(3, [[1, 2, 0], [1, 0, 2]])
    assert group.n == 6
    assert element_order(group, spec.x) == 3
    assert spec.y is not None and element_order(group, spec.y) == 2
    assert generated_subgroup(group, (spec.x, spec.y)) == frozenset(range(6))


def test_from_permutation_generators_rejects_non_permutation() -> None:
    with pytest.raises(ValueError):
        from_permutation_generators(3, [[0, 0, 1]])


def test_from_permutation_generators_table_is_the_composition_table() -> None:
    # the elements in the documented order: breadth-first over left
    # multiplication by the generators, the identity first; p*q applies p first
    gens = [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)]
    group, spec = from_permutation_generators(5, gens)
    elems = [tuple(range(5))]
    for e in elems:
        for g in gens:
            w = tuple(e[v] for v in g)
            if w not in elems:
                elems.append(w)
    index = {e: a for a, e in enumerate(elems)}
    assert group.n == len(elems) == 120
    assert (spec.x, spec.y) == (index[gens[0]], index[gens[1]])
    for a, p in enumerate(elems):
        assert group.mult[a] == tuple(index[tuple(q[v] for v in p)] for q in elems)


def test_group_order_limit_is_checked_before_any_table() -> None:
    # Z_1001's table alone would take about 80 MB; every kind of group
    # refuses an order past the limit before it builds one
    z40 = make_cyclic(40)[0]
    s7 = [[1, 2, 3, 4, 5, 6, 0], [1, 0, 2, 3, 4, 5, 6]]
    for build in (
        lambda: make_cyclic(MAX_GROUP_ORDER + 1),
        lambda: direct_product(z40, z40),
        lambda: from_permutation_generators(7, s7),
        lambda: group_from_json({"kind": "product", "factors": [2, 40, 40]}),
    ):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="exceeds the limit"):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
    assert make_cyclic(MAX_GROUP_ORDER)[0].n == MAX_GROUP_ORDER


def test_standard_catalog_orders_and_generators() -> None:
    for name, order in CATALOG_ORDERS.items():
        group, spec = standard_two_generated(name)
        assert group.n == order
        assert spec.y is not None
        assert element_order(group, spec.x) >= 3
        assert generated_subgroup(group, (spec.x, spec.y)) == frozenset(range(order))
        # x alone must not generate, otherwise a cyclic family would apply
        assert len(generated_subgroup(group, (spec.x,))) < order


def test_standard_catalog_unknown_name() -> None:
    with pytest.raises(ValueError):
        standard_two_generated("F20")


def test_group_from_json_cyclic_and_product() -> None:
    group, spec = group_from_json({"kind": "cyclic", "n": 7})
    assert group.n == 7 and spec.x == 1

    group, spec = group_from_json({"kind": "product", "factors": [2, 2]})
    assert group.n == 4
    assert spec.x == 2 and spec.y == 1
    assert all(element_order(group, g) == 2 for g in range(1, 4))

    group, _ = group_from_json({"kind": "product", "factors": [2, 3, 2]})
    assert group.n == 12


def test_group_from_json_perm_kind() -> None:
    group, _ = group_from_json(
        {"kind": "perm", "degree": 3, "generators": [[1, 2, 0], [1, 0, 2]]}
    )
    assert group.n == 6


def test_group_from_json_rejects_bad_input() -> None:
    with pytest.raises(ValueError):
        group_from_json({"kind": "product", "factors": [4]})
    with pytest.raises(ValueError):
        group_from_json({"kind": "simple"})


def test_load_group_file(tmp_path) -> None:
    path = tmp_path / "perm8.json"
    path.write_text(
        json.dumps(
            {
                "kind": "perm",
                "degree": 8,
                "generators": [
                    [1, 2, 3, 0, 5, 6, 7, 4],
                    [4, 7, 6, 5, 2, 1, 0, 3],
                ],
            }
        ),
        encoding="utf-8",
    )
    group, spec = load_group_file(path)
    assert group.n == 8
    assert element_order(group, spec.x) == 4
    # a key given twice is refused, not read as its last value
    path.write_text('{"kind": "cyclic", "n": 3, "n": 5}', encoding="utf-8")
    with pytest.raises(ValueError, match="'n' twice"):
        load_group_file(path)


def test_finite_group_validation_rejects_broken_tables() -> None:
    with pytest.raises(ValueError):
        FiniteGroup("bad", ((0, 1), (1, 1)), (0, 1), ("1", "x"))
    with pytest.raises(ValueError):
        FiniteGroup("bad", ((0, 1), (1, 0)), (0, 0), ("1", "x"))


def test_generator_spec_defaults() -> None:
    spec = GeneratorSpec(x=3)
    assert spec.y is None
