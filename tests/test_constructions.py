from __future__ import annotations

import itertools

import pytest

from omsr.autgroup import automorphism_group
from omsr.constructions import (
    FAMILIES,
    Z2_TABLE_REPAIRS,
    Z2_UNREPAIRED_CLAIMS,
    ExceptionVerdict,
    FamilyError,
    applicable_family,
    apply_repairs,
    claims_to_matrix,
    construct_omsr,
    cyclic_general_claims,
    family_matrix,
    normalized_pair,
    two_generated_claims,
    validate_claims,
    z2_table_claims,
)
from omsr.digraphs import (
    is_k_regular,
    is_oriented,
    is_weakly_connected,
    iterated_out_neighborhood,
)
from omsr.groups import (
    GeneratorSpec,
    element_order,
    generated_subgroup,
    group_from_json,
    klein_four,
    make_cyclic,
    standard_two_generated,
)
from omsr.mcayley import build, vertex_of
from omsr.suite import family_grid

Z2, Z2_SPEC = make_cyclic(2)


def _aut_order(group, conn) -> int:
    return automorphism_group(build(group, conn)).order()


def _out_neighbors(group, gamma, g: int, i: int) -> set[int]:
    return set(gamma.out_adj[vertex_of(group, g, i)])


# ---------------------------------------------------------------------------
# Claims model.
# ---------------------------------------------------------------------------

def test_claims_to_matrix_rejects_contradictions() -> None:
    with pytest.raises(ValueError):
        claims_to_matrix(2, ((0, 1, (0,)), (0, 1, (1,))))


def test_validate_claims_stages() -> None:
    # out-of-range cell reported before anything else
    bad_cell = ((0, 5, (0,)),)
    msgs = validate_claims(Z2, 2, bad_cell)
    assert any("cell" in msg for msg in msgs)

    # contradictory cell stops sum checking from being trusted
    dup = ((0, 1, (0,)), (0, 1, (1,)))
    msgs = validate_claims(Z2, 2, dup)
    assert any("cell (0,1)" in msg for msg in msgs)

    # bad sums on an unambiguous matrix
    msgs = validate_claims(Z2, 2, ((0, 1, (0, 1)),))
    assert any("row" in msg for msg in msgs)
    assert any("column" in msg for msg in msgs)


def test_validate_claims_reports_oriented_and_connectivity() -> None:
    group, _ = make_cyclic(6)
    # 3-regular both ways, but T(0,0) contains a mutually inverse pair
    msgs = validate_claims(group, 1, ((0, 0, (1, 2, 5)),))
    assert any("oriented" in msg for msg in msgs)

    group7, _ = make_cyclic(7)
    msgs = validate_claims(group7, 1, ((0, 0, (1, 2, 3)),))
    assert msgs == []  # oriented, 3-regular, connected

    # 3-regular and oriented, but the two blocks never connect
    two_loops = ((0, 0, (1, 2, 3)), (1, 1, (1, 2, 3)))
    msgs = validate_claims(group7, 2, two_loops)
    assert any("connected" in msg for msg in msgs)


# ---------------------------------------------------------------------------
# Order-two tables and their repairs.
# ---------------------------------------------------------------------------

def _clearing_single_moves(group, m: int, claims) -> list[tuple[int, tuple[int, int]]]:
    fixes = []
    for idx, (ci, cj, elements) in enumerate(claims):
        for i in range(m):
            for j in range(m):
                if (i, j) == (ci, cj):
                    continue
                cand = list(claims)
                cand[idx] = (i, j, elements)
                if not validate_claims(group, m, tuple(cand)):
                    fixes.append((idx, (i, j)))
    return fixes


def test_unrepaired_tables_report_violations() -> None:
    for m in (5, 6, 9):
        assert validate_claims(Z2, m, Z2_UNREPAIRED_CLAIMS[m]) != []
    for m in (7, 8, 10):
        assert validate_claims(Z2, m, Z2_UNREPAIRED_CLAIMS[m]) == []


def test_m6_repair_forced_to_the_vacant_cell() -> None:
    claims = Z2_UNREPAIRED_CLAIMS[6]
    # the two claims naming cell (1,0) are indices 0 and 10; moving either
    # one to (0,1) is the only single move that clears every violation
    assert claims[0] == (1, 0, (0,))
    assert claims[10] == (1, 0, (1,))
    assert _clearing_single_moves(Z2, 6, claims) == [(0, (0, 1)), (10, (0, 1))]
    for idx in (0, 10):
        fixed = apply_repairs(claims, ((idx, (0, 1)),))
        assert _aut_order(Z2, claims_to_matrix(6, fixed)) == 2
    assert Z2_TABLE_REPAIRS[6] == ((0, (0, 1)),)


def test_m9_repair_unique_up_to_column_pattern() -> None:
    claims = Z2_UNREPAIRED_CLAIMS[9]
    fixes = _clearing_single_moves(Z2, 9, claims)
    assert fixes == [(0, (0, 4)), (2, (2, 4)), (13, (8, 4))]
    for idx, cell in fixes:
        fixed = apply_repairs(claims, ((idx, cell),))
        assert _aut_order(Z2, claims_to_matrix(9, fixed)) == 2
    # the adopted move rewrites the last row, matching the (m-1, 4) cell
    # the neighboring tables share
    assert Z2_TABLE_REPAIRS[9] == ((13, (8, 4)),)
    assert claims[13] == (8, 1, (0,))


def test_m5_needs_two_moves() -> None:
    claims = Z2_UNREPAIRED_CLAIMS[5]
    assert _clearing_single_moves(Z2, 5, claims) == []

    cells = [(i, j) for i in range(5) for j in range(5)]
    clearing = []
    for a, b in itertools.combinations(range(len(claims)), 2):
        for ca in cells:
            if ca == claims[a][:2]:
                continue
            for cb in cells:
                if cb == claims[b][:2]:
                    continue
                cand = apply_repairs(claims, ((a, ca), (b, cb)))
                if not validate_claims(Z2, 5, cand):
                    aut = _aut_order(Z2, claims_to_matrix(5, cand))
                    clearing.append(((a, ca), (b, cb), aut))
    assert clearing == [
        ((5, (0, 4)), (12, (3, 0)), 2),
        ((8, (4, 0)), (10, (0, 2)), 2),
        ((8, (0, 4)), (12, (4, 0)), 72),
        ((8, (4, 0)), (12, (0, 4)), 2),
    ]
    # adopted: the only pair that keeps every column-1 and row-1 claim the
    # other tables share while restoring |Aut| = 2
    assert Z2_TABLE_REPAIRS[5] == ((8, (4, 0)), (12, (0, 4)))


def test_z2_tables_all_reach_aut_two() -> None:
    for m in range(5, 11):
        assert validate_claims(Z2, m, z2_table_claims(Z2, Z2_SPEC, m)) == []
        conn = family_matrix("z2-table", Z2, Z2_SPEC, m)
        assert _aut_order(Z2, conn) == 2


def test_z2_table_claims_range() -> None:
    with pytest.raises(FamilyError):
        z2_table_claims(Z2, Z2_SPEC, 11)
    with pytest.raises(FamilyError):
        z2_table_claims(Z2, Z2_SPEC, 4)


def test_z2_general_structure_and_aut() -> None:
    conn = family_matrix("z2-general", Z2, Z2_SPEC, 11)
    graph = build(Z2, conn)
    assert is_oriented(graph) and is_k_regular(graph, 3) and is_weakly_connected(graph)
    # out-neighbors of 1_0: the one-cell at (0,1) and the {1,x}-cell at (0,9)
    assert _out_neighbors(Z2, graph, 0, 0) == {
        vertex_of(Z2, 0, 1),
        vertex_of(Z2, 0, 9),
        vertex_of(Z2, 1, 9),
    }
    assert _aut_order(Z2, conn) == 2
    with pytest.raises(FamilyError):
        family_matrix("z2-general", Z2, Z2_SPEC, 10)


# ---------------------------------------------------------------------------
# Cyclic families.
# ---------------------------------------------------------------------------

def test_cyclic_m2_neighborhoods() -> None:
    group, spec = make_cyclic(7)
    conn = family_matrix("cyclic-m2", group, spec, 2)
    gamma = build(group, conn)
    x, n = 1, 7

    def v(power: int, block: int) -> int:
        return vertex_of(group, power % n, block)

    assert _out_neighbors(group, gamma, 0, 0) == {v(1, 0), v(2, 0), v(0, 1)}
    assert _out_neighbors(group, gamma, 0, 1) == {v(-1, 1), v(-2, 1), v(1, 0)}
    assert iterated_out_neighborhood(gamma, vertex_of(group, 0, 0), 2) == frozenset(
        {v(1, 0), v(2, 0), v(3, 0), v(4, 0), v(1, 1), v(-1, 1), v(2, 1), v(-2, 1)}
    )
    assert iterated_out_neighborhood(gamma, vertex_of(group, 0, 1), 2) == frozenset(
        {v(0, 0), v(-1, 0), v(2, 0), v(3, 0), v(1, 1), v(-2, 1), v(-3, 1), v(-4, 1)}
    )
    assert _aut_order(group, conn) == 7


def test_cyclic_m2_preconditions() -> None:
    for n in (3, 4):
        with pytest.raises(FamilyError):
            family_matrix("cyclic-m2", *make_cyclic(n), 2)
    with pytest.raises(FamilyError):
        family_matrix("cyclic-m2", *klein_four(), 2)


def test_cyclic_general_neighborhoods() -> None:
    group, spec = make_cyclic(5)
    m = 4
    conn = family_matrix("cyclic-general", group, spec, m)
    gamma = build(group, conn)

    def v(power: int, block: int) -> int:
        return vertex_of(group, power % 5, block)

    assert _out_neighbors(group, gamma, 0, 0) == {v(1, 0), v(0, 1), v(-1, 1)}
    for i in range(1, m - 1):
        assert _out_neighbors(group, gamma, 0, i) == {v(-1, i), v(0, i + 1), v(-1, i + 1)}
    assert _out_neighbors(group, gamma, 0, m - 1) == {v(-1, m - 1), v(1, 0), v(-1, 0)}
    assert _aut_order(group, conn) == 5


def test_cyclic_general_unrepaired_column_fails() -> None:
    group, spec = make_cyclic(5)
    literal = cyclic_general_claims(group, spec, 3, repaired=False)
    msgs = validate_claims(group, 3, literal)
    assert any("column" in msg for msg in msgs)
    assert _clearing_single_moves(group, 3, literal) == [(5, (2, 0))]


def test_cyclic_general_preconditions() -> None:
    group, spec = make_cyclic(6)
    with pytest.raises(FamilyError):
        family_matrix("cyclic-general", group, spec, 2)
    with pytest.raises(FamilyError):
        family_matrix("cyclic-general", *make_cyclic(2), 4)
    with pytest.raises(FamilyError):
        family_matrix("cyclic-general", *klein_four(), 4)


# ---------------------------------------------------------------------------
# Klein four-group families.
# ---------------------------------------------------------------------------

def test_klein_m3_neighborhoods() -> None:
    group, spec = klein_four()
    one, y, x, xy = 0, 1, 2, 3
    conn = family_matrix("klein-m3", group, spec, 3)
    gamma = build(group, conn)
    assert _out_neighbors(group, gamma, one, 0) == {
        vertex_of(group, one, 1),
        vertex_of(group, x, 2),
        vertex_of(group, xy, 2),
    }
    assert _out_neighbors(group, gamma, one, 1) == {
        vertex_of(group, one, 2),
        vertex_of(group, x, 0),
        vertex_of(group, y, 0),
    }
    assert _out_neighbors(group, gamma, one, 2) == {
        vertex_of(group, y, 0),
        vertex_of(group, x, 1),
        vertex_of(group, y, 1),
    }
    start = vertex_of(group, one, 0)
    two_step = iterated_out_neighborhood(gamma, start, 2)
    # beyond the direct out-neighborhood, two steps reach exactly seven
    # vertices: everything except the start and its mates in block 2
    assert two_step - frozenset(gamma.out_adj[start]) == frozenset(
        {
            vertex_of(group, one, 2),
            vertex_of(group, x, 0),
            vertex_of(group, y, 0),
            vertex_of(group, xy, 0),
            vertex_of(group, xy, 1),
            vertex_of(group, y, 1),
            vertex_of(group, x, 1),
        }
    )
    assert _aut_order(group, conn) == 4


def test_klein_m4_is_omsr() -> None:
    group, spec = klein_four()
    conn = family_matrix("klein-m4", group, spec, 4)
    graph = build(group, conn)
    assert is_oriented(graph) and is_k_regular(graph, 3) and is_weakly_connected(graph)
    assert _aut_order(group, conn) == 4


def test_klein_general_neighborhoods() -> None:
    group, spec = klein_four()
    one, y, x = 0, 1, 2
    m = 6
    conn = family_matrix("klein-general", group, spec, m)
    gamma = build(group, conn)
    assert _out_neighbors(group, gamma, one, 0) == {
        vertex_of(group, y, 1),
        vertex_of(group, one, m - 2),
        vertex_of(group, x, m - 2),
    }
    assert _aut_order(group, conn) == 4
    with pytest.raises(FamilyError):
        family_matrix("klein-general", group, spec, 4)


# ---------------------------------------------------------------------------
# Two-generated family.
# ---------------------------------------------------------------------------

def test_two_generated_neighborhoods() -> None:
    group, spec = standard_two_generated("S3")
    m = 3
    conn = family_matrix("two-gen", group, spec, m)
    gamma = build(group, conn)
    x, y = spec.x, spec.y
    for i in range(m - 1):
        assert _out_neighbors(group, gamma, 0, i) == {
            vertex_of(group, x, i),
            vertex_of(group, 0, i + 1),
            vertex_of(group, x, i + 1),
        }
    assert _out_neighbors(group, gamma, 0, m - 1) == {
        vertex_of(group, x, m - 1),
        vertex_of(group, x, 0),
        vertex_of(group, y, 0),
    }
    assert _aut_order(group, conn) == 6


def test_two_generated_unrepaired_column_fails() -> None:
    group, spec = standard_two_generated("S3")
    literal = two_generated_claims(group, spec, 3, repaired=False)
    assert validate_claims(group, 3, literal) != []
    assert _clearing_single_moves(group, 3, literal) == [(5, (2, 0))]
    # at m = 2 the unrepaired cell collides with the diagonal claim
    literal = two_generated_claims(group, spec, 2, repaired=False)
    msgs = validate_claims(group, 2, literal)
    assert any("cell (1,1)" in msg for msg in msgs)


def test_two_generated_preconditions() -> None:
    s3, spec = standard_two_generated("S3")
    with pytest.raises(FamilyError):
        family_matrix("two-gen", s3, GeneratorSpec(x=spec.x, y=None), 3)
    z6, _ = make_cyclic(6)
    with pytest.raises(FamilyError):
        family_matrix("two-gen", z6, GeneratorSpec(x=1, y=2), 3)  # x alone generates
    with pytest.raises(FamilyError):
        family_matrix("two-gen", s3, spec, 1)


def test_normalized_pair() -> None:
    s3, spec = standard_two_generated("S3")
    assert normalized_pair(s3, spec) == spec

    # swap when only y has order >= 3
    swapped = normalized_pair(s3, GeneratorSpec(x=spec.y, y=spec.x))
    assert element_order(s3, swapped.x) >= 3

    # two involutions in S3: x*y has order 3
    refl1 = spec.y
    refl2 = s3.mult[spec.x][spec.y]
    assert element_order(s3, refl1) == 2 and element_order(s3, refl2) == 2
    fixed = normalized_pair(s3, GeneratorSpec(x=refl1, y=refl2))
    assert element_order(s3, fixed.x) >= 3

    kl, klspec = klein_four()
    with pytest.raises(FamilyError):
        normalized_pair(kl, klspec)


def test_two_generated_from_involution_pair() -> None:
    s3, spec = standard_two_generated("S3")
    refl1 = spec.y
    refl2 = s3.mult[spec.x][spec.y]
    fixed = normalized_pair(s3, GeneratorSpec(x=refl1, y=refl2))
    conn = family_matrix("two-gen", s3, fixed, 4)
    assert _aut_order(s3, conn) == 6


# ---------------------------------------------------------------------------
# Dispatcher.
# ---------------------------------------------------------------------------

def test_applicable_family_routing() -> None:
    z2spec = GeneratorSpec(x=1)
    assert applicable_family(Z2, z2spec, 5) == "z2-table"
    assert applicable_family(Z2, z2spec, 10) == "z2-table"
    assert applicable_family(Z2, z2spec, 11) == "z2-general"

    kl, klspec = klein_four()
    assert applicable_family(kl, klspec, 3) == "klein-m3"
    assert applicable_family(kl, klspec, 4) == "klein-m4"
    assert applicable_family(kl, klspec, 7) == "klein-general"

    z7, z7spec = make_cyclic(7)
    assert applicable_family(z7, z7spec, 2) == "cyclic-m2"
    assert applicable_family(z7, z7spec, 3) == "cyclic-general"

    s3, s3spec = standard_two_generated("S3")
    assert applicable_family(s3, s3spec, 2) == "two-gen"


def test_applicable_family_exceptions() -> None:
    z1, _ = make_cyclic(1)
    verdict = applicable_family(z1, GeneratorSpec(x=0), 3)
    assert isinstance(verdict, ExceptionVerdict)
    assert verdict.status == "open"
    assert verdict.clause == "trivial-group-needs-rigid-digraph"

    z2spec = GeneratorSpec(x=1)
    for m in (2, 3, 4):
        verdict = applicable_family(Z2, z2spec, m)
        assert isinstance(verdict, ExceptionVerdict)
        assert verdict.status == "impossible"
        assert verdict.clause == "order-two-group-with-at-most-four-blocks"

    kl, klspec = klein_four()
    verdict = applicable_family(kl, klspec, 2)
    assert isinstance(verdict, ExceptionVerdict)
    assert verdict.clause == "klein-group-with-two-blocks"

    for n in (3, 4):
        group, spec = make_cyclic(n)
        verdict = applicable_family(group, spec, 2)
        assert isinstance(verdict, ExceptionVerdict)
        assert verdict.clause == "cyclic-group-of-order-three-or-four-with-two-blocks"


def test_applicable_family_input_errors() -> None:
    z7, z7spec = make_cyclic(7)
    with pytest.raises(ValueError):
        applicable_family(z7, z7spec, 1)
    s3, _ = standard_two_generated("S3")
    with pytest.raises(ValueError):
        applicable_family(s3, GeneratorSpec(x=0), 3)


def _verdict_grid() -> list:
    """Every catalog group with its designated pair, and every one- and
    two-element spec of ten small groups, generating or not."""
    cases = [make_cyclic(n) for n in range(1, 17)] + [klein_four()]
    cases += [standard_two_generated(name) for name in ("S3", "D4", "D5", "Q8", "Z2xZ4", "A4")]
    cases += [
        group_from_json({"kind": "product", "factors": factors})
        for factors in ([2, 3], [3, 2], [2, 2], [2, 4], [4, 2], [2, 6], [3, 3], [4, 4],
                        [2, 5], [3, 4], [1, 2], [2, 1], [1, 3])
    ]
    groups = [make_cyclic(n)[0] for n in (3, 4, 6, 8)] + [klein_four()[0]]
    groups += [standard_two_generated(name)[0] for name in ("S3", "D4", "Q8", "A4", "Z2xZ4")]
    for group in groups:
        for x in range(group.n):
            cases.append((group, GeneratorSpec(x)))
            cases.extend((group, GeneratorSpec(x, y)) for y in range(group.n))
    return cases


def test_applicable_family_verdict_grid() -> None:
    # the verdicts are the classification's, written out here rather than
    # asked of the families: a family name, or the exception's status
    for group, spec in _verdict_grid():
        n = group.n
        gens = [spec.x] if spec.y is None else [spec.x, spec.y]
        generates = len(generated_subgroup(group, gens)) == n
        cyclic = any(element_order(group, g) == n for g in range(n))
        for m in range(1, 15):
            if m == 1 or not generates:
                with pytest.raises(ValueError, match="at least 2" if m == 1 else "does not generate"):
                    applicable_family(group, spec, m)
                continue
            if n == 1:
                expected = "open"
            elif n == 2:
                expected = "impossible" if m <= 4 else "z2-table" if m <= 10 else "z2-general"
            elif n == 4 and not cyclic:
                expected = {2: "impossible", 3: "klein-m3", 4: "klein-m4"}.get(m, "klein-general")
            elif cyclic and m == 2:
                expected = "impossible" if n <= 4 else "cyclic-m2"
            elif cyclic:
                expected = "cyclic-general"
            else:
                expected = "two-gen"
            verdict = applicable_family(group, spec, m)
            if isinstance(verdict, ExceptionVerdict):
                assert (verdict.group_name, verdict.m) == (group.name, m)
                verdict = verdict.status
            assert verdict == expected, (group.name, spec, m)
    # Z6 with (x^2, x^3) at m = 2 lies in the domains of cyclic-m2 and
    # two-gen, so this pins cyclic before two-gen in FAMILIES
    z6, _ = make_cyclic(6)
    pair = GeneratorSpec(x=2, y=3)
    assert two_generated_claims(z6, pair, 2)
    assert applicable_family(z6, pair, 2) == "cyclic-m2"


def test_construct_omsr_returns_matrices_or_verdicts() -> None:
    z7, z7spec = make_cyclic(7)
    conn = construct_omsr(z7, z7spec, 2)
    assert _aut_order(z7, conn) == 7

    z3, z3spec = make_cyclic(3)
    verdict = construct_omsr(z3, z3spec, 2)
    assert isinstance(verdict, ExceptionVerdict)


def test_every_family_emitter_validates_preconditions() -> None:
    z7, z7spec = make_cyclic(7)
    with pytest.raises(FamilyError):
        FAMILIES["z2-table"](z7, z7spec, 5)
    with pytest.raises(FamilyError):
        FAMILIES["klein-m3"](z7, z7spec, 3)
    with pytest.raises(FamilyError):
        FAMILIES["two-gen"](z7, z7spec, 3)


def test_every_grid_instance_has_clean_claims() -> None:
    used = set()
    for group, spec, m in family_grid():
        name = applicable_family(group, spec, m)
        used.add(name)
        assert validate_claims(group, m, FAMILIES[name](group, spec, m)) == [], (
            f"{name} {group.name} m={m}"
        )
    assert used == set(FAMILIES)
