"""Connection-matrix families whose digraphs have automorphism group R(G).

Each family is one function ``(group, spec, m) -> claims`` that checks its
own domain (raising :class:`FamilyError` outside it) and returns a claim list
(cell, element set), so that misprint diagnostics and repair enumeration can
work on the raw assignments; see ``validate_claims``.  ``FAMILIES`` maps each
family name to its function, and ``family_matrix`` turns the claims into the
:class:`~omsr.mcayley.ConnectionMatrix` of a 3-regular oriented m-Cayley
digraph with |Aut| = |G| on the family's domain.

``applicable_family`` is the classification theorem: it returns the first
family in ``FAMILIES`` whose domain holds, and otherwise the theorem's
exception for the group's kind, one row of ``_EXCEPTIONS``.  No domain
boundary is written twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .digraphs import is_weakly_connected
from .groups import (
    IDENTITY,
    FiniteGroup,
    GeneratorSpec,
    element_order,
    generated_subgroup,
)
from .mcayley import ConnectionMatrix, build, oriented_breaks

# A claim asserts that one cell of the connection matrix equals one set of
# group elements.  Two claims on the same cell contradict each other.
Claim = tuple[int, int, tuple[int, ...]]


class FamilyError(ValueError):
    """Raised when a family is asked to emit outside its domain."""


@dataclass(frozen=True)
class ExceptionVerdict:
    """Outcome for (group, m) pairs where no construction is emitted.

    ``status`` is ``"impossible"`` when exhaustive search certifies that no
    3-regular oriented construction with |Aut| = |G| exists, and ``"open"``
    when existence is an unresolved question.
    """

    group_name: str
    m: int
    clause: str
    status: str
    detail: str


def claims_to_matrix(m: int, claims: tuple[Claim, ...]) -> ConnectionMatrix:
    cells: dict[tuple[int, int], tuple[int, ...]] = {}
    for i, j, elems in claims:
        if (i, j) in cells:
            raise ValueError(f"cell ({i},{j}) is assigned more than once")
        cells[(i, j)] = elems
    return ConnectionMatrix.from_entries(m, cells)


def validate_claims(group: FiniteGroup, m: int, claims: tuple[Claim, ...]) -> list[str]:
    """Report every defect that stops ``claims`` from being a valid table.

    Checks, in order: contradictory cell assignments, row and column sums
    different from 3 (each claim counts with its full set size, so
    claims contradicting each other still inflate the sums), violations of the
    oriented condition, and weak disconnectedness of the built digraph.  The
    last two checks run only once the earlier ones pass, since they need an
    unambiguous matrix.  An empty list means the table is clean.
    """
    violations: list[str] = []
    seen_cells: dict[tuple[int, int], tuple[int, ...]] = {}
    rows = [0] * m
    cols = [0] * m
    for i, j, elems in claims:
        if not (0 <= i < m and 0 <= j < m):
            violations.append(f"cell ({i},{j}) is outside the {m}x{m} matrix")
            continue
        if (i, j) in seen_cells:
            violations.append(f"cell ({i},{j}) is assigned more than once")
        else:
            seen_cells[(i, j)] = elems
        rows[i] += len(elems)
        cols[j] += len(elems)
    for i in range(m):
        if rows[i] != 3:
            violations.append(f"row {i} places {rows[i]} elements, expected 3")
        if cols[i] != 3:
            violations.append(f"column {i} receives {cols[i]} elements, expected 3")
    if violations:
        return violations
    conn = claims_to_matrix(m, claims)
    violations = [
        f"cells ({i},{j}) and ({j},{i}) break the oriented condition"
        for i, j in oriented_breaks(group, conn)
    ]
    if violations:
        return violations
    if not is_weakly_connected(build(group, conn).graph):
        violations.append("built digraph is not weakly connected")
    return violations


# ---------------------------------------------------------------------------
# Order-two group: block counts 5..10 are data, 11 and up are a closed form.
# ---------------------------------------------------------------------------

# Unrepaired claim lists for the order-two group, identity = 0 and x = 1.
# Claim order matters only for addressing repairs by index: the {1}-claims
# come first, then the {x}-claims.  Known slips are kept so the repair
# tests can start from them.
Z2_UNREPAIRED_CLAIMS: dict[int, tuple[Claim, ...]] = {
    5: (
        (0, 1, (0,)), (0, 3, (0,)), (2, 0, (0,)), (2, 1, (0,)), (2, 4, (0,)),
        (3, 1, (0,)), (3, 2, (0,)), (3, 4, (0,)), (4, 1, (0,)),
        (1, 0, (1,)), (1, 2, (1,)), (1, 3, (1,)), (1, 4, (1,)), (4, 3, (1,)),
        (4, 2, (1,)),
    ),
    6: (
        (1, 0, (0,)), (0, 3, (0,)), (0, 5, (0,)), (1, 4, (0,)), (2, 0, (0,)),
        (2, 3, (0,)), (2, 5, (0,)), (3, 1, (0,)), (4, 3, (0,)), (5, 4, (0,)),
        (1, 0, (1,)), (1, 2, (1,)), (3, 2, (1,)), (3, 4, (1,)), (4, 1, (1,)),
        (4, 5, (1,)), (5, 0, (1,)), (5, 2, (1,)),
    ),
    7: (
        (0, 1, (0,)), (2, 1, (0,)), (2, 0, (0,)), (2, 5, (0,)), (3, 1, (0,)),
        (3, 2, (0,)), (3, 4, (0,)), (4, 5, (0,)), (5, 6, (0,)), (6, 4, (0,)),
        (6, 0, (0,)),
        (0, 6, (1,)), (0, 3, (1,)), (1, 0, (1,)), (1, 2, (1,)), (1, 3, (1,)),
        (4, 3, (1,)), (4, 6, (1,)), (5, 2, (1,)), (5, 4, (1,)), (6, 5, (1,)),
    ),
    8: (
        (0, 1, (0,)), (1, 5, (0,)), (2, 0, (0,)), (2, 3, (0,)), (2, 5, (0,)),
        (3, 1, (0,)), (3, 4, (0,)), (4, 6, (0,)), (5, 6, (0,)), (6, 7, (0,)),
        (7, 4, (0,)), (7, 0, (0,)),
        (0, 3, (1,)), (0, 7, (1,)), (1, 0, (1,)), (1, 2, (1,)), (3, 2, (1,)),
        (4, 3, (1,)), (4, 7, (1,)), (5, 1, (1,)), (5, 2, (1,)), (6, 4, (1,)),
        (6, 5, (1,)), (7, 6, (1,)),
    ),
    9: (
        (0, 1, (0,)), (2, 0, (0,)), (2, 1, (0,)), (2, 5, (0,)), (3, 1, (0,)),
        (3, 2, (0,)), (3, 4, (0,)), (4, 6, (0,)), (5, 6, (0,)), (5, 7, (0,)),
        (6, 7, (0,)), (7, 8, (0,)), (8, 0, (0,)), (8, 1, (0,)),
        (0, 3, (1,)), (0, 8, (1,)), (1, 0, (1,)), (1, 2, (1,)), (1, 3, (1,)),
        (4, 3, (1,)), (4, 8, (1,)), (5, 2, (1,)), (6, 4, (1,)), (6, 5, (1,)),
        (7, 5, (1,)), (7, 6, (1,)), (8, 7, (1,)),
    ),
    10: (
        (0, 1, (0,)), (1, 4, (0,)), (2, 0, (0,)), (2, 3, (0,)), (2, 5, (0,)),
        (3, 1, (0,)), (3, 4, (0,)), (5, 6, (0,)), (5, 7, (0,)), (6, 7, (0,)),
        (6, 8, (0,)), (7, 8, (0,)), (8, 9, (0,)), (9, 4, (0,)), (9, 0, (0,)),
        (0, 3, (1,)), (0, 9, (1,)), (1, 0, (1,)), (1, 2, (1,)), (3, 2, (1,)),
        (4, 1, (1,)), (4, 3, (1,)), (4, 9, (1,)), (5, 2, (1,)), (6, 5, (1,)),
        (7, 5, (1,)), (7, 6, (1,)), (8, 6, (1,)), (8, 7, (1,)), (9, 8, (1,)),
    ),
}

# Adopted corrections, as (claim index, corrected cell).  Every correction
# re-aims one claim at a different cell; the replacement is forced by
# exhaustive enumeration over alternative cells (see the repair tests) with
# ties broken by the row/column patterns shared across the other tables.
Z2_TABLE_REPAIRS: dict[int, tuple[tuple[int, tuple[int, int]], ...]] = {
    5: ((8, (4, 0)), (12, (0, 4))),
    6: ((0, (0, 1)),),
    9: ((13, (8, 4)),),
}


def apply_repairs(
    claims: tuple[Claim, ...],
    repairs: tuple[tuple[int, tuple[int, int]], ...],
) -> tuple[Claim, ...]:
    fixed = list(claims)
    for index, (i, j) in repairs:
        fixed[index] = (i, j, fixed[index][2])
    return tuple(fixed)


def z2_table_claims(group: FiniteGroup, spec: GeneratorSpec, m: int) -> tuple[Claim, ...]:
    """Stored table for the order-two group, 5 <= m <= 10, misprints fixed;
    the literal tables are ``Z2_UNREPAIRED_CLAIMS``."""
    if group.n != 2:
        raise FamilyError("z2-table applies to the order-two group only")
    if m not in Z2_UNREPAIRED_CLAIMS:
        raise FamilyError(f"no stored order-two table for m={m}; tables cover 5..10")
    return apply_repairs(Z2_UNREPAIRED_CLAIMS[m], Z2_TABLE_REPAIRS.get(m, ()))


def z2_general_claims(group: FiniteGroup, spec: GeneratorSpec, m: int) -> tuple[Claim, ...]:
    """Closed-form family for the order-two group, any m >= 11."""
    if group.n != 2:
        raise FamilyError("z2-general applies to the order-two group only")
    if m < 11:
        raise FamilyError(f"general order-two family needs m >= 11, got {m}")
    claims: list[Claim] = [(i, (i + 1) % m, (0,)) for i in range(m)]
    for i in range(m):
        if i not in (2, 7):
            claims.append((i, (i - 2) % m, (0, 1)))
    claims.append((2, 5, (0, 1)))
    claims.append((7, 0, (0, 1)))
    return tuple(claims)


# ---------------------------------------------------------------------------
# Cyclic groups.
# ---------------------------------------------------------------------------

def cyclic_generator(group: FiniteGroup) -> int | None:
    """Smallest element generating the whole group, or None if not cyclic."""
    for g in range(group.n):
        if element_order(group, g) == group.n:
            return g
    return None


def cyclic_m2_claims(group: FiniteGroup, spec: GeneratorSpec, m: int) -> tuple[Claim, ...]:
    """Two-block table for a cyclic group generated by x with o(x) >= 5.

    T(0,0) = {x, x^2}, T(0,1) = {1}, T(1,1) = {x^-1, x^-2}, T(1,0) = {x}.
    """
    if m != 2:
        raise FamilyError("cyclic-m2 is a two-block family")
    x = cyclic_generator(group)
    if x is None:
        raise FamilyError("group is not cyclic")
    if group.n < 5:
        raise FamilyError(f"two-block cyclic family needs order >= 5, got {group.n}")
    x2 = group.mult[x][x]
    xi = group.inv[x]
    xi2 = group.inv[x2]
    return (
        (0, 0, (x, x2)),
        (0, 1, (IDENTITY,)),
        (1, 1, tuple(sorted((xi, xi2)))),
        (1, 0, (x,)),
    )


def cyclic_general_claims(
    group: FiniteGroup, spec: GeneratorSpec, m: int, repaired: bool = True
) -> tuple[Claim, ...]:
    """m-block table for a cyclic group of order >= 3, any m >= 3."""
    x = cyclic_generator(group)
    if x is None:
        raise FamilyError("group is not cyclic")
    if group.n < 3:
        raise FamilyError(f"cyclic family needs order >= 3, got {group.n}")
    if m < 3:
        raise FamilyError(f"cyclic general family needs m >= 3, got {m}")
    xi = group.inv[x]
    claims: list[Claim] = [(0, 0, (x,))]
    claims.extend((i, i, (xi,)) for i in range(1, m))
    claims.extend((i, i + 1, tuple(sorted((IDENTITY, xi)))) for i in range(m - 1))
    # Unrepaired, the last row aims at column 1; column sums force column 0.
    last = (m - 1, 0) if repaired else (m - 1, 1)
    claims.append((last[0], last[1], tuple(sorted((x, xi)))))
    return tuple(claims)


# ---------------------------------------------------------------------------
# Klein four-group.
# ---------------------------------------------------------------------------

def is_klein(group: FiniteGroup) -> bool:
    return group.n == 4 and all(
        element_order(group, g) == 2 for g in range(1, 4)
    )


def _klein_pair(spec: GeneratorSpec) -> tuple[int, int]:
    x, y = spec.x, spec.y
    if y is None or x == y or IDENTITY in (x, y):
        raise FamilyError("klein families need two distinct non-identity generators")
    return x, y


def klein_m3_claims(group: FiniteGroup, spec: GeneratorSpec, m: int) -> tuple[Claim, ...]:
    """Three-block table for the Klein four-group generated by (x, y)."""
    if m != 3:
        raise FamilyError("klein-m3 is a three-block family")
    if not is_klein(group):
        raise FamilyError("group is not the Klein four-group")
    x, y = _klein_pair(spec)
    xy = group.mult[x][y]
    return (
        (0, 1, (IDENTITY,)),
        (0, 2, tuple(sorted((xy, x)))),
        (1, 0, tuple(sorted((x, y)))),
        (1, 2, (IDENTITY,)),
        (2, 0, (y,)),
        (2, 1, tuple(sorted((x, y)))),
    )


def klein_m4_claims(group: FiniteGroup, spec: GeneratorSpec, m: int) -> tuple[Claim, ...]:
    """Four-block table for the Klein four-group generated by (x, y)."""
    if m != 4:
        raise FamilyError("klein-m4 is a four-block family")
    if not is_klein(group):
        raise FamilyError("group is not the Klein four-group")
    x, y = _klein_pair(spec)
    xy = group.mult[x][y]
    return (
        (0, 1, tuple(sorted((IDENTITY, x)))),
        (0, 2, (xy,)),
        (1, 0, (y,)),
        (1, 3, tuple(sorted((IDENTITY, y)))),
        (2, 0, tuple(sorted((IDENTITY, x)))),
        (2, 3, (x,)),
        (3, 1, (x,)),
        (3, 2, tuple(sorted((IDENTITY, y)))),
    )


def klein_general_claims(
    group: FiniteGroup, spec: GeneratorSpec, m: int
) -> tuple[Claim, ...]:
    """m-block table for the Klein four-group, any m >= 5."""
    if not is_klein(group):
        raise FamilyError("group is not the Klein four-group")
    if m < 5:
        raise FamilyError(f"general klein family needs m >= 5, got {m}")
    x, y = _klein_pair(spec)
    claims: list[Claim] = [(0, 1, (y,))]
    claims.extend((i, (i + 1) % m, (IDENTITY,)) for i in range(1, m))
    claims.extend((i, (i - 2) % m, tuple(sorted((IDENTITY, x)))) for i in range(m))
    return tuple(claims)


# ---------------------------------------------------------------------------
# Groups with a generating pair (x, y), o(x) >= 3.
# ---------------------------------------------------------------------------

def two_generated_claims(
    group: FiniteGroup, spec: GeneratorSpec, m: int, repaired: bool = True
) -> tuple[Claim, ...]:
    """m-block table for G = <x, y> with <x> proper, m >= 2.

    The pair goes through ``normalized_pair`` first, so o(x) >= 3.
    """
    pair = normalized_pair(group, spec)
    x, y = pair.x, pair.y
    if y is None:
        raise FamilyError("generating pair (x, y) required")
    if m < 2:
        raise FamilyError(f"pair family needs m >= 2, got {m}")
    if len(generated_subgroup(group, (x, y))) != group.n:
        raise FamilyError("generators do not generate the group")
    if len(generated_subgroup(group, (x,))) == group.n:
        raise FamilyError("x alone generates the group; use a cyclic family")
    claims: list[Claim] = [(i, i, (x,)) for i in range(m)]
    claims.extend((i, i + 1, tuple(sorted((IDENTITY, x)))) for i in range(m - 1))
    # Unrepaired, the last row aims at column 1; column sums force column 0,
    # and at m = 2 the unrepaired cell would collide with T(1,1) = {x}.
    last = (m - 1, 0) if repaired else (m - 1, 1)
    claims.append((last[0], last[1], tuple(sorted((x, y)))))
    return tuple(claims)


def normalized_pair(group: FiniteGroup, spec: GeneratorSpec) -> GeneratorSpec:
    """Reorder (x, y) so o(x) >= 3, multiplying involutions if needed.

    When both generators have order at most 2 the pair is replaced by
    (xy, y), which generates the same group; xy has order >= 3 whenever the
    group is not elementary abelian of order <= 4.
    """
    x, y = spec.x, spec.y
    if y is None:
        return spec
    if element_order(group, x) >= 3:
        return spec
    if element_order(group, y) >= 3:
        return GeneratorSpec(x=y, y=x)
    xy = group.mult[x][y]
    if element_order(group, xy) < 3:
        raise FamilyError("no generator of order >= 3 is reachable from this pair")
    return GeneratorSpec(x=xy, y=y)


# ---------------------------------------------------------------------------
# Dispatcher.
# ---------------------------------------------------------------------------

# The dispatcher takes the first family whose domain holds, so order matters:
# cyclic-m2 comes before two-gen, because Z6 with the pair (x^2, x^3) at
# m = 2 lies in both domains.
FAMILIES: dict[str, Callable[[FiniteGroup, GeneratorSpec, int], tuple[Claim, ...]]] = {
    "z2-table": z2_table_claims,
    "z2-general": z2_general_claims,
    "cyclic-m2": cyclic_m2_claims,
    "cyclic-general": cyclic_general_claims,
    "klein-m3": klein_m3_claims,
    "klein-m4": klein_m4_claims,
    "klein-general": klein_general_claims,
    "two-gen": two_generated_claims,
}

# The theorem's exceptions: (clause, status, detail) for each kind of group
# that some m leaves outside every family; the detail fills in n and m.
_EXCEPTIONS: dict[str, tuple[str, str, str]] = {
    "trivial": (
        "trivial-group-needs-rigid-digraph",
        "open",
        "a construction would be a 3-regular oriented digraph on {m} blocks with no"
        " nontrivial symmetry; whether one exists for every block count is"
        " unresolved (see the explorer)",
    ),
    "order-two": (
        "order-two-group-with-at-most-four-blocks",
        "impossible",
        "the order-two group admits no 3-regular oriented construction on fewer"
        " than five blocks; certified by exhaustive search",
    ),
    "klein": (
        "klein-group-with-two-blocks",
        "impossible",
        "the Klein four-group admits no two-block 3-regular oriented construction"
        " with automorphism group of order 4; certified by exhaustive search",
    ),
    "cyclic": (
        "cyclic-group-of-order-three-or-four-with-two-blocks",
        "impossible",
        "the cyclic group of order {n} admits no two-block 3-regular oriented"
        " construction with automorphism group of order {n}; certified by"
        " exhaustive search",
    ),
}


def _generates(group: FiniteGroup, spec: GeneratorSpec) -> bool:
    gens = [spec.x] if spec.y is None else [spec.x, spec.y]
    return len(generated_subgroup(group, gens)) == group.n


def applicable_family(
    group: FiniteGroup, spec: GeneratorSpec, m: int
) -> str | ExceptionVerdict:
    """Name the family ``construct_omsr`` would use, or the exception verdict."""
    if m < 2:
        raise ValueError(f"m must be at least 2, got {m}")
    if not _generates(group, spec):
        pair = f"x = {group.names[spec.x]}"
        if spec.y is not None:
            pair += f", y = {group.names[spec.y]}"
        raise ValueError(
            f"the designated pair {pair} does not generate {group.name} (a product group"
            " takes x from its first factor and y from its second); give any other"
            " generating pair as perm:file.json"
        )
    for name, claims in FAMILIES.items():
        try:
            claims(group, spec, m)
        except FamilyError:
            continue
        return name
    kind = {1: "trivial", 2: "order-two"}.get(group.n, "klein" if is_klein(group) else "cyclic")
    clause, status, detail = _EXCEPTIONS[kind]
    return ExceptionVerdict(group.name, m, clause, status, detail.format(n=group.n, m=m))


def construct_omsr(
    group: FiniteGroup, spec: GeneratorSpec, m: int
) -> ConnectionMatrix | ExceptionVerdict:
    """Emit a verified connection matrix for (group, m), or the exception.

    Total over nontrivial groups generated by ``spec`` and m >= 2: the result
    is either a matrix whose digraph has automorphism group of order |G|, or
    an :class:`ExceptionVerdict` for the finitely many excluded cases.
    """
    family = applicable_family(group, spec, m)
    if isinstance(family, ExceptionVerdict):
        return family
    return family_matrix(family, group, spec, m)


def family_matrix(
    name: str, group: FiniteGroup, spec: GeneratorSpec, m: int
) -> ConnectionMatrix:
    """Connection matrix of family ``name``; FamilyError outside its domain."""
    return claims_to_matrix(m, FAMILIES[name](group, spec, m))
