"""Finite groups as dense multiplication tables with 0-based element indices."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .perms import _compose, _invert, check_permutation

__all__ = [
    "IDENTITY",
    "MAX_GROUP_ORDER",
    "FiniteGroup",
    "GeneratorSpec",
    "make_cyclic",
    "direct_product",
    "klein_four",
    "from_permutation_generators",
    "element_order",
    "generated_subgroup",
    "standard_two_generated",
    "group_from_json",
    "load_group_file",
]

IDENTITY = 0

# checked before any n x n table is built; Z_1000's builds in 0.45 s and 78 MB
MAX_GROUP_ORDER = 1000


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """json's object_pairs_hook: ValueError for a key given twice, not its last value."""
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"JSON object gives the key {key!r} twice")
        obj[key] = value
    return obj


def _check_order(n: int) -> None:
    if n > MAX_GROUP_ORDER:
        raise ValueError(f"group order {n} exceeds the limit of {MAX_GROUP_ORDER}")


@dataclass(frozen=True)
class FiniteGroup:
    """Group of order n on elements 0..n-1; index 0 is always the identity."""

    name: str
    mult: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...]
    names: tuple[str, ...]

    def __post_init__(self) -> None:
        n = len(self.mult)
        if n == 0:
            raise ValueError("group must have at least the identity element")
        if len(self.inv) != n or len(self.names) != n:
            raise ValueError(f"table sizes disagree for group {self.name!r}")
        full = set(range(n))
        for a, row in enumerate(self.mult):
            if len(row) != n or set(row) != full:
                raise ValueError(f"row {a} of {self.name!r} is not a permutation of 0..{n - 1}")
        for a in range(n):
            if self.mult[IDENTITY][a] != a or self.mult[a][IDENTITY] != a:
                raise ValueError(f"index 0 is not the identity of {self.name!r}")
            if self.mult[a][self.inv[a]] != IDENTITY or self.mult[self.inv[a]][a] != IDENTITY:
                raise ValueError(f"inverse table of {self.name!r} is wrong at element {a}")
        cols = [set() for _ in range(n)]
        for row in self.mult:
            for b, v in enumerate(row):
                cols[b].add(v)
        if any(c != full for c in cols):
            raise ValueError(f"multiplication table of {self.name!r} is not a latin square")

    @property
    def n(self) -> int:
        return len(self.mult)

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, order={self.n})"


@dataclass(frozen=True)
class GeneratorSpec:
    """Designated generator pair: x always present, y optional."""

    x: int
    y: int | None = None


def element_order(group: FiniteGroup, g: int) -> int:
    if not 0 <= g < group.n:
        raise ValueError(f"element {g} out of range for {group.name!r}")
    order = 1
    acc = g
    while acc != IDENTITY:
        acc = group.mult[acc][g]
        order += 1
    return order


def generated_subgroup(group: FiniteGroup, seed: Iterable[int]) -> frozenset[int]:
    """Smallest subgroup containing the seed elements (always contains identity).

    In a finite group the products of the seed already hold every inverse, so
    closing {1} under right multiplication by the seed reaches the subgroup.
    """
    gens = tuple(seed)
    for s in gens:
        if not 0 <= s < group.n:
            raise ValueError(f"element {s} out of range for {group.name!r}")
    members = {IDENTITY}
    stack = [IDENTITY]
    while stack:
        row = group.mult[stack.pop()]
        for s in gens:
            if row[s] not in members:
                members.add(row[s])
                stack.append(row[s])
    return frozenset(members)


def make_cyclic(n: int) -> tuple[FiniteGroup, GeneratorSpec]:
    if n < 1:
        raise ValueError(f"cyclic group order must be positive, got {n}")
    _check_order(n)
    mult = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    inv = tuple((n - a) % n for a in range(n))
    names = tuple("1" if a == 0 else "x" if a == 1 else f"x^{a}" for a in range(n))
    group = FiniteGroup(f"Z{n}", mult, inv, names)
    return group, GeneratorSpec(x=1 % n)


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Product group on pairs (a, b), encoded as a * |H| + b."""
    nh = h.n
    size = g.n * nh
    _check_order(size)
    mult = tuple(
        tuple(g.mult[a1][a2] * nh + h.mult[b1][b2] for a2 in range(g.n) for b2 in range(nh))
        for a1 in range(g.n)
        for b1 in range(nh)
    )
    inv = tuple(g.inv[v // nh] * nh + h.inv[v % nh] for v in range(size))
    names = tuple(f"({g.names[v // nh]},{h.names[v % nh]})" for v in range(size))
    return FiniteGroup(f"{g.name}x{h.name}", mult, inv, names)


def klein_four() -> tuple[FiniteGroup, GeneratorSpec]:
    """Z2 x Z2 with elements named 1, y, x, xy; x = (1,0) and y = (0,1)."""
    z2, _ = make_cyclic(2)
    base = direct_product(z2, z2)
    group = FiniteGroup("Z2^2", base.mult, base.inv, ("1", "y", "x", "xy"))
    return group, GeneratorSpec(x=2, y=1)


def from_permutation_generators(
    degree: int, generators: Sequence[Sequence[int]]
) -> tuple[FiniteGroup, GeneratorSpec]:
    """Close a set of permutations into a group table.

    Elements are indexed in breadth-first discovery order over generator words
    (left multiplication), with the identity first, so the indexing is
    deterministic for a fixed generator list. The closure stops with
    ValueError once it passes MAX_GROUP_ORDER elements.
    """
    if degree < 1:
        raise ValueError(f"degree must be positive, got {degree}")
    if not generators:
        raise ValueError("need at least one generator")
    gens = [check_permutation(g, degree) for g in generators]
    ident = tuple(range(degree))
    elems: list[tuple[int, ...]] = [ident]
    index: dict[tuple[int, ...], int] = {ident: 0}
    # left[s][a] indexes gens[s]*elems[a]; elems[a] = gens[s]*elems[a'] for (a', s) = made[a]
    left: list[list[int]] = [[] for _ in gens]
    made = [(0, 0)]
    for a, e in enumerate(elems):
        for s, g in enumerate(gens):
            w = _compose(g, e)
            if w not in index:
                index[w] = len(elems)
                elems.append(w)
                made.append((a, s))
                _check_order(len(elems))
            left[s].append(index[w])
    n = len(elems)
    # each row from the row it was reached from: (gens[s]*elems[a'])*b = gens[s]*(elems[a']*b)
    rows = [tuple(range(n))]
    for a, s in made[1:]:
        rows.append(tuple(left[s][c] for c in rows[a]))
    inv = tuple(index[_invert(e)] for e in elems)
    names = tuple("1" if a == 0 else f"g{a}" for a in range(n))
    group = FiniteGroup(f"perm<{degree}>", tuple(rows), inv, names)
    x = index[gens[0]]
    y = index[gens[1]] if len(gens) >= 2 else None
    return group, GeneratorSpec(x=x, y=y)


_TWO_GENERATED_PERMS: dict[str, tuple[int, tuple[tuple[int, ...], ...]]] = {
    # name -> (degree, (x images, y images))
    "S3": (3, ((1, 2, 0), (1, 0, 2))),
    "D4": (4, ((1, 2, 3, 0), (0, 3, 2, 1))),
    "D5": (5, ((1, 2, 3, 4, 0), (0, 4, 3, 2, 1))),
    "Q8": (8, ((1, 2, 3, 0, 7, 4, 5, 6), (4, 5, 6, 7, 2, 3, 0, 1))),
    "A4": (4, ((1, 2, 0, 3), (1, 0, 3, 2))),
}


def standard_two_generated(name: str) -> tuple[FiniteGroup, GeneratorSpec]:
    """Catalog of small two-generated groups used throughout the test grids."""
    if name == "Z2xZ4":
        z2, _ = make_cyclic(2)
        z4, _ = make_cyclic(4)
        group = direct_product(z2, z4)
        # x = (0,1) has order 4, y = (1,0) has order 2
        return group, GeneratorSpec(x=1, y=4)
    if name not in _TWO_GENERATED_PERMS:
        known = ", ".join(sorted(_TWO_GENERATED_PERMS) + ["Z2xZ4"])
        raise ValueError(f"unknown group {name!r}; known: {known}")
    degree, gens = _TWO_GENERATED_PERMS[name]
    group, spec = from_permutation_generators(degree, gens)
    group = FiniteGroup(name, group.mult, group.inv, group.names)
    return group, spec


def _int_field(obj: dict, key: str) -> int:
    value = obj.get(key)
    if not _is_int(value):
        raise ValueError(f"group {obj.get('kind')!r} needs an integer {key!r}, got {value!r}")
    return value


def group_from_json(obj: object) -> tuple[FiniteGroup, GeneratorSpec]:
    """Build a group from its JSON description; ValueError when it is malformed.

    Kinds: {"kind": "cyclic", "n": N}, {"kind": "product", "factors": [...]},
    {"kind": "perm", "degree": D, "generators": [[...], ...]}.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"group description is not a JSON object: {obj!r}")
    kind = obj.get("kind")
    if kind == "cyclic":
        return make_cyclic(_int_field(obj, "n"))
    if kind == "product":
        factors = obj.get("factors")
        if not isinstance(factors, list) or len(factors) < 2:
            raise ValueError("product needs a list of at least two factors")
        parts = []
        for f in factors:
            if isinstance(f, dict):
                parts.append(group_from_json(f)[0])
            elif _is_int(f):
                parts.append(make_cyclic(f)[0])
            else:
                raise ValueError(f"product factor {f!r} is neither an order nor a group")
        group = parts[0]
        for p in parts[1:]:
            group = direct_product(group, p)
        # x generates the first factor, y the second; trailing factors get
        # no designated generator, so generation checks may reject the pair
        stride_x = group.n // parts[0].n
        stride_y = 1
        for p in parts[2:]:
            stride_y *= p.n
        x = stride_x if parts[0].n > 1 else 0
        y = stride_y if parts[1].n > 1 else None
        return group, GeneratorSpec(x=x, y=y)
    if kind == "perm":
        generators = obj.get("generators")
        if not (isinstance(generators, list) and all(isinstance(g, list) for g in generators)):
            raise ValueError(f"group 'perm' needs a list of image lists, got {generators!r}")
        return from_permutation_generators(_int_field(obj, "degree"), generators)
    raise ValueError(f"unknown group kind {kind!r}")


def load_group_file(path: str | Path) -> tuple[FiniteGroup, GeneratorSpec]:
    with open(path, "r", encoding="utf-8") as fh:
        return group_from_json(json.load(fh, object_pairs_hook=_unique_keys))
