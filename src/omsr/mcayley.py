"""Connection matrices over a finite group and the block digraphs they generate.

Vertices come in m blocks of |G|: vertex g_i (group element g in block i) has
index i*|G| + g, and each connection set T[i][j] contributes the arcs
(g_i, (t*g)_j) for every g in G and t in T[i][j].
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Mapping

from .digraphs import Digraph
from .groups import FiniteGroup, _is_int
from .perms import PermGroup

__all__ = [
    "MAX_BLOCKS",
    "ConnectionMatrix",
    "MCayleyDigraph",
    "build",
    "connection_is_oriented",
    "oriented_breaks",
    "valency_profile",
    "right_translation",
    "regular_action_group",
]


# checked before any m x m matrix is built: an empty matrix takes 0.34 s and
# 115 MB at m = 2560 (the largest z2-general figure quoted), 0.62 s and 272 MB
# at 4096, and grows as m squared
MAX_BLOCKS = 4096


@dataclass(frozen=True)
class ConnectionMatrix:
    """m x m matrix of subsets of group element indices."""

    m: int
    sets: tuple[tuple[frozenset[int], ...], ...]

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"m must be positive, got {self.m}")
        if len(self.sets) != self.m or any(len(row) != self.m for row in self.sets):
            raise ValueError(f"sets must form an {self.m}x{self.m} matrix")
        for row in self.sets:
            for cell in row:
                if cell and min(cell) < 0:
                    raise ValueError("negative element index in connection set")

    @classmethod
    def from_entries(
        cls, m: int, entries: Mapping[tuple[int, int], Iterable[int]]
    ) -> "ConnectionMatrix":
        if m > MAX_BLOCKS:
            raise ValueError(f"block count {m} exceeds the limit of {MAX_BLOCKS}")
        # one shared empty set; m * m calls of frozenset() cost more than the
        # rest of a large family build
        empty: frozenset[int] = frozenset()
        rows = [[empty] * m for _ in range(m)]
        for (i, j), elems in entries.items():
            if not (0 <= i < m and 0 <= j < m):
                raise ValueError(f"cell ({i},{j}) out of range for m={m}")
            rows[i][j] = frozenset(elems)
        return cls(m, tuple(tuple(r) for r in rows))

    def entry(self, i: int, j: int) -> frozenset[int]:
        return self.sets[i][j]

    def max_element(self) -> int:
        return max(map(max, filter(None, chain.from_iterable(self.sets))), default=-1)

    def to_json(self) -> dict:
        cells = {}
        for i, row in enumerate(self.sets):
            for j, cell in enumerate(row):
                if cell:
                    cells[f"{i},{j}"] = sorted(cell)
        return {"m": self.m, "sets": cells}

    @classmethod
    def from_json(cls, obj: dict) -> "ConnectionMatrix":
        """Inverse of to_json; ValueError when ``m``, ``sets``, a key or an entry
        is missing or malformed, or when a top-level key is neither of those two.
        A key is "i,j" in canonical decimals, so no two name one cell."""
        extra = sorted(set(obj) - {"m", "sets"})
        if extra:
            raise ValueError(f"matrix has keys other than 'm' and 'sets': {extra}")
        m = obj.get("m")
        if not _is_int(m):
            raise ValueError(f"matrix needs an integer 'm', got {m!r}")
        if "sets" not in obj:
            raise ValueError("matrix needs 'sets', an object of \"i,j\" keys")
        sets = obj["sets"]
        if not isinstance(sets, dict):
            raise ValueError("matrix 'sets' must be an object of \"i,j\" keys")
        entries: dict[tuple[int, int], list[int]] = {}
        for key, elems in sets.items():
            i_s, _, j_s = key.partition(",")
            decimal = key.isascii() and i_s.isdigit() and j_s.isdigit()
            if not (decimal and key == f"{int(i_s)},{int(j_s)}"):
                raise ValueError(f"matrix key {key!r} is not of the form \"i,j\"")
            if not (isinstance(elems, list) and all(_is_int(e) for e in elems)):
                raise ValueError(f"matrix entry {key!r} is not a list of integers")
            if len(set(elems)) != len(elems):
                raise ValueError(f"matrix entry {key!r} lists an element twice")
            entries[(int(i_s), int(j_s))] = elems
        return cls.from_entries(m, entries)


@dataclass(frozen=True)
class MCayleyDigraph:
    group: FiniteGroup
    conn: ConnectionMatrix
    graph: Digraph

    @property
    def m(self) -> int:
        return self.conn.m

    def vertex_of(self, g: int, i: int) -> int:
        return i * self.group.n + g

    def dot_labels(self) -> tuple[str, ...]:
        n = self.group.n
        return tuple(f"{self.group.names[v % n]}_{v // n}" for v in range(self.graph.nv))


def _check_conn(group: FiniteGroup, conn: ConnectionMatrix) -> None:
    if conn.max_element() >= group.n:
        raise ValueError(
            f"connection set references element {conn.max_element()} "
            f"but |{group.name}| = {group.n}"
        )


def block_rows(group: FiniteGroup, row: Iterable[Iterable[int]]) -> list[list[int]]:
    """Out-neighbour lists of the |G| vertices g_i of the block whose matrix
    row is ``row``: the arcs (g_i, (t*g)_j) for t in T[i][j], unchecked."""
    n = group.n
    mult = group.mult
    # (first vertex of block j, the products t*g) for each t in T[i][j]; a
    # row has m cells but only k elements, so empty cells are not sorted
    arcs = [(j * n, mult[t]) for j, cell in enumerate(row) if cell for t in sorted(cell)]
    return [[offset + col[g] for offset, col in arcs] for g in range(n)]


def build(group: FiniteGroup, conn: ConnectionMatrix) -> MCayleyDigraph:
    """Digraph on m*|G| vertices with arcs (g_i, (t*g)_j) for t in T[i][j]."""
    _check_conn(group, conn)
    rows = [out for row in conn.sets for out in block_rows(group, row)]
    return MCayleyDigraph(group, conn, Digraph(conn.m * group.n, rows))


def oriented_breaks(group: FiniteGroup, conn: ConnectionMatrix) -> list[tuple[int, int]]:
    """The ordered pairs (i, j), i = j included, with some t in T[i][j] whose
    inverse is in T[j][i], in i-major order."""
    _check_conn(group, conn)
    inv = group.inv
    return [
        (i, j)
        for i, row in enumerate(conn.sets)
        for j, cell in enumerate(row)
        if any(inv[t] in conn.sets[j][i] for t in cell)
    ]


def connection_is_oriented(group: FiniteGroup, conn: ConnectionMatrix) -> bool:
    """No t in T[i][j] with t^-1 in T[j][i], for every ordered pair including i=j."""
    return not oriented_breaks(group, conn)


def valency_profile(group: FiniteGroup, conn: ConnectionMatrix) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(row sums, column sums) of connection-set sizes; out- and in-valencies."""
    _check_conn(group, conn)
    rows = tuple(sum(len(cell) for cell in row) for row in conn.sets)
    cols = tuple(sum(len(conn.sets[i][j]) for i in range(conn.m)) for j in range(conn.m))
    return rows, cols


def right_translation(gamma: MCayleyDigraph, g: int) -> tuple[int, ...]:
    """The automorphism x_i -> (x*g)_i induced by right-multiplying by g."""
    n = gamma.group.n
    if not 0 <= g < n:
        raise ValueError(f"element {g} out of range for {gamma.group.name!r}")
    mult = gamma.group.mult
    images = [0] * gamma.graph.nv
    for i in range(gamma.m):
        base = i * n
        for x in range(n):
            images[base + x] = base + mult[x][g]
    return tuple(images)


def regular_action_group(gamma: MCayleyDigraph) -> PermGroup:
    """The group of all right translations, a copy of G, so of order |G|."""
    gens = [right_translation(gamma, g) for g in range(1, gamma.group.n)]
    return PermGroup(gamma.graph.nv, gens, order=gamma.group.n)
