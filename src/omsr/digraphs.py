"""Digraphs with mirrored adjacency lists and the predicates the verifier needs."""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

__all__ = [
    "Digraph",
    "is_k_regular",
    "is_oriented",
    "is_weakly_connected",
    "iterated_out_neighborhood",
]


class Digraph:
    """Immutable digraph on vertices 0..nv-1; no parallel arcs, loops allowed."""

    __slots__ = ("nv", "out_adj", "in_adj", "_out_masks")

    def __init__(self, nv: int, out_adj: Sequence[Sequence[int]]):
        if nv < 1:
            raise ValueError(f"need at least one vertex, got nv={nv}")
        if len(out_adj) != nv:
            raise ValueError(f"out_adj has {len(out_adj)} rows for nv={nv}")
        rows = []
        for u, row in enumerate(out_adj):
            srow = tuple(sorted(row))
            for a, b in zip(srow, srow[1:]):
                if a == b:
                    raise ValueError(f"parallel arc {u}->{a}")
            if srow and (srow[0] < 0 or srow[-1] >= nv):
                raise ValueError(f"arc endpoint out of range in row {u}")
            rows.append(srow)
        self.nv = nv
        self.out_adj: tuple[tuple[int, ...], ...] = tuple(rows)
        back: list[list[int]] = [[] for _ in range(nv)]
        for u, row in enumerate(self.out_adj):
            for v in row:
                back[v].append(u)
        self.in_adj: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(r)) for r in back)
        self._out_masks: tuple[int, ...] | None = None

    @classmethod
    def from_arcs(cls, nv: int, arcs: Iterable[tuple[int, int]]) -> "Digraph":
        rows: list[set[int]] = [set() for _ in range(max(nv, 1))]
        for u, v in arcs:
            if not (0 <= u < nv and 0 <= v < nv):
                raise ValueError(f"arc ({u},{v}) out of range for nv={nv}")
            if v in rows[u]:
                raise ValueError(f"parallel arc {u}->{v}")
            rows[u].add(v)
        return cls(nv, rows)

    @property
    def out_masks(self) -> tuple[int, ...]:
        """Out-neighborhoods as bitmasks, built lazily."""
        if self._out_masks is None:
            masks = []
            for row in self.out_adj:
                m = 0
                for v in row:
                    m |= 1 << v
                masks.append(m)
            self._out_masks = tuple(masks)
        return self._out_masks

    def arcs(self) -> list[tuple[int, int]]:
        return [(u, v) for u, row in enumerate(self.out_adj) for v in row]

    @property
    def arc_count(self) -> int:
        return sum(len(r) for r in self.out_adj)

    def has_arc(self, u: int, v: int) -> bool:
        return (self.out_masks[u] >> v) & 1 == 1

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Digraph) and self.nv == other.nv and self.out_adj == other.out_adj

    def __hash__(self) -> int:
        return hash((self.nv, self.out_adj))

    def __repr__(self) -> str:
        return f"Digraph(nv={self.nv}, arcs={self.arc_count})"

    def to_json(self) -> dict:
        return {"nv": self.nv, "arcs": [[u, v] for u, v in self.arcs()]}

    def to_dot(self, labels: Sequence[str] | None = None, name: str = "G") -> str:
        if labels is not None and len(labels) != self.nv:
            raise ValueError(f"got {len(labels)} labels for {self.nv} vertices")
        lines = [f"digraph {name} {{"]
        if labels is not None:
            for v, lab in enumerate(labels):
                text = lab.replace("\\", "\\\\").replace('"', '\\"')
                lines.append(f'  {v} [label="{text}"];')
        for u, v in self.arcs():
            lines.append(f"  {u} -> {v};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def is_k_regular(graph: Digraph, k: int) -> bool:
    return all(len(r) == k for r in graph.out_adj) and all(len(r) == k for r in graph.in_adj)


def is_oriented(graph: Digraph) -> bool:
    """True when the digraph has no loops and no pair of opposite arcs."""
    for u, row in enumerate(graph.out_adj):
        for v in row:
            if v == u or graph.has_arc(v, u):
                return False
    return True


def is_weakly_connected(graph: Digraph) -> bool:
    """Every vertex is reached from vertex 0 along arcs taken either way.

    On a regular digraph this is the same as strong connectivity.
    """
    both = [out + back for out, back in zip(graph.out_adj, graph.in_adj)]
    seen = {0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in both[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == graph.nv


def iterated_out_neighborhood(graph: Digraph, v: int, k: int) -> frozenset[int]:
    """k-fold out-neighborhood: level 0 is {v}, each level maps through out-arcs."""
    if not 0 <= v < graph.nv:
        raise ValueError(f"vertex {v} out of range for nv={graph.nv}")
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    current = {v}
    for _ in range(k):
        nxt: set[int] = set()
        for u in current:
            nxt.update(graph.out_adj[u])
        current = nxt
    return frozenset(current)
