"""Seeded relabelling of benchmark inputs.

Every function here takes its randomness from a ``random.Random`` the caller
seeds, so one seed always gives the same inputs.  The relabelled objects are
built with the constructors of the objects passed in, which keeps this module
free of imports from the program under test: the harness can re-import the
package between set-ups and still relabel with the fresh classes.
"""

from __future__ import annotations

import random
from typing import Sequence


def element_relabelling(n: int, rng: random.Random) -> tuple[int, ...]:
    """Permutation of 0..n-1 that fixes the identity index 0."""
    rest = list(range(1, n))
    rng.shuffle(rest)
    return (0, *rest)


def permutation(n: int, rng: random.Random) -> tuple[int, ...]:
    """Permutation of 0..n-1, for relabelling blocks or vertices."""
    perm = list(range(n))
    rng.shuffle(perm)
    return tuple(perm)


def relabel_group(group, sigma: Sequence[int]):
    """Isomorphic copy of ``group`` in which element a is renamed sigma[a].

    The copy goes through the group's own constructor, so it is validated
    exactly like any other group the program accepts.
    """
    n = group.n
    mult = [[0] * n for _ in range(n)]
    inv = [0] * n
    names = [""] * n
    for a in range(n):
        inv[sigma[a]] = sigma[group.inv[a]]
        names[sigma[a]] = group.names[a]
        row = mult[sigma[a]]
        for b, c in enumerate(group.mult[a]):
            row[sigma[b]] = sigma[c]
    return type(group)(group.name, tuple(map(tuple, mult)), tuple(inv), tuple(names))


def relabel_matrix(conn, sigma: Sequence[int], pi: Sequence[int]):
    """Carry a connection matrix across an element map and a block permutation.

    Cell (i, j) with set T moves to (pi[i], pi[j]) with set sigma(T).  When
    sigma is a group isomorphism the block digraph of the result is isomorphic
    to the original one.
    """
    m = conn.m
    cells = [[frozenset()] * m for _ in range(m)]
    for i, row in enumerate(conn.sets):
        for j, cell in enumerate(row):
            if cell:
                cells[pi[i]][pi[j]] = frozenset(sigma[t] for t in cell)
    return type(conn)(m, tuple(map(tuple, cells)))


def relabel_digraph(graph, perm: Sequence[int]):
    """Copy of ``graph`` in which vertex v is renamed perm[v]."""
    rows: list[list[int]] = [[] for _ in range(graph.nv)]
    for u, row in enumerate(graph.out_adj):
        rows[perm[u]] = [perm[v] for v in row]
    return type(graph)(graph.nv, rows)
