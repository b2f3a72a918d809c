"""Permutations and permutation groups.

A permutation of 0..degree-1 is the tuple of its images: ``p[v]`` is the
image of ``v``. A group is its generators and its order, which its maker
vouches for (the automorphism engine reads it off its search tree), so no
group builds a Schreier-Sims chain.
"""

from __future__ import annotations

from math import prod
from typing import Iterable, Sequence

__all__ = ["PermGroup", "check_permutation", "cycle_string"]


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    # product p*q acts as "apply p, then q"
    return tuple(q[v] for v in p)


def _invert(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def check_permutation(images: Sequence[int], degree: int) -> tuple[int, ...]:
    """The images as a tuple; ValueError unless they are integers (not bools
    or floats) that permute 0..degree-1."""
    t = tuple(images)
    if len(t) != degree or not all(type(v) is int for v in t) or sorted(t) != list(range(degree)):
        raise ValueError(f"not a permutation of 0..{degree - 1}: {images}")
    return t


def cycle_string(images: Sequence[int]) -> str:
    """Non-trivial cycles, each from its smallest point, as "(0 1 2)(3 4)";
    the identity is "()"."""
    seen = [False] * len(images)
    out = []
    for start, v in enumerate(images):
        if seen[start] or v == start:
            continue
        cyc = [start]
        seen[start] = True
        while v != start:
            cyc.append(v)
            seen[v] = True
            v = images[v]
        out.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(out) or "()"


class _Chain:
    """Coset-representative tables over the base 0, 1, 2, ..., test/enter style.

    Level k holds representatives of the pointwise stabilizer of the first k
    base points, keyed by the image of base point k (the identity entry is
    implicit). Membership testing peels one representative per level; entering
    a permutation stores its sifted residue and recursively closes products of
    table entries on both sides, which keeps the tables a faithful encoding of
    the generated group.

    Nothing in the package builds one. It stays for two reasons: the tests
    recount orders and test membership against it as a reference
    implementation, and perfbench/spans.py patches ``perms._Chain`` and
    ``autgroup._Chain`` by name when it traces the layers.
    """

    def __init__(self, degree: int):
        self.degree = degree
        self.identity = tuple(range(degree))
        self.tables: list[dict[int, tuple[int, ...]]] = [{} for _ in range(degree)]

    def _test(self, g: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
        for b in range(self.degree):
            img = g[b]
            if img == b:
                continue
            rep = self.tables[b].get(img)
            if rep is None:
                return g, b
            g = _compose(g, _invert(rep))
        return g, self.degree

    def contains(self, images: tuple[int, ...]) -> bool:
        # a full sift fixes every base point, so the residue is the identity
        _, lev = self._test(images)
        return lev == self.degree

    def extend(self, images: tuple[int, ...]) -> None:
        residue, lev = self._test(images)
        if lev == self.degree:
            return
        self.tables[lev][residue[lev]] = residue
        for h in self.strong_generators():
            for f in (_compose(h, residue), _compose(residue, h)):
                if f != self.identity:
                    self.extend(f)

    def order(self) -> int:
        return prod(len(table) + 1 for table in self.tables)

    def strong_generators(self) -> list[tuple[int, ...]]:
        return [table[p] for table in self.tables for p in sorted(table)]


class PermGroup:
    """Permutation group recorded as its generators and its order.

    The caller vouches that the generators, kept as given, generate a group
    of that order: the automorphism engine reads the order off its search
    tree, and the right translations of an m-Cayley digraph form a copy of
    G. Reports list only the engine's generators, each of which enlarged the
    group found before it.
    """

    def __init__(self, degree: int, generators: Iterable[Sequence[int]], *, order: int):
        if degree < 1:
            raise ValueError(f"degree must be positive, got {degree}")
        if not (type(order) is int and order >= 1):
            raise ValueError(f"order must be a positive integer, got {order!r}")
        self.degree = degree
        self._order = order
        self.generators = tuple(check_permutation(p, degree) for p in generators)

    def order(self) -> int:
        return self._order

    def orbits(self) -> list[list[int]]:
        """Orbits sorted internally and ordered by smallest member."""
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            orb = [start]
            seen[start] = True
            queue = [start]
            while queue:
                v = queue.pop()
                for g in self.generators:
                    w = g[v]
                    if not seen[w]:
                        seen[w] = True
                        orb.append(w)
                        queue.append(w)
            out.append(sorted(orb))
        return out

    def is_semiregular(self) -> bool:
        """True when every point stabilizer is trivial (all orbits full length)."""
        n = self.order()
        return all(len(orb) == n for orb in self.orbits())

    def schreier_generators(self, v: int) -> list[tuple[int, ...]]:
        """Generators of the stabilizer of v (Schreier's lemma): t_x * s *
        t_(x^s)^-1 for each point x of v's orbit and each generator s, where
        t_x, a product of generators, takes v to x."""
        if not 0 <= v < self.degree:
            raise ValueError(f"point {v} out of range")
        transversal = {v: tuple(range(self.degree))}
        queue = [v]
        for x in queue:
            for s in self.generators:
                if s[x] not in transversal:
                    transversal[s[x]] = _compose(transversal[x], s)
                    queue.append(s[x])
        return [
            _compose(_compose(t, s), _invert(transversal[s[x]]))
            for x, t in transversal.items()
            for s in self.generators
        ]

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, order={self.order()})"
