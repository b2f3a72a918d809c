"""Permutations and permutation groups backed by a Schreier-Sims chain.

A permutation of 0..degree-1 is the tuple of its images: ``p[v]`` is the
image of ``v``.
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
    """Coset-representative tables over a fixed base, test/enter style.

    Level k holds representatives of the pointwise stabilizer of the first k
    base points, keyed by the image of base point k (the identity entry is
    implicit). Membership testing peels one representative per level; entering
    a permutation stores its sifted residue and recursively closes products of
    table entries on both sides, which keeps the tables a faithful encoding of
    the generated group. The base is 0,1,2,... by default; a base prefix
    reorders it so point stabilizers can be read off the deeper levels.
    """

    def __init__(self, degree: int, base_prefix: Sequence[int] = ()):
        self.degree = degree
        self.identity = tuple(range(degree))
        prefix = list(dict.fromkeys(base_prefix))
        chosen = set(prefix)
        self.base: tuple[int, ...] = tuple(prefix + [v for v in range(degree) if v not in chosen])
        self.tables: list[dict[int, tuple[int, ...]]] = [{} for _ in range(degree)]

    def _test(self, g: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
        for lev, b in enumerate(self.base):
            img = g[b]
            if img == b:
                continue
            rep = self.tables[lev].get(img)
            if rep is None:
                return g, lev
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
        self.tables[lev][residue[self.base[lev]]] = residue
        for h in self.strong_generators():
            for f in (_compose(h, residue), _compose(residue, h)):
                if f != self.identity:
                    self.extend(f)

    def order(self) -> int:
        return prod(len(table) + 1 for table in self.tables)

    def strong_generators(self) -> list[tuple[int, ...]]:
        return [table[p] for table in self.tables for p in sorted(table)]


class PermGroup:
    """Permutation group closed once in a chain that grows with ``add``.

    ``generators`` holds, in order, the given permutations that enlarged the
    group: the identity and members of the group so far are skipped, so a
    redundant generating list keeps fewer of them. Reports list only the
    automorphism engine's generators, each of which enlarged its group.
    """

    def __init__(self, degree: int, generators: Iterable[Sequence[int]] = ()):
        if degree < 1:
            raise ValueError(f"degree must be positive, got {degree}")
        self.degree = degree
        self.generators: tuple[tuple[int, ...], ...] = ()
        self._chain = _Chain(degree)
        for p in generators:
            self.add(p)

    def add(self, images: Sequence[int]) -> bool:
        """Adjoin a permutation given by its images; False when already a member.

        ValueError unless ``images`` is a permutation of 0..degree-1.
        """
        images = check_permutation(images, self.degree)
        if self._chain.contains(images):
            return False
        self._chain.extend(images)
        self.generators += (images,)
        return True

    def order(self) -> int:
        return self._chain.order()

    def is_member(self, images: Sequence[int]) -> bool:
        return self._chain.contains(check_permutation(images, self.degree))

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

    def stabilizer(self, v: int) -> "PermGroup":
        """Point stabilizer, computed from a chain rebased to start at v."""
        if not 0 <= v < self.degree:
            raise ValueError(f"point {v} out of range")
        chain = _Chain(self.degree, base_prefix=(v,))
        for p in self.generators:
            chain.extend(p)
        fixed = [g for g in chain.strong_generators() if g[v] == v]
        return PermGroup(self.degree, fixed)

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, order={self.order()})"
