"""Permutations and permutation groups backed by a Schreier-Sims chain."""

from __future__ import annotations

from math import prod
from typing import Iterable, Sequence

__all__ = ["Permutation", "PermGroup"]


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    # product p*q acts as "apply p, then q"
    return tuple(q[v] for v in p)


def _invert(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


class Permutation:
    """Permutation of 0..degree-1 stored as an image tuple."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        t = tuple(images)
        if sorted(t) != list(range(len(t))):
            raise ValueError(f"not a permutation: {images}")
        self.images = t

    @property
    def degree(self) -> int:
        return len(self.images)

    def cycles(self) -> list[tuple[int, ...]]:
        """Non-trivial cycles, each starting at its smallest point."""
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start] or self.images[start] == start:
                seen[start] = True
                continue
            cyc = [start]
            seen[start] = True
            v = self.images[start]
            while v != start:
                cyc.append(v)
                seen[v] = True
                v = self.images[v]
            out.append(tuple(cyc))
        return out

    def cycle_string(self) -> str:
        cyc = self.cycles()
        if not cyc:
            return "()"
        return "".join("(" + " ".join(str(v) for v in c) + ")" for c in cyc)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({self.cycle_string()})"


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

    def __init__(self, degree: int, generators: Iterable[Permutation] = ()):
        if degree < 1:
            raise ValueError(f"degree must be positive, got {degree}")
        self.degree = degree
        self.generators: tuple[Permutation, ...] = ()
        self._chain = _Chain(degree)
        for p in generators:
            self.add(p.images)

    def add(self, images: tuple[int, ...]) -> bool:
        """Adjoin a permutation given by its image tuple; False when already a member.

        ``images`` must be a permutation of 0..degree-1. The engine sifts tens
        of thousands of leaves, so every tuple gets only a length and range
        check, which a repeated value passes: such a tuple never sifts to a
        member, and the full check on a tuple that enlarges the group rejects
        it with ValueError before the chain takes it.
        """
        if len(images) != self.degree:
            raise ValueError(f"generator degree {len(images)} != group degree {self.degree}")
        if min(images) < 0 or max(images) >= self.degree:
            raise ValueError(f"image out of range 0..{self.degree - 1}: {images}")
        if self._chain.contains(images):
            return False
        p = Permutation(images)
        self._chain.extend(images)
        self.generators += (p,)
        return True

    def order(self) -> int:
        return self._chain.order()

    def is_member(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            raise ValueError(f"degree mismatch: {p.degree} vs {self.degree}")
        return self._chain.contains(p.images)

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
                    w = g.images[v]
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
            chain.extend(p.images)
        fixed = [Permutation(g) for g in chain.strong_generators() if g[v] == v]
        return PermGroup(self.degree, fixed)

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, order={self.order()})"
