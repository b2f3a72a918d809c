from __future__ import annotations

import itertools
import random

import pytest

from omsr.perms import PermGroup, _Chain, _compose, _invert, check_permutation, cycle_string


def test_permutation_composition_order() -> None:
    # p * q applies p first, then q
    p = (1, 0, 2)
    q = (0, 2, 1)
    assert _compose(p, q)[0] == 2
    assert _compose(q, p)[0] == 1


def test_permutation_inverse_and_identity() -> None:
    rng = random.Random(3)
    for _ in range(50):
        degree = rng.randrange(1, 9)
        images = list(range(degree))
        rng.shuffle(images)
        p = check_permutation(images, degree)
        identity = tuple(range(degree))
        assert _compose(p, _invert(p)) == identity
        assert _compose(_invert(p), p) == identity


def test_permutation_rejects_non_bijection() -> None:
    bad = ((0, 0, 1), (0, 1), (0, 1, 3), (0, 1, -1), (True, 0, 2), (1.0, 0, 2), (1, "0", 2))
    for images in bad:
        with pytest.raises(ValueError):
            check_permutation(images, 3)
    assert check_permutation([2, 0, 1], 3) == (2, 0, 1)


def test_cycle_string() -> None:
    assert cycle_string((1, 2, 0, 3)) == "(0 1 2)"
    assert cycle_string((1, 0, 3, 2)) == "(0 1)(2 3)"
    assert cycle_string((3, 0, 4, 1, 2)) == "(0 3 1)(2 4)"
    assert cycle_string(tuple(range(3))) == "()"


def _chain(degree: int, gens) -> _Chain:
    """The reference Schreier-Sims chain closed over the generators."""
    chain = _Chain(degree)
    for p in gens:
        chain.extend(tuple(p))
    return chain


def test_perm_group_symmetric() -> None:
    gens = [(1, 2, 3, 0), (1, 0, 2, 3)]
    assert PermGroup(4, gens, order=24).order() == 24
    chain = _chain(4, gens)
    assert chain.order() == 24
    for images in itertools.permutations(range(4)):
        assert chain.contains(images)


def test_perm_group_membership_rejects_outsiders() -> None:
    rotations = _chain(4, [(1, 2, 3, 0)])
    assert rotations.order() == 4
    assert rotations.contains((2, 3, 0, 1))
    assert not rotations.contains((1, 0, 3, 2))
    assert not rotations.contains((0, 2, 1, 3))


def test_perm_group_trivial() -> None:
    trivial = PermGroup(5, (), order=1)
    assert trivial.order() == 1
    assert trivial.orbits() == [[v] for v in range(5)]
    assert trivial.schreier_generators(3) == []


def test_orbits_partition_points() -> None:
    group = PermGroup(6, [(1, 2, 0, 3, 4, 5), (0, 1, 2, 4, 3, 5)], order=6)
    orbits = {frozenset(o) for o in group.orbits()}
    assert orbits == {frozenset({0, 1, 2}), frozenset({3, 4}), frozenset({5})}
    assert [orb for orb in group.orbits() if 4 in orb] == [[3, 4]]


def test_stabilizer_orders_satisfy_orbit_relation() -> None:
    # Schreier's lemma: the Schreier generators of v generate its stabilizer,
    # whose order times v's orbit length is the group's order
    rng = random.Random(5)
    cases = [[(1, 2, 3, 0), (1, 0, 2, 3)], [(1, 2, 0, 3, 4, 5), (0, 1, 2, 4, 3, 5)]]
    for _ in range(20):
        degree = rng.randrange(2, 8)
        cases.append([tuple(rng.sample(range(degree), degree)) for _ in range(2)])
    for gens in cases:
        degree = len(gens[0])
        order = _chain(degree, gens).order()
        group = PermGroup(degree, gens, order=order)
        for v in range(degree):
            stab = group.schreier_generators(v)
            (orbit,) = [orb for orb in group.orbits() if v in orb]
            assert _chain(degree, stab).order() * len(orbit) == order
            assert all(p[v] == v for p in stab)
    with pytest.raises(ValueError):
        PermGroup(3, [(1, 2, 0)], order=3).schreier_generators(3)


def test_semiregular_detection() -> None:
    rotations = PermGroup(4, [(1, 2, 3, 0)], order=4)
    assert rotations.is_semiregular()
    with_fixed_point = PermGroup(4, [(0, 2, 1, 3)], order=2)
    assert not with_fixed_point.is_semiregular()


def test_group_order_via_random_closure() -> None:
    # the chain's order must agree with a plain closure count
    rng = random.Random(11)
    for _ in range(20):
        degree = rng.randrange(2, 7)
        gens = []
        for _ in range(2):
            images = list(range(degree))
            rng.shuffle(images)
            gens.append(tuple(images))
        chain = _chain(degree, gens)
        seen = {tuple(range(degree))}
        frontier = list(seen)
        while frontier:
            current = frontier.pop()
            for g in gens:
                nxt = _compose(current, g)
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        assert chain.order() == len(seen)
        assert all(chain.contains(p) for p in seen)
        outside = [p for p in itertools.permutations(range(degree)) if p not in seen]
        assert not any(chain.contains(p) for p in outside)


def test_add_adjoins_only_new_permutations() -> None:
    # entering a member leaves the reference chain's tables as they were
    r = (1, 2, 3, 0)
    chain = _Chain(4)
    chain.extend((0, 1, 2, 3))
    assert chain.strong_generators() == [] and chain.order() == 1
    chain.extend(r)
    tables = chain.strong_generators()
    assert chain.order() == 4
    for member in ((0, 1, 2, 3), r, _compose(r, r), _invert(r)):
        chain.extend(member)
        assert chain.strong_generators() == tables and chain.order() == 4
    chain.extend((1, 0, 2, 3))
    assert chain.order() == 24


def test_add_rejects_bad_images() -> None:
    # a group takes its generators once, at construction, and checks each;
    # a negative image would wrap in an index, and True would index as 1
    for images in ((1, 0), (1, -1, 0), (1, 7, 0), (1, 1, 0), (True, 2, 0), (1.0, 2, 0)):
        with pytest.raises(ValueError):
            PermGroup(3, [(1, 2, 0), images], order=6)
    with pytest.raises(ValueError):
        PermGroup(0, [], order=1)


def test_redundant_generators_are_kept() -> None:
    # a group keeps its generators as given, repeats and identity included
    r = (1, 2, 3, 0)
    group = PermGroup(4, [r, r, _compose(r, r), range(4)], order=4)
    assert group.generators == (r, r, _compose(r, r), (0, 1, 2, 3))
    assert group.order() == 4


def test_perm_group_keeps_the_order_given() -> None:
    # the order is the caller's to vouch for, and it must be given
    r = (1, 2, 3, 0)
    group = PermGroup(4, [r], order=4)
    assert group.generators == (r,) and group.order() == 4
    for bad in (0, -4, 4.0, True, None):
        with pytest.raises(ValueError):
            PermGroup(4, [r], order=bad)
    with pytest.raises(ValueError):
        PermGroup(4, [(1, 0)], order=2)
    with pytest.raises(TypeError):
        PermGroup(4, [r])
