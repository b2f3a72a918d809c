from __future__ import annotations

import itertools
import random

import pytest

from omsr.perms import PermGroup, _compose, _invert, check_permutation, cycle_string


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


def test_perm_group_symmetric() -> None:
    group = PermGroup(4, [(1, 2, 3, 0), (1, 0, 2, 3)])
    assert group.order() == 24
    for images in itertools.permutations(range(4)):
        assert group.is_member(images)


def test_perm_group_membership_rejects_outsiders() -> None:
    rotations = PermGroup(4, [(1, 2, 3, 0)])
    assert rotations.order() == 4
    assert rotations.is_member((2, 3, 0, 1))
    assert not rotations.is_member((1, 0, 3, 2))
    assert not rotations.is_member((0, 2, 1, 3))
    # the first two would sift to the identity through the rotations' chain
    for malformed in ((1, 2, 3, -4), (True, 2, 3, 0), (1, 2, 3, 0, 4)):
        with pytest.raises(ValueError):
            rotations.is_member(malformed)


def test_perm_group_trivial() -> None:
    trivial = PermGroup(5)
    assert trivial.order() == 1
    assert trivial.orbits() == [[v] for v in range(5)]


def test_orbits_partition_points() -> None:
    group = PermGroup(6, [(1, 2, 0, 3, 4, 5), (0, 1, 2, 4, 3, 5)])
    orbits = {frozenset(o) for o in group.orbits()}
    assert orbits == {frozenset({0, 1, 2}), frozenset({3, 4}), frozenset({5})}
    assert [orb for orb in group.orbits() if 4 in orb] == [[3, 4]]


def test_stabilizer_orders_satisfy_orbit_relation() -> None:
    group = PermGroup(4, [(1, 2, 3, 0), (1, 0, 2, 3)])
    for v in range(4):
        stab = group.stabilizer(v)
        (orbit,) = [orb for orb in group.orbits() if v in orb]
        assert stab.order() * len(orbit) == group.order()
        assert all(p[v] == v for p in stab.generators)


def test_semiregular_detection() -> None:
    rotations = PermGroup(4, [(1, 2, 3, 0)])
    assert rotations.is_semiregular()
    with_fixed_point = PermGroup(4, [(0, 2, 1, 3)])
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
        group = PermGroup(degree, gens)
        seen = {tuple(range(degree))}
        frontier = list(seen)
        while frontier:
            current = frontier.pop()
            for g in gens:
                nxt = _compose(current, g)
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        assert group.order() == len(seen)
        assert all(group.is_member(p) for p in seen)


def test_add_adjoins_only_new_permutations() -> None:
    r = (1, 2, 3, 0)
    group = PermGroup(4)
    assert not group.add((0, 1, 2, 3))
    assert group.generators == () and group.order() == 1
    assert group.add(r)
    assert group.generators == (r,) and group.order() == 4
    for member in ((0, 1, 2, 3), r, _compose(r, r), _invert(r)):
        assert not group.add(member)
        assert group.generators == (r,) and group.order() == 4
    assert group.add((1, 0, 2, 3))
    assert group.order() == 24


def test_redundant_generators_are_dropped() -> None:
    r = (1, 2, 3, 0)
    group = PermGroup(4, [r, r, _compose(r, r), range(4)])
    assert group.generators == (r,)
    assert group.order() == 4


def test_add_rejects_bad_images() -> None:
    group = PermGroup(3)
    with pytest.raises(ValueError):
        group.add((1, 0))
    with pytest.raises(ValueError):
        group.add((1, 1, 0))
    with pytest.raises(ValueError):
        PermGroup(3, [(1, 0)])
    assert group.generators == () and group.order() == 1
    # a negative image would wrap in the chain's sift and read as a member,
    # and True would index as 1
    s3 = PermGroup(3, [(1, 2, 0), (1, 0, 2)])
    for images in ((1, -1, 0), (1, 7, 0), (1, 1, 0), (True, 2, 0), (1.0, 2, 0)):
        with pytest.raises(ValueError):
            s3.add(images)
    assert len(s3.generators) == 2 and s3.order() == 6
