"""Acceptance grid: eleven numbered checks covering every shipped claim.

Each criterion is a row of ``CRITERIA``; ``run_all`` turns it into a
CriterionResult with a pass/fail flag, a one-line detail, and its runtime
measured against the stated limit. A criterion
passes only if both the logical check and the time limit hold, so a run on
badly overloaded hardware fails loudly rather than silently.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Iterator

from .autgroup import automorphism_group, brute_force_order, is_automorphism
from .constructions import (
    Z2_UNREPAIRED_CLAIMS,
    construct_omsr,
    cyclic_general_claims,
    family_matrix,
    two_generated_claims,
    validate_claims,
)
from .digraphs import Digraph, is_k_regular, is_oriented
from .groups import (
    FiniteGroup,
    GeneratorSpec,
    klein_four,
    make_cyclic,
    standard_two_generated,
)
from .mcayley import (
    ConnectionMatrix,
    build,
    check_prop21_hypotheses,
    connection_is_oriented,
    regular_action_group,
    right_translation,
    valency_profile,
)
from .search import (
    SearchSpace,
    exhaustive_search,
    nonexistence_instances,
    search_trivial_aut_digraph,
)
from .verify import verify_connection

TWO_GENERATED_NAMES = ("S3", "D4", "D5", "Q8", "Z2xZ4", "A4")


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    elapsed_seconds: float
    limit_seconds: float | None

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        if self.limit_seconds is None:
            timing = f"{self.elapsed_seconds:7.2f}s"
        else:
            timing = f"{self.elapsed_seconds:7.2f}s < {self.limit_seconds:g}s"
        return f"{verdict}  {self.number:>2}  {self.name:<24} {timing}  {self.detail}"


def _timed(
    number: int, name: str, limit: float | None, body: Callable[[], tuple[bool, str]]
) -> CriterionResult:
    start = time.perf_counter()
    ok, detail = body()
    elapsed = time.perf_counter() - start
    if limit is not None and elapsed >= limit:
        ok = False
        detail += f"; exceeded {limit:g}s limit"
    return CriterionResult(number, name, ok, detail, elapsed, limit)


def z4_block_example() -> tuple[FiniteGroup, ConnectionMatrix]:
    """Two-block matrix over Z4 whose digraph has 8 automorphisms, not 4.

    The interesting part is that it satisfies every local constraint
    (oriented, 3-regular, connected) yet still fails to pin Aut down to the
    translations, so it exercises the NOT-OMSR verdict path.
    """
    group, _ = make_cyclic(4)
    conn = ConnectionMatrix.from_entries(2, {(0, 0): {1}, (0, 1): {0, 1}, (1, 0): {1, 2}, (1, 1): {1}})
    return group, conn


# A grid instance is (group, generators, m); construct_omsr picks the family.
Instance = tuple[FiniteGroup, GeneratorSpec, int]


def z2_grid() -> Iterator[Instance]:
    group, spec = make_cyclic(2)
    for m in range(5, 41):
        yield group, spec, m


def cyclic_grid() -> Iterator[Instance]:
    for n in range(5, 13):
        yield *make_cyclic(n), 2
    for n in range(3, 11):
        group, spec = make_cyclic(n)
        for m in range(3, 9):
            yield group, spec, m


def klein_grid() -> Iterator[Instance]:
    group, spec = klein_four()
    for m in range(3, 13):
        yield group, spec, m


def two_generated_grid() -> Iterator[Instance]:
    for name in TWO_GENERATED_NAMES:
        group, spec = standard_two_generated(name)
        for m in range(2, 7):
            yield group, spec, m


def family_grid() -> Iterator[Instance]:
    """Every constructed instance the acceptance grid certifies."""
    yield from z2_grid()
    yield from cyclic_grid()
    yield from klein_grid()
    yield from two_generated_grid()


def _constructed(
    grid: Iterator[Instance],
) -> Iterator[tuple[str, FiniteGroup, ConnectionMatrix]]:
    for group, spec, m in grid:
        conn = construct_omsr(group, spec, m)
        if not isinstance(conn, ConnectionMatrix):
            raise ValueError(f"grid instance {group.name} m={m} has no construction")
        yield f"{group.name} m={m}", group, conn


def _check_grid(grid: Iterator[Instance]) -> tuple[bool, str]:
    count = 0
    for label, group, conn in _constructed(grid):
        count += 1
        report = verify_connection(group, conn)
        if report.verdict != "OMSR" or not report.connected:
            return False, f"{label}: {report.checks}"
    return True, f"{count} instances, every |Aut| as expected"


def _z4_block_example() -> tuple[bool, str]:
    group, conn = z4_block_example()
    order = automorphism_group(build(group, conn)).order()
    return order == 8, f"|Aut| = {order} (expected 8 > |G| = 4)"


def _nonexistence_suite() -> tuple[bool, str]:
    tested = 0
    for name, group, m in nonexistence_instances():
        outcome = exhaustive_search(SearchSpace(group, m))
        label = f"({name}, m={m})"
        if outcome.status != "EXHAUSTED":
            return False, f"{label}: {outcome.status}, expected exhaustion"
        hist = outcome.aut_order_histogram
        if (name, m) in (("Z2", 4), ("Z4", 2)):
            if not hist:
                return False, f"{label}: empty histogram"
            if min(hist) <= group.n:
                return False, f"{label}: candidate with |Aut| <= {group.n}"
        tested += outcome.candidates_tested
    return True, f"6 instances exhausted, {tested} candidates, histograms all above |G|"


def _random_digraph(rng: random.Random, nv: int, p: float) -> Digraph:
    arcs = [
        (u, v) for u in range(nv) for v in range(nv) if u != v and rng.random() < p
    ]
    return Digraph.from_arcs(nv, arcs)


def _oracle_equivalence() -> tuple[bool, str]:
    rng = random.Random(74207281)
    for trial in range(200):
        nv = rng.randrange(4, 9)
        graph = _random_digraph(rng, nv, rng.uniform(0.15, 0.6))
        fast = automorphism_group(graph).order()
        slow = brute_force_order(graph)
        if fast != slow:
            return False, f"trial {trial}: engine {fast} vs brute force {slow}"
    return True, "200 random digraphs, engine matches brute force"


_SMALL_GROUPS: list[Callable[[], tuple[FiniteGroup, object]]] = [
    lambda: make_cyclic(1),
    lambda: make_cyclic(2),
    lambda: make_cyclic(3),
    lambda: make_cyclic(4),
    lambda: make_cyclic(5),
    lambda: make_cyclic(6),
    lambda: make_cyclic(7),
    lambda: make_cyclic(8),
    klein_four,
    lambda: standard_two_generated("S3"),
    lambda: standard_two_generated("D4"),
    lambda: standard_two_generated("Q8"),
    lambda: standard_two_generated("Z2xZ4"),
]


def _structural_properties() -> tuple[bool, str]:
    rng = random.Random(82589933)
    for trial in range(500):
        group = rng.choice(_SMALL_GROUPS)()[0]
        n = group.n
        m = rng.randrange(1, 5)
        p = rng.uniform(0.1, 0.5)
        entries = {
            (i, j): {g for g in range(n) if rng.random() < p}
            for i in range(m)
            for j in range(m)
        }
        conn = ConnectionMatrix.from_entries(m, entries)
        graph = build(group, conn)
        tag = f"trial {trial} ({group.name}, m={m})"
        if connection_is_oriented(group, conn) != is_oriented(graph):
            return False, f"{tag}: oriented mismatch"
        outs, ins = valency_profile(group, conn)
        for k in range(max(outs) + max(ins) + 2):
            conn_level = all(s == k for s in outs) and all(s == k for s in ins)
            if conn_level != is_k_regular(graph, k):
                return False, f"{tag}: regularity mismatch at k={k}"
        translations = [right_translation(group, m, g) for g in range(n)]
        for g, p in enumerate(translations):
            if not is_automorphism(graph, p):
                return False, f"{tag}: translation by {g} not an automorphism"
        orbits = {frozenset(o) for o in regular_action_group(group, m).orbits()}
        blocks = {frozenset(range(i * n, (i + 1) * n)) for i in range(m)}
        if orbits != blocks:
            return False, f"{tag}: orbits differ from blocks"
        # the action group's order is |G| by construction, so semiregularity
        # is checked on the translations themselves: distinct, and only the
        # identity's fixes a point
        if len(set(translations)) != n or any(
            p[v] == v for p in translations[1:] for v in range(graph.nv)
        ):
            return False, f"{tag}: action not semiregular"
    return True, "500 random (G, T) samples, all five properties hold"


def _translation_hypotheses() -> tuple[bool, str]:
    count = 0
    for label, group, conn in _constructed(family_grid()):
        count += 1
        if not check_prop21_hypotheses(group, conn):
            return False, f"{label}: hypotheses fail"
    if check_prop21_hypotheses(*z4_block_example()):
        return False, "z4 example: hypotheses unexpectedly hold"
    return True, f"{count} instances force Aut onto the translations; z4 example does not"


def _clearing_retargets(
    group: FiniteGroup, m: int, claims: tuple
) -> list[tuple[int, tuple[int, int]]]:
    """Single-claim cell moves after which the table has no violations."""
    found = []
    for idx, (ci, cj, elements) in enumerate(claims):
        for i in range(m):
            for j in range(m):
                if (i, j) == (ci, cj):
                    continue
                cand = list(claims)
                cand[idx] = (i, j, elements)
                if not validate_claims(group, m, tuple(cand)):
                    found.append((idx, (i, j)))
    return found


def _repair_forcing() -> tuple[bool, str]:
    z2, z2spec = make_cyclic(2)
    z5, z5spec = make_cyclic(5)
    s3, s3spec = standard_two_generated("S3")
    rows = (
        # the two clearing moves are the duplicate (1,0) occurrences, and
        # both land on the same vacant cell, so the repair is forced up to
        # which duplicate travels
        ("z2-table", z2, z2spec, 6, Z2_UNREPAIRED_CLAIMS[6], [(0, (0, 1)), (10, (0, 1))]),
        ("cyclic-general", z5, z5spec, 3,
         cyclic_general_claims(z5, z5spec, 3, repaired=False), [(5, (2, 0))]),
        ("two-gen", s3, s3spec, 3,
         two_generated_claims(s3, s3spec, 3, repaired=False), [(5, (2, 0))]),
    )
    for family, group, spec, m, literal, moves in rows:
        if not validate_claims(group, m, literal):
            return False, f"literal {family} table reports no violations"
        fixes = _clearing_retargets(group, m, literal)
        if fixes != moves:
            return False, f"{family} clearing moves {fixes}"
        order = automorphism_group(build(group, family_matrix(family, group, spec, m))).order()
        if order != group.n:
            return False, f"repaired {family} table has |Aut| = {order}, not {group.n}"
    return True, "all three repairs forced by single-move enumeration"


def _rigid_explorer() -> tuple[bool, str]:
    outcome = search_trivial_aut_digraph(
        10, 3, oriented=True, mode="randomized", budget=50, seed=0
    )
    if outcome.status != "FOUND":
        return True, f"exploratory run ended {outcome.status}; nothing to certify"
    witness = outcome.witness
    assert witness is not None
    if not is_oriented(witness):
        return False, "witness not oriented"
    engine = automorphism_group(witness).order()
    if engine != 1:
        return False, f"engine reports |Aut| = {engine}"
    if witness.nv <= 10:
        brute = brute_force_order(witness)
        if brute != 1:
            return False, f"brute force reports |Aut| = {brute}"
    return True, (
        f"rigid oriented 3-regular witness on {witness.nv} vertices, "
        f"|Aut| = 1 under both engines"
    )


# (name, time limit in seconds or None, check); a criterion's number is its
# position in this table, counting from 1.
CRITERIA: tuple[tuple[str, float | None, Callable[[], tuple[bool, str]]], ...] = (
    ("z4-block-example", 1.0, _z4_block_example),
    ("z2-families", 30.0, lambda: _check_grid(z2_grid())),
    ("cyclic-families", 60.0, lambda: _check_grid(cyclic_grid())),
    ("klein-families", 30.0, lambda: _check_grid(klein_grid())),
    ("two-generated-families", 120.0, lambda: _check_grid(two_generated_grid())),
    ("nonexistence-suite", 600.0, _nonexistence_suite),
    ("oracle-equivalence", 60.0, _oracle_equivalence),
    ("structural-properties", 60.0, _structural_properties),
    ("translation-hypotheses", None, _translation_hypotheses),
    ("repair-forcing", 10.0, _repair_forcing),
    ("rigid-explorer", None, _rigid_explorer),
)


def run_all(numbers: tuple[int, ...] | None = None) -> list[CriterionResult]:
    """Run the numbered criteria (all when ``numbers`` is empty or None)."""
    selected = numbers or tuple(range(1, len(CRITERIA) + 1))
    for number in selected:
        if not 1 <= number <= len(CRITERIA):
            raise ValueError(f"no criterion {number}; criteria are numbered 1..{len(CRITERIA)}")
    return [_timed(number, *CRITERIA[number - 1]) for number in selected]
