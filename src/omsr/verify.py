"""Full OmSR check pipeline producing a reloadable verification report.

A report records the four structural checks (oriented, 3-regular, weakly
connected, automorphism group order) together with the verdict. The verdict
is OMSR exactly when the digraph is oriented, 3-regular, and |Aut| equals the
group order; connectivity is reported but does not enter the verdict.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .autgroup import automorphism_group
from .digraphs import is_k_regular, is_oriented, is_weakly_connected
from .groups import FiniteGroup
from .mcayley import ConnectionMatrix, build
from .perms import cycle_string

SCHEMA = 1


@dataclass(frozen=True)
class VerificationReport:
    group_name: str
    group_order: int
    m: int
    family: str | None
    oriented: bool
    regular3: bool
    connected: bool
    aut_order: int
    verdict: str
    aut_generator_images: tuple[tuple[int, ...], ...]
    elapsed_seconds: float
    matrix: ConnectionMatrix

    @property
    def aut_generators(self) -> tuple[str, ...]:
        """The generators in cycle notation, written only when asked for."""
        return tuple(cycle_string(p) for p in self.aut_generator_images)

    @property
    def checks(self) -> dict:
        return {
            "oriented": self.oriented,
            "regular3": self.regular3,
            "connected": self.connected,
            "aut_order": self.aut_order,
            "group_order_expected": self.group_order,
            "verdict": self.verdict,
        }

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA,
            "group": {"name": self.group_name, "order": self.group_order},
            "m": self.m,
            "family": self.family,
            "checks": self.checks,
            "aut_generators": list(self.aut_generators),
            "aut_generator_images": [list(p) for p in self.aut_generator_images],
            "elapsed_seconds": self.elapsed_seconds,
            "matrix": self.matrix.to_json(),
        }

    def human_table(self) -> str:
        rows = [
            ("group", f"{self.group_name} (order {self.group_order})"),
            ("m", str(self.m)),
            ("family", self.family or "-"),
            ("oriented", "yes" if self.oriented else "no"),
            ("3-regular", "yes" if self.regular3 else "no"),
            ("weakly connected", "yes" if self.connected else "no"),
            ("|Aut|", str(self.aut_order)),
            ("expected |G|", str(self.group_order)),
            ("verdict", self.verdict),
            ("generators", "; ".join(self.aut_generators) or "(trivial)"),
            ("elapsed", f"{self.elapsed_seconds:.3f} s"),
        ]
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)


def verify_connection(
    group: FiniteGroup, conn: ConnectionMatrix, family: str | None = None
) -> VerificationReport:
    """Build the block digraph, run every check, and report the verdict."""
    start = time.perf_counter()
    graph = build(group, conn)
    oriented = is_oriented(graph)
    regular3 = is_k_regular(graph, 3)
    connected = is_weakly_connected(graph)
    aut = automorphism_group(graph)
    aut_order = aut.order()
    verdict = "OMSR" if oriented and regular3 and aut_order == group.n else "NOT-OMSR"
    return VerificationReport(
        group_name=group.name,
        group_order=group.n,
        m=conn.m,
        family=family,
        oriented=oriented,
        regular3=regular3,
        connected=connected,
        aut_order=aut_order,
        verdict=verdict,
        aut_generator_images=aut.generators,
        elapsed_seconds=time.perf_counter() - start,
        matrix=conn,
    )
