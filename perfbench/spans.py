"""Span recorder that measures the program's layers from outside.

``instrument`` swaps the module attributes the layers call through for
wrappers that open and close a span, and puts the originals back when the
block ends.  A span records its name, start, end, parent span and the id of
the verdict call it belongs to.  Spans stay in memory; the recorder keeps
per-name call counts, inclusive time and self time (duration minus the time
covered by child spans) as spans close, so the totals cost nothing at the end.
"""

from __future__ import annotations

import gzip
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

ENGINE = "autgroup.automorphism_group"
REFINE = "autgroup.refine"
LEAF = "autgroup.leaf"
SIFT = "perms.chain.contains"
EXTEND = "perms.chain.extend"
PERMGROUP = "perms.permgroup.init"
BUILD = "mcayley.build"
ROWS = "search.enumerate_rows"
SEARCH = "search.exhaustive_search"
VERIFY = "verify.verify_connection"
PREDICATES = "digraphs.predicates"


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.calls: Counter[str] = Counter()
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.verdict_id = -1
        self._open: list[list] = []  # [span index, name, start, child seconds]

    def begin(self, name: str) -> None:
        self._open.append([len(self.spans), name, 0.0, 0.0])
        self.spans.append(None)
        self._open[-1][2] = perf_counter()

    def end(self) -> None:
        end = perf_counter()
        index, name, start, child = self._open.pop()
        duration = end - start
        parent = -1
        if self._open:
            self._open[-1][3] += duration
            parent = self._open[-1][0]
        self.spans[index] = (name, start, end, parent, self.verdict_id)
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - child

    def wrap(self, name: str, fn):
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end()

        return traced

    def write(self, path: Path, verdicts: int) -> None:
        """Write the spans of the first ``verdicts`` verdict calls, one JSON
        array per line, gzip-compressed.  One traced pass is enough to follow
        every call through the layers, and all of them can run to millions."""
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write('["name", "start_s", "end_s", "parent", "verdict"]\n')
            for name, start, end, parent, verdict in self.spans:
                if verdict >= verdicts:
                    continue
                fh.write(
                    json.dumps(
                        [name, round(start - origin, 7), round(end - origin, 7), parent, verdict]
                    )
                    + "\n"
                )


def _traced_chain(base: type, rec: SpanRecorder) -> type:
    """Subclass of the chain class whose membership tests and top-level
    extensions open spans; the recursive closing steps inside ``extend``
    run under the caller's span."""

    class TracedChain(base):
        _extending = False

        def contains(self, images):
            rec.begin(SIFT)
            try:
                return base.contains(self, images)
            finally:
                rec.end()

        def extend(self, images):
            if self._extending:
                return base.extend(self, images)
            self._extending = True
            rec.begin(EXTEND)
            try:
                return base.extend(self, images)
            finally:
                rec.end()
                self._extending = False

    return TracedChain


@contextmanager
def instrument(mods, rec: SpanRecorder):
    """Route the layers' calls through spans for the duration of the block."""
    saved: list[tuple[object, str, object]] = []

    def patch(module, attr: str, new) -> None:
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    autgroup, perms = mods.autgroup, mods.perms
    engine_fn = autgroup.automorphism_group

    def engine(*args, **kwargs):
        # search calls the engine straight from its own frame, so an engine
        # span opened directly under a search span is one of its evaluations
        if rec._open and rec._open[-1][1] == SEARCH:
            rec.counts["search.engine_calls"] += 1
        rec.begin(ENGINE)
        try:
            group = engine_fn(*args, **kwargs)
        finally:
            rec.end()
        rec.counts["autgroup.generators"] += len(group.generators)
        return group

    search_fn = mods.search.exhaustive_search

    def search(*args, **kwargs):
        rec.begin(SEARCH)
        try:
            outcome = search_fn(*args, **kwargs)
        finally:
            rec.end()
        rec.counts["search.candidates"] += outcome.candidates_tested
        return outcome

    try:
        for module in (autgroup, mods.search, mods.verify):
            patch(module, "automorphism_group", engine)
        patch(autgroup, "refine", rec.wrap(REFINE, autgroup.refine))
        patch(autgroup, "_preserves_arcs", rec.wrap(LEAF, autgroup._preserves_arcs))
        chain = _traced_chain(perms._Chain, rec)
        patch(perms, "_Chain", chain)
        patch(autgroup, "_Chain", chain)
        patch(autgroup, "PermGroup", rec.wrap(PERMGROUP, autgroup.PermGroup))
        for module in (mods.search, mods.verify):
            patch(module, "build", rec.wrap(BUILD, module.build))
        patch(mods.search, "enumerate_rows", rec.wrap(ROWS, mods.search.enumerate_rows))
        patch(mods.search, "exhaustive_search", search)
        patch(mods.verify, "verify_connection", rec.wrap(VERIFY, mods.verify.verify_connection))
        for attr in ("is_oriented", "is_k_regular", "is_weakly_connected"):
            patch(mods.verify, attr, rec.wrap(PREDICATES, getattr(mods.verify, attr)))
        yield rec
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def layer_metrics(rec: SpanRecorder, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced passes as (value, unit), counts and
    seconds per pass over the inputs."""

    def per_pass(value: float, unit: str) -> tuple[float, str]:
        return value / passes, unit

    def ratio(num: float, den: float, unit: str = "ratio") -> tuple[float, str]:
        return (num / den if den else 0.0), unit

    calls, self_s, counts = rec.calls, rec.self_s, rec.counts
    return {
        "autgroup.automorphism_group.calls": per_pass(calls[ENGINE], "count"),
        "autgroup.automorphism_group.self_s": per_pass(self_s[ENGINE], "s"),
        "autgroup.refine.calls": per_pass(calls[REFINE], "count"),
        "autgroup.refine.self_s": per_pass(self_s[REFINE], "s"),
        "autgroup.refine.s_per_call": ratio(self_s[REFINE], calls[REFINE], "s"),
        "autgroup.nodes_per_call": ratio(calls[REFINE], calls[ENGINE], "count"),
        "autgroup.leaf.calls": per_pass(calls[LEAF], "count"),
        "autgroup.leaf.self_s": per_pass(self_s[LEAF], "s"),
        "autgroup.leaf_hit_ratio": ratio(counts["autgroup.generators"], calls[LEAF]),
        "perms.chain.sifts": per_pass(calls[SIFT], "count"),
        "perms.chain.extends": per_pass(calls[EXTEND], "count"),
        "perms.chain.self_s": per_pass(self_s[SIFT] + self_s[EXTEND], "s"),
        "perms.permgroup.init_s": per_pass(rec.total_s[PERMGROUP], "s"),
        "search.enumerate_rows.self_s": per_pass(self_s[ROWS], "s"),
        "search.enumeration.self_s": per_pass(self_s[SEARCH], "s"),
        "search.candidates": per_pass(counts["search.candidates"], "count"),
        "search.engine_calls_per_candidate": ratio(
            counts["search.engine_calls"], counts["search.candidates"]
        ),
        "mcayley.build.calls": per_pass(calls[BUILD], "count"),
        "mcayley.build.self_s": per_pass(self_s[BUILD], "s"),
        "digraphs.predicates.self_s": per_pass(self_s[PREDICATES], "s"),
        "verify.verify_connection.self_s": per_pass(self_s[VERIFY], "s"),
    }
