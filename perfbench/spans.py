"""Span tracing from outside the package.

The tracer replaces module-level bindings (and two class attributes) of
``bnic`` with wrappers that record a span per call: name, start, end and
the index of the enclosing span.  Callers inside the package look these
names up at call time, so the wrappers see every call without any change to
the package.  ``restore()`` puts every original binding back.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

import bnic.engine
import bnic.fileio
import bnic.graph
import bnic.kernels
import bnic.oracle
import bnic.pipeline
from bnic.clustertree import ClusterTree
from bnic.graph import UndirectedGraph


def _thinning(tracer, args, result):
    tracer.add("pipeline.recursive_thinning.fill_in", len(args[0].fill))
    tracer.add("pipeline.recursive_thinning.fill_removed", len(args[0].fill) - len(result.fill))


def _cliques(tracer, args, result):
    tracer.add("pipeline.extract_cliques.cliques", len(result))


def _aggregate(tracer, args, result):
    mpd = result[0]
    tracer.add("mpd.aggregate_cliques.merges", len(args[0]) - len(mpd))
    largest = max((len(mpd.cluster(c)) for c in mpd.cluster_ids()), default=0)
    tracer.maxima["mpd.largest_mps"] = max(tracer.maxima["mpd.largest_mps"], largest)


def _kernel(name):
    def count(tracer, args, result):
        tracer.add(name, len(args[0]))

    return count


# (owner, attribute, span name, work counter).  A function imported into
# several modules is wrapped at each binding its callers use.
BINDINGS = [
    (bnic.graph, "moralize", "graph.moralize", None),
    (bnic.oracle, "moralize", "graph.moralize", None),
    (UndirectedGraph, "to_dense", "graph.to_dense", None),
    (bnic.graph, "is_chordal", "graph.is_chordal", None),
    (bnic.pipeline, "is_chordal", "graph.is_chordal", None),
    (bnic.oracle, "is_chordal", "graph.is_chordal", None),
    (bnic.kernels, "min_fill", "kernels.min_fill", _kernel("kernels.min_fill.vertices")),
    (bnic.kernels, "mcs", "kernels.mcs", _kernel("kernels.mcs.vertices")),
    (bnic.pipeline, "triangulate_min_fill", "pipeline.triangulate_min_fill", None),
    (bnic.pipeline, "recursive_thinning", "pipeline.recursive_thinning", _thinning),
    (bnic.pipeline, "perfect_elimination_order", "pipeline.perfect_elimination_order", None),
    (bnic.engine, "perfect_elimination_order", "pipeline.perfect_elimination_order", None),
    (bnic.pipeline, "extract_cliques", "pipeline.extract_cliques", _cliques),
    (bnic.oracle, "extract_cliques", "pipeline.extract_cliques", _cliques),
    (bnic.pipeline, "build_join_tree", "pipeline.build_join_tree", None),
    (bnic.pipeline, "assign_families", "pipeline.assign_families", None),
    (bnic.engine, "construct_join_tree", "pipeline.construct_join_tree", None),
    (bnic.oracle, "construct_join_tree", "pipeline.construct_join_tree", None),
    (bnic.engine, "aggregate_cliques", "mpd.aggregate_cliques", _aggregate),
    (bnic.oracle, "aggregate_cliques", "mpd.aggregate_cliques", _aggregate),
    (bnic.engine, "incremental_compile", "engine.incremental_compile", None),
    (bnic.engine, "modify_moral_graph", "engine.modify_moral_graph", None),
    (bnic.engine, "mark_remove_link", "engine.mark", None),
    (bnic.engine, "mark_remove_node", "engine.mark", None),
    (bnic.engine, "mark_add_link", "engine.mark", None),
    (bnic.engine, "connect", "engine.connect", None),
    (bnic.engine, "absorb_non_maximal", "engine.absorb_non_maximal", None),
    (bnic.engine, "derive_triangulation", "engine.derive_triangulation", None),
    (bnic.oracle, "validate", "oracle.validate", None),
    (bnic.oracle, "full_recompile", "oracle.full_recompile", None),
    (bnic.oracle, "mpd_equal", "oracle.mpd_equal", None),
    (ClusterTree, "is_tree", "clustertree.is_tree", None),
    (bnic.fileio, "parse_network", "fileio.parse", None),
    (bnic.fileio, "parse_script", "fileio.parse", None),
]


class Tracer:
    """Spans and work counts, kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self._saved: list[tuple[object, str, object]] = []

    def add(self, name: str, amount: int) -> None:
        self.counts[name] += amount

    def _open(self, name: str) -> int:
        i = len(self.spans)
        self.spans.append([name, 0, 0, self.stack[-1] if self.stack else -1])
        self.stack.append(i)
        return i

    def _close(self, i: int, start: int, end: int) -> None:
        self.stack.pop()
        self.spans[i][1] = start
        self.spans[i][2] = end

    @contextlib.contextmanager
    def span(self, name: str):
        """A benchmark-level span (one op, one check) around a with block."""
        i = self._open(name)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(i, start, time.perf_counter_ns())

    def wrapper(self, original, name: str, count=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:  # recursion: one span
                return original(*args, **kwargs)
            i = self._open(name)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(i, start, clock())
            if count is not None:
                count(self, args, result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name, count in BINDINGS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrapper(original, name, count))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- analysis ---------------------------------------------------------

    def within(self, ancestor: str) -> list[bool]:
        """For each span, whether it or an enclosing span is named ancestor."""
        inside = []
        for name, _, _, parent in self.spans:
            inside.append(name == ancestor or (parent >= 0 and inside[parent]))
        return inside

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total ms and self ms (total minus children)."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        for i, (name, start, end, _) in enumerate(self.spans):
            rec = out[name]
            rec["calls"] += 1
            rec["ms"] += (end - start) / 1e6
            rec["self_ms"] += (end - start - child_ns[i]) / 1e6
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent"], "spans": self.spans}, fh)


def span_cost_ns(samples: int = 20000) -> float:
    """Measured cost of one traced call over an untraced one, in ns."""

    def noop():
        return None

    tracer = Tracer()
    traced = tracer.wrapper(noop, "noop")
    clock = time.perf_counter_ns
    best = float("inf")
    for _ in range(5):
        t0 = clock()
        for _ in range(samples):
            noop()
        t1 = clock()
        for _ in range(samples):
            traced()
        t2 = clock()
        tracer.spans.clear()
        best = min(best, ((t2 - t1) - (t1 - t0)) / samples)
    return max(best, 0.0)
