"""Timing of incremental recompilation against full recompilation."""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import asdict, dataclass

from .engine import BatchTrace, CompiledModel, Modification, apply_modification, incremental_compile
from .oracle import full_recompile, oracle, stability


@dataclass(frozen=True)
class BenchRow:
    index: int
    description: str
    incremental_s: float
    full_s: float
    speedup: float
    stability: float
    marked_mps: int
    verified: bool


@dataclass
class BenchReport:
    rows: list[BenchRow]

    def median_incremental(self) -> float:
        return statistics.median(r.incremental_s for r in self.rows) if self.rows else 0.0

    def median_full(self) -> float:
        return statistics.median(r.full_s for r in self.rows) if self.rows else 0.0

    def median_stability(self) -> float:
        return statistics.median(r.stability for r in self.rows) if self.rows else 1.0

    def all_verified(self) -> bool:
        return all(r.verified for r in self.rows)

    def to_text(self) -> str:
        header = f"{'#':>3}  {'edit':<28} {'incr (ms)':>10} {'full (ms)':>10} {'speedup':>8} {'stability':>9} {'marked':>6} {'ok':>3}"
        lines = [header, "-" * len(header)]
        for r in self.rows:
            lines.append(
                f"{r.index:>3}  {r.description:<28.28} {r.incremental_s * 1e3:>10.3f} "
                f"{r.full_s * 1e3:>10.3f} {r.speedup:>8.2f} {r.stability:>9.3f} "
                f"{r.marked_mps:>6} {'yes' if r.verified else 'NO':>3}"
            )
        if self.rows:
            lines.append(
                f"median: incremental {self.median_incremental() * 1e3:.3f} ms, "
                f"full {self.median_full() * 1e3:.3f} ms, "
                f"stability {self.median_stability():.3f}"
            )
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "rows": [asdict(r) for r in self.rows],
                "median_incremental_s": self.median_incremental(),
                "median_full_s": self.median_full(),
                "median_stability": self.median_stability(),
                "all_verified": self.all_verified(),
            },
            indent=1,
        )


def _median_time(fn, repeats: int) -> tuple[float, object]:
    """The median wall time of repeats calls of fn, and the last call's result."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def run_bench(
    model: CompiledModel,
    edits: list[tuple[str, list[Modification]]],
    repeats: int = 5,
) -> BenchReport:
    """Per edit: median wall time of the incremental path vs a full recompile.

    Each repetition replays the edit on a fresh copy of the pre-edit model
    (copy time excluded); the state then advances by the edit, so rows follow
    script order.  Verification runs outside the timed sections, against the
    last timed full recompile.
    """
    rows: list[BenchRow] = []
    for i, (description, mods) in enumerate(edits, 1):
        copies = [model.copy() for _ in range(repeats)]
        it = iter(copies)
        incr_s, _ = _median_time(lambda: incremental_compile(next(it), list(mods)), repeats)

        dag2 = model.dag.copy()
        for mod in mods:
            apply_modification(dag2, mod)
        full_s, reference = _median_time(lambda: full_recompile(dag2), repeats)

        trace = BatchTrace()
        result = incremental_compile(model.copy(), list(mods), trace)
        verified = oracle(result, reference) is None

        rows.append(
            BenchRow(
                index=i,
                description=description,
                incremental_s=incr_s,
                full_s=full_s,
                speedup=(full_s / incr_s) if incr_s > 0 else float("inf"),
                stability=stability(model.jt, result.jt),
                marked_mps=len(trace.marked_ids()),
                verified=verified,
            )
        )
        model = result
    return BenchReport(rows)
