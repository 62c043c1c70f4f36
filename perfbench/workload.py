"""One benchmark workload, run in its own process.

    python3 perfbench/workload.py NAME --seed N --seconds S --trace 0|1 [--setup-only]

The process prints ``READY`` once its set-up is done (imports, input
generation and parsing, and the compile an edit stream starts from); with
``--setup-only`` it exits there.  Otherwise it runs the workload in a closed
loop on its one thread, checks every operation, and prints one JSON line:
``attempted``, ``failed``, ``metrics`` and ``info``.  ``run.py`` starts
these processes and turns their lines into the benchmark's result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from importlib.util import find_spec
from random import Random

import numpy as np

from bnic import engine, fileio, kernels, oracle
from bnic.engine import AddArc, BatchTrace, RemoveArc, apply_modification

import gen
from spans import Tracer, span_cost_ns

NETWORK_SEED = 42  # the fixed networks: the seed of the ROADMAP baseline and of `bnic bench`
COMPILE_SET = (("random", 120), ("random", 300), ("random", 600), ("banded", 300))
MIN_ROUNDS = 4  # compile rounds, at least: the relabeled one and 3 timed
SEGMENTS = 50  # edit streams restart from the base model this many times ...
FLUSHES_PER_SEGMENT = 2  # ... so each run times 100 flushes
RANDOM_N = 120
LOCAL_N = 100
MIN_REPLAYS = 2  # timed replays of each flush on copies of the pre-flush model
MAX_REPLAYS = 25
CHECK_REPEATS = 3  # timings of each compile check
CAL_NOMINAL_S = 0.020  # the calibration loop's time at the nominal speed
CAL_WINDOW = 5

clock = time.perf_counter


def _network(kind: str, n: int) -> gen.Net:
    rng = Random(NETWORK_SEED)
    return gen.random_dag(n, rng) if kind == "random" else gen.banded_dag(n, rng)


def _relabel(text: str, rng: Random) -> str:
    """The same network with its node lines, hence its variable ids, shuffled."""
    lines = text.splitlines()
    nodes = [l for l in lines if l.startswith("node ")]
    rng.shuffle(nodes)
    return "\n".join(nodes + [l for l in lines if not l.startswith("node ")]) + "\n"


def _named(tree, table) -> Counter:
    return Counter(frozenset(table.name(v) for v in tree.cluster(c)) for c in tree.cluster_ids())


def _mpd_signature(model) -> tuple[Counter, Counter]:
    """The MPS decomposition over variable names, comparable across labelings."""
    table = model.dag.table
    seps = Counter(frozenset(table.name(v) for v in sep) for _, _, sep in model.mpd.edges())
    return _named(model.mpd, table), seps


def fill_edges(model) -> int:
    """Fill of the triangulation the junction tree implies: every pair inside
    a cluster is an edge, and every moral edge lies inside some cluster."""
    pairs = set()
    for c in model.jt.cluster_ids():
        vs = sorted(model.jt.cluster(c))
        pairs.update((u, v) for i, u in enumerate(vs) for v in vs[i + 1 :])
    return len(pairs) - model.moral.edge_count()


def clique_weight(model) -> int:
    return sum(2 ** len(model.jt.cluster(c)) for c in model.jt.cluster_ids())


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile (q a multiple of 10) as statistics.quantiles gives it."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]


def calibration_loop() -> int:
    """Fixed work of the kinds bnic spends its time on: set and dict updates
    in the interpreter (a greedy min-fill over 56 vertices) and small numpy
    calls.  It uses nothing from bnic, so no change to the package moves it."""
    rng = Random(1)
    n = 56
    adj = {v: set() for v in range(n)}
    for _ in range(148):
        u, v = rng.sample(range(n), 2)
        adj[u].add(v)
        adj[v].add(u)
    alive = set(adj)

    def cost(v):
        nbrs = adj[v] & alive
        return sum(1 for a in nbrs for b in nbrs if a < b and b not in adj[a]), v

    while alive:
        best = min(alive, key=cost)
        nbrs = sorted(adj[best] & alive)
        for i, a in enumerate(nbrs):
            for b in nbrs[i + 1 :]:
                adj[a].add(b)
                adj[b].add(a)
        alive.discard(best)
    dense = np.zeros((n, n), dtype=bool)
    for u, nbrs in adj.items():
        dense[u, sorted(nbrs)] = True
    total = 0
    for v in range(n):
        nb = np.flatnonzero(dense[v])
        total += int(np.triu(dense[np.ix_(nb, nb)], 1).sum())
    return total


class Run:
    """Op accounting and the speed calibration shared by the workloads."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.info: dict = {}
        self.counts: Counter = Counter()  # engine counts and diagnostics of a traced run
        self.calibrations: list[float] = []

    def speed_factor(self, loops: int = 1, window: int = CAL_WINDOW) -> float:
        """Time the calibration loop now; returns the factor that turns a time
        measured around now into one at the nominal speed: CAL_NOMINAL_S over
        the median of the last ``window`` loops."""
        gc.collect()
        for _ in range(loops):
            t0 = clock()
            calibration_loop()
            self.calibrations.append(clock() - t0)
        return CAL_NOMINAL_S / statistics.median(self.calibrations[-window:])

    def op(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"failed: {what}", file=sys.stderr)


# ---------------------------------------------------------------------------
# compile: full compiles of a fixed set of networks
# ---------------------------------------------------------------------------


def setup_compile(seed: int) -> dict:
    rng = Random(seed)
    items = []
    for kind, n in COMPILE_SET:
        text = _network(kind, n).text()
        labelings = [text, _relabel(text, rng)]
        items.append(
            {
                "name": f"{kind}{n}",
                "n": n,
                "dags": [fileio.parse_network(t) for t in labelings],
                "digest": gen.digest(*labelings),
            }
        )
    return {"items": items}


def _compile_ok(model, signature) -> bool:
    graph = model.tri.graph()
    return (
        oracle.is_chordal(graph)[0]
        and Counter(oracle.extract_cliques(graph)) == model.jt.cluster_multiset()
        and _mpd_signature(model) == signature
    )


def run_compile(state: dict, seconds: float, run: Run) -> dict:
    """Round-robin compiles of every network, for at least MIN_ROUNDS rounds
    and, untraced, until ``seconds`` have passed.  The second round compiles
    each network's seeded relabeling for the check only; every other round
    compiles the network as generated and is timed, so the timed input is
    the same whatever the seed.

    Each compile is checked: its triangulation must be chordal with the
    junction-tree clusters as its maximal cliques, and its MPS tree must
    match the first compile of the network over variable names.  The MPS
    decomposition is the same for every minimal triangulation, so that
    holds even where the labeling changed the triangulation."""
    items = state["items"]
    samples = {it["name"]: [] for it in items}
    checks = {it["name"]: [] for it in items}
    first: dict[str, tuple] = {}
    stab: list[float] = []
    fill = weight = 0
    start = clock()
    r = 0
    while r < MIN_ROUNDS or (run.tracer is None and clock() - start < seconds):
        for it in items:
            name, dag = it["name"], it["dags"][1 if r == 1 else 0]
            run.attempted += 1
            run.speed_factor(loops=CAL_WINDOW)
            gc.collect()
            try:
                with run.op("op.compile"):
                    t0 = clock()
                    model = oracle.full_recompile(dag)
                    elapsed = clock() - t0
            except Exception:
                traceback.print_exc()
                run.fail(f"compile {name} round {r}")
                continue
            # a compile can take seconds: calibrate on both sides of it
            factor = run.speed_factor(loops=CAL_WINDOW, window=2 * CAL_WINDOW)
            if r != 1:
                samples[name].append(elapsed * factor)
            reference = first.setdefault(name, (_mpd_signature(model), model))
            times = []
            for _ in range(CHECK_REPEATS):  # the check is short: time it a few times
                gc.collect()
                with run.op("op.check"):
                    t0 = clock()
                    ok = _compile_ok(model, reference[0])
                    times.append(clock() - t0)
            checks[name].append(statistics.median(times) * factor)
            if not ok:
                run.fail(f"compile {name} round {r}: check failed")
            if r == 0:
                fill += len(model.tri.fill)
                weight += clique_weight(model)
            elif r == 2:  # same labeling as round 0: the share compiled identically
                shared = reference[1].jt.cluster_multiset() & model.jt.cluster_multiset()
                stab.append(sum(shared.values()) / len(model.jt))
        r += 1
    medians = {k: statistics.median(v) for k, v in samples.items() if v}
    per_net = list(medians.values())
    run.info["digest"] = gen.digest(*(it["digest"] for it in items))
    run.info["compile_ms"] = {k: 1e3 * v for k, v in medians.items()}
    run.info["compiles"] = {k: len(v) for k, v in samples.items()}
    return {
        "compile_ms.geomean": 1e3 * math.exp(statistics.fmean(math.log(m) for m in per_net)),
        "compile_vars_per_s": math.exp(statistics.fmean(math.log(it["n"] / medians[it["name"]]) for it in items)),
        "edit_ms.p50": 1e3 * _quantile(per_net, 50),
        "edit_ms.p90": 1e3 * _quantile(per_net, 90),
        "verify_ms.p50": 1e3 * statistics.median(statistics.median(v) for v in checks.values() if v),
        "stability.mean": statistics.fmean(stab),
        "fill_edges": fill,
        "clique_weight_log2": math.log2(weight),
    }


# ---------------------------------------------------------------------------
# edit streams
# ---------------------------------------------------------------------------


def setup_edit_random(seed: int) -> dict:
    net = _network("random", RANDOM_N)
    text = net.text()
    dag = fileio.parse_network(text)
    rng = Random(seed)
    segments, script = [], []
    for _ in range(SEGMENTS):
        batches = []
        for kind, p, c in gen.arc_stream(net, FLUSHES_PER_SEGMENT, rng):
            u, v = dag.table.id(net.names[p]), dag.table.id(net.names[c])
            batches.append([AddArc(u, v) if kind == "add-arc" else RemoveArc(u, v)])
            script += [f"{kind} {net.names[p]} {net.names[c]}", "compile"]
        segments.append(batches)
    return {
        "base": oracle.full_recompile(dag),
        "segments": segments,
        "validate": False,
        "digest": gen.digest(text, "\n".join(script)),
    }


def setup_edit_local(seed: int) -> dict:
    net = _network("banded", LOCAL_N)
    text = net.text()
    dag = fileio.parse_network(text)
    rng = Random(seed)
    scripts = [
        gen.local_script(net, FLUSHES_PER_SEGMENT, rng, prefix=f"x{k}_")
        for k in range(SEGMENTS)
    ]
    return {
        "base": oracle.full_recompile(dag),
        "segments": [fileio.parse_script(s, dag) for s in scripts],
        "validate": True,
        "digest": gen.digest(text, *scripts),
    }


def _replays(model, mods, deadline: float, run: Run, factor: float):
    """Time the flush on fresh copies of the pre-flush model (copying is not
    timed); returns the last copy, now post-flush, and the samples."""
    samples = []
    while True:
        work = model.copy()
        trace = BatchTrace() if run.tracer else None
        gc.collect()
        with run.op("op.edit"):
            t0 = clock()
            engine.incremental_compile(work, list(mods), trace)
            samples.append((clock() - t0) * factor)
        if trace is not None:
            counts = run.counts
            counts["engine.links_changed"] += sum(len(rec.links) for rec in trace.mods)
            counts["engine.marked_mps"] += len(trace.marked_ids())
            counts["engine.rebuild.subtrees"] += len(trace.subtrees)
            counts["engine.rebuild.region_vars"] += sum(len(s.variables) for s in trace.subtrees)
            counts["engine.absorbed"] += len(trace.absorbed)
            return work, samples
        if len(samples) >= MAX_REPLAYS or len(samples) >= MIN_REPLAYS and clock() >= deadline:
            return work, samples


def run_edits(state: dict, seconds: float, run: Run) -> dict:
    """Every segment replays its flushes from a copy of the base model.

    Each flush is timed on copies (median of its replays), then checked
    outside the timed section: the engine's model must equal a full
    recompile of the benchmark's own replay of the batch on the pre-flush
    dag (plus ``validate`` where the workload asks for it).  A failed flush
    counts, and the stream continues from that recompile."""
    segments = state["segments"]
    total = sum(len(s) for s in segments)
    edit_s, verify_s, compile_s, compile_n, stab, speedup = [], [], [], [], [], []
    fill, weight = [], []
    model_vars = 0
    start = clock()
    done = 0
    for segment in segments:
        model = state["base"].copy()
        for mods in segment:
            done += 1
            run.attempted += 1
            expected = model.dag.copy()
            for mod in mods:
                apply_modification(expected, mod)
            factor = run.speed_factor()
            try:
                new, samples = _replays(model, mods, start + seconds * done / total, run, factor)
            except Exception:
                traceback.print_exc()
                new, samples = None, []
            gc.collect()
            with run.op("op.check"):
                t0 = clock()
                valid = oracle.validate(new).passed if new is not None and state["validate"] else True
                t1 = clock()
                reference = oracle.full_recompile(expected)
                t2 = clock()
                same = new is not None and oracle.mpd_equal(new.mpd, reference.mpd)
                t3 = clock()
            compile_s.append((t2 - t1) * factor)
            compile_n.append(len(expected))
            if new is None or not (valid and same and new.dag == expected):
                run.fail(f"flush {done}: " + ("raised" if new is None else "check failed"))
                model = reference
                continue
            edit_s.append(statistics.median(samples))
            verify_s.append((t3 - t0) * factor)
            speedup.append(compile_s[-1] / edit_s[-1])
            stab.append(oracle.stability(model.jt, new.jt))
            model_vars += len(new.dag)
            fill.append(fill_edges(new))
            weight.append(clique_weight(new))
            model = new
    run.info["digest"] = state["digest"]
    run.info["flushes"] = total
    run.info["mods"] = sum(len(b) for s in segments for b in s)
    run.counts["engine.rebuild.region_share"] = run.counts["engine.rebuild.region_vars"] / max(model_vars, 1)
    run.counts["diag.speedup.p50"] = statistics.median(speedup) if speedup else 0.0
    return {
        "compile_ms.geomean": 1e3 * math.exp(statistics.fmean(math.log(s) for s in compile_s)),
        "compile_vars_per_s": sum(compile_n) / sum(compile_s),
        "edit_ms.p50": 1e3 * _quantile(edit_s, 50),
        "edit_ms.p90": 1e3 * _quantile(edit_s, 90),
        "verify_ms.p50": 1e3 * statistics.median(verify_s),
        "stability.mean": statistics.fmean(stab),
        "fill_edges": statistics.fmean(fill),
        "clique_weight_log2": math.log2(statistics.fmean(weight)),
    }


WORKLOADS = {
    "compile": (setup_compile, run_compile),
    "edit-random": (setup_edit_random, run_edits),
    "edit-local": (setup_edit_local, run_edits),
}


# ---------------------------------------------------------------------------
# per-layer figures of a traced run
# ---------------------------------------------------------------------------


def layer_metrics(tracer: Tracer, run: Run) -> dict:
    out: dict[str, float] = {}
    for name, rec in tracer.layer_totals().items():
        out[f"{name}.ms"] = rec["ms"]
        out[f"{name}.self_ms"] = rec["self_ms"]
        out[f"{name}.calls"] = rec["calls"]
    out.update(tracer.counts)
    out.update(tracer.maxima)
    out.update(run.counts)

    spans = tracer.spans
    in_engine = tracer.within("engine.incremental_compile")
    rebuild_ns = edit_fill_ns = edit_ns = 0
    for i, (name, start, end, _) in enumerate(spans):
        dur = end - start
        if name == "engine.incremental_compile":
            edit_ns += dur
        elif in_engine[i] and name in ("pipeline.construct_join_tree", "mpd.aggregate_cliques"):
            rebuild_ns += dur
        if in_engine[i] and name == "kernels.min_fill":
            edit_fill_ns += dur
    out["engine.rebuild.ms"] = rebuild_ns / 1e6
    out["diag.min_fill_share_of_edit"] = edit_fill_ns / edit_ns if edit_ns else 0.0

    # tracing overhead on each end-to-end timing: spans recorded inside the
    # timed section times the measured cost of one span, over its duration
    cost = span_cost_ns()
    inner = [0] * len(spans)
    for i in range(len(spans) - 1, -1, -1):
        parent = spans[i][3]
        if parent >= 0:
            inner[parent] += inner[i] + 1
    timed = {"compile_ms": "oracle.full_recompile", "edit_ms": "op.edit", "verify_ms": "op.check"}
    for metric, span_name in timed.items():
        n = dur = 0
        for i, (name, start, end, _) in enumerate(spans):
            if name == span_name:
                n += inner[i]
                dur += end - start
        out[f"trace.overhead.{metric}"] = n * cost / dur if dur else 0.0
    out["trace.span_cost_ns"] = cost
    out["trace.spans"] = len(spans)
    return out


def environment(seed: int) -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "numba_importable": find_spec("numba") is not None,
        "numba_enabled": kernels.numba_enabled(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool, ready=lambda: None):
    """Set up and run one workload; returns the Run, its end-to-end figures
    and the tracer (None when untraced).  Every wrapper is removed again."""
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    try:
        setup, body = WORKLOADS[name]
        state = setup(seed)
        ready()
        run = Run(tracer)
        metrics = body(state, seconds, run)
    finally:
        if tracer:
            tracer.restore()
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    cal = run.calibrations
    run.info["calibration_ms"] = {"median": 1e3 * statistics.median(cal), "min": 1e3 * min(cal), "max": 1e3 * max(cal)}
    return run, metrics, tracer


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", help="write the traced run's spans to this file")
    args = p.parse_args(argv)

    if args.setup_only:
        WORKLOADS[args.workload][0](args.seed)
        print("READY", flush=True)
        return 0
    run, metrics, tracer = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), lambda: print("READY", flush=True)
    )
    if tracer:
        run.info["end_to_end_traced"] = metrics
        metrics = layer_metrics(tracer, run)
        if args.spans:
            tracer.write(args.spans)
    run.info["environment"] = environment(args.seed)
    print(json.dumps({"attempted": run.attempted, "failed": run.failed, "metrics": metrics, "info": run.info}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
