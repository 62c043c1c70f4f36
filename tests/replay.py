"""Replay seeded edit streams and record one digest line per flush.

    python3 tests/replay.py > run.jsonl
    python3 tests/replay.py --diff A.jsonl B.jsonl

A run compiles each seeded model, flushes its edit batches one at a time
through ``incremental_compile`` and writes one JSON line per flush.  The
line names the flush (stream, case, flush index) and holds a sha256 of
each output the engine keeps: the junction tree (with its ids, and as its
cluster multiset alone), the MPS tree (with its ids, and as cluster and
separator multisets alone), the family map, the
clique owners, the clique groups (the partition the owners make, as
sorted lists of clique ids, which no MPS id enters), the fill
(``sorted(model.tri.fill)``), the ``BatchTrace`` and the shape (the
junction tree, family map and owner map with every clique id replaced by
its rank among the live ids), three figures: the fill's edge count, the
clique weight (the sum of 2^|C| over the junction cliques) and the number
of the flush's regions per rebuild path (``SubtreeTrace.path``), plus two
verdicts: ``validate`` and ``mpd_equal`` against a full recompile of the
edited dag.

The streams are:

- ``random``: 600 ``random_dag`` models (n from 1 to 30, edge odds 0.05,
  0.15 and 0.3 in turn), each given 5 ``random_script`` batches;
- ``banded``: 600 ``conftest.banded_dag`` models (n from 10 to 120), each
  given 5 ``random_script`` batches.  Min-fill leaves redundant fill on
  banded nets, so their re-triangulated regions are the ones whose
  thinning splits cliques;
- ``edit-random`` and ``edit-local``: the benchmark's edit streams
  (``perfbench/workload.py``) for seeds 1 to 3, 100 flushes each, every
  segment flushed from a copy of the stream's base model.

That is 6,600 flushes.  ``--diff`` compares two runs line by line: it
prints, per stream, the flushes compared and how many diverge, the first
diverging flush and which of its digests differ, the count of diverging
flushes per digest, most first, then apart the count and first divergence
of the junction trees, of the MPS multisets (the part that any minimal
triangulation shares) and of the junction cliques (the triangulation,
whatever the ids and the tree shape), how many of the diverging junction
trees are equal in shape (only renamed), then for each run the stream's
summed fill edges and clique weight (B's also as a ratio to A's) and its
regions per rebuild path, so a change that moves triangulations shows its
quality cost; last, every flush whose verdicts fail.  It exits 1 if anything diverged or failed.  A digest that one run
lacks (a run from before it was added) is not compared.  The package is
imported from this checkout's ``src``, so a run at another commit is the
same command in that commit's checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from collections import Counter
from itertools import chain
from pathlib import Path
from random import Random

ROOT = Path(__file__).resolve().parents[1]
if __name__ == "__main__":  # a script run replays this checkout's package
    sys.path.insert(0, str(ROOT / "src"))

from bnic import BatchTrace, full_recompile, incremental_compile, mpd_equal, random_dag, random_script, validate
from conftest import banded_dag

RANDOM_MODELS = 600
BANDED_MODELS = 600
BANDED_SIZES = (10, 120)
FLUSHES = 5
EDGE_ODDS = (0.05, 0.15, 0.3)
BENCH_SEEDS = (1, 2, 3)
PERFBENCH = ROOT / "perfbench"
PARTS = ("jt", "mpd", "mps", "cliques", "family", "owner", "groups", "fill", "trace", "shape")


def sha256(obj) -> str:
    """The sha256 of obj's compact JSON."""
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


def tree_record(tree) -> dict:
    """A tree's clusters in id order and its edges sorted, every set a sorted list."""
    return {
        "clusters": [[c, sorted(tree.cluster(c))] for c in tree.cluster_ids()],
        "edges": sorted([a, b, sorted(sep)] for a, b, sep in tree.edges()),
    }


def cliques_record(tree) -> list[list[int]]:
    """A tree's cluster multiset, without ids: a sorted list of sorted lists."""
    return sorted(sorted(tree.cluster(c)) for c in tree.cluster_ids())


def mps_record(tree) -> dict:
    """A tree's cluster and separator multisets, without ids: sorted lists of sorted lists."""
    return {
        "clusters": cliques_record(tree),
        "separators": sorted(sorted(sep) for _, _, sep in tree.edges()),
    }


def shape_record(model) -> dict:
    """The junction tree, family map and owner map, each clique id replaced by its rank among the live ids."""
    jt = model.jt
    rank = {c: r for r, c in enumerate(jt.cluster_ids())}.get
    return {
        "clusters": [sorted(jt.cluster(c)) for c in jt.cluster_ids()],
        "edges": sorted([rank(a), rank(b), sorted(sep)] for a, b, sep in jt.edges()),
        "family": sorted([v, rank(c)] for v, c in model.family.items()),
        "owner": sorted([rank(c), rank(m)] for c, m in model.owner.items()),
    }


def groups_record(owner: dict[int, int]) -> list[list[int]]:
    """The cliques grouped by owner, as sorted lists of clique ids, sorted."""
    groups: dict[int, list[int]] = {}
    for c, m in owner.items():
        groups.setdefault(m, []).append(c)
    return sorted(sorted(cs) for cs in groups.values())


def trace_record(trace: BatchTrace) -> dict:
    """Per modification its links, marked MPSs and rewirings; then the subtrees (thinned, inserted or not) and absorbed pieces."""
    return {
        "mods": [
            [
                rec.description,
                [[l.u, l.v, l.added] for l in rec.links],
                [[m, sorted(vs)] for m, vs in rec.touched.items()],
                [[list(rw["removed"]), list(rw["added"]), sorted(rw["separator"])] for rw in rec.rewired],
            ]
            for rec in trace.mods
        ],
        "subtrees": [[list(s.mps_ids), sorted(s.variables), s.thinned, s.inserted] for s in trace.subtrees],
        "absorbed": [[sorted(a), sorted(b)] for a, b in trace.absorbed],
    }


def flush_record(stream: str, case: str, flush: int, model, trace: BatchTrace) -> dict:
    """The digests and verdicts of one flushed model."""
    mpd = model.mpd
    return {
        "stream": stream,
        "case": case,
        "flush": flush,
        "jt": sha256(tree_record(model.jt)),
        "mpd": sha256(tree_record(mpd)),
        "mps": sha256(mps_record(mpd)),
        "cliques": sha256(cliques_record(model.jt)),
        "family": sha256(sorted(model.family.items())),
        "owner": sha256(sorted(model.owner.items())),
        "groups": sha256(groups_record(model.owner)),
        "fill": sha256(sorted(sorted(pair) for pair in model.tri.fill)),
        "trace": sha256(
            {
                **trace_record(trace),
                "new_cliques": [[sorted(c) for c in s.new_cliques] for s in trace.subtrees],
                "new_jt_ids": sorted(trace.new_jt_ids),
                "new_mpd_ids": sorted(trace.new_mpd_ids),
            }
        ),
        "shape": sha256(shape_record(model)),
        "fill_edges": model.fill.edge_count(),
        "clique_weight": sum(2 ** len(model.jt.cluster(c)) for c in model.jt.cluster_ids()),
        "regions": dict(Counter(s.path for s in trace.subtrees)),
        "valid": validate(model).passed,
        "mpd_equal": mpd_equal(mpd, full_recompile(model.dag.copy()).mpd),
    }


def random_case(k: int, banded: bool = False):
    """Model k of the ``random`` (or ``banded``) stream and an endless iterator of its batches.

    ``Random(k)`` draws the dag, then each batch when it is taken, from the
    model's dag at that time: flush a batch before taking the next.
    """
    rng = Random(k)
    if banded:
        dag = banded_dag(rng.randint(*BANDED_SIZES), rng)
    else:
        dag = random_dag(rng.randint(1, 30), rng, edge_prob=EDGE_ODDS[k % 3])
    model = full_recompile(dag)

    def batches():
        while True:
            yield random_script(model.dag, rng.randint(1, 8), rng)

    return model, batches()


def random_flushes(models: int = RANDOM_MODELS, banded: bool = False):
    """The ``random`` (or ``banded``) stream's flushes as (case, flush, model, trace), from :func:`random_case`.

    Each model is flushed in place, so read it before taking the next flush.
    """
    for k in range(models):
        model, batches = random_case(k, banded)
        for f in range(FLUSHES):
            trace = BatchTrace()
            incremental_compile(model, next(batches), trace)
            yield k, f, model, trace


def random_records(models: int = RANDOM_MODELS):
    """The ``random`` stream's flush records."""
    for k, f, model, trace in random_flushes(models):
        yield flush_record("random", str(k), f, model, trace)


def banded_records(models: int = BANDED_MODELS):
    """The ``banded`` stream's flush records."""
    for k, f, model, trace in random_flushes(models, banded=True):
        yield flush_record("banded", str(k), f, model, trace)


def bench_records():
    """The benchmark's ``edit-random`` and ``edit-local`` streams."""
    sys.path.insert(0, str(PERFBENCH))
    import workload

    for stream, setup in (("edit-random", workload.setup_edit_random), ("edit-local", workload.setup_edit_local)):
        for seed in BENCH_SEEDS:
            state = setup(seed)
            for s, segment in enumerate(state["segments"]):
                model = state["base"].copy()
                for f, mods in enumerate(segment):
                    trace = BatchTrace()
                    incremental_compile(model, list(mods), trace)
                    yield flush_record(stream, f"{seed}/{s}", f, model, trace)


def digest_of(records) -> str:
    """One sha256 over the records, in order."""
    return sha256(list(records))


def _load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def diff(a: list[dict], b: list[dict]) -> int:
    """Print the per-stream comparison of two runs; returns the exit status."""
    def key(r):
        return r["stream"], r["case"], r["flush"]

    if [key(r) for r in a] != [key(r) for r in b]:
        print("the runs cover different flushes")
        return 1
    parts = [p for p in PARTS if a and p in a[0] and p in b[0]]
    trees = {"jt": "junction trees", "mps": "MPS trees", "cliques": "junction cliques"}
    total, diverged, first = Counter(), Counter(), {}
    for ra, rb in zip(a, b):
        stream = ra["stream"]
        total[stream] += 1
        differ = [p for p in parts if ra[p] != rb[p]]
        if "jt" in differ and "shape" in parts and "shape" not in differ:
            diverged[stream, "renamed"] += 1
        # "any" counts the flushes with some digest apart, the parts their own
        for what in ["any", *differ] if differ else []:
            diverged[stream, what] += 1
            first.setdefault((stream, what), (ra["case"], ra["flush"], differ))
    status = 0
    for stream in total:
        print(f"{stream}: {diverged[stream, 'any']} of {total[stream]} flushes diverge")
        if (stream, "any") in first:
            case, flush, differ = first[stream, "any"]
            print(f"  first: case {case} flush {flush} ({', '.join(differ)})")
            by_field = sorted((p for p in parts if diverged[stream, p]), key=lambda p: -diverged[stream, p])
            print("  by field: " + ", ".join(f"{p} {diverged[stream, p]}" for p in by_field))
            status = 1
        for p, label in trees.items():
            if (stream, p) in first:
                case, flush, _ = first[stream, p]
                print(f"  {label}: {diverged[stream, p]} diverge, the first at case {case} flush {flush}")
        if (stream, "jt") in first and "shape" in parts:
            print(f"  renamed only: {diverged[stream, 'renamed']} of the {diverged[stream, 'jt']} junction trees")
        for line in _quality_lines(stream, a, b):
            print("  " + line)
    for name, run in (("A", a), ("B", b)):
        for r in run:
            if not (r["valid"] and r["mpd_equal"]):
                print(f"{name}: {r['stream']} case {r['case']} flush {r['flush']} fails"
                      f" (valid={r['valid']}, mpd_equal={r['mpd_equal']})")
                status = 1
    return status


def _quality_lines(stream: str, a: list[dict], b: list[dict]) -> list[str]:
    """Per run, the stream's summed fill edges and clique weight (B's also as a ratio to A's), and its regions per rebuild path."""
    lines, base = [], None
    for name, run in (("A", a), ("B", b)):
        records = [r for r in run if r["stream"] == stream and "fill_edges" in r]
        if not records:
            continue  # a run from before these fields were recorded
        fill = sum(r["fill_edges"] for r in records)
        weight = sum(r["clique_weight"] for r in records)
        regions = Counter()
        for r in records:
            regions.update(r["regions"])
        ratios = ("", "")
        if base is not None:
            ratios = tuple(f" ({x / y:.4f}x A)" if y else "" for x, y in zip((fill, weight), base))
        else:
            base = fill, weight
        paths = ", ".join(f"{path} {regions[path]}" for path in ("thinned", "inserted", "re-triangulated"))
        lines.append(
            f"{name}: fill edges {fill}{ratios[0]}, clique weight 2^{math.log2(weight):.3f}{ratios[1]};"
            f" regions {paths}"
        )
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--diff", nargs=2, metavar=("A", "B"), help="compare two runs' JSON lines")
    args = ap.parse_args(argv)
    if args.diff:
        return diff(*map(_load, args.diff))
    for record in chain(random_records(), banded_records(), bench_records()):
        print(json.dumps(record, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
