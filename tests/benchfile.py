"""Run the benchmark over fixed seeds into one BENCH file, and compare two.

    python3 tests/benchfile.py --out BENCH.json
    python3 tests/benchfile.py --compare A.json B.json

A run calls this checkout's ``perfbench/run.py``, unchanged, once per
workload (compile, edit-random, edit-local) and seed (1, 2 and 3) with
``--trace 0 --seconds 20``, and once per workload with ``--trace 1`` at
seed 1.
The file keeps, per untraced run, the end-to-end metrics, the attempted
and failed operations, the environment line and the calibration loop's
times (read from the record ``run.py`` leaves in ``perfbench/out``); per
workload, the median of each metric over the seeds and, under ``traced``,
the traced run's per-layer figures; and the totals that ``tests/loc.py``
prints for ``src/bnic``.  A run at another commit is the same command in
that commit's checkout (copy this script there if it lacks it).

``--compare`` prints, for each workload and each end-to-end metric of
``BENCHMARK.json``, the median of A and of B, the change from A to B, the
seeds' spread and a verdict: ``worse`` when B is worse than A by more than
the metric's relative bound; ``better`` when B is better by more than the
spread, the wider of the two files' max - min over the seeds; ``same``
otherwise.  It exits 1 if any pair is ``worse``.  Medians over a few
seeds, run back to back, show a regression; a claimed gain still needs
alternating runs.  It then prints, for each workload, every per-layer
figure both files hold: A, B and the change, with no verdict and no
effect on the exit code.  A traced time is one raw run, not calibrated
(two traced compile runs of one commit can differ by a third): the rows
show where a saving lies, and prove none.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("compile", "edit-random", "edit-local")
SEEDS = (1, 2, 3)
TRACED_SEED = 1
SECONDS = 20


def _run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """One ``perfbench/run.py`` run: its environment line and its result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"benchfile: {' '.join(cmd)} exited with code {out.returncode}:\n{out.stderr}")
    head, result = (json.loads(line) for line in out.stdout.splitlines()[-2:])
    return head, result


def run_one(workload: str, seed: int) -> dict:
    """One untraced run: its result, environment and calibration."""
    head, result = _run(workload, seed, 0)
    record = json.loads((ROOT / "perfbench" / "out" / f"{workload}-seed{seed}-trace0.json").read_text())
    return {
        "workload": workload,
        "seed": seed,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "environment": head["environment"],
        "digest": head["digest"],
        "calibration_ms": record["calibration_ms"],
    }


def run_traced(workload: str) -> dict:
    """The per-layer figures of one traced run at ``TRACED_SEED``, raw."""
    _, result = _run(workload, TRACED_SEED, 1)
    return {name: m["value"] for name, m in result["metrics"].items()}


def loc_totals() -> dict:
    """The total line of ``tests/loc.py``: physical and code lines of ``src/bnic``."""
    out = subprocess.run([sys.executable, "tests/loc.py"], cwd=ROOT, capture_output=True, text=True, check=True)
    _, physical, code = next(line.split() for line in out.stdout.splitlines() if line.startswith("total"))
    return {"lines": int(physical), "code": int(code)}


def bench(out: str) -> dict:
    runs = {w: [run_one(w, seed) for seed in SEEDS] for w in WORKLOADS}
    medians = {
        w: {name: statistics.median(r["metrics"][name] for r in rs) for name in rs[0]["metrics"]}
        for w, rs in runs.items()
    }
    return {
        "command": f"python3 tests/benchfile.py --out {Path(out).name}",
        "seeds": SEEDS,
        "seconds": SECONDS,
        "medians": medians,
        "traced": {w: run_traced(w) for w in WORKLOADS},
        "loc": loc_totals(),
        "runs": [r for rs in runs.values() for r in rs],
    }


def verdict(a: float, b: float, better: str, bound: float, spread: float) -> tuple[float | None, str]:
    """The relative change from a to b and its verdict.

    ``worse`` when b loses more than the relative bound against a (any loss
    when a is 0, which gives no relative change); ``better`` when b gains
    more than spread, in the metric's own unit; ``same`` otherwise.
    """
    if a == b:
        return 0.0, "same"
    gain = a - b if better == "lower" else b - a
    change = None if a == 0 else (b - a) / abs(a)
    if gain < 0 and (change is None or -gain / abs(a) > bound):
        return change, "worse"
    return change, "better" if gain > spread else "same"


def seed_spread(data: dict, workload: str, name: str) -> float:
    """Max - min of one metric over a BENCH file's runs of one workload."""
    values = [r["metrics"][name] for r in data["runs"] if r["workload"] == workload]
    return max(values) - min(values)


def print_layers(a: dict, b: dict) -> None:
    """Per workload, every per-layer figure both traced records hold: A, B and the change."""
    print(f"per-layer figures, one traced run at seed {TRACED_SEED} each: raw, not calibrated, no verdict")
    print(f"{'workload':<12} {'layer':<40} {'A':>12} {'B':>12} {'change':>8}")
    for workload in WORKLOADS:
        la, lb = a.get(workload, {}), b.get(workload, {})
        for name in [n for n in la if n in lb]:
            va, vb = la[name], lb[name]
            change = 0.0 if va == vb else None if va == 0 else (vb - va) / abs(va)
            shown = "n/a" if change is None else f"{100 * change:+.1f}%"
            print(f"{workload:<12} {name:<40} {va:>12.4g} {vb:>12.4g} {shown:>8}")


def compare(path_a: str, path_b: str) -> int:
    a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in (path_a, path_b))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    worse = 0
    print(f"{'workload':<12} {'metric':<20} {'A':>12} {'B':>12} {'change':>8} {'spread':>10}  verdict (bound)")
    for workload in WORKLOADS:
        if workload not in a["medians"] or workload not in b["medians"]:
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            va, vb = a["medians"][workload][name], b["medians"][workload][name]
            spread = max(seed_spread(a, workload, name), seed_spread(b, workload, name))
            change, word = verdict(va, vb, m["better"], m["bound"], spread)
            worse += word == "worse"
            shown = "n/a" if change is None else f"{100 * change:+.1f}%"
            print(f"{workload:<12} {name:<20} {va:>12.4g} {vb:>12.4g} {shown:>8} {spread:>10.4g}  {word} ({m['bound']:g})")
    print_layers(a.get("traced", {}), b.get("traced", {}))
    print(f"loc: {a['loc']['lines']} -> {b['loc']['lines']} lines, {a['loc']['code']} -> {b['loc']['code']} code")
    return 1 if worse else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--out", help="write a BENCH file here")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two BENCH files")
    args = p.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.out:
        p.error("give --out FILE or --compare A B")
    data = bench(args.out)
    Path(args.out).write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
