"""The bnic benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload runs in a child process
(``workload.py``) on one thread, with BLAS/OpenMP pools pinned to one
thread, against the package under ``src/``.  With ``--trace 0`` the last
line of standard output is the end-to-end result; set-up time is the median
over SETUP_SAMPLES processes, the measured one included.  With ``--trace 1``
the child records spans and the last line holds the per-layer figures.  The
metric names and units come from ``BENCHMARK.json`` at the root.  Full
records (environment, input digests, spans) go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "NUMBA_NUM_THREADS")


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({var: "1" for var in PINNED})
    env["PYTHONHASHSEED"] = "0"
    return env


def _child(args: list[str]) -> tuple[float, list[str]]:
    """Run workload.py; returns seconds from spawn to READY and the lines after it."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "workload.py"), *args],
        stdout=subprocess.PIPE,
        text=True,
        env=_env(),
        cwd=ROOT,
    )
    ready = None
    lines = []
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - start
            elif ready is not None:
                lines.append(line)
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or ready is None:
        raise BenchError(f"workload process {' '.join(args)} exited with code {code}")
    return ready, lines


def _timeout(signum, frame):
    raise BenchError("workload process timed out")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "bnic").is_dir():
        raise BenchError(f"no package source under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common = [args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]

    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(CHILD_TIMEOUT_S)
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(_child([*common, "--setup-only"])[0])
    ready, lines = _child([*common, "--spans", str(OUT / f"spans-{tag}.json")] if args.trace else common)
    signal.alarm(0)
    setups.append(ready)
    child = json.loads(lines[-1])

    measured = dict(child["metrics"])
    if not args.trace:
        measured["setup_s"] = statistics.median(setups)
        measured["passed_frac"] = (child["attempted"] - child["failed"]) / child["attempted"]
    metrics = {}
    missing = 0 if args.trace else None  # a layer that did not run reads 0
    for m in wanted:
        value = measured.get(m["name"], missing)
        if value is None or not math.isfinite(value):
            raise BenchError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    result = {
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "setup_samples_s": setups, **child["info"], "result": result}
    if args.trace:
        record["layers_unlisted"] = {k: v for k, v in measured.items() if k not in metrics}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({"environment": child["info"]["environment"], "digest": child["info"]["digest"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, KeyError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
