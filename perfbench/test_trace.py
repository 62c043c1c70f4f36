"""Transparency of the traced run.

    PYTHONPATH=src python3 -m pytest perfbench -q

Each workload runs at a reduced size twice in this process, untraced and
traced.  Tracing must not change what the workload computes (input digest,
fill, clique weight, stability), every check must pass, and every wrapped
binding must be the original again afterwards.
"""

import json
from pathlib import Path

import pytest

import spans
import workload

QUALITY = ("fill_edges", "clique_weight_log2", "stability.mean")


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(workload, "COMPILE_SET", (("random", 40), ("banded", 40)))
    monkeypatch.setattr(workload, "SEGMENTS", 2)
    monkeypatch.setattr(workload, "FLUSHES_PER_SEGMENT", 4)
    monkeypatch.setattr(workload, "RANDOM_N", 40)
    monkeypatch.setattr(workload, "LOCAL_N", 40)


def _bindings():
    return [owner.__dict__[attr] for owner, attr, _, _ in spans.BINDINGS]


@pytest.mark.parametrize("name", sorted(workload.WORKLOADS))
def test_traced_run_computes_the_same(small, name):
    before = _bindings()
    plain_run, plain, _ = workload.run_workload(name, 7, 0.0, traced=False)
    traced_run, traced, tracer = workload.run_workload(name, 7, 0.0, traced=True)
    assert all(a is b for a, b in zip(before, _bindings()))

    assert plain_run.failed == traced_run.failed == 0
    assert plain_run.attempted == traced_run.attempted > 0
    assert plain_run.info["digest"] == traced_run.info["digest"]
    for key in QUALITY:
        assert plain[key] == traced[key], key

    layers = workload.layer_metrics(tracer, traced_run)
    assert layers["kernels.min_fill.calls"] > 0
    assert layers["oracle.full_recompile.calls"] > 0
    assert (layers.get("engine.incremental_compile.calls", 0) > 0) == (name != "compile")
    assert 0 <= layers["trace.overhead.verify_ms"] < 1


def test_every_listed_layer_is_recorded(small):
    """Each per-layer metric of BENCHMARK.json is measured by some workload."""
    spec = json.loads((Path(workload.__file__).parent.parent / "BENCHMARK.json").read_text())
    seen = set()
    for name in workload.WORKLOADS:
        run, _, tracer = workload.run_workload(name, 3, 0.0, traced=True)
        seen |= set(workload.layer_metrics(tracer, run))
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in seen]
    assert not missing
