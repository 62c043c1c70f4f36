"""The benchmark tracer's bindings must all exist in the package.

``perfbench/spans.py`` wraps module-level names of ``bnic`` by looking each
up in its owner's ``__dict__``; a missing name only shows when a traced
benchmark run fails.  These tests make it fail the test suite instead, and
check that compiles and rebuilds still call the wrapped names, so that no
per-layer metric silently reads nothing.
"""

import importlib.util
from pathlib import Path
from random import Random

import bnic.engine
import bnic.kernels
import bnic.pipeline
from bnic import AddArc, RemoveArc, expand_remove_node, full_recompile, incremental_compile, random_dag

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_binding_resolves():
    spans = _load_spans()
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _name, _count in spans.BINDINGS
        if attr not in owner.__dict__
    ]
    assert spans.BINDINGS and missing == []


# The layers whose per-layer metrics the tracer records through these names.
TRACED_LAYERS = [
    ("pipeline", "triangulate_min_fill"),
    ("pipeline", "extract_cliques"),
    ("pipeline", "build_join_tree"),
    ("kernels", "min_fill"),
    ("kernels", "mcs"),
]
# Family hosting, which a full compile runs after the junction tree.
COMPILE_LAYERS = [("pipeline", "assign_families")]
# The engine's marking and splice layers, as each kind of flush calls them.
ADD_ARC_LAYERS = [("engine", "modify_moral_graph"), ("engine", "mark_add_link"), ("engine", "connect")]
REMOVE_ARC_LAYERS = [("engine", "modify_moral_graph"), ("engine", "mark_remove_link"), ("engine", "connect")]
REMOVE_NODE_LAYERS = REMOVE_ARC_LAYERS + [("engine", "mark_remove_node")]


def test_compile_and_rebuild_call_every_traced_layer(monkeypatch):
    # wrap the module attributes, as the tracer does, and count the calls
    # that go through them in a full compile and in one flush per kind of
    # arc edit and per node removal
    modules = {"pipeline": bnic.pipeline, "kernels": bnic.kernels, "engine": bnic.engine}
    layers = TRACED_LAYERS + COMPILE_LAYERS + ADD_ARC_LAYERS + REMOVE_NODE_LAYERS
    calls = dict.fromkeys(layers, 0)
    for key in calls:
        original = modules[key[0]].__dict__[key[1]]

        def counted(*args, _key=key, _original=original, **kwargs):
            calls[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(modules[key[0]], key[1], counted)

    def uncalled(expected):
        missing = [k for k in expected if calls[k] == 0]
        calls.update(dict.fromkeys(calls, 0))
        return missing

    dag = random_dag(30, Random(5), edge_prob=0.15)
    model = full_recompile(dag)
    assert uncalled(TRACED_LAYERS + COMPILE_LAYERS) == []

    parent, child = dag.arcs()[0]
    incremental_compile(model, [RemoveArc(parent, child)])
    assert uncalled(TRACED_LAYERS + REMOVE_ARC_LAYERS) == []

    incremental_compile(model, [AddArc(parent, child)])
    assert uncalled(TRACED_LAYERS + ADD_ARC_LAYERS) == []

    incremental_compile(model, expand_remove_node(model.dag, parent))
    assert uncalled(TRACED_LAYERS + REMOVE_NODE_LAYERS) == []
