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
import bnic.oracle
from bnic import AddArc, BatchTrace, RemoveArc, expand_remove_node, full_recompile, incremental_compile, random_dag

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
# Only a re-triangulated region is spliced in by connect.
# absorb_non_maximal runs after every splice, on the new cliques equal to
# the separator they hang by, and in a thinned region that lost a removed
# variable, on its cut cliques; a thinned removal of an arc alone does not
# call it.  A rebuild regroups its cliques without aggregate_cliques, which
# the engine keeps only for the tracer (its hook is checked below).
ADD_ARC_LAYERS = [
    ("engine", "modify_moral_graph"),
    ("engine", "mark_add_link"),
    ("engine", "connect"),
]
REMOVE_ARC_LAYERS = [
    ("engine", "modify_moral_graph"),
    ("engine", "mark_remove_link"),
]
REMOVE_NODE_LAYERS = REMOVE_ARC_LAYERS + [("engine", "mark_remove_node"), ("engine", "absorb_non_maximal")]


def _retriangulating_arc(model) -> tuple[int, int]:
    """The first arc whose flush re-triangulates a region, found by a trial flush on a copy.

    Only an arc whose moral link the triangulated graph lacks can take that
    path, and only when the link cannot join it as one new clique.
    """
    dag, h = model.dag, model.tri.graph()
    for u in dag.nodes():
        for v in dag.nodes():
            if u != v and not h.has_edge(u, v) and not dag.has_path(v, u):
                trace = BatchTrace()
                incremental_compile(model.copy(), [AddArc(u, v)], trace)
                if any(sub.path == "re-triangulated" for sub in trace.subtrees):
                    return u, v
    raise AssertionError("no arc re-triangulates a region")


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

    # a removal thins its region's own junction subtree in place: no
    # min-fill and no splice
    parent, child = dag.arcs()[0]
    incremental_compile(model, [RemoveArc(parent, child)])
    assert uncalled(REMOVE_ARC_LAYERS) == []

    # an arc whose flush re-triangulates a region; the trial flushes that
    # find it go through the wrappers too, so the counts restart after them
    u, v = _retriangulating_arc(model)
    calls.update(dict.fromkeys(calls, 0))
    incremental_compile(model, [AddArc(u, v)])
    assert uncalled(TRACED_LAYERS + ADD_ARC_LAYERS) == []

    incremental_compile(model, expand_remove_node(model.dag, parent))
    assert uncalled(REMOVE_NODE_LAYERS) == []


def test_the_tracer_hooks_read_what_the_package_returns():
    # the tracer's work counters read the results of the names they wrap;
    # run them over a compile, a re-triangulating and a thinned flush and a
    # validate, called through the module bindings the tracer wraps, as the
    # benchmark calls them, and call the engine's aggregate_cliques binding,
    # which no package code calls, on the compiled tree (its hook reads the
    # MPS tree); then check that restore() puts every binding back
    spans = _load_spans()
    originals = [owner.__dict__[attr] for owner, attr, _, _ in spans.BINDINGS]
    # the arc is found untraced, on a compile of the same dag
    dag = random_dag(30, Random(5), edge_prob=0.15)
    u, v = _retriangulating_arc(full_recompile(dag))
    tracer = spans.Tracer()
    tracer.install()
    try:
        model = bnic.oracle.full_recompile(dag)
        kinds = []
        for mods in ([AddArc(u, v)], [RemoveArc(*dag.arcs()[0])]):
            trace = BatchTrace()
            bnic.engine.incremental_compile(model, mods, trace)
            kinds += [sub.thinned for sub in trace.subtrees]
        assert bnic.oracle.validate(model).passed
        bnic.engine.aggregate_cliques(model.jt, model.fill)
    finally:
        tracer.restore()
    assert [owner.__dict__[attr] for owner, attr, _, _ in spans.BINDINGS] == originals
    assert False in kinds and True in kinds
    assert [span[0] for span in tracer.spans].count("mpd.aggregate_cliques") == 1
    assert "mpd.aggregate_cliques.merges" in tracer.counts and tracer.maxima["mpd.largest_mps"] > 0
