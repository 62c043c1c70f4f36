"""One sha256 over the deterministic outputs of the compile pipeline.

The records cover min-fill's ``(order, fill)``, the thinned fill, the
junction tree (clusters, edges, family map) and the MPS tree (clusters,
edges) of seeded random networks, both after a full compile and after a
few incremental flushes.  Every set is written as a sorted list and every
id is an int, so the digest does not depend on the string hash seed.  A
change that claims identical outputs must leave ``DIGEST`` as it is.
``HOST_DIGEST`` pins, for the same models, the MPS hosting each variable's
family: the owner of its junction-tree host clique.  ``MIN_FILL_600_DIGEST``
pins min-fill's ``(order, fill)`` on the benchmark's 600-node random
network, whose eliminations carry the fill counters deepest.
``TRACE_DIGEST`` pins the ``BatchTrace`` of every incremental flush above:
per modification its links, the marked MPS ids with their vertex sets in
marking order and the rewirings, then the rebuilt subtrees and the
amalgamations.
"""

import hashlib
import json
from random import Random

from bnic import (
    AddArc,
    BatchTrace,
    Dag,
    RemoveArc,
    full_recompile,
    incremental_compile,
    kernels,
    moralize,
    random_dag,
    random_script,
)

DIGEST = "1da17a819a7894a334efe9725fbeceecbf72077fe58ba1c91c2d8a8174b446eb"
HOST_DIGEST = "e5d1f2c06d3b6fc0e206077770f63e6c726734a9642489ec1389475d1f206f87"
TRACE_DIGEST = "76d9dd9496f3670c49a60e32bd9a3167ad38f32c190e1932f77898ca099d9b85"
MIN_FILL_600_DIGEST = "9d7c92b1cad9680afd0f1a93c18a64978e15a2eff99e8b499b06d4cc4b1af9f5"


def _banded_dag(n, rng):
    # node j takes each of the 5 nodes before it as a parent with odds 0.3;
    # min-fill leaves redundant fill on these, so thinning has work to do
    dag = Dag()
    ids = [dag.add_node(f"b{j}") for j in range(n)]
    for j in range(n):
        for i in range(max(0, j - 5), j):
            if rng.random() < 0.3:
                dag.add_arc(ids[i], ids[j])
    return dag


def _tree(tree):
    return {
        "clusters": [[c, sorted(tree.cluster(c))] for c in tree.cluster_ids()],
        "edges": sorted([a, b, sorted(sep)] for a, b, sep in tree.edges()),
    }


def _model(model):
    return {"jt": {**_tree(model.jt), "family": sorted(model.family.items())}, "mpd": _tree(model.mpd)}


def _mps_hosts(model):
    return sorted([v, model.index.owner[c]] for v, c in model.family.items())


def _trace(trace):
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
        "subtrees": [[list(s.mps_ids), sorted(s.variables)] for s in trace.subtrees],
        "absorbed": [[sorted(a), sorted(b)] for a, b in trace.absorbed],
    }


def _records():
    """The digest records, model by model the MPS host of every variable, and the flush traces."""
    records, hosts, traces = [], [], []
    dags = [
        random_dag(n, Random(seed), edge_prob=p)
        for seed, n, p in [(1, 12, 0.3), (2, 30, 0.2), (3, 60, 0.1), (4, 90, 0.06), (5, 120, 0.025), (6, 40, 0.35)]
    ]
    dags += [_banded_dag(n, Random(seed)) for seed, n in [(7, 100), (8, 300)]]
    for dag in dags:
        gm = moralize(dag)
        order, fill = kernels.min_fill(gm)
        model = full_recompile(dag)
        records.append(
            {
                "min_fill": [order, [list(e) for e in fill]],
                "thinned": sorted(sorted(pair) for pair in model.tri.fill),
                **_model(model),
            }
        )
        hosts.append(_mps_hosts(model))
    for seed in range(5):
        rng = Random(100 + seed)
        dag = _banded_dag(80, rng) if seed == 4 else random_dag(rng.randint(15, 40), rng, edge_prob=0.15)
        model = full_recompile(dag)
        for _ in range(3):
            trace = BatchTrace()
            incremental_compile(model, random_script(model.dag, 6, rng), trace)
            records.append(_model(model))
            hosts.append(_mps_hosts(model))
            traces.append(trace)
    return records, hosts, traces


def _sha256(obj):
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


def test_pipeline_outputs_match_the_committed_digest():
    records, hosts, _traces = _records()
    assert _sha256(records) == DIGEST
    assert _sha256(hosts) == HOST_DIGEST


def test_flush_traces_match_the_committed_digest():
    _, _, traces = _records()
    mods = [rec for trace in traces for rec in trace.mods]
    # the flushes reach every marking case: arcs inducing several links,
    # empty separators rewired, and new cliques amalgamated
    assert (
        sum(isinstance(rec.mod, AddArc) and len(rec.links) > 1 for rec in mods),
        sum(isinstance(rec.mod, RemoveArc) and len(rec.links) > 1 for rec in mods),
        sum(bool(rec.rewired) for rec in mods),
        sum(len(trace.absorbed) for trace in traces),
    ) == (20, 21, 5, 8)
    assert _sha256([_trace(trace) for trace in traces]) == TRACE_DIGEST


def test_min_fill_on_the_600_node_network_matches_the_committed_digest():
    order, fill = kernels.min_fill(moralize(random_dag(600, Random(42), edge_prob=3 / 599)))
    assert len(fill) == 6981
    assert _sha256([order, [list(e) for e in fill]]) == MIN_FILL_600_DIGEST
