"""One sha256 over the deterministic outputs of the compile pipeline.

The records cover min-fill's fill, the thinned fill, the
junction tree (clusters, edges, family map) and the MPS tree (clusters,
edges) of seeded random networks, both after a full compile and after a
few incremental flushes.  Every set is written as a sorted list and every
id is an int, so the digest does not depend on the string hash seed.  A
change that claims identical outputs must leave ``DIGEST`` as it is.
``HOST_DIGEST`` pins, for the same models, the MPS hosting each variable's
family: the owner of its junction-tree host clique.  An MPS id is the
least clique id of its group, after a full compile and after a flush.  ``MIN_FILL_600_DIGEST``
pins min-fill's fill on the benchmark's 600-node random
network, whose eliminations carry the fill counters deepest.
``TRACE_DIGEST`` pins the ``BatchTrace`` of every incremental flush above:
per modification its links, the marked MPS ids with their vertex sets in
marking order and the rewirings, then the rebuilt subtrees, each thinned,
inserted or re-triangulated, and the pieces of either kind of region that an
outside clique absorbed.  ``REPLAY_DIGEST`` pins the
per-flush records that ``tests/replay.py`` writes for its first 20 random
models, 100 flushes, each less its ``shape`` digest, which came later.
``MPS_DIGEST`` pins, for every model above, the MPS tree's cluster and
separator multisets alone: every minimal triangulation of a moral graph
has the same maximal prime subgraphs, so these stay fixed when a change
only moves how a region is triangulated or which ids its clusters get.
The other digests do move then: a flush may thin a region's own junction
subtree in place instead of re-running min-fill, so after a flush the
junction tree depends on the edit history and not on the dag alone.
``COMPILE_DIGEST`` pins the records of the full compiles alone, which
depend on the dag alone.
"""

from random import Random

from bnic import (
    AddArc,
    BatchTrace,
    ClusterTree,
    CompiledModel,
    RemoveArc,
    full_recompile,
    incremental_compile,
    kernels,
    moralize,
    random_dag,
    random_script,
)

import replay
from bnic.graph import moral_simplicial
from conftest import banded_dag

# the four digests with clique ids count the ids of links inserted before a refused one
DIGEST = "dcf7dc74007e11c975453e72ad700615692f39881b0265c1310901c4b5d1ea9d"
HOST_DIGEST = "bdcbe5f8c65e9e62b47e01b85430111e4636652bc790240f3a67f54970911fc3"
TRACE_DIGEST = "8d7806e80ef36dfdbfb379bc9a5e400a487ba338a988e7b7007160626c210e1d"
COMPILE_DIGEST = "22547055afa09c6b84ef2587a9597e1956be2f35d62f35b6cea467a6d91d097e"
MIN_FILL_600_DIGEST = "cb6f37737d33756f9a6372b784a51238713e144144b3d212d7105ceb82d43dfa"
MPS_DIGEST = "a26c46b230de28bab2407ba995dbb63a8a3f47e57546545b50a11f343eacf32d"
REPLAY_DIGEST = "d8d2d2f4982e401524d2a73cc32bc48be13b27392824391d39529b1b230868eb"
COMPILES = 8  # the first records, one per dag compiled from scratch


def _model(model):
    jt = {**replay.tree_record(model.jt), "family": sorted(model.family.items())}
    return {"jt": jt, "mpd": replay.tree_record(model.mpd)}


def _mps_hosts(model):
    return sorted([v, model.owner[c]] for v, c in model.family.items())


def _records():
    """The digest records, model by model the MPS host of every variable and
    the MPS multisets, and the flush traces."""
    records, hosts, mps, traces = [], [], [], []
    dags = [
        random_dag(n, Random(seed), edge_prob=p)
        for seed, n, p in [(1, 12, 0.3), (2, 30, 0.2), (3, 60, 0.1), (4, 90, 0.06), (5, 120, 0.025), (6, 40, 0.35)]
    ]
    dags += [banded_dag(n, Random(seed)) for seed, n in [(7, 100), (8, 300)]]
    for dag in dags:
        gm = moralize(dag)
        model = full_recompile(dag)
        records.append(
            {
                "min_fill": [list(e) for e in kernels.min_fill(gm)],
                "thinned": sorted(sorted(pair) for pair in model.tri.fill),
                **_model(model),
            }
        )
        hosts.append(_mps_hosts(model))
        mps.append(replay.mps_record(model.mpd))
    for seed in range(5):
        rng = Random(100 + seed)
        dag = banded_dag(80, rng) if seed == 4 else random_dag(rng.randint(15, 40), rng, edge_prob=0.15)
        model = full_recompile(dag)
        for _ in range(3):
            trace = BatchTrace()
            incremental_compile(model, random_script(model.dag, 6, rng), trace)
            records.append(_model(model))
            hosts.append(_mps_hosts(model))
            mps.append(replay.mps_record(model.mpd))
            traces.append(trace)
    return records, hosts, mps, traces


def test_mps_trees_match_the_committed_digest():
    _, _, mps, _ = _records()
    assert replay.sha256(mps) == MPS_DIGEST


def test_pipeline_outputs_match_the_committed_digest():
    records, hosts, _mps, _traces = _records()
    assert replay.sha256(records) == DIGEST
    assert replay.sha256(hosts) == HOST_DIGEST
    assert replay.sha256(records[:COMPILES]) == COMPILE_DIGEST


def test_flush_traces_match_the_committed_digest():
    *_, traces = _records()
    mods = [rec for trace in traces for rec in trace.mods]
    # the flushes reach every marking case: arcs inducing several links,
    # empty separators rewired, and pieces absorbed by outside cliques
    assert (
        sum(isinstance(rec.mod, AddArc) and len(rec.links) > 1 for rec in mods),
        sum(isinstance(rec.mod, RemoveArc) and len(rec.links) > 1 for rec in mods),
        sum(bool(rec.rewired) for rec in mods),
        sum(len(trace.absorbed) for trace in traces),
    ) == (20, 21, 5, 11)
    assert replay.sha256([replay.trace_record(trace) for trace in traces]) == TRACE_DIGEST


def test_min_fill_on_the_600_node_network_matches_the_committed_digest():
    # with and without the simplicial vertices the dag names
    dag = random_dag(600, Random(42), edge_prob=3 / 599)
    gm = moralize(dag)
    for simplicial in (frozenset(), moral_simplicial(dag, dag.nodes())):
        fill = kernels.min_fill(gm, simplicial)
        assert len(fill) == 6981
        assert replay.sha256([list(e) for e in fill]) == MIN_FILL_600_DIGEST


def test_replay_of_twenty_models_matches_the_committed_digest():
    records = list(replay.random_records(20))
    assert len(records) == 100
    assert all(r["valid"] and r["mpd_equal"] for r in records)
    assert replay.digest_of({k: v for k, v in r.items() if k != "shape"} for r in records) == REPLAY_DIGEST


def _renamed(model):
    """The model with every clique id raised by one, which keeps each id's rank."""
    jt = ClusterTree({c + 1: model.jt.cluster(c) for c in model.jt.cluster_ids()}, model.jt.next_id + 1)
    for a, b, _ in model.jt.edges():
        jt.add_edge(a + 1, b + 1)
    owner = {c + 1: m + 1 for c, m in model.owner.items()}
    family = {v: c + 1 for v, c in model.family.items()}
    return CompiledModel(model.dag, model.moral, jt, owner, family, model.fill)


def test_replay_diff_names_the_first_diverging_flush(capsys):
    a = []
    for k, f, model, trace in replay.random_flushes(2):
        a.append(replay.flush_record("random", str(k), f, model, trace))
        if (k, f) == (1, 1):
            renamed = replay.flush_record("random", str(k), f, _renamed(model), trace)
    b = [dict(r) for r in a]
    b[3]["fill"] = b[7]["jt"] = b[7]["shape"] = b[8]["mps"] = b[9]["cliques"] = "0" * 64
    b[3]["fill_edges"] += 9
    b[6] = renamed
    assert replay.diff(a, a) == 0
    capsys.readouterr()
    assert replay.diff(a, b) == 1
    assert capsys.readouterr().out == (
        "random: 5 of 10 flushes diverge\n"
        "  first: case 0 flush 3 (fill)\n"
        "  by field: jt 2, mpd 1, mps 1, cliques 1, family 1, owner 1, groups 1, fill 1, shape 1\n"
        "  junction trees: 2 diverge, the first at case 1 flush 1\n"
        "  MPS trees: 1 diverge, the first at case 1 flush 3\n"
        "  junction cliques: 1 diverge, the first at case 1 flush 4\n"
        "  renamed only: 1 of the 2 junction trees\n"
        "  A: fill edges 9, clique weight 2^9.331; regions thinned 8, inserted 3, re-triangulated 3\n"
        "  B: fill edges 18 (2.0000x A), clique weight 2^9.331 (1.0000x A); regions thinned 8, inserted 3,"
        " re-triangulated 3\n"
    )
