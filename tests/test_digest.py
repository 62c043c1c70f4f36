"""One sha256 over the deterministic outputs of the compile pipeline.

The records cover min-fill's ``(order, fill)``, the thinned fill, the
junction tree (clusters, edges, family map) and the MPS tree (clusters,
edges) of seeded random networks, both after a full compile and after a
few incremental flushes.  Every set is written as a sorted list and every
id is an int, so the digest does not depend on the string hash seed.  A
change that claims identical outputs must leave ``DIGEST`` as it is.
"""

import hashlib
import json
from random import Random

from bnic import Dag, full_recompile, incremental_compile, kernels, moralize, random_dag, random_script

DIGEST = "1da17a819a7894a334efe9725fbeceecbf72077fe58ba1c91c2d8a8174b446eb"


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


def _tree(tree, with_family):
    rec = {
        "clusters": [[c, sorted(tree.cluster(c))] for c in tree.cluster_ids()],
        "edges": sorted([a, b, sorted(sep)] for a, b, sep in tree.edges()),
    }
    if with_family:
        rec["family"] = sorted(tree.family.items())
    return rec


def _model(model):
    return {"jt": _tree(model.jt, True), "mpd": _tree(model.mpd, False)}


def _records():
    records = []
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
    for seed in range(5):
        rng = Random(100 + seed)
        dag = _banded_dag(80, rng) if seed == 4 else random_dag(rng.randint(15, 40), rng, edge_prob=0.15)
        model = full_recompile(dag)
        for _ in range(3):
            incremental_compile(model, random_script(model.dag, 6, rng))
            records.append(_model(model))
    return records


def test_pipeline_outputs_match_the_committed_digest():
    blob = json.dumps(_records(), separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == DIGEST
