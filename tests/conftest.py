import pytest

from bnic import ClusterTree, Dag, full_recompile
from bnic.clustertree import HolderIndex
from bnic.pipeline import assign_families

ASIA_NODES = ["A", "S", "T", "L", "B", "E", "X", "D"]
ASIA_ARCS = [
    ("A", "T"),
    ("S", "L"),
    ("S", "B"),
    ("T", "E"),
    ("L", "E"),
    ("E", "X"),
    ("E", "D"),
    ("B", "D"),
]


def build_asia() -> Dag:
    dag = Dag()
    for name in ASIA_NODES:
        dag.add_node(name)
    for p, c in ASIA_ARCS:
        dag.add_arc(dag.table.id(p), dag.table.id(c))
    return dag


def banded_dag(n, rng, dag=None) -> Dag:
    """Nodes b0 … b{n-1} added to dag (default: a new one); returns the dag.

    Node j takes each of the 5 nodes before it as a parent with odds 0.3,
    one ``rng.random()`` draw per candidate.  The chain falls apart into
    several components, and min-fill leaves redundant fill on it, so
    thinning has work to do.
    """
    dag = Dag() if dag is None else dag
    ids = [dag.add_node(f"b{j}") for j in range(n)]
    for j in range(n):
        for i in range(max(0, j - 5), j):
            if rng.random() < 0.3:
                dag.add_arc(ids[i], ids[j])
    return dag


def name_set(table, vertices) -> frozenset:
    return frozenset(table.name(v) for v in vertices)


def family_hosts(dag, tree) -> dict:
    """``assign_families`` of every variable over every cluster, on a fresh holder index."""
    return assign_families(dag, dag.nodes(), HolderIndex(tree, tree.cluster_ids()))


def holders_of(tree) -> dict:
    """For every vertex, the set of ids of the clusters holding it."""
    holders = {}
    for c in tree.cluster_ids():
        for v in tree.cluster(c):
            holders.setdefault(v, set()).add(c)
    return holders


def edited(tree, clusters=None) -> ClusterTree:
    """A copy of tree under the same ids and edges, with the vertex sets ``clusters`` (id → cluster) replaced."""
    out = ClusterTree({c: tree.cluster(c) for c in tree.cluster_ids()} | dict(clusters or {}), tree.next_id)
    for a, b, _ in tree.edges():
        out.add_edge(a, b)
    return out


def cluster_names(tree, table):
    """Multiset of cluster vertex sets, as frozensets of names."""
    from collections import Counter

    return Counter(name_set(table, tree.cluster(c)) for c in tree.cluster_ids())


def separator_names(tree, table):
    from collections import Counter

    return Counter(name_set(table, sep) for _, _, sep in tree.edges())


@pytest.fixture
def asia():
    return build_asia()


@pytest.fixture
def asia_model(asia):
    return full_recompile(asia)
