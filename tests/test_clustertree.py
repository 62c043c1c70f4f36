from random import Random

from bnic import ClusterTree


def _recount(tree):
    return sum(len(tree.neighbors(c)) for c in tree.cluster_ids()) // 2


def _can_merge(tree, src, dst):
    # merge_into refuses a contraction that would make a parallel edge
    return not any(tree.has_edge(dst, nb) for nb in tree.neighbors(src) if nb != dst)


def test_edge_count_matches_a_recount_under_random_edits():
    ops = {"add": 0, "remove": 0, "drop": 0, "merge": 0, "copy": 0}
    for seed in range(20):
        rng = Random(seed)
        tree = ClusterTree()
        for _ in range(4):
            tree.add_cluster({rng.randrange(10)})
        for _ in range(120):
            ids = tree.cluster_ids()
            kind = rng.choice(["cluster", "add", "add", "remove", "drop", "merge", "copy"])
            if kind == "cluster" or len(ids) < 2:
                tree.add_cluster(rng.sample(range(10), 2))
                continue
            a, b = rng.sample(ids, 2)
            if kind == "add" and not tree.has_edge(a, b):
                tree.add_edge(a, b, tree.cluster(a) & tree.cluster(b))
            elif kind == "remove" and tree.has_edge(a, b):
                tree.remove_edge(a, b)
            elif kind == "drop":
                tree.remove_cluster(a)
            elif kind == "merge" and _can_merge(tree, a, b):
                tree.merge_into(a, b)
            elif kind == "copy":
                tree = tree.copy()
            else:
                continue
            ops[kind] += 1
            assert tree.edge_count() == _recount(tree) == len(tree.edges())
    assert min(ops.values()) > 50

