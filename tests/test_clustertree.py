from random import Random

from bnic import ClusterTree
from bnic.clustertree import HolderIndex


def _recount(tree):
    return sum(len(tree.neighbors(c)) for c in tree.cluster_ids()) // 2


def _can_merge(tree, src, dst):
    # merge_into refuses a contraction that would make a parallel edge
    return not any(tree.has_edge(dst, nb) for nb in tree.neighbors(src) if nb != dst)


def test_edge_count_matches_a_recount_under_random_edits():
    ops = {"add": 0, "remove": 0, "drop": 0, "merge": 0, "copy": 0, "induced": 0}
    for seed in range(20):
        rng = Random(seed)
        tree = ClusterTree()
        for _ in range(4):
            tree.add_cluster({rng.randrange(10)})
        for _ in range(120):
            ids = tree.cluster_ids()
            kind = rng.choice(["cluster", "add", "add", "remove", "drop", "merge", "copy", "induced"])
            if kind == "cluster" or len(ids) < 2:
                tree.add_cluster(rng.sample(range(10), 2))
                continue
            a, b = rng.sample(ids, 2)
            if kind == "add" and not tree.has_edge(a, b):
                tree.add_edge(a, b)
            elif kind == "remove" and tree.has_edge(a, b):
                tree.remove_edge(a, b)
            elif kind == "drop":
                tree.remove_cluster(a)
            elif kind == "merge" and _can_merge(tree, a, b):
                tree.merge_into(a, b)
            elif kind == "copy":
                tree = tree.copy()
            elif kind == "induced":
                tree = tree.induced([c for c in ids if c != a and rng.random() < 0.9])
            else:
                continue
            ops[kind] += 1
            assert tree.edge_count() == _recount(tree) == len(tree.edges())
    assert min(ops.values()) > 50


def _path_tree():
    # 0 - 1 - 2 - 3, with a fifth cluster hanging off 1
    tree = ClusterTree()
    for vs in ({0, 1}, {1, 2}, {2, 3}, {3, 4}, {1, 5}):
        tree.add_cluster(vs)
    for a, b in ((0, 1), (1, 2), (2, 3), (1, 4)):
        tree.add_edge(a, b)
    return tree


def test_induced_keeps_the_ids_and_drops_the_edges_that_leave_them():
    tree = _path_tree()
    before = tree.copy()
    view = tree.induced([0, 2, 3])
    # the same ids, clusters and next id; only the edge 2-3 stays inside
    assert view.cluster_ids() == [0, 2, 3]
    assert all(view.cluster(c) == tree.cluster(c) for c in view.cluster_ids())
    assert view.next_id == tree.next_id
    assert view.edges() == [(2, 3, tree.separator(2, 3))] and view.edge_count() == 1
    # a forest: 0 lost its one neighbour inside the view
    assert view.components() == [{0}, {2, 3}] and not view.is_tree()
    # the source is untouched, and the view is a tree of its own
    assert tree.edges() == before.edges() and tree.cluster_multiset() == before.cluster_multiset()
    view.add_edge(0, 2)
    assert len(tree.neighbors(0)) == 1 and view.is_tree()


def test_smallest_cover_takes_the_smallest_then_the_lower_id():
    tree = ClusterTree()
    tree.add_cluster({0, 1, 2, 3})
    small = tree.add_cluster({0, 1, 2})
    tree.add_cluster({0, 1, 4})
    index = HolderIndex(tree, tree.cluster_ids())
    # a smaller cover with a higher id beats a larger one with a lower id
    assert index.cover({1, 2}) == small
    # equal sizes ({0, 1, 2} and {0, 1, 4}) go to the lower id
    assert index.cover({0, 1}) == small
    # no cover
    assert index.cover({3, 4}) is None
    assert index.cover({7}) is None
    # an empty set is covered by every cluster: the smallest of all ids
    assert index.cover(set()) == small


def test_holder_index_appends_in_place_and_covers_pass_over_gone_clusters():
    tree = ClusterTree()
    a = tree.add_cluster({0, 1, 2})
    b = tree.add_cluster({1, 2, 3})
    index = HolderIndex(tree, (b, a))
    assert index.ids == [b, a] and index.pos == {b: 0, a: 1}
    assert index.masks == {0: 2, 1: 3, 2: 3, 3: 1}
    # positions follow no id order: equal sizes still go to the lower id
    assert index.cover({1}) == a
    # a merged cluster keeps its position and bits; the absorber is appended
    c = tree.add_cluster({0, 1, 2, 3})
    tree.merge_into(a, c)
    index.add(c)
    assert index.pos[c] == 2
    assert index.cover({0}) == c
    # a dropped (split) cluster loses its bits and keeps its position, and
    # a removed cluster's position is never a cover
    index.drop(b)
    tree.remove_cluster(b)
    assert index.ids == [b, a, c] and index.masks == {0: 6, 1: 6, 2: 6, 3: 4}
    assert index.cover(set()) == c
    assert index.cover({3}) == c
