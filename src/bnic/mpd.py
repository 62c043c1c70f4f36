"""Aggregation of junction-tree cliques into maximal prime subgraphs."""

from __future__ import annotations

from .clustertree import ClusterTree
from .graph import UndirectedGraph


def mps_tree(jt: ClusterTree, owner: dict[int, int]) -> ClusterTree:
    """The MPS tree that an owner map (clique → MPS) makes of the junction tree.

    Each MPS is the union of its cliques under its own id, and every
    junction edge between cliques of two MPSs becomes an MPS edge with the
    same separator.  Fresh ids continue after the junction tree's.  Built in
    one walk of the junction adjacency (:meth:`ClusterTree.quotient`), which
    needs each MPS's cliques connected, as :func:`group_owners` makes them.
    """
    return jt.quotient(owner)


def group_owners(jt: ClusterTree, gm: UndirectedGraph) -> dict[int, int]:
    """Map every clique to its MPS: the least clique of its group.

    The maximal prime subgraphs are the connected components of the junction
    tree cut down to its incomplete separators (Olesen & Madsen, IEEE SMC-B
    2002).  One union-find over those separators, in one unsorted walk of
    the junction edges, finds every group; a union keeps the smaller root,
    so each root is its group's least clique whatever the edge order.
    Requires a junction tree built from a minimal triangulation of gm.
    """
    owner = {c: c for c in jt.cluster_ids()}

    def find(c: int) -> int:
        while owner[c] != c:
            owner[c] = c = owner[owner[c]]
        return c

    for a, b, sep in jt.edge_items():
        if not gm.is_complete(sep):
            ra, rb = find(a), find(b)
            owner[max(ra, rb)] = min(ra, rb)
    for c in owner:
        owner[c] = find(c)
    return owner


def aggregate_cliques(jt: ClusterTree, gm: UndirectedGraph) -> tuple[ClusterTree, dict[int, int]]:
    """The MPS tree and owner map of a junction tree: :func:`mps_tree` of :func:`group_owners`.

    Only a rebuild calls it, for its owner map: the benchmark's tracer reads
    the tree of each call for its merge and largest-MPS counts.  Callers
    that need the owner map alone call :func:`group_owners`.
    """
    owner = group_owners(jt, gm)
    return mps_tree(jt, owner), owner
