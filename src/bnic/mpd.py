"""Aggregation of junction-tree cliques into maximal prime subgraphs."""

from __future__ import annotations

from .clustertree import ClusterTree
from .graph import UndirectedGraph


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
    """The MPS tree and owner map of a junction tree: its quotient by :func:`group_owners`.

    Only a rebuild calls it, on a view of its region's cliques under their
    junction ids (a forest at times), for the owner map; the benchmark's
    tracer reads each call's tree for its merge and largest-MPS counts.
    Callers that need the owner map alone call :func:`group_owners`.
    """
    owner = group_owners(jt, gm)
    return jt.quotient(owner), owner
