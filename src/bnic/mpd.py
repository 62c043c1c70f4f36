"""Aggregation of junction-tree cliques into maximal prime subgraphs."""

from __future__ import annotations

from .clustertree import ClusterTree
from .graph import UndirectedGraph


def mps_tree(jt: ClusterTree, owner: dict[int, int]) -> ClusterTree:
    """The MPS tree that an owner map (clique → MPS) makes of the junction tree.

    Each MPS is the union of its cliques under its own id, and every
    junction edge between cliques of two MPSs becomes an MPS edge with the
    same separator.  Fresh ids continue after the junction tree's.
    """
    members: dict[int, list[int]] = {}
    for c, m in owner.items():
        members.setdefault(m, []).append(c)
    # most MPSs are one clique, whose vertex set needs no copy
    clusters = {
        m: jt.cluster(cs[0]) if len(cs) == 1 else frozenset().union(*map(jt.cluster, cs)) for m, cs in members.items()
    }
    mpd = ClusterTree(clusters, jt.next_id)
    for a, b, sep in jt.edges():
        m_a, m_b = owner[a], owner[b]
        if m_a != m_b:
            mpd.add_edge(m_a, m_b, sep)
    return mpd


def aggregate_cliques(jt: ClusterTree, gm: UndirectedGraph) -> tuple[ClusterTree, dict[int, int]]:
    """Merge adjacent clusters across separators incomplete in the moral graph.

    The maximal prime subgraphs are the connected components of the junction
    tree cut down to its incomplete separators (Olesen & Madsen, IEEE SMC-B
    2002).  One union-find over those separators finds every group and maps
    each clique to the smallest id of its group, the root of its set.
    Returns the MPS tree (see :func:`mps_tree`) and that owner map.
    Requires a junction tree built from a minimal triangulation of gm.
    """
    owner = {c: c for c in jt.cluster_ids()}

    def find(c: int) -> int:
        while owner[c] != c:
            owner[c] = c = owner[owner[c]]
        return c

    for a, b, sep in jt.edges():
        if not gm.is_complete(sep):
            ra, rb = find(a), find(b)
            owner[max(ra, rb)] = min(ra, rb)
    for c in owner:
        owner[c] = find(c)
    return mps_tree(jt, owner), owner
