"""Aggregation of junction-tree cliques into maximal prime subgraphs."""

from __future__ import annotations

from dataclasses import dataclass, field

from .clustertree import ClusterTree
from .graph import UndirectedGraph


@dataclass
class MpdIndex:
    """Bookkeeping tying the MPS tree to the junction tree.

    ``cliques_of`` partitions the junction clusters among the MPS clusters;
    each MPS vertex set equals the union of its cliques.  ``owner`` is its
    inverse, the MPS of every junction cluster, so a variable's family is
    hosted in the MPS ``owner[jt.family[v]]``.
    """

    cliques_of: dict[int, set[int]] = field(default_factory=dict)
    owner: dict[int, int] = field(default_factory=dict)

    def copy(self) -> "MpdIndex":
        return MpdIndex({m: set(cs) for m, cs in self.cliques_of.items()}, dict(self.owner))


def aggregate_cliques(jt: ClusterTree, gm: UndirectedGraph) -> tuple[ClusterTree, MpdIndex]:
    """Merge adjacent clusters across separators incomplete in the moral graph.

    The maximal prime subgraphs are the connected components of the junction
    tree cut down to its incomplete separators (Olesen & Madsen, IEEE SMC-B
    2002).  Contracting an edge never changes another edge's separator, so
    one pass finds every group: each MPS keeps the smallest id of its group
    and the union of its vertex sets, and the complete separators become
    the MPS tree's edges.  Requires a junction tree built from a minimal
    triangulation of gm.  The MPS tree's family map is left empty: family
    hosting lives in the junction tree and the index's owner map.
    """
    mpd = jt.copy()
    mpd.clear_marks()
    mpd.family = {}
    complete = [(a, b, sep) for a, b, sep in jt.edges() if gm.is_complete(sep)]
    for a, b, _ in complete:
        mpd.remove_edge(a, b)
    groups = {min(comp): comp for comp in mpd.components()}
    root = {c: r for r, comp in groups.items() for c in comp}
    for r, comp in groups.items():
        for c in comp - {r}:
            mpd.remove_cluster(c)
        mpd.replace_cluster(r, frozenset().union(*(jt.cluster(c) for c in comp)))
    for a, b, sep in complete:
        mpd.add_edge(root[a], root[b], sep)
    return mpd, MpdIndex(groups, root)
