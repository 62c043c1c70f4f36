"""Aggregation of junction-tree cliques into maximal prime subgraphs."""

from __future__ import annotations

from dataclasses import dataclass, field

from .clustertree import ClusterTree
from .graph import UndirectedGraph


@dataclass
class MpdIndex:
    """Bookkeeping tying the MPS tree to the junction tree.

    ``cliques_of`` partitions the junction clusters among the MPS clusters;
    each MPS vertex set equals the union of its cliques.  ``clique_of`` and
    ``mps_of`` record the hosting clique and MPS of every variable's family.
    """

    cliques_of: dict[int, set[int]] = field(default_factory=dict)
    mps_of: dict[int, int] = field(default_factory=dict)
    clique_of: dict[int, int] = field(default_factory=dict)

    def owner_map(self) -> dict[int, int]:
        return {c: m for m, cs in self.cliques_of.items() for c in cs}

    def copy(self) -> "MpdIndex":
        return MpdIndex(
            cliques_of={m: set(cs) for m, cs in self.cliques_of.items()},
            mps_of=dict(self.mps_of),
            clique_of=dict(self.clique_of),
        )


def aggregate_cliques(jt: ClusterTree, gm: UndirectedGraph) -> tuple[ClusterTree, MpdIndex]:
    """Merge adjacent clusters across separators incomplete in the moral graph.

    The maximal prime subgraphs are the connected components of the junction
    tree cut down to its incomplete separators (Olesen & Madsen, IEEE SMC-B
    2002).  Contracting an edge never changes another edge's separator, so
    one pass finds every group: each MPS keeps the smallest id of its group
    and the union of its vertex sets, and the complete separators become
    the MPS tree's edges.  Requires a junction tree built from a minimal
    triangulation of gm.
    """
    mpd = jt.copy()
    mpd.clear_marks()
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

    index = MpdIndex(cliques_of=groups, clique_of=dict(jt.family))
    index.mps_of = {v: root[c] for v, c in index.clique_of.items()}
    mpd.family = index.mps_of
    return mpd, index
