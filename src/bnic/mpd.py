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
    2002).  One union-find over those separators finds every group; each
    MPS keeps the smallest id of its group (the root of its union-find set)
    and the union of its vertex sets, and the complete separators become
    the MPS tree's edges.  Fresh MPS ids continue after the junction tree's.
    Requires a junction tree built from a minimal triangulation of gm.  The
    MPS tree's family map is left empty: family hosting lives in the
    junction tree and the index's owner map.
    """
    owner = {c: c for c in jt.cluster_ids()}

    def find(c: int) -> int:
        while owner[c] != c:
            owner[c] = c = owner[owner[c]]
        return c

    complete = []
    for a, b, sep in jt.edges():
        if gm.is_complete(sep):
            complete.append((a, b, sep))
        else:
            ra, rb = find(a), find(b)
            owner[max(ra, rb)] = min(ra, rb)
    cliques_of: dict[int, set[int]] = {}
    for c in owner:
        r = owner[c] = find(c)
        cliques_of.setdefault(r, set()).add(c)
    mpd = ClusterTree({r: frozenset().union(*map(jt.cluster, cs)) for r, cs in cliques_of.items()}, jt.next_id)
    for a, b, sep in complete:
        mpd.add_edge(owner[a], owner[b], sep)
    return mpd, MpdIndex(cliques_of, owner)
