"""Aggregation of junction-tree cliques into maximal prime subgraphs.

The maximal prime subgraphs (MPSs) are the connected components of the
junction tree cut at its separators complete in the moral graph (Olesen &
Madsen, IEEE SMC-B 2002).  :func:`inner_edges` is the one place that tells
which junction edges lie inside an MPS: a full compile, ``validate`` and
the engine's regroup of a rebuilt region all call it.
"""

from __future__ import annotations

from typing import Iterable

from .clustertree import ClusterTree
from .graph import UndirectedGraph


def inner_edges(edges: Iterable[tuple[int, int, frozenset[int]]], fill: UndirectedGraph) -> list[tuple[int, int]]:
    """The junction edges (a, b, separator) inside an MPS, as (a, b): those whose separator holds a fill pair.

    Every cluster is a clique of H = moral + fill, and the fill shares no
    pair with the moral graph, so a separator is incomplete in the moral
    graph iff it holds a fill pair (:meth:`UndirectedGraph.has_edge_within`,
    one ``isdisjoint`` per separator vertex).
    """
    within = fill.has_edge_within
    return [(a, b) for a, b, sep in edges if within(sep)]


def union_groups(ids: Iterable[int], joined: Iterable[tuple[int, int]]) -> dict[int, int]:
    """Map every id to the least id of its group: the components that the joined pairs make of ids.

    One walk over the joined pairs from each of their ends in ascending
    order labels the group it reaches with that end, the group's least id;
    an id in no pair is its own group.  The map lists ids in the order given.
    """
    adj: dict[int, list[int]] = {}
    for a, b in joined:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    owner = {c: c for c in ids}
    for m in sorted(adj):
        if owner[m] != m:  # labelled by a smaller end of its group
            continue
        stack = [m]
        while stack:
            for c in adj[stack.pop()]:
                if owner[c] == c != m:  # not yet labelled: of this group only m maps to itself
                    owner[c] = m
                    stack.append(c)
    return owner


def group_owners(jt: ClusterTree, fill: UndirectedGraph) -> dict[int, int]:
    """Map every clique to its MPS: the least clique of its group.

    One unsorted walk of the junction edges finds those inside an MPS
    (:func:`inner_edges`), and :func:`union_groups` names the groups they
    make.  Requires a junction tree of a minimal triangulation, moral graph
    plus fill, and a fill that shares no pair with the moral graph.
    """
    return union_groups(jt.cluster_ids(), inner_edges(jt.edge_items(), fill))


def aggregate_cliques(jt: ClusterTree, fill: UndirectedGraph) -> tuple[ClusterTree, dict[int, int]]:
    """The MPS tree and owner map of a junction tree: its quotient by :func:`group_owners`.

    No package code calls it; it is kept because the benchmark's tracer
    binds it and reads each call's tree for its merge and largest-MPS
    counts.  Callers that need the owner map alone call :func:`group_owners`.
    """
    owner = group_owners(jt, fill)
    return jt.quotient(owner), owner
