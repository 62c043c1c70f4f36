"""Aggregation of junction-tree cliques into maximal prime subgraphs."""

from __future__ import annotations

from typing import Iterable

from .clustertree import ClusterTree
from .graph import UndirectedGraph


def union_groups(ids: Iterable[int], joined: Iterable[tuple[int, int]]) -> dict[int, int]:
    """Map every id to the least id of its group: the components that the joined pairs make of ids.

    One union-find; a union keeps the smaller root, so each root is its
    group's least id whatever the pair order.  The map lists ids in the
    order given.
    """
    owner = {c: c for c in ids}

    def find(c: int) -> int:
        while owner[c] != c:
            owner[c] = c = owner[owner[c]]
        return c

    for a, b in joined:
        ra, rb = find(a), find(b)
        owner[max(ra, rb)] = min(ra, rb)
    for c in owner:
        owner[c] = find(c)
    return owner


def group_owners(jt: ClusterTree, gm: UndirectedGraph) -> dict[int, int]:
    """Map every clique to its MPS: the least clique of its group.

    The maximal prime subgraphs are the connected components of the junction
    tree cut down to its incomplete separators (Olesen & Madsen, IEEE SMC-B
    2002).  One union-find over those separators, in one unsorted walk of
    the junction edges, finds every group (:func:`union_groups`).
    Requires a junction tree built from a minimal triangulation of gm.
    """
    return union_groups(jt.cluster_ids(), ((a, b) for a, b, sep in jt.edge_items() if not gm.is_complete(sep)))


def aggregate_cliques(jt: ClusterTree, gm: UndirectedGraph) -> tuple[ClusterTree, dict[int, int]]:
    """The MPS tree and owner map of a junction tree: its quotient by :func:`group_owners`.

    No package code calls it; it is kept because the benchmark's tracer
    binds it and reads each call's tree for its merge and largest-MPS
    counts.  Callers that need the owner map alone call :func:`group_owners`.
    """
    owner = group_owners(jt, gm)
    return jt.quotient(owner), owner
