"""Kernels for elimination-order search and chordality tests.

The greedy minimum-fill elimination search and maximum cardinality search
are the hot inner loops of compilation; everything else in the package is
set and tree manipulation.  Both kernels read an :class:`UndirectedGraph`
and return vertex ids; ties are broken by ascending vertex id, so their
outputs are deterministic.

Min-fill and :func:`bnic.pipeline.recursive_thinning` hold adjacency as
one int bitmask per vertex position, the vertex's rank among the graph's
ids, so ties broken by position are ties broken by id.  MCS keeps
adjacency sets: a bitmask MCS was slower on the benchmark's networks.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    from .graph import UndirectedGraph


def numba_enabled() -> bool:
    # Always False: kept because the benchmark records it in its environment.
    return False


def vertex_masks(g: "UndirectedGraph") -> tuple[list[int], list[int]]:
    """The vertex ids, ascending, and each one's neighbours as a bitmask.

    Bit i stands for ``ids[i]``: ids can be large and far apart after node
    removals and in a rebuild's induced subgraph.
    """
    ids = g.vertices()
    pos = {v: i for i, v in enumerate(ids)}
    return ids, [sum(1 << pos[u] for u in g.neighbors(v)) for v in ids]


def _bits(m: int) -> Iterator[int]:
    """The positions of the set bits of m, ascending."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def min_fill(g: "UndirectedGraph") -> tuple[list[int], list[tuple[int, int]]]:
    """Greedy minimum-fill elimination order.

    Returns ``(order, fill)`` where ``fill`` lists the added edges ``(u, v)``
    with ``u < v`` in insertion order: per elimination, by ascending u and
    then ascending v.  Each vertex's fill cost is kept; an elimination
    recomputes it for the eliminated vertex's neighbours and lowers it by
    one for each other common neighbour of a new fill edge.  A lazy heap
    keyed on ``(cost, position)`` picks the next vertex.  Adjacency is kept
    both as sets, to iterate over, and as bitmasks, to intersect.
    """
    ids, masks = vertex_masks(g)
    adj = [set(_bits(m)) for m in masks]

    def fill_cost(i: int) -> int:
        # non-adjacent pairs among i's neighbours; linked pairs count twice
        m = masks[i]
        d = m.bit_count()
        return (d * (d - 1) - sum((masks[j] & m).bit_count() for j in adj[i])) // 2

    cost = [fill_cost(i) for i in range(len(ids))]
    heap = list(zip(cost, range(len(ids))))
    heapq.heapify(heap)
    order: list[int] = []
    fill: list[tuple[int, int]] = []
    while heap:
        c, x = heapq.heappop(heap)
        if cost[x] != c:
            continue  # eliminated (cost -1), or a stale cost
        cost[x] = -1
        order.append(ids[x])
        nx = masks[x]
        nbrs = adj[x]
        keep = ~(1 << x)
        for u in nbrs:
            adj[u].discard(x)
            masks[u] &= keep
        changed = set()
        if c:
            for u in _bits(nx):
                # partners above u, fixed before u gains any of them
                for v in _bits(nx & ~masks[u] & -(2 << u)):
                    fill.append((ids[u], ids[v]))
                    for w in _bits(masks[u] & masks[v] & ~nx):
                        cost[w] -= 1
                        changed.add(w)
                    masks[u] |= 1 << v
                    masks[v] |= 1 << u
                    adj[u].add(v)
                    adj[v].add(u)
        for u in nbrs:
            new = fill_cost(u)
            if new != cost[u]:
                cost[u] = new
                changed.add(u)
        for u in changed:
            heapq.heappush(heap, (cost[u], u))
    return order, fill


def mcs(g: "UndirectedGraph") -> tuple[list[int], tuple[int, int] | None]:
    """Maximum cardinality search with a zero-fill chordality check.

    Returns ``(order, witness)``.  ``witness`` is None when the graph is
    chordal.  Otherwise it is the first missing pair ``(u, v)``, ``u < v``,
    among the earlier-visited neighbours of the first vertex whose
    earlier-visited neighbours are not a clique.
    """
    adj = {v: g.neighbors(v) for v in g.vertices()}
    weight = dict.fromkeys(adj, 0)
    heap = [(0, v) for v in adj]  # sorted, hence already a heap
    visited: set[int] = set()
    last: dict[int, int] = {}  # the latest-visited neighbour, per vertex
    order: list[int] = []
    witness = None
    while heap:
        negw, x = heapq.heappop(heap)
        if x in visited or -negw != weight[x]:
            continue
        order.append(x)
        visited.add(x)
        if witness is None:
            # While every earlier-visited set was a clique, x's is one iff
            # it lies in the closed neighbourhood of its latest-visited member
            # f (whose own earlier-visited set is a clique holding the rest).
            prev = adj[x] & visited
            f = last.get(x)
            if f is not None and len(prev - adj[f]) > 1:
                witness = _first_missing_pair(adj, prev)
        for v in adj[x]:
            if v not in visited:
                weight[v] += 1
                last[v] = x
                heapq.heappush(heap, (-weight[v], v))
    return order, witness


def _first_missing_pair(adj: dict[int, set[int]], vs: set[int]) -> tuple[int, int]:
    for u in sorted(vs):
        # any missing partner below u would have been reported at its turn
        missing = vs - adj[u]
        missing.discard(u)
        if missing:
            return u, min(missing)
    raise ValueError("vertex set is a clique")
