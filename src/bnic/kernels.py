"""Adjacency-set kernels for elimination-order search and chordality tests.

The greedy minimum-fill elimination search and maximum cardinality search
are the hot inner loops of compilation; everything else in the package is
set and tree manipulation.  Both kernels read an :class:`UndirectedGraph`
and return vertex ids; ties are broken by ascending vertex id, so their
outputs are deterministic.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .graph import UndirectedGraph


def numba_enabled() -> bool:
    # Always False: kept because the benchmark records it in its environment.
    return False


def _fill_cost(adj: dict[int, set[int]], v: int) -> int:
    """The number of non-adjacent pairs among the neighbours of v."""
    nbrs = adj[v]
    d = len(nbrs)
    linked = sum(len(nbrs & adj[u]) for u in nbrs)  # each adjacent pair twice
    return (d * (d - 1) - linked) // 2


def min_fill(g: "UndirectedGraph") -> tuple[list[int], list[tuple[int, int]]]:
    """Greedy minimum-fill elimination order.

    Returns ``(order, fill)`` where ``fill`` lists the added edges ``(u, v)``
    with ``u < v`` in insertion order: per elimination, by ascending u and
    then ascending v.  Each vertex's fill cost is kept; an elimination
    recomputes it for the eliminated vertex's neighbours and lowers it by
    one for each other common neighbour of a new fill edge.  A lazy heap
    keyed on ``(cost, id)`` picks the next vertex.
    """
    adj = {v: set(g.neighbors(v)) for v in g.vertices()}
    cost = {v: _fill_cost(adj, v) for v in adj}
    heap = [(c, v) for v, c in cost.items()]
    heapq.heapify(heap)
    order: list[int] = []
    fill: list[tuple[int, int]] = []
    while heap:
        c, x = heapq.heappop(heap)
        if x not in adj or cost[x] != c:
            continue  # eliminated, or a stale cost
        order.append(x)
        nbrs = adj.pop(x)
        for u in nbrs:
            adj[u].discard(x)
        changed = set()
        if c:
            for u in sorted(nbrs):
                for v in sorted(w for w in nbrs - adj[u] if w > u):
                    fill.append((u, v))
                    for w in adj[u] & adj[v] - nbrs:
                        cost[w] -= 1
                        changed.add(w)
                    adj[u].add(v)
                    adj[v].add(u)
        for u in nbrs:
            new = _fill_cost(adj, u)
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
