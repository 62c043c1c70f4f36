"""Kernels for elimination-order search and chordality tests.

The greedy minimum-fill elimination search and maximum cardinality search
are the hot inner loops of compilation; everything else in the package is
set and tree manipulation.  Both kernels read an :class:`UndirectedGraph`
and return vertex ids; ties are broken by ascending vertex id, so their
outputs are deterministic.

Min-fill holds adjacency as one int bitmask per vertex position, the
vertex's rank among the graph's ids, so ties broken by position are ties
broken by id; it counts each fill cost once and then keeps it exact by
deltas from each elimination.  MCS keeps adjacency sets: a bitmask MCS was
slower on the benchmark's networks.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    from .graph import UndirectedGraph


def numba_enabled() -> bool:
    # Always False: kept because the benchmark records it in its environment.
    return False


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
    then ascending v.  Each vertex's fill cost is counted once and then
    kept exact by deltas: eliminating x with neighbour mask N, and with
    ``old`` the masks with x cleared but before any fill is added,

    * each u in N loses ``|old[u] & ~N|``, its pairs through x;
    * each fill edge {u, v} takes one from every w in ``old[u] & old[v]``
      (inside N or not), and gives u the ``|old[u] & ~N & ~old[v]|`` new
      non-adjacent pairs through v, and v the mirror term.

    A lazy heap keyed on ``(cost, position)`` picks the next vertex.
    """
    # bit i of a mask stands for ids[i]: ids can be large and far apart
    # after node removals and in a rebuild's induced subgraph
    ids = g.vertices()
    pos = {v: i for i, v in enumerate(ids)}
    masks = [sum(1 << pos[u] for u in g.neighbors(v)) for v in ids]

    def fill_cost(i: int) -> int:
        # non-adjacent pairs among i's neighbours; linked pairs count twice
        m = masks[i]
        d = m.bit_count()
        return (d * (d - 1) - sum((masks[j] & m).bit_count() for j in _bits(m))) // 2

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
        keep = ~(1 << x)
        changed = nx  # the vertices whose cost may move, as a mask
        for u in _bits(nx):
            ou = masks[u] & keep  # old[u]: a mask changes only at its own turn
            out_u = ou & ~nx
            cost[u] -= out_u.bit_count()
            for v in _bits(nx & ~ou & -(2 << u)):
                fill.append((ids[u], ids[v]))
                ov = masks[v] & keep  # old[v], as v > u
                common = ou & ov
                changed |= common
                while common:
                    low = common & -common
                    cost[low.bit_length() - 1] -= 1
                    common ^= low
                cost[u] += (out_u & ~ov).bit_count()
                cost[v] += (ov & ~nx & ~ou).bit_count()
            masks[u] = ou | (nx ^ (1 << u))
        for u in _bits(changed):
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
