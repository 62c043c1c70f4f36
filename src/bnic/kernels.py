"""Kernels for elimination-order search and chordality tests.

The greedy minimum-fill elimination search and maximum cardinality search
are the hot inner loops of compilation; everything else in the package is
set and tree manipulation.  Both kernels read an :class:`UndirectedGraph`
and return vertex ids; ties are broken by ascending vertex id, so their
outputs are deterministic.

Both index vertices by rank, the position of the id among the graph's
sorted ids, so ties broken by position are ties broken by id.  Min-fill
holds adjacency as one int bitmask per position; it counts each fill cost
once and then keeps it exact by deltas from each elimination, summing the
per-vertex decrements of a whole elimination in bit-sliced counters.  Per
fill pair it does one AND for the pair's common neighbours and one
popcount of those outside the eliminated neighbourhood, which serves the
cost updates of both ends; each vertex's per-partner gain is one product
at its own turn.  Its lazy heap keeps each live vertex queued at or below
its cost, so the first current key popped is the minimum.  Two exact
shortcuts skip work whose outcome is fixed: a vertex of cost 0 is
simplicial (its neighbourhood is a clique), so its elimination adds no
fill and only takes pairs from its neighbours; and once the live graph is
complete every cost is 0 and stays 0, so no later elimination adds fill
and the search stops.  The caller may name vertices it knows to be
simplicial, such as the childless variables of a moral graph: min-fill
would eliminate them, with no fill, before any vertex of positive cost,
and eliminating one keeps the others simplicial, so the search starts
without them and its fill is the same.  Min-fill returns only its fill,
in ascending order, not the elimination order.
MCS reads the graph's own adjacency sets (copying them into position masks
was slower), one rank lookup per neighbour.  It keeps each vertex's weight
and latest-visited neighbour in lists indexed by rank, with -1 as the
weight of a visited vertex, and its weight classes as position masks; it
emits the maximal cliques of a chordal graph in the same pass.  Both
kernels keep O(len(ids)) state per call, never sized by the largest id.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, AbstractSet

if TYPE_CHECKING:
    from .graph import UndirectedGraph


def numba_enabled() -> bool:
    # Always False: kept because the benchmark records it in its environment.
    return False


def min_fill(g: "UndirectedGraph", simplicial: AbstractSet[int] = frozenset()) -> list[tuple[int, int]]:
    """The fill of the greedy minimum-fill elimination.

    Returns the added edges ``(u, v)``, ``u < v``, in ascending order: the
    keys ``u << shift | v`` over positions, sorted and decoded, as
    positions follow ids.  Each vertex's fill cost is counted once and then
    kept exact by deltas: eliminating x with neighbour mask N, and with
    ``old`` the masks with x cleared but before any fill is added,

    * each u in N loses ``|old[u] & ~N|``, its pairs through x;
    * each fill edge {u, v} gives u the ``|old[u] & ~N & ~old[v]|`` new
      non-adjacent pairs through v, and v the mirror term;
    * each w loses the number of fill edges {u, v} with u and v both in
      ``old[w]`` (inside N or not), now linked pairs among its neighbours.

    With ``out(u) = old[u] & ~N`` and ``s = |out(u) & old[v]|``, the
    common old neighbours of u and v outside N, u's term through v is
    ``|out(u)| - s`` and v's is ``|out(v)| - s``: one popcount per fill
    edge serves both ends.  u has ``|N & ~old[u]| - 1`` fill partners (the
    mask holds u itself), so at u's own turn its cost takes the partner
    terms and the loss through x at once, ``(|N & ~old[u]| - 2) * |out(u)|``,
    and each fill edge then only takes s from both ends' costs.

    The last count is kept for all vertices at once in bit-sliced counters:
    ``planes[k]`` holds bit k of every vertex's count, and each fill edge
    adds the mask ``old[u] & old[v]`` with a ripple carry, which appends a
    plane when it runs past the top one.  Once x is eliminated, each set bit
    w of ``planes[k]`` takes ``2**k`` from w's cost, and the union of the
    planes, with N, is the set of vertices whose cost moved.

    A lazy heap of int keys ``cost << shift | position`` picks the next
    vertex; a live cost is never negative, so the keys sort as the
    ``(cost, position)`` pairs.  ``queued[x]`` is the smallest cost queued
    for x.  A changed vertex is pushed only if its cost fell below it; a
    popped stale key is pushed again at the risen live cost only if it was
    ``queued[x]``.  So every live vertex keeps a queued key no larger than
    its cost, and the first popped key equal to its vertex's live cost is
    the ``(cost, position)`` minimum: the eliminations, and so the fill,
    are those of an exact heap.

    Two shortcuts give the same fill with less work:

    * a popped vertex of cost 0 is simplicial: its neighbourhood N has no
      non-adjacent pair, so it is a clique.  No fill is added and no pair
      of a third vertex is linked, so each u in N only clears x and loses
      ``|old[u] & ~N|``, and is re-queued in the same pass;
    * the live vertex count L and twice the live edge count 2E are kept
      (an elimination takes ``2|N|``, a fill edge adds 2).  When an
      elimination leaves ``2E == L(L - 1)`` the live graph is complete:
      every cost is 0 and, as eliminating from a clique leaves a clique,
      stays 0, so no later elimination adds fill and the search stops.

    ``simplicial`` names vertices known to be simplicial in ``g``.  The
    search starts without them: they leave the ids and every neighbour set
    before the masks, costs and heap are built, and the fill is the same.
    The heap pops every cost-0 vertex before any of positive cost.
    Eliminating a simplicial vertex adds no fill and keeps every other
    simplicial vertex simplicial, as a subset of a clique is a clique, so
    every run of such eliminations that leaves no simplicial vertex removes
    the same vertices: a run starting with the named ones reaches the graph
    the search without them reaches before its first fill pair.  From there
    both see one graph, ties still broken by id, and the stop on a complete
    live graph is a property of that graph.
    """
    # bit i of a mask stands for ids[i]: ids can be large and far apart
    # after node removals and in a rebuild's induced subgraph
    ids = g.vertices()
    if simplicial:
        ids = [v for v in ids if v not in simplicial]
        neighbours = [g.neighbors(v) - simplicial for v in ids]
    else:
        neighbours = list(map(g.neighbors, ids))
    bit = {v: 1 << i for i, v in enumerate(ids)}
    masks = [sum(map(bit.__getitem__, nb)) for nb in neighbours]
    mask_of = dict(zip(ids, masks)).__getitem__

    # non-adjacent pairs among each vertex's neighbours (linked pairs count twice in the sum)
    cost = [
        (len(nb) * (len(nb) - 1) - sum(map(int.bit_count, map(m.__and__, map(mask_of, nb))))) // 2
        for nb, m in zip(neighbours, masks)
    ]
    queued = cost[:]
    shift = len(ids).bit_length()
    position = (1 << shift) - 1
    heap = [c << shift | i for i, c in enumerate(cost)]
    heapq.heapify(heap)
    fill: list[int] = []  # u << shift | v, by position
    live = len(ids)
    twice_edges = sum(map(len, neighbours))
    while heap:
        key = heapq.heappop(heap)
        x = key & position
        c = key >> shift
        if cost[x] != c:
            # eliminated (cost -1), or stale: the live cost rose above c
            if c == queued[x] and cost[x] > c:
                queued[x] = cost[x]
                heapq.heappush(heap, cost[x] << shift | x)
            continue
        cost[x] = -1
        nx = masks[x]
        bit_x = 1 << x
        live -= 1
        twice_edges -= 2 * nx.bit_count()
        # set bits lowest first, by inline loops: faster here than a generator
        if not c:
            # simplicial: N is a clique, so no fill and each u in N only
            # loses x and its pairs through x
            rest_u = nx
            while rest_u:
                bit_u = rest_u & -rest_u
                rest_u ^= bit_u
                u = bit_u.bit_length() - 1
                ou = masks[u] ^ bit_x
                masks[u] = ou
                cu = cost[u] - (ou & ~nx).bit_count()
                cost[u] = cu
                if cu < queued[u]:
                    queued[u] = cu
                    heapq.heappush(heap, cu << shift | u)
        else:
            keep = ~bit_x
            planes: list[int] = []  # bit k of each vertex's count of pairs linked by fill
            rest_u = nx
            while rest_u:
                bit_u = rest_u & -rest_u
                rest_u ^= bit_u
                u = bit_u.bit_length() - 1
                ou = masks[u] & keep  # old[u]: a mask changes only at its own turn
                out_u = ou & ~nx
                partners = nx & ~ou  # u and its fill partners
                # u loses its pairs through x and gains them through each partner
                cu = cost[u] + (partners.bit_count() - 2) * out_u.bit_count()
                rest_v = partners & -(bit_u << 1)
                while rest_v:
                    bit_v = rest_v & -rest_v
                    rest_v ^= bit_v
                    v = bit_v.bit_length() - 1
                    fill.append(u << shift | v)
                    carry = ou & masks[v]  # old[u] & old[v]: v > u keeps its mask, and ou lacks x
                    shared = (out_u & carry).bit_count()
                    cu -= shared
                    cost[v] -= shared
                    k = 0
                    while carry:
                        if k == len(planes):
                            planes.append(carry)
                            break
                        p = planes[k]
                        planes[k] = p ^ carry
                        carry &= p
                        k += 1
                cost[u] = cu
                masks[u] = ou | (nx ^ bit_u)
            twice_edges += 2 * c  # the popped cost is the count of fill pairs added
            changed = nx  # the vertices whose cost may move, as a mask
            for k, p in enumerate(planes):
                changed |= p
                step = 1 << k
                while p:
                    low = p & -p
                    p ^= low
                    cost[low.bit_length() - 1] -= step
            while changed:
                low = changed & -changed
                changed ^= low
                u = low.bit_length() - 1
                if cost[u] < queued[u]:
                    queued[u] = cost[u]
                    heapq.heappush(heap, cost[u] << shift | u)
        if twice_edges == live * (live - 1):
            break  # the live graph is complete: every cost is 0 and stays 0
    fill.sort()
    return [(ids[f >> shift], ids[f & position]) for f in fill]


def mcs(g: "UndirectedGraph") -> tuple[list[int], tuple[int, int] | None, list[frozenset[int]]]:
    """Maximum cardinality search with a zero-fill chordality check.

    Returns ``(order, witness, cliques)``.  ``witness`` is None when the
    graph is chordal.  Otherwise it is the first missing pair ``(u, v)``,
    ``u < v``, among the earlier-visited neighbours of the first vertex
    whose earlier-visited neighbours are not a clique, and ``cliques`` is
    empty.  On a chordal graph ``cliques`` lists its maximal cliques in
    visit order.

    The per-vertex state is held in lists indexed by rank, the position of
    the id among the sorted ids, so it is O(len(ids)) however large the ids
    are.  ``buckets[w]`` is an int mask over the ranks of the unvisited
    vertices of weight w; the next vertex is the lowest bit of the top
    non-empty bucket, so ties go to the lowest id.  A visited vertex gets
    weight -1, so the neighbour loop reads one list item to skip it.  Each
    visited x with its earlier-visited neighbours forms a candidate clique,
    and every maximal clique is one of them.  Under MCS on a chordal graph
    x's candidate is maximal iff the next visited vertex's weight is not
    larger than x's (Blair & Peyton 1993), so it is emitted when that
    vertex is picked.
    """
    ids = g.vertices()
    n = len(ids)
    adj = {v: g.neighbors(v) for v in ids}
    rank = {v: i for i, v in enumerate(ids)}
    bits = [1 << i for i in range(n)]
    weight = [0] * n  # -1 once visited
    last: list[int | None] = [None] * n  # the latest-visited neighbour, by rank
    buckets = [(1 << n) - 1] + [0] * n  # a weight is at most n - 1, so top + 1 is in range
    top = 0  # the highest weight an unvisited vertex may have
    visited: set[int] = set()
    order: list[int] = []
    cliques: list[frozenset[int]] = []
    witness = None
    candidate: set[int] = set()  # the previous vertex's, while chordal
    previous_weight = 0
    for _ in ids:
        while not buckets[top]:
            top -= 1
        b = buckets[top]
        low = b & -b
        buckets[top] = b ^ low
        i = low.bit_length() - 1
        x = ids[i]
        order.append(x)
        if witness is None:
            # While every earlier-visited set was a clique, x's is one iff
            # it lies in the closed neighbourhood of its latest-visited member
            # f (whose own earlier-visited set is a clique holding the rest).
            prev = adj[x] & visited
            f = last[i]
            if f is not None and len(prev - adj[f]) > 1:
                witness = _first_missing_pair(adj, prev)
                cliques = []
            else:
                if candidate and top <= previous_weight:
                    cliques.append(frozenset(candidate))
                prev.add(x)
                candidate = prev
                previous_weight = top
        visited.add(x)
        weight[i] = -1
        for v in adj[x]:
            j = rank[v]
            w = weight[j]
            if w >= 0:
                b = bits[j]
                buckets[w] ^= b
                w += 1
                weight[j] = w
                buckets[w] |= b
                last[j] = x
        if buckets[top + 1]:
            top += 1
    if witness is None and candidate:
        cliques.append(frozenset(candidate))
    return order, witness, cliques


def _first_missing_pair(adj: dict[int, set[int]], vs: set[int]) -> tuple[int, int]:
    for u in sorted(vs):
        # any missing partner below u would have been reported at its turn
        missing = vs - adj[u]
        missing.discard(u)
        if missing:
            return u, min(missing)
    raise ValueError("vertex set is a clique")
