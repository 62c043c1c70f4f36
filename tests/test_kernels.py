import heapq
import tracemalloc
from itertools import combinations
from random import Random
from types import SimpleNamespace

import numpy as np
import pytest

import bnic.engine
from bnic import (
    AddNode,
    RemoveNode,
    UndirectedGraph,
    full_recompile,
    incremental_compile,
    kernels,
    random_dag,
    moralize,
    random_script,
)
from bnic.graph import moral_simplicial
from conftest import seeded_dags


# -- dense scalar reference loops --------------------------------------------


def _min_fill_reference(adj):
    # Greedy minimum-fill elimination over a dense matrix.  Ties broken by
    # ascending index.  Returns the fill edges (parallel u/v lists) in
    # insertion order.
    n = adj.shape[0]
    work = adj.copy()
    alive = np.ones(n, np.bool_)
    fill_u, fill_v = [], []
    for _ in range(n):
        best = -1
        best_cost = -1
        for v in range(n):
            if not alive[v]:
                continue
            cost = 0
            for i in range(n):
                if alive[i] and work[v, i]:
                    for j in range(i + 1, n):
                        if alive[j] and work[v, j] and not work[i, j]:
                            cost += 1
            if best == -1 or cost < best_cost:
                best = v
                best_cost = cost
        for i in range(n):
            if alive[i] and work[best, i]:
                for j in range(i + 1, n):
                    if alive[j] and work[best, j] and not work[i, j]:
                        work[i, j] = True
                        work[j, i] = True
                        fill_u.append(i)
                        fill_v.append(j)
        alive[best] = False
    return fill_u, fill_v


def _mcs_reference(adj):
    # Maximum cardinality search with an inline zero-fill check.  Returns the
    # visit order plus the first missing edge among the already-visited
    # neighbours of some vertex; (-1, -1) when the graph is chordal.
    n = adj.shape[0]
    weight = np.zeros(n, np.int64)
    numbered = np.zeros(n, np.bool_)
    order = []
    miss_u = -1
    miss_v = -1
    for _ in range(n):
        best = -1
        best_w = -1
        for v in range(n):
            if not numbered[v] and weight[v] > best_w:
                best = v
                best_w = weight[v]
        order.append(best)
        numbered[best] = True
        if miss_u < 0:
            done = False
            for i in range(n):
                if numbered[i] and i != best and adj[best, i]:
                    for j in range(i + 1, n):
                        if numbered[j] and j != best and adj[best, j] and not adj[i, j]:
                            miss_u = i
                            miss_v = j
                            done = True
                            break
                    if done:
                        break
        for v in range(n):
            if not numbered[v] and adj[best, v]:
                weight[v] += 1
    return order, miss_u, miss_v


# -- the former adjacency-set min-fill kernel ----------------------------------


def _fill_cost_sets(adj, v):
    nbrs = adj[v]
    d = len(nbrs)
    linked = sum(len(nbrs & adj[u]) for u in nbrs)  # each adjacent pair twice
    return (d * (d - 1) - linked) // 2


def _min_fill_sets_reference(g):
    # The former adjacency-set kernel: fill costs kept per vertex id, a lazy
    # (cost, id) heap, and set intersections for every cost and decrement.
    # Returns the fill in insertion order.
    adj = {v: set(g.neighbors(v)) for v in g.vertices()}
    cost = {v: _fill_cost_sets(adj, v) for v in adj}
    heap = [(c, v) for v, c in cost.items()]
    heapq.heapify(heap)
    fill = []
    while heap:
        c, x = heapq.heappop(heap)
        if x not in adj or cost[x] != c:
            continue
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
            new = _fill_cost_sets(adj, u)
            if new != cost[u]:
                cost[u] = new
                changed.add(u)
        for u in changed:
            heapq.heappush(heap, (cost[u], u))
    return fill


# -- the former clique pass -----------------------------------------------------


def _clique_pass_reference(g):
    # The former second pass over the MCS order: one candidate per vertex,
    # itself with its earlier-visited neighbours, kept iff it is not a
    # proper subset of the next candidate.
    order, witness, _ = kernels.mcs(g)
    assert witness is None
    pos = {v: i for i, v in enumerate(order)}
    candidates = [
        frozenset(u for u in g.neighbors(v) if pos[u] < i) | {v} for i, v in enumerate(order)
    ]
    return [c for c, nxt in zip(candidates, candidates[1:] + [frozenset()]) if not c < nxt]


# -- helpers ---------------------------------------------------------------------


def _random_adj(rng, n, p):
    a = rng.random((n, n)) < p
    a = a | a.T
    np.fill_diagonal(a, False)
    return np.ascontiguousarray(a, dtype=np.bool_)


def _graph(adj, ids):
    """The graph of a dense matrix whose index i stands for vertex ids[i]."""
    n = adj.shape[0]
    edges = [(ids[i], ids[j]) for i in range(n) for j in range(i + 1, n) if adj[i, j]]
    return UndirectedGraph.from_edges(ids, edges)


def _clique_chain(n, k, closed=False):
    # cliques of k vertices, each sharing k // 2 with the next; closed, the
    # last one also overlaps the first, which forces fill between cliques
    a = np.zeros((n, n), np.bool_)
    step = max(k - k // 2, 1)
    for s in range(0, n, step):
        members = [(s + i) % n for i in range(k)] if closed else list(range(s, min(s + k, n)))
        for i in members:
            for j in members:
                a[i, j] = i != j
    return a


def _dense_cases(rng, n):
    # mean degree n/4 and n/2, the complete graph, the complete graph minus
    # a perfect matching, and open and closed chains of overlapping cliques:
    # graphs where most fill lies inside the eliminated vertex's neighbours;
    # then graphs that reach min-fill's shortcuts in different ways: two
    # interleaved disjoint cliques (never one complete component while both
    # live), a path run into a clique (simplicial eliminations, then a
    # clique), and a wheel with its hub first, whose rim eliminations each
    # cost 1 and leave the hub's higher keys queued until the last four
    # vertices are a clique
    for degree in (n / 4, n / 2):
        yield _random_adj(rng, n, degree / max(n - 1, 1) / 2)
    complete = ~np.eye(n, dtype=np.bool_)
    yield complete
    matched = complete.copy()
    for i in range(0, n - 1, 2):
        matched[i, i + 1] = matched[i + 1, i] = False
    yield matched
    yield _clique_chain(n, 4)
    yield _clique_chain(n, 6, closed=True)
    third = np.arange(n) % 3 == 0
    yield complete & (third[:, None] == third[None, :])
    tail = n // 2
    path = np.zeros((n, n), np.bool_)
    path[tail:, tail:] = complete[tail:, tail:]
    for i in range(tail):
        path[i, i + 1] = path[i + 1, i] = True
    yield path
    wheel = np.zeros((n, n), np.bool_)
    wheel[:1, 1:] = wheel[1:, :1] = True
    for i in range(1, n):
        j = 1 + i % (n - 1)
        wheel[i, j] = wheel[j, i] = i != j
    yield wheel


def _spaced_ids(n):
    # ascending but not contiguous, so index and id differ
    return [3 * i + 1 for i in range(n)]


def _gapped_ids(n):
    # distinct, far apart and not in index order, so position, index and id
    # all differ and ids exceed n
    return [1000 * (i % 3) + 7 * i for i in range(n)]


def _missing_cliques(t):
    # t pairs as disjoint cliques over 1, 2, ...: K4s (6 pairs each) while
    # they fit, then at most one K3 and two K2s
    pairs, v = [], 1
    for size, count in ((4, t // 6), (3, t % 6 // 3), (2, t % 3)):
        for _ in range(count):
            pairs += combinations(range(v, v + size), 2)
            v += size
    return pairs


def _hub_gadget(missing, saturated=False):
    # x = 0 is joined to N = {1, ..., m} and to nothing else; N is complete
    # but for the missing pairs, disjoint cliques of at most 4 vertices, and
    # four hubs on a 4-cycle are each joined to all of N.  A vertex of N
    # then costs |missing| + 6 less the missing pairs of its clique, so at
    # least x's |missing|, and a hub costs |missing| + 1: x, the lowest id,
    # goes first.  Its fill is the missing pairs, each hub has all of them
    # among its neighbours, and a vertex of N has fill partners below and
    # above it when its missing clique has three or more vertices.  After
    # x, N is a clique, a vertex of N costs 2 (the cycle's diagonals) and a
    # hub 1, so a hub goes next and fills one diagonal, then nothing more;
    # a vertex of N eliminated before the hubs fills both.  With saturated,
    # one more vertex of N is joined to x and to all of N but to no hub: it
    # costs |missing|, has no outside neighbour at x's elimination, and is
    # simplicial after it.
    m = max(v for pair in missing for v in pair) + saturated
    inner = range(1, m + 1)
    hubs = range(m + 1, m + 5)
    absent = set(missing)
    edges = [(0, u) for u in inner] + [p for p in combinations(inner, 2) if p not in absent]
    edges += [(u, h) for u in inner[: m - saturated] for h in hubs]
    edges += [*zip(hubs, hubs[1:]), (hubs[0], hubs[-1])]
    return UndirectedGraph.from_edges(range(m + 5), edges)


# -- tests ---------------------------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8, 12, 20])
def test_backends_produce_identical_min_fill(n):
    # the bitmask kernel's fill, ascending, against the dense reference loop's
    rng = np.random.default_rng(n)
    ids = _spaced_ids(n)
    for adj in [_random_adj(rng, n, 0.3), *_dense_cases(rng, n)]:
        ref_u, ref_v = _min_fill_reference(adj)
        assert kernels.min_fill(_graph(adj, ids)) == sorted((ids[u], ids[v]) for u, v in zip(ref_u, ref_v))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8, 12, 20, 50, 120, 200])
def test_backends_produce_identical_mcs(n):
    # the bucketed kernel against the dense reference loop, on graphs from
    # forests to mean degree n/4 and on a min-fill triangulation of each,
    # with spaced ids and with gapped ids out of index order; the reference
    # breaks ties by index, so it runs on the matrix in ascending id order
    rng = np.random.default_rng(100 + n)
    cases = [_random_adj(rng, n, 0.3)]
    cases += [_random_adj(rng, n, degree / max(n - 1, 1) / 2) for degree in (0.8, 3, n / 4)]
    for adj in cases:
        for ids in (_spaced_ids(n), _gapped_ids(n)):
            g = _graph(adj, ids)
            fill = kernels.min_fill(g)
            t = g.copy()
            for u, v in fill:
                t.add_edge(u, v)
            for h in (g, t):
                by_id = sorted(h.vertices())
                rank = {v: i for i, v in enumerate(by_id)}
                dense = np.zeros((n, n), np.bool_)
                for u, v in h.edges():
                    dense[rank[u], rank[v]] = dense[rank[v], rank[u]] = True
                order, witness, _ = kernels.mcs(h)
                ref_order, mu, mv = _mcs_reference(dense)
                assert order == [by_id[i] for i in ref_order]
                assert witness == (None if mu < 0 else (by_id[mu], by_id[mv]))
                assert witness is None or h is g


@pytest.mark.parametrize("n", [0, 1, 2, 7, 30, 64, 65, 120, 200])
def test_min_fill_matches_adjacency_set_kernel(n):
    # the bitmask kernel's fill, ascending, against the former adjacency-set
    # kernel's, on graphs from mean degree 2 to n/2 whose ids are gapped and
    # out of index order; the reference's from-scratch costs make dense
    # cases too slow above 65
    rng = np.random.default_rng(300 + n)
    cases = [_random_adj(rng, n, degree / max(n - 1, 1) / 2) for degree in (2, 4, 8)]
    if n <= 65:
        cases += _dense_cases(rng, n)
    for adj in cases:
        g = _graph(adj, _gapped_ids(n))
        assert kernels.min_fill(g) == sorted(_min_fill_sets_reference(g))


def test_min_fill_matches_adjacency_set_kernel_on_rebuilt_regions(monkeypatch):
    # the induced moral subgraphs that real rebuilds triangulate, over ids
    # left gapped by node additions and removals, with and without the
    # simplicial vertices the dag names among the region's
    regions = []
    construct = bnic.engine.construct_join_tree

    def capture(g, fill, tree, simplicial=frozenset()):
        regions.append((g.copy(), moral_simplicial(model.dag, g.vertices())))
        return construct(g, fill, tree, simplicial)

    monkeypatch.setattr(bnic.engine, "construct_join_tree", capture)
    node_edits = 0
    for seed in range(12):
        rng = Random(seed)
        model = full_recompile(random_dag(rng.randint(10, 40), rng, edge_prob=0.2))
        for _ in range(4):
            mods = random_script(model.dag, 12, rng)
            node_edits += sum(isinstance(m, (AddNode, RemoveNode)) for m in mods)
            incremental_compile(model, mods)
    assert node_edits > 0
    assert any(g.vertices() != list(range(len(g))) for g, _ in regions)
    filled = hinted = 0
    for g, simplicial in regions:
        fill = kernels.min_fill(g)
        assert fill == kernels.min_fill(g, simplicial) == sorted(_min_fill_sets_reference(g))
        filled += bool(fill)
        hinted += bool(simplicial)
    assert filled > 0 and hinted > 0


def test_min_fill_matches_adjacency_set_kernel_on_fuzzed_graphs():
    # seeded graphs of up to 25 vertices, from empty to complete, so that
    # simplicial eliminations and the stop on a complete live graph come at
    # every stage of a run; a random subset of the simplicial vertices, as
    # a hint drawn by a second generator, leaves the fill as it is
    rng, pick = Random(11), Random(12)
    hinted = 0
    for _ in range(2000):
        n = rng.randint(0, 25)
        p = rng.random()
        ids = _spaced_ids(n)
        edges = [(ids[i], ids[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        g = UndirectedGraph.from_edges(ids, edges)
        simplicial = [v for v in ids if g.is_complete(g.neighbors(v))]
        hint = set(pick.sample(simplicial, pick.randint(0, len(simplicial))))
        fill = sorted(_min_fill_sets_reference(g))
        assert kernels.min_fill(g) == kernels.min_fill(g, hint) == fill
        hinted += bool(hint) and bool(fill)
    assert hinted > 200


def test_min_fill_starting_without_the_dag_simplicial_vertices_keeps_the_fill():
    filled = 0
    for dag in seeded_dags():
        g = moralize(dag)
        fill = kernels.min_fill(g)
        assert kernels.min_fill(g, moral_simplicial(dag, dag.nodes())) == fill
        filled += bool(fill)
    assert filled > 30


@pytest.mark.parametrize("t", [2**k + d for k in range(3, 7) for d in (-1, 0, 1)])
def test_min_fill_counts_a_hub_linked_by_every_fill_pair(t):
    # one elimination links t pairs among each hub's neighbours, so the
    # bit-sliced counters carry into, up to and just past a new top plane
    g = _hub_gadget(_missing_cliques(t))
    fill = kernels.min_fill(g)
    assert fill == sorted(_min_fill_sets_reference(g))
    assert len(fill) == t + 1  # x's fill and one diagonal of the hubs' cycle


def test_min_fill_updates_a_vertex_with_fill_partners_below_and_above():
    # 2 is filled to 1 below it and to 3 above it, so its cost moves both
    # as the lower end of a fill pair and as the upper end
    g = _hub_gadget([(1, 2), (2, 3)])
    assert kernels.min_fill(g) == sorted(_min_fill_sets_reference(g)) == [(1, 2), (2, 3), (5, 7)]


def test_min_fill_updates_a_vertex_of_n_with_no_outside_neighbour():
    # a vertex of N with a fill partner always has an outside neighbour (else
    # it would cost less than x), so the vertex without one is a vertex that
    # x's fill leaves alone: its cost only loses the pairs the fill links
    g = _hub_gadget(_missing_cliques(9), saturated=True)
    fill = kernels.min_fill(g)
    assert fill == sorted(_min_fill_sets_reference(g))
    assert len(fill) == 10


def test_min_fill_stops_once_the_live_graph_is_complete(monkeypatch):
    # K_200: the first elimination leaves a complete graph, which adds no
    # fill, so the heap is popped once
    popped = []

    def heappop(heap):
        popped.append(heapq.heappop(heap))
        return popped[-1]

    counting = SimpleNamespace(heapify=heapq.heapify, heappush=heapq.heappush, heappop=heappop)
    monkeypatch.setattr(kernels, "heapq", counting)
    ids = _gapped_ids(200)
    g = _graph(~np.eye(200, dtype=np.bool_), ids)
    assert kernels.min_fill(g) == []
    assert len(popped) == 1


def test_min_fill_triangulates():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        adj = _random_adj(rng, n, 0.3)
        g = _graph(adj, list(range(n)))
        fill = kernels.min_fill(g)
        assert fill == sorted(fill)
        for u, v in fill:
            assert u < v and not g.has_edge(u, v)
            g.add_edge(u, v)
            adj[u, v] = adj[v, u] = True
        order, witness, cliques = kernels.mcs(g)
        assert witness is None
        assert order == _mcs_reference(adj)[0]
        assert cliques == _clique_pass_reference(g)


def test_mcs_witness_is_a_missing_edge():
    # 4-cycle: not chordal, witness must be one of the two diagonals
    g = UndirectedGraph.from_edges(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
    _, witness, cliques = kernels.mcs(g)
    assert witness in ((0, 2), (1, 3))
    assert not g.has_edge(*witness)
    assert cliques == []


def test_mcs_cliques_match_the_former_clique_pass():
    # seeded graphs with 0 to 60 vertices, half with gapped ids: the sparse
    # ones include forests of several trees, most others are not chordal
    # and must give a witness and no cliques; the min-fill triangulation of
    # each graph is chordal and must give the former pass's cliques
    rng = Random(7)
    seen = {"forest": 0, "not chordal": 0, "gapped": 0}
    for k in range(1500):
        n = rng.randint(0, 60)
        ids = _gapped_ids(n) if k % 2 else list(range(n))
        seen["gapped"] += k % 2
        p = rng.choice([0.02, 0.05, 0.1, 0.2, 0.4])
        edges = [(ids[i], ids[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        g = UndirectedGraph.from_edges(ids, edges)
        _, witness, cliques = kernels.mcs(g)
        if witness is None:
            assert cliques == _clique_pass_reference(g)
            if len(edges) < n - 1 and all(len(c) <= 2 for c in cliques):
                seen["forest"] += 1
        else:
            assert cliques == []
            assert not g.has_edge(*witness) and witness[0] < witness[1]
            seen["not chordal"] += 1
        t = g.copy()
        for u, v in kernels.min_fill(g):
            t.add_edge(u, v)
        _, witness, cliques = kernels.mcs(t)
        assert witness is None
        assert cliques == _clique_pass_reference(t)
    assert min(seen.values()) > 100


@pytest.mark.parametrize("kernel", [kernels.mcs, kernels.min_fill])
def test_kernel_state_is_sized_by_the_vertex_count_not_the_largest_id(kernel):
    # after node removals and in a rebuild's induced subgraph the ids can be
    # large; a kernel's per-call state must stay O(len(ids)), so three
    # vertices near 10**7 cost a few KB, where lists sized by the largest id
    # would cost tens of MB
    big = 10**7
    g = UndirectedGraph.from_edges([big, big + 3, big + 7], [(big, big + 3), (big + 3, big + 7)])
    kernel(g)  # the first call's one-off allocations are not the kernel's state
    tracemalloc.start()
    try:
        kernel(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
