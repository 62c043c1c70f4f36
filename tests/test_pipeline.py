from collections import Counter
from itertools import combinations
from random import Random

import pytest

import bnic.engine
from bnic import (
    BatchTrace,
    ClusterTree,
    InconsistencyError,
    NotChordalError,
    UndirectedGraph,
    UnknownVariableError,
    full_recompile,
    incremental_compile,
    is_chordal,
    moralize,
    random_dag,
    random_script,
    kernels,
)
from bnic.pipeline import (
    Triangulation,
    _split,
    assign_families,
    build_join_tree,
    construct_join_tree,
    extract_cliques,
    recursive_thinning,
    thin_join_tree,
    triangulate_min_fill,
)
from bnic.clustertree import HolderIndex
from conftest import banded_dag, cluster_names, family_hosts, holders_of, name_set, separator_names


def _tri(base, pairs):
    # the triangulation record of base plus the fill pairs
    pairs = list(pairs)
    return Triangulation(base, UndirectedGraph.from_edges(set(base.vertices()).union(*pairs), pairs))


def _min_fill(g):
    return _tri(g, triangulate_min_fill(g))


def _fill_names(table, tri):
    return {name_set(table, pair) for pair in tri.fill}


# -- minimum-fill triangulation ---------------------------------------------


def test_min_fill_on_asia_adds_one_edge(asia):
    tri = _min_fill(moralize(asia))
    assert len(tri.fill) == 1
    assert _fill_names(asia.table, tri) == {frozenset("LB")}
    assert is_chordal(tri.graph()) == (True, None)


def test_min_fill_on_chordal_graph_is_empty():
    g = UndirectedGraph.from_edges(range(4), [(0, 1), (1, 2), (2, 3), (0, 2)])
    tri = _min_fill(g)
    assert tri.fill == set()


def test_min_fill_on_five_cycle_is_minimum():
    cycle = [(i, (i + 1) % 5) for i in range(5)]
    g = UndirectedGraph.from_edges(range(5), cycle)
    tri = _min_fill(g)
    assert len(tri.fill) == 2
    assert is_chordal(tri.graph()) == (True, None)
    # brute force: no single chord triangulates a 5-cycle
    diagonals = [
        (u, v) for u, v in combinations(range(5), 2) if not g.has_edge(u, v)
    ]
    for u, v in diagonals:
        probe = g.copy()
        probe.add_edge(u, v)
        assert not is_chordal(probe)[0]


# -- recursive thinning -----------------------------------------------------


def test_thinning_keeps_already_minimal_fill(asia):
    tri = _min_fill(moralize(asia))
    thin = recursive_thinning(tri)
    assert thin.fill == tri.fill


def test_thinning_drops_one_redundant_diagonal():
    square = UndirectedGraph.from_edges(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
    both = _tri(square, [(0, 2), (1, 3)])
    thin = recursive_thinning(both)
    assert len(thin.fill) == 1
    assert is_chordal(thin.graph()) == (True, None)


def test_thinning_rejects_fill_outside_the_base():
    path = UndirectedGraph.from_edges(range(3), [(0, 1), (1, 2)])
    for pair in ((0, 7), (-1, 2)):  # the unknown end second, then first
        with pytest.raises(UnknownVariableError):
            recursive_thinning(_tri(path, [pair, (0, 2)]))
    assert path.edges() == [(0, 1), (1, 2)]


def test_thinning_requires_chordal_input():
    square = UndirectedGraph.from_edges(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
    with pytest.raises(NotChordalError):
        recursive_thinning(_tri(square, []))
    # one chord of a 5-cycle leaves a chordless 4-cycle
    pentagon = UndirectedGraph.from_edges(range(5), [(i, (i + 1) % 5) for i in range(5)])
    with pytest.raises(NotChordalError):
        recursive_thinning(_tri(pentagon, [(0, 2)]))


def _thinning_reference(t):
    # The former set-based loop: scan the fill edges in ascending pair
    # order, drop the first whose common neighbourhood is complete, restart.
    work = t.graph()
    assert is_chordal(work)[0]
    fill = set(t.fill)
    changed = True
    while changed:
        changed = False
        for pair in sorted(fill, key=sorted):
            u, v = sorted(pair)
            if work.is_complete(work.neighbors(u) & work.neighbors(v)):
                work.remove_edge(u, v)
                fill.remove(pair)
                changed = True
                break
    return _tri(t.base, fill)


def _restart_scan(tree, pending, ids=None):
    # The former tree thinning: the pending pairs scanned in ascending
    # order, the scan restarting from the first pair after every drop, each
    # drop splitting its one clique of ids (default: all) by _split.
    # Returns the kept pairs.
    index = HolderIndex(tree, tree.cluster_ids() if ids is None else ids)
    masks = index.masks
    pending = list(pending)
    changed = True
    while changed:
        changed = False
        for i, (u, v) in enumerate(pending):
            shared = masks[u] & masks[v]
            if shared & (shared - 1):
                continue
            _split(tree, index.ids[shared.bit_length() - 1], u, v, index)
            del pending[i]
            changed = True
            break
    return pending


def _construct(gm):
    # construct_join_tree with a fresh fill graph; returns the tree
    return construct_join_tree(gm, UndirectedGraph(gm.vertices()), ClusterTree()).tree


def _thinned(tree, pairs):
    # thin_join_tree over the graph of the pairs; returns the kept pairs
    fill = UndirectedGraph.from_edges(tree.vertices(), pairs)
    thin_join_tree(tree, pairs, fill, HolderIndex(tree, tree.cluster_ids()))
    return fill.edges()


def _banded_moral(n, rng, ids):
    # the moral graph of conftest's banded dag, node b{j} relabelled ids[j]
    dag = banded_dag(n, rng)
    label = dict(zip(dag.nodes(), ids))
    return UndirectedGraph.from_edges(ids, [(label[u], label[v]) for u, v in moralize(dag).edges()])


def _with_redundant_fill(t, rng, extra):
    # the triangulation plus up to `extra` more fill edges that keep it chordal
    gt = t.graph()
    fill = set(t.fill)
    vs = gt.vertices()
    for _ in range(40 * extra):
        if len(fill) - len(t.fill) == extra or len(vs) < 2:
            break
        u, v = rng.sample(vs, 2)
        if not gt.has_edge(u, v):
            gt.add_edge(u, v)
            if is_chordal(gt)[0]:
                fill.add(frozenset((u, v)))
            else:
                gt.remove_edge(u, v)
    return _tri(t.base, fill)


def _thin_reference(base, pending):
    # The former thinning on a clique list: one MCS of base plus the fill
    # for the cliques, int holder masks, the pending pairs scanned in order
    # with a restart after each removal, a removal replacing its clique C by
    # C-u and C-v (each kept only if no live clique contains it), and one
    # more MCS of the thinned graph if anything went.  Returns the kept
    # pairs and the cliques.
    work = base.copy()
    for u, v in pending:
        work.add_edge(u, v)
    cliques = extract_cliques(work)
    live = list(cliques)  # clique of bit k; None once replaced
    cm = dict.fromkeys(work.vertices(), 0)
    for k, c in enumerate(live):
        for w in c:
            cm[w] |= 1 << k
    changed = True
    while changed:
        changed = False
        for i, (u, v) in enumerate(pending):
            shared = cm[u] & cm[v]
            if shared & (shared - 1):
                continue
            k = shared.bit_length() - 1
            c = live[k]
            live[k] = None
            for w in c:
                cm[w] &= ~shared
            for part in (c - {u}, c - {v}):
                holders = -1
                for w in part:
                    holders &= cm[w]
                if not holders:
                    for w in part:
                        cm[w] |= 1 << len(live)
                    live.append(part)
            work.remove_edge(u, v)
            del pending[i]
            changed = True
            break
    if None in live:
        cliques = extract_cliques(work)
    return pending, cliques


def _plus(base, pairs):
    g = base.copy()
    for u, v in pairs:
        g.add_edge(u, v)
    return g


def _assert_junction_tree(tree, cliques):
    # a junction tree of the given maximal cliques: a tree over exactly
    # them, with running intersection and every separator the intersection
    # of its two ends
    assert tree.is_tree()
    assert tree.cluster_multiset() == Counter(cliques)
    assert _rip_holds(tree)
    assert all(sep == tree.cluster(a) & tree.cluster(b) for a, b, sep in tree.edges())


def test_thinning_matches_set_based_loop():
    # banded nets, where min-fill leaves redundant fill edges, and thinned
    # triangulations with injected redundant fill; ids gapped on every
    # second case so that bit positions differ from ids
    removed = {"banded": 0, "injected": 0}

    def check(kind, t):
        # the worklist against the reference loop: the same fill, and a
        # junction tree of the thinned graph; and against the restart scan
        # on the same tree: the same pairs, clique ids and edges
        fill = sorted(tuple(sorted(pair)) for pair in t.fill)
        tree = build_join_tree(extract_cliques(t.graph()), ClusterTree()).tree
        restarted = tree.copy()
        kept = _thinned(tree, fill)
        reference = _thinning_reference(t)
        assert kept == [p for p in fill if frozenset(p) in reference.fill]
        assert reference.fill == recursive_thinning(t).fill
        _assert_junction_tree(tree, extract_cliques(reference.graph()))
        assert _restart_scan(restarted, fill) == kept
        _assert_same_tree(tree, restarted)
        removed[kind] += len(fill) - len(kept)

    for k, n in enumerate([300, 100, 60, 200]):
        ids = list(range(n)) if k % 2 == 0 else [1000 * (i % 3) + 7 * i for i in range(n)]
        tri = _min_fill(_banded_moral(n, Random(42 + k), ids))
        check("banded", tri)
        check("injected", _with_redundant_fill(_thinning_reference(tri), Random(k), 6))
    for seed in range(30):
        rng = Random(seed)
        gm = moralize(random_dag(rng.randint(2, 30), rng, edge_prob=0.2))
        check("injected", _with_redundant_fill(recursive_thinning(_min_fill(gm)), rng, 3))
    assert removed["banded"] > 0 and removed["injected"] > 0


def _elimination_fill(g, order):
    # the fill of the elimination game in the given order: a triangulation,
    # far from minimal for a random order
    adj = {v: set(g.neighbors(v)) for v in g.vertices()}
    fill = []
    for x in order:
        nb = adj.pop(x)
        for u in nb:
            adj[u].discard(x)
        for u, v in combinations(sorted(nb), 2):
            if v not in adj[u]:
                adj[u].add(v)
                adj[v].add(u)
                fill.append((u, v))
    return sorted(fill)


def test_tree_thinning_matches_the_former_clique_list_thinning():
    # min-fill's fill, which thinning seldom shrinks, and the fill of random
    # elimination orders, which it shrinks a lot; every second graph has
    # gapped ids
    removed = 0
    rng = Random(2024)
    for k in range(3000):
        gm = moralize(random_dag(rng.randint(0, 45), rng, edge_prob=rng.choice([0.02, 0.05, 0.08])))
        if k % 2:
            gm = _relabeled(gm, {v: 1000 * (v % 3) + 7 * v + 5 for v in gm.vertices()})
        if k % 4 < 2:
            fill = triangulate_min_fill(gm)
        else:
            order = gm.vertices()
            rng.shuffle(order)
            fill = _elimination_fill(gm, order)
        tree = build_join_tree(extract_cliques(_plus(gm, fill)), ClusterTree()).tree
        restarted = tree.copy()
        kept = _thinned(tree, fill)
        reference_kept, reference_cliques = _thin_reference(gm, list(fill))
        if k % 5 == 0:  # the restart scan costs a pass per drop; one graph in five
            assert _restart_scan(restarted, fill) == kept
            _assert_same_tree(tree, restarted)
        assert kept == reference_kept
        _assert_junction_tree(tree, reference_cliques)
        removed += len(fill) - len(kept)
    assert removed > 3000


def test_seeded_region_thinning_keeps_what_a_scan_of_all_its_fill_keeps(monkeypatch):
    # every region that seeded random_script flushes thin in place, taken
    # as the engine calls thin_join_tree: the worklist from the seeds
    # drops what the restart scan drops over all of the region's fill
    # pairs, so it keeps the same pairs and leaves the same tree
    real = bnic.engine.thin_join_tree
    absorb = bnic.engine.absorb_non_maximal
    seen = Counter()

    def checked(tree, pending, fill, index):
        inside = set().union(*map(tree.cluster, index.ids))
        pairs = sorted((u, w) for u in inside for w in fill.neighbors(u) & inside if u < w)
        restarted = tree.copy()
        kept = _restart_scan(restarted, pairs, index.ids)
        absorbed = real(tree, pending, fill, index)
        assert [p for p in pairs if fill.has_edge(*p)] == kept
        _assert_same_tree(tree, restarted)
        seen["regions"] += 1
        seen["dropped"] += len(pairs) - len(kept)
        seen["unseeded"] += bool(set(pairs) - set(pending) - set(kept))
        return absorbed

    def counted_absorb(tree, ids=None):
        seen["cut"] += 1
        return absorb(tree, ids)

    monkeypatch.setattr(bnic.engine, "thin_join_tree", checked)
    monkeypatch.setattr(bnic.engine, "absorb_non_maximal", counted_absorb)
    rng = Random(606)
    for k in range(150):
        model = full_recompile(random_dag(rng.randint(1, 30), rng, edge_prob=(0.05, 0.15, 0.3)[k % 3]))
        for _ in range(5):
            trace = BatchTrace()
            regions = seen["regions"]
            incremental_compile(model, random_script(model.dag, rng.randint(1, 8), rng), trace)
            if any(rec.rewired for rec in trace.mods):
                seen["rewired"] += seen["regions"] - regions
    # drops of pairs no seed named, in regions that lost a removed
    # variable and in regions with a rewired separator
    assert min(seen[k] for k in ("dropped", "unseeded", "cut", "rewired")) > 0


def test_thinned_triangulations_pass_single_edge_removal_probe():
    gm = moralize(random_dag(10, Random(3), edge_prob=0.3))
    thin = recursive_thinning(_min_fill(gm))
    gt = thin.graph()
    assert is_chordal(gt) == (True, None)
    for pair in thin.fill:
        u, v = sorted(pair)
        probe = gt.copy()
        probe.remove_edge(u, v)
        assert not is_chordal(probe)[0], f"fill edge {pair} is redundant"


# -- clique extraction ------------------------------------------------------


def _brute_force_cliques(g):
    vs = g.vertices()
    complete = [
        frozenset(sub)
        for k in range(1, len(vs) + 1)
        for sub in combinations(vs, k)
        if g.is_complete(sub)
    ]
    return {c for c in complete if not any(c < other for other in complete)}


def test_extract_cliques_asia(asia):
    gm = moralize(asia)
    t = asia.table
    gm.add_edge(t.id("L"), t.id("B"))
    cliques = extract_cliques(gm)
    assert set(cliques) == _brute_force_cliques(gm)
    assert {name_set(t, c) for c in cliques} == {
        frozenset("AT"),
        frozenset("TLE"),
        frozenset("LEB"),
        frozenset("SLB"),
        frozenset("EBD"),
        frozenset("EX"),
    }


def test_extract_cliques_trivial_cases():
    complete = UndirectedGraph.from_edges(range(3), [(0, 1), (0, 2), (1, 2)])
    assert extract_cliques(complete) == [frozenset({0, 1, 2})]
    edgeless = UndirectedGraph(range(3))
    assert set(extract_cliques(edgeless)) == {frozenset({v}) for v in range(3)}
    square = UndirectedGraph.from_edges(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
    with pytest.raises(NotChordalError):
        extract_cliques(square)


def test_extract_cliques_matches_brute_force_on_random_chordal_graphs():
    rng = Random(17)
    for _ in range(25):
        gm = moralize(random_dag(rng.randint(1, 9), rng, edge_prob=0.3))
        gt = recursive_thinning(_min_fill(gm)).graph()
        assert set(extract_cliques(gt)) == _brute_force_cliques(gt)


# -- join-tree assembly -----------------------------------------------------


def _rip_holds(tree):
    for members in holders_of(tree).values():
        start = next(iter(members))
        seen = {start}
        stack = [start]
        while stack:
            c = stack.pop()
            for nb in tree.neighbors(c):
                if nb in members and nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        if seen != members:
            return False
    return True


def test_join_tree_asia_separators(asia):
    gm = moralize(asia)
    t = asia.table
    gm.add_edge(t.id("L"), t.id("B"))
    tree = build_join_tree(extract_cliques(gm), ClusterTree()).tree
    assert tree.is_tree()
    assert set(separator_names(tree, t)) == {
        frozenset("T"),
        frozenset("LE"),
        frozenset("LB"),
        frozenset("EB"),
        frozenset("E"),
    }
    assert _rip_holds(tree)


def test_join_tree_single_clique():
    tree = build_join_tree([frozenset({0, 1})], ClusterTree()).tree
    assert len(tree) == 1 and tree.edges() == []


def test_join_tree_joins_disjoint_cliques_with_empty_separator():
    tree = build_join_tree([frozenset({0, 1}), frozenset({2, 3})], ClusterTree()).tree
    assert tree.is_tree()
    assert tree.edges()[0][2] == frozenset()


def test_join_tree_rip_on_random_graphs():
    rng = Random(29)
    for _ in range(25):
        gm = moralize(random_dag(rng.randint(1, 12), rng, edge_prob=0.25))
        gt = recursive_thinning(_min_fill(gm)).graph()
        tree = build_join_tree(extract_cliques(gt), ClusterTree()).tree
        assert tree.is_tree()
        assert _rip_holds(tree)
        assert all(sep == tree.cluster(a) & tree.cluster(b) for a, b, sep in tree.edges())


# -- family assignment ------------------------------------------------------


def test_assign_families_asia(asia):
    tree = _construct(moralize(asia))
    family = family_hosts(asia, tree)
    t = asia.table
    d_host = tree.cluster(family[t.id("D")])
    assert name_set(t, d_host) == frozenset("EBD")
    a_host = tree.cluster(family[t.id("A")])
    assert t.id("A") in a_host
    smallest = min(
        (len(tree.cluster(c)), c) for c in tree.cluster_ids() if t.id("A") in tree.cluster(c)
    )
    assert family[t.id("A")] == smallest[1]


def test_assign_families_contain_families_on_random_dags():
    rng = Random(8)
    dag = random_dag(8, rng, edge_prob=0.35)
    tree = _construct(moralize(dag))
    family = family_hosts(dag, tree)
    for v in dag.nodes():
        assert frozenset((v, *dag.parents(v))) <= tree.cluster(family[v])


# -- quadratic reference versions of the structure layer ---------------------


def _extract_cliques_reference(g):
    # Every MCS candidate that lies strictly inside no other candidate.
    order, witness, _cliques = kernels.mcs(g)
    assert witness is None
    pos = {v: i for i, v in enumerate(order)}
    candidates = [
        frozenset(u for u in g.neighbors(v) if pos[u] < i) | {v} for i, v in enumerate(order)
    ]
    return [c for c in candidates if not any(c < other for other in candidates)]


def _build_join_tree_reference(cliques):
    # Kruskal over every clique pair, weight |Ci ∩ Cj|, then empty separators
    # from the smallest component anchor to every other one.
    tree = ClusterTree()
    ids = [tree.add_cluster(c) for c in cliques]
    if not ids:
        return tree
    candidates = []
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            w = len(tree.cluster(a) & tree.cluster(b))
            if w > 0:
                candidates.append((-w, a, b))
    candidates.sort()
    comp = {c: c for c in ids}

    def find(c):
        while comp[c] != c:
            comp[c] = comp[comp[c]]
            c = comp[c]
        return c

    for _, a, b in candidates:
        ra, rb = find(a), find(b)
        if ra != rb:
            comp[ra] = rb
            tree.add_edge(a, b)
    roots = sorted({find(c) for c in ids})
    anchors = [min(c for c in ids if find(c) == r) for r in roots]
    for other in anchors[1:]:
        tree.add_edge(anchors[0], other)
    return tree


def _family_hosts_reference(dag, tree):
    # Every cluster is scanned for every variable; the smallest host wins,
    # ties by ascending id.
    hosts = {}
    for vid in dag.nodes():
        fam = frozenset((vid, *dag.parents(vid)))
        hosts[vid] = min(
            (len(tree.cluster(c)), c) for c in tree.cluster_ids() if fam <= tree.cluster(c)
        )[1]
    return hosts


def _chordal_cases(seed, count):
    # Thinned triangulations of random moral graphs; every other one also
    # carries one extra edge that keeps it chordal (a redundant fill edge).
    rng = Random(seed)
    for k in range(count):
        dag = random_dag(rng.randint(1, 30), rng, edge_prob=rng.choice([0.05, 0.15, 0.3]))
        gt = recursive_thinning(_min_fill(moralize(dag))).graph()
        if k % 2:
            vs = gt.vertices()
            for _ in range(50 if len(vs) > 2 else 0):
                u, v = rng.sample(vs, 2)
                probe = gt.copy()
                probe.add_edge(u, v)
                if not gt.has_edge(u, v) and is_chordal(probe)[0]:
                    gt = probe
                    break
        yield dag, gt


def _assert_same_tree(tree, reference):
    assert [tree.cluster(c) for c in tree.cluster_ids()] == [
        reference.cluster(c) for c in reference.cluster_ids()
    ]
    assert tree.edges() == reference.edges()


def test_structure_layer_matches_quadratic_references():
    for dag, gt in _chordal_cases(41, 80):
        cliques = extract_cliques(gt)
        assert cliques == _extract_cliques_reference(gt)
        tree = build_join_tree(cliques, ClusterTree()).tree
        reference = _build_join_tree_reference(cliques)
        _assert_same_tree(tree, reference)
        assert family_hosts(dag, tree) == _family_hosts_reference(dag, reference)


def test_assign_families_matches_the_reference_on_spliced_trees():
    # flushes leave the junction tree's cluster ids gapped and out of clique order
    gapped = 0
    rng = Random(12)
    for _ in range(30):
        model = full_recompile(random_dag(rng.randint(2, 35), rng, edge_prob=rng.choice([0.05, 0.15, 0.3])))
        for _ in range(3):
            incremental_compile(model, random_script(model.dag, rng.randint(1, 8), rng))
            tree = model.jt
            assert family_hosts(model.dag, tree) == _family_hosts_reference(model.dag, tree)
            gapped += tree.cluster_ids() != list(range(len(tree)))
    assert gapped > 60


def _assert_holder_index(index):
    # the index is a fresh index of its live clusters, each bit at its
    # cluster's position; a gone cluster's position has no bit, and a vertex
    # left only in clusters outside the index keeps an empty mask
    tree, ids = index.tree, index.ids
    live = [i for i, c in enumerate(ids) if c in tree]
    fresh = HolderIndex(tree, [ids[i] for i in live]).masks
    assert {v: m for v, m in index.masks.items() if m} == {
        v: sum(1 << i for j, i in enumerate(live) if m >> j & 1) for v, m in fresh.items()
    }
    assert index.pos == {c: i for i, c in enumerate(ids)}


def test_thinning_hands_out_the_holder_index_of_the_thinned_tree(monkeypatch):
    # seeded random and banded nets, with redundant fill injected so that
    # thinning splits cliques and neighbours absorb halves: the masks it
    # keeps are those of the thinned tree, and hosting families on them
    # gives the hosts that fresh masks give; then the same for the indexes
    # the engine hands to connect, to thinning and to family hosting
    seen = Counter()
    for k in range(60):
        rng = Random(900 + k)
        dag = banded_dag(rng.randint(20, 80), rng) if k % 2 else random_dag(rng.randint(5, 40), rng, edge_prob=0.15)
        gm = moralize(dag)
        t = _with_redundant_fill(recursive_thinning(_min_fill(gm)), rng, 4)
        pairs = sorted(tuple(sorted(pair)) for pair in t.fill)
        index = build_join_tree(extract_cliques(t.graph()), ClusterTree())
        tree = index.tree
        assert index.masks == HolderIndex(tree, tree.cluster_ids()).masks
        fill = UndirectedGraph.from_edges(gm.vertices(), pairs)
        assert thin_join_tree(tree, pairs, fill, index) == []
        _assert_holder_index(index)
        splits = len(pairs) - fill.edge_count()
        seen["split"] += splits
        seen["absorbed"] += 2 * splits - (len(index.ids) - len(extract_cliques(t.graph())))
        assert assign_families(dag, dag.nodes(), index) == family_hosts(dag, tree)
    assert seen["split"] > 0 and seen["absorbed"] > 0

    real_thin, real_connect, real_assign = bnic.engine.thin_join_tree, bnic.engine.connect, bnic.engine.assign_families

    def thin(tree, pending, fill, index):
        absorbed = real_thin(tree, pending, fill, index)
        _assert_holder_index(index)
        seen["thinned"] += 1
        return absorbed

    def connect(tree, index, doomed):
        _assert_holder_index(index)
        seen["spliced"] += 1
        return real_connect(tree, index, doomed)

    def assign(dag, variables, index):
        # widened by outside cliques, the positions no longer follow id order
        hosts = real_assign(dag, variables, index)
        live = sorted({c for c in index.ids if c in index.tree})
        assert hosts == real_assign(dag, variables, HolderIndex(index.tree, live))
        seen["rehosted"] += 1
        seen["widened"] += index.ids != sorted(index.ids)
        return hosts

    monkeypatch.setattr(bnic.engine, "thin_join_tree", thin)
    monkeypatch.setattr(bnic.engine, "connect", connect)
    monkeypatch.setattr(bnic.engine, "assign_families", assign)
    rng = Random(77)
    for k in range(60):
        model = full_recompile(random_dag(rng.randint(2, 35), rng, edge_prob=(0.05, 0.15, 0.3)[k % 3]))
        for _ in range(4):
            incremental_compile(model, random_script(model.dag, rng.randint(1, 8), rng))
    assert min(seen[k] for k in ("thinned", "spliced", "rehosted", "widened")) > 0


def test_compile_and_rebuilds_build_each_holder_index_at_most_once(monkeypatch):
    # a full compile hands build_join_tree's index down to thinning and
    # family hosting and copies no graph; a rebuilt region builds its
    # index once, whichever way it is rebuilt
    calls = Counter()

    def counted(name, original):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(HolderIndex, "__init__", counted("index", HolderIndex.__init__))
    monkeypatch.setattr(UndirectedGraph, "copy", counted("copy", UndirectedGraph.copy))
    real = bnic.engine._rebuild_subtree
    regions = Counter()

    def rebuild(model, doomed, links):
        before = calls["index"]
        result = real(model, doomed, links)
        _, thinned, _, _ = result
        regions[thinned, calls["index"] - before] += 1
        return result

    monkeypatch.setattr(bnic.engine, "_rebuild_subtree", rebuild)
    rng = Random(31)
    for k in range(40):
        dag = banded_dag(rng.randint(10, 60), rng) if k % 2 else random_dag(rng.randint(2, 35), rng, edge_prob=0.15)
        calls.clear()
        model = full_recompile(dag)
        assert calls["index"] == 1 and calls["copy"] == 0
        for _ in range(4):
            incremental_compile(model, random_script(model.dag, rng.randint(1, 8), rng), BatchTrace())
    assert all(built == 1 for _, built in regions)
    assert {thinned for thinned, _ in regions} == {True, False}


def _relabeled(g, ids):
    out = UndirectedGraph(ids[v] for v in g.vertices())
    for u, v in g.edges():
        out.add_edge(ids[u], ids[v])
    return out


def test_join_tree_matches_kruskal_on_forests_gapped_ids_and_thinned_cliques():
    # sparse moral graphs fall apart into components, so the empty-separator
    # anchors and their hub matter; every other graph has gapped ids; banded
    # nets lose fill to thinning, which reshapes the tree in place, so their
    # trees are checked as junction trees of the reference's cliques
    seen = {"empty": 0, "gapped": 0, "thinned": 0}
    rng = Random(73)
    for k in range(200):
        gm = moralize(random_dag(rng.randint(1, 45), rng, edge_prob=rng.choice([0.02, 0.05, 0.1])))
        if k % 2:
            gm = _relabeled(gm, {v: 1000 * (v % 3) + 7 * v + 5 for v in gm.vertices()})
            seen["gapped"] += 1
        fill = UndirectedGraph(gm.vertices())
        tree = construct_join_tree(gm, fill, ClusterTree()).tree
        kept = fill.edges()
        for u, v in kept:
            assert u < v and not gm.has_edge(u, v)
        cliques = extract_cliques(_plus(gm, kept))
        if kept == triangulate_min_fill(gm):
            _assert_same_tree(tree, _build_join_tree_reference(cliques))
        else:  # a thinned tree is the former one's only up to its shape
            seen["thinned"] += 1
            _assert_junction_tree(tree, cliques)
        seen["empty"] += sum(not sep for _, _, sep in tree.edges())
    for k, n in enumerate([40, 80, 120, 160]):
        ids = list(range(n)) if k % 2 == 0 else [1000 * (i % 3) + 7 * i for i in range(n)]
        gm = _banded_moral(n, Random(500 + k), ids)
        fill = triangulate_min_fill(gm)
        assert fill == sorted(fill) and all(u < v for u, v in fill)
        kept, cliques = _thin_reference(gm, list(fill))
        seen["thinned"] += len(kept) < len(fill)
        _assert_same_tree(build_join_tree(cliques, ClusterTree()).tree, _build_join_tree_reference(cliques))
        tree_fill = UndirectedGraph(gm.vertices())
        tree = construct_join_tree(gm, tree_fill, ClusterTree()).tree
        assert tree_fill.edges() == kept
        _assert_junction_tree(tree, cliques)
    assert seen["empty"] > 0 and seen["gapped"] > 0 and seen["thinned"] > 0


def test_join_tree_rejects_cliques_out_of_mcs_order():
    # {1, 2} meets the cliques before it in {1, 2}, which no earlier one holds
    with pytest.raises(InconsistencyError):
        build_join_tree([frozenset({0, 1}), frozenset({2, 3}), frozenset({1, 2})], ClusterTree())


# -- full construction ------------------------------------------------------


def test_construct_on_projection_graph(asia):
    t = asia.table
    gm = moralize(asia)
    gm.remove_edge(t.id("L"), t.id("E"))
    gm.remove_edge(t.id("T"), t.id("L"))
    sub = gm.induced({t.id(n) for n in "TLEBS"})
    fill = UndirectedGraph(sub.vertices())
    tree = construct_join_tree(sub, fill, ClusterTree()).tree
    assert fill.edges() == []
    assert set(cluster_names(tree, t)) == {
        frozenset("TE"),
        frozenset("EB"),
        frozenset("SB"),
        frozenset("SL"),
    }
    assert set(separator_names(tree, t)) == {
        frozenset("E"),
        frozenset("B"),
        frozenset("S"),
    }


def test_construct_empty_graph():
    fill = UndirectedGraph()
    tree = construct_join_tree(UndirectedGraph(), fill, ClusterTree()).tree
    assert len(tree) == 0
    assert len(fill) == 0


def test_construct_asia_covers_families_and_rip(asia):
    gm = moralize(asia)
    fill = UndirectedGraph(gm.vertices())
    tree = construct_join_tree(gm, fill, ClusterTree()).tree
    family = family_hosts(asia, tree)
    assert _rip_holds(tree)
    assert fill.edge_count() == 1
    for v in asia.nodes():
        assert frozenset((v, *asia.parents(v))) <= tree.cluster(family[v])


def test_construction_is_deterministic():
    rng = Random(55)
    for _ in range(10):
        dag = random_dag(rng.randint(1, 14), rng, edge_prob=0.3)
        gm = moralize(dag)
        first_kept, second_kept = UndirectedGraph(gm.vertices()), UndirectedGraph(gm.vertices())
        first_tree = construct_join_tree(gm.copy(), first_kept, ClusterTree()).tree
        second_tree = construct_join_tree(gm.copy(), second_kept, ClusterTree()).tree
        assert first_kept == second_kept
        assert {c: first_tree.cluster(c) for c in first_tree.cluster_ids()} == {
            c: second_tree.cluster(c) for c in second_tree.cluster_ids()
        }
        assert first_tree.edges() == second_tree.edges()
        assert family_hosts(dag, first_tree) == family_hosts(dag, second_tree)
