import sys
from random import Random

import pytest

import bnic.engine
from bnic import (
    AddArc,
    AddNode,
    BatchTrace,
    ClusterTree,
    CompiledModel,
    CycleError,
    Dag,
    InconsistencyError,
    InvalidEditError,
    Link,
    MpdIndex,
    RemoveArc,
    RemoveNode,
    UndirectedGraph,
    apply_modification,
    expand_remove_node,
    full_recompile,
    incremental_compile,
    moralize,
    mpd_equal,
    random_dag,
    random_script,
    stability,
    validate,
)
from bnic.engine import (
    ModTrace,
    absorb_non_maximal,
    add_node,
    connect,
    derive_triangulation,
    mark_add_link,
    mark_remove_link,
    mark_remove_node,
    modify_moral_graph,
)

from conftest import cluster_names, name_set


def _link_names(table, links):
    return {(name_set(table, link.pair), link.added) for link in links}


def _marked_names(table, rec):
    return {name_set(table, vs) for vs in rec.marked_sets()}


# -- moral graph maintenance --------------------------------------------------


def test_remove_arc_deletes_induced_moral_link(asia_model):
    m = asia_model
    t = m.dag.table
    mod = RemoveArc(t.id("L"), t.id("E"))
    apply_modification(m.dag, mod)
    links = modify_moral_graph(m, mod)
    assert _link_names(t, links) == {(frozenset("LE"), False), (frozenset("TL"), False)}
    assert m.moral == moralize(m.dag)


def test_remove_arc_keeps_edge_justified_by_common_child():
    dag = Dag()
    x, y, z = dag.add_node("x"), dag.add_node("y"), dag.add_node("z")
    dag.add_arc(x, z)
    dag.add_arc(y, z)
    dag.add_arc(x, y)
    m = full_recompile(dag)
    mod = RemoveArc(x, y)
    apply_modification(m.dag, mod)
    links = modify_moral_graph(m, mod)
    assert links == []
    assert m.moral.has_edge(x, y)  # still married through z
    assert m.moral == moralize(m.dag)


def test_add_arc_completes_the_family(asia_model):
    # adding Z -> X after Z exists: the arc link plus the induced Z-E link
    m = asia_model
    t = m.dag.table
    incremental_compile(m, [AddNode("Z")])
    z = t.id("Z")
    mod = AddArc(z, t.id("X"))
    apply_modification(m.dag, mod)
    links = modify_moral_graph(m, mod)
    assert _link_names(t, links) == {(frozenset("ZX"), True), (frozenset("ZE"), True)}
    assert m.moral == moralize(m.dag)


def test_added_arc_lists_only_new_moral_links(monkeypatch):
    # an arc between parents already married through a common child adds
    # no edge between them, so it must not list one
    real = bnic.engine.modify_moral_graph
    seen = {"arcs": 0, "married": 0}

    def checked(model, mod):
        before = model.moral.copy()
        links = real(model, mod)
        if isinstance(mod, AddArc):
            seen["arcs"] += 1
            seen["married"] += before.has_edge(mod.parent, mod.child)
            assert all(l.added and not before.has_edge(l.u, l.v) for l in links)
            assert model.moral.edge_set() - before.edge_set() == {l.pair for l in links}
            assert len({l.pair for l in links}) == len(links)
        return links

    monkeypatch.setattr(bnic.engine, "modify_moral_graph", checked)
    rng = Random(606)
    for _ in range(40):
        model = full_recompile(random_dag(rng.randint(3, 20), rng, edge_prob=rng.choice([0.15, 0.3])))
        for _ in range(3):
            incremental_compile(model, random_script(model.dag, rng.randint(1, 8), rng))
    assert seen["arcs"] > 100 and seen["married"] > 0


def test_add_and_remove_node_touch_only_the_vertex(asia_model):
    m = asia_model
    mod = AddNode("Q")
    apply_modification(m.dag, mod)
    assert modify_moral_graph(m, mod) == []
    q = m.dag.table.id("Q")
    assert m.moral.has_vertex(q) and not m.moral.neighbors(q)
    mod = RemoveNode(q)
    apply_modification(m.dag, mod)
    assert modify_moral_graph(m, mod) == []
    assert not m.moral.has_vertex(q)


# -- marking: link removal ----------------------------------------------------


def test_mark_remove_link_spreads_across_affected_separators(asia_model):
    m = asia_model
    t = m.dag.table
    mod = RemoveArc(t.id("L"), t.id("E"))
    apply_modification(m.dag, mod)
    links = modify_moral_graph(m, mod)
    rec = ModTrace(mod=mod, description="x")
    mark_remove_link(m, t.id("L"), t.id("E"), links, set(), rec)
    assert _marked_names(t, rec) == {frozenset("TLE"), frozenset("SLBE")}


def test_mark_remove_link_stays_local_without_separator_hits():
    # v0 -> v1 -> v2: removing v1 -> v2 affects only the host of v2
    dag = Dag()
    a, b, c = dag.add_node("a"), dag.add_node("b"), dag.add_node("c")
    dag.add_arc(a, b)
    dag.add_arc(b, c)
    m = full_recompile(dag)
    mod = RemoveArc(b, c)
    apply_modification(m.dag, mod)
    links = modify_moral_graph(m, mod)
    rec = ModTrace(mod=mod, description="x")
    mark_remove_link(m, b, c, links, set(), rec)
    assert len(rec.touched) == 1


def _closure_marks(model, links, start):
    # brute force: spread from the start MPS across any separator that lost
    # one of the deleted pairs
    deleted = [l.pair for l in links if not l.added]
    marked = {start}
    frontier = [start]
    while frontier:
        m_id = frontier.pop()
        for nb in model.mpd.neighbors(m_id):
            if nb in marked:
                continue
            sep = model.mpd.separator(m_id, nb)
            if any(pair <= sep for pair in deleted):
                marked.add(nb)
                frontier.append(nb)
    return marked


def test_mark_remove_link_equals_brute_force_closure():
    from bnic.engine import ModTrace

    rng = Random(41)
    checked = 0
    for _ in range(40):
        dag = random_dag(rng.randint(2, 14), rng, edge_prob=0.3)
        arcs = dag.arcs()
        if not arcs:
            continue
        m = full_recompile(dag)
        p, c = rng.choice(arcs)
        mod = RemoveArc(p, c)
        apply_modification(m.dag, mod)
        links = modify_moral_graph(m, mod)
        start = m.index.owner[m.family[c]]
        expected = _closure_marks(m, links, start)
        rec = ModTrace(mod=mod, description="x")
        marked = set()
        mark_remove_link(m, p, c, links, marked, rec)
        assert set(rec.touched) == marked == expected
        checked += 1
    assert checked > 20


# -- marking: node removal ----------------------------------------------------


def test_remove_node_strips_variable_from_hosting_cluster(asia_model):
    m = asia_model
    t = m.dag.table
    trace = BatchTrace()
    incremental_compile(m, expand_remove_node(m.dag, t.id("D")), trace)
    node_rec = trace.mods[-1]
    assert isinstance(node_rec.mod, RemoveNode)
    # the hosting MPS lost D before the rebuild
    assert _marked_names(t, node_rec) == {frozenset("EB")}


def test_remove_node_spanning_three_clusters():
    dag = Dag()
    x = dag.add_node("x")
    leaves = [dag.add_node(n) for n in "abc"]
    for leaf in leaves:
        dag.add_arc(x, leaf)
    m = full_recompile(dag)
    trace = BatchTrace()
    incremental_compile(m, expand_remove_node(m.dag, x), trace)
    node_rec = trace.mods[-1]
    assert len(node_rec.touched) == 3
    assert all(x not in vs for vs in node_rec.touched.values())
    for tree in (m.jt, m.mpd):
        assert all(x not in tree.cluster(c) for c in tree.cluster_ids())
        assert all(x not in sep for _, _, sep in tree.edges())
    assert validate(m).passed


def test_remove_node_in_single_cluster_marks_once():
    dag = Dag()
    a, b = dag.add_node("a"), dag.add_node("b")
    dag.add_arc(a, b)
    m = full_recompile(dag)
    trace = BatchTrace()
    incremental_compile(m, expand_remove_node(m.dag, b), trace)
    assert len(trace.mods[-1].touched) == 1
    assert validate(m).passed


# -- marking in a batch, against the former tree walks ------------------------


def _walk_reference(tree, start, step):
    # the former depth-first walk: step(ci, ck) decides whether to descend
    stack = [(start, None, iter(tree.neighbors(start)))]
    while stack:
        ci, cj, nbrs = stack[-1]
        ck = next(nbrs, None)
        if ck is None:
            stack.pop()
        elif ck != cj and step(ci, ck):
            stack.append((ck, ci, iter(tree.neighbors(ck))))


def _mark_remove_link_reference(model, links, m_y, marked):
    # the former walk from the child's host across separators holding a
    # deleted pair, re-seeded from every holder it missed; returns the
    # number of re-seeded walks
    mpd = model.mpd
    deleted = [l.pair for l in links if not l.added]

    def walk_from(start):
        marked.add(start)

        def step(m, m_k):
            if not any(pair <= mpd.separator(m, m_k) for pair in deleted):
                return False
            marked.add(m_k)
            return True

        _walk_reference(mpd, start, step)

    walk_from(m_y)
    reseeded = 0
    for pair in deleted:
        for host in mpd.cluster_ids():
            if pair <= mpd.cluster(host) and host not in marked:
                walk_from(host)
                reseeded += 1
    return reseeded


def _mark_remove_node_reference(model, x, m_x, marked):
    # the former walk from x's host across separators holding x, stripping
    # as it goes, followed by a sweep of the junction tree
    mpd = model.mpd

    def strip(m):
        mpd.replace_cluster(m, mpd.cluster(m) - {x})
        marked.add(m)

    def step(m, m_z):
        sep = mpd.separator(m, m_z)
        if x not in sep:
            return False
        mpd.set_separator(m, m_z, sep - {x})
        strip(m_z)
        return True

    strip(m_x)
    _walk_reference(mpd, m_x, step)
    for cid in model.jt.cluster_ids():
        model.jt.replace_cluster(cid, model.jt.cluster(cid) - {x})
    for a, b, sep in model.jt.edges():
        model.jt.set_separator(a, b, sep - {x})


def _nearest_containing_reference(tree, start, x):
    # the former search, layer by layer, for the cluster holding x nearest
    # to start (ties: lowest id)
    if x in tree.cluster(start):
        return start
    seen, frontier = {start}, [start]
    while frontier:
        nxt = []
        for c in frontier:
            for nb in tree.neighbors(c):
                if nb not in seen:
                    seen.add(nb)
                    nxt.append(nb)
        found = [c for c in nxt if x in tree.cluster(c)]
        if found:
            return min(found)
        frontier = nxt
    raise AssertionError(f"no cluster contains {x}")


def _tree_path_reference(tree, a, b):
    # the former ClusterTree.path: breadth first from a until b is reached
    parent, queue = {a: a}, [a]
    while b not in parent:
        nxt = []
        for c in queue:
            for nb in tree.neighbors(c):
                if nb not in parent:
                    parent[nb] = c
                    nxt.append(nb)
        queue = nxt
    out = [b]
    while out[-1] != a:
        out.append(parent[out[-1]])
    return out[::-1]


def _mark_add_link_reference(model, parent, child, links, marked):
    # the former marking: for every induced link, the nearest holder of
    # parent from the child's host, the tree path to it and the rewiring of
    # the first empty separator on that path; an arc between moral
    # neighbours that induces no link still marks that path once
    mpd, jt, index = model.mpd, model.jt, model.index
    m_y = index.owner[model.family[child]]
    for _link in links or [None]:
        m_x = _nearest_containing_reference(mpd, m_y, parent)
        path = _tree_path_reference(mpd, m_x, m_y)
        empty = [
            (a, b)
            for a, b in zip(path, path[1:])
            if not mpd.separator(a, b) and not (a in marked and b in marked)
        ]
        if empty:
            a, b = empty[0]
            ca, cb = bnic.engine._crossing_edge(model, a, b)
            mpd.remove_edge(a, b)
            jt.remove_edge(ca, cb)
            mpd.add_edge(m_x, m_y, {parent})
            cx = min(c for c in index.cliques_of[m_x] if parent in jt.cluster(c))
            jt.add_edge(cx, min(index.cliques_of[m_y]), {parent})
            path = [m_x, m_y]
        for m in path:
            marked.add(m)


def _phase_one(model, mod, marked, rec, reference):
    # one modification's phase one, as incremental_compile runs it; returns
    # the number of walks the reference re-seeded
    apply_modification(model.dag, mod)
    links = modify_moral_graph(model, mod)
    match mod:
        case AddNode(name):
            add_node(model, model.dag.table.id(name), marked, rec)
        case RemoveNode(node):
            if reference:
                _mark_remove_node_reference(model, node, model.index.owner[model.family.pop(node)], marked)
            else:
                mark_remove_node(model, node, marked, rec)
        case RemoveArc(parent, child):
            if reference:
                return _mark_remove_link_reference(model, links, model.index.owner[model.family[child]], marked)
            mark_remove_link(model, parent, child, links, marked, rec)
        case AddArc(parent, child):
            if reference:
                _mark_add_link_reference(model, parent, child, links, marked)
            else:
                mark_add_link(model, parent, child, marked, rec)
    return 0


def _tree_state(tree):
    clusters = {c: tree.cluster(c) for c in tree.cluster_ids()}
    return clusters, tree.edges()


def test_batch_marks_match_walk_reference():
    # phase one by membership marks what the former walks marked, after
    # every modification of a batch; the pinned batch is the stale-host case
    # of test_stale_family_host_still_spreads_marks, where the walk alone
    # misses a holder and the scan re-seeds it
    rng = Random(5150)
    batches = []
    for _ in range(60):
        dag = random_dag(rng.randint(3, 16), rng, edge_prob=rng.choice([0.1, 0.2, 0.3]))
        batches.append((dag, random_script(dag, rng.randint(4, 12), rng)))
    dag = Dag()
    v = [dag.add_node(f"v{i}") for i in range(6)]
    for p, c in [(2, 1), (3, 1), (4, 1), (0, 2), (0, 3), (0, 4), (5, 4), (2, 5)]:
        dag.add_arc(v[p], v[c])
    batches.append((dag, [AddArc(v[0], v[1]), RemoveArc(v[0], v[2]), RemoveArc(v[0], v[1])]))

    removals = rewired = reseeded = 0
    for dag, script in batches:
        model = full_recompile(dag.copy())
        reference = model.copy()
        marked, ref_marked = set(), set()
        for mod in script:
            rec = ModTrace(mod=mod, description="")
            _phase_one(model, mod, marked, rec, reference=False)
            reseeded += _phase_one(reference, mod, ref_marked, None, reference=True)
            assert marked == ref_marked and model.family == reference.family
            for tree, ref_tree in ((model.mpd, reference.mpd), (model.jt, reference.jt)):
                assert _tree_state(tree) == _tree_state(ref_tree)
            removals += isinstance(mod, RemoveNode)
            rewired += bool(rec.rewired)
    assert removals > 0 and rewired > 0 and reseeded > 0


def test_remove_last_node_leaves_empty_model():
    dag = Dag()
    dag.add_node("solo")
    m = full_recompile(dag)
    incremental_compile(m, [RemoveNode(0)])
    assert len(m.jt) == 0 and len(m.mpd) == 0 and len(m.dag) == 0
    assert validate(m).passed


# -- adding nodes -------------------------------------------------------------


def test_add_node_attaches_singleton_by_empty_separator(asia_model):
    m = asia_model
    incremental_compile(m, [AddNode("Z")])
    z = m.dag.table.id("Z")
    for tree in (m.jt, m.mpd):
        (host,) = [c for c in tree.cluster_ids() if tree.cluster(c) == frozenset({z})]
        assert [tree.separator(host, nb) for nb in tree.neighbors(host)] == [frozenset()]
    assert validate(m).passed


def test_add_node_into_empty_model():
    m = full_recompile(Dag())
    incremental_compile(m, [AddNode("first")])
    assert len(m.jt) == 1 and len(m.mpd) == 1
    assert validate(m).passed


def test_two_add_nodes_in_one_batch_stay_one_tree(asia_model):
    m = asia_model
    incremental_compile(m, [AddNode("Y"), AddNode("Z")])
    assert m.jt.is_tree() and m.mpd.is_tree()
    assert validate(m).passed


# -- adding links -------------------------------------------------------------


def test_add_link_inside_one_mps_marks_only_it(asia_model):
    m = asia_model
    t = m.dag.table
    trace = BatchTrace()
    incremental_compile(m, [AddArc(t.id("L"), t.id("B"))], trace)
    assert _marked_names(t, trace.mods[0]) == {frozenset("SLBE")}
    ref = full_recompile(m.dag.copy())
    assert mpd_equal(m.mpd, ref.mpd) and validate(m).passed


def test_add_link_rewires_empty_separator(asia_model):
    m = asia_model
    t = m.dag.table
    z = t.next_id
    trace = BatchTrace()
    incremental_compile(m, [AddNode("Z"), AddArc(t.id("A"), z)], trace)
    arc_rec = trace.mods[1]
    assert _marked_names(t, arc_rec) == {frozenset("Z"), frozenset("AT")}
    assert [rw["separator"] for rw in arc_rec.rewired] == [frozenset({t.id("A")})]
    assert validate(m).passed


def test_add_link_marks_the_path_between_hosts(asia_model):
    m = asia_model
    t = m.dag.table
    z = t.next_id
    trace = BatchTrace()
    incremental_compile(
        m, [AddNode("Z"), AddArc(t.id("A"), z), AddArc(z, t.id("X"))], trace
    )
    last = trace.mods[2]
    assert _marked_names(t, last) == {
        frozenset("Z"),
        frozenset("AT"),
        frozenset("TLE"),
        frozenset("EX"),
    }
    assert last.rewired == []
    (sub,) = trace.subtrees
    assert name_set(t, sub.variables) == frozenset("ZATLEX")
    ref = full_recompile(m.dag.copy())
    assert mpd_equal(m.mpd, ref.mpd) and validate(m).passed


def test_add_link_walk_breaks_ties_by_lowest_id():
    # two MPSs one step from the child's host both hold the parent; running
    # intersection rules this out in a compiled model, so the tie rule is
    # pinned on a hand-built one, against the former nearest-holder search
    p, c, a, b = range(4)
    clusters = {0: frozenset({c, a, b}), 1: frozenset({p, a}), 2: frozenset({p, b})}
    trees = []
    for _ in range(2):
        jt, mpd = ClusterTree(clusters, next_id=3), ClusterTree(clusters, next_id=3)
        for tree in (jt, mpd):
            tree.add_edge(0, 1, {a})
            tree.add_edge(0, 2, {b})
        index = MpdIndex({k: {k} for k in clusters}, {k: k for k in clusters})
        trees.append(CompiledModel(Dag(), UndirectedGraph(), jt, mpd, index, {c: 0}))
    model, reference = trees
    marked, ref_marked = set(), set()
    mark_add_link(model, p, c, marked)
    _mark_add_link_reference(reference, p, c, [Link(p, c, True)], ref_marked)
    assert marked == ref_marked == {0, 1}


# -- connect and absorb -------------------------------------------------------


def test_connect_reattaches_boundary_to_best_cover():
    tree = ClusterTree()
    doomed = tree.add_cluster({1, 2, 3})
    outside = tree.add_cluster({2, 3, 9})
    tree.add_edge(doomed, outside, {2, 3})
    fresh = [tree.add_cluster(vs) for vs in ({1, 2}, {2, 3}, {3, 4})]
    records, visited = connect(tree, set(fresh), [doomed])
    assert visited == {doomed}
    ((_, ck, sep, target),) = records
    assert (ck, sep) == (outside, frozenset({2, 3}))
    assert tree.cluster(target) == frozenset({2, 3})  # = S: amalgamation case
    assert tree.has_edge(target, outside)


def test_connect_with_everything_marked_makes_no_records():
    tree = ClusterTree()
    a = tree.add_cluster({1, 2})
    b = tree.add_cluster({2, 3})
    tree.add_edge(a, b, {2})
    fresh = tree.add_cluster({1, 2, 3})
    records, visited = connect(tree, {fresh}, [a, b])
    assert records == [] and visited == {a, b}


def _connect_reference(tree, replacement_ids, doomed):
    # The former splice: the same depth-first walk, with every replacement
    # cluster scanned in ascending id order for each boundary separator and
    # ranked first by its overlap with the outside cluster, which connect
    # leaves out because every cover meets it in the separator alone.
    records, visited = [], {doomed[0]}
    stack = [(doomed[0], iter(tree.neighbors(doomed[0])))]
    while stack:
        ci, nbrs = stack[-1]
        ck = next(nbrs, None)
        if ck is None:
            stack.pop()
        elif ck in doomed:
            if ck not in visited:
                visited.add(ck)
                stack.append((ck, iter(tree.neighbors(ck))))
        else:
            sep, best = tree.separator(ci, ck), None
            for cid in sorted(replacement_ids):
                vs = tree.cluster(cid)
                if sep <= vs:
                    key = (-len(vs & tree.cluster(ck)), len(vs), cid)
                    if best is None or key < best[0]:
                        best = (key, cid)
            tree.add_edge(best[1], ck, sep)
            records.append((ci, ck, sep, best[1]))
    return records, visited


def test_connect_matches_full_scan_reference(monkeypatch):
    real = bnic.engine.connect
    seen = {"records": 0, "empty": 0}

    def checked(tree, replacement_ids, doomed):
        expected_tree = tree.copy()
        expected = _connect_reference(expected_tree, replacement_ids, doomed)
        got = real(tree, replacement_ids, doomed)
        assert got == expected
        assert tree.edges() == expected_tree.edges()
        seen["records"] += len(got[0])
        seen["empty"] += sum(not sep for _, _, sep, _ in got[0])
        return got

    monkeypatch.setattr(bnic.engine, "connect", checked)
    rng = Random(4242)
    for _ in range(40):
        dag = random_dag(rng.randint(2, 30), rng, edge_prob=rng.choice([0.05, 0.15, 0.3]))
        model = full_recompile(dag)
        for _ in range(3):
            incremental_compile(model, random_script(model.dag, rng.randint(1, 8), rng))
    assert seen["records"] > 0 and seen["empty"] > 0


def test_absorb_collapses_subset_chain():
    tree = ClusterTree()
    ab = tree.add_cluster({0, 1})
    mid = tree.add_cluster({1})
    bc = tree.add_cluster({1, 2})
    tree.add_edge(ab, mid, {1})
    tree.add_edge(mid, bc, {1})
    absorb_non_maximal(tree)
    assert sorted(tree.cluster(c) for c in tree.cluster_ids()) == [{0, 1}, {1, 2}]
    assert tree.separator(ab, bc) == frozenset({1})


def test_absorb_leaves_maximal_trees_alone(asia_model):
    before = asia_model.jt.cluster_multiset()
    absorb_non_maximal(asia_model.jt)
    assert asia_model.jt.cluster_multiset() == before


# -- full scenarios -----------------------------------------------------------


def test_remove_arc_scenario_replaces_only_marked_subtree(asia, asia_model):
    m = asia_model
    t = asia.table
    old_jt = m.jt.copy()
    old_clusters = cluster_names(old_jt, t)
    trace = BatchTrace()
    incremental_compile(m, [RemoveArc(t.id("L"), t.id("E"))], trace)
    new_clusters = cluster_names(m.jt, t)
    # unmarked clusters survive verbatim
    for survivor in (frozenset("AT"), frozenset("EBD"), frozenset("EX")):
        assert survivor in old_clusters and survivor in new_clusters
    ref = full_recompile(m.dag.copy())
    assert mpd_equal(m.mpd, ref.mpd)
    assert validate(m).passed
    assert stability(old_jt, m.jt) == pytest.approx(0.5)


def test_remove_node_scenario_absorbs_nonmaximal_cluster(asia_model):
    m = asia_model
    t = m.dag.table
    trace = BatchTrace()
    incremental_compile(m, expand_remove_node(m.dag, t.id("D")), trace)
    (sub,) = trace.subtrees
    assert name_set(t, sub.variables) == frozenset("EBLS")
    assert frozenset("LE") in {name_set(t, c) for c in sub.new_cliques}
    assert (frozenset("LE"), frozenset("TLE")) in {
        (name_set(t, a), name_set(t, b)) for a, b in trace.absorbed
    }
    clusters = list(cluster_names(m.jt, t))
    assert frozenset("LE") not in clusters and frozenset("TLE") in clusters
    for a in clusters:
        assert not any(a < b for b in clusters)
    ref = full_recompile(m.dag.copy())
    assert mpd_equal(m.mpd, ref.mpd) and validate(m).passed


def test_locality_on_random_edits():
    # every clique of an unmarked MPS survives with its vertex set intact:
    # the splice only ever merges a new clique into an old one
    rng = Random(77)
    for _ in range(15):
        dag = random_dag(rng.randint(3, 16), rng, edge_prob=0.25)
        model = full_recompile(dag.copy())
        old = model.copy()
        script = random_script(dag, 3, rng)
        trace = BatchTrace()
        incremental_compile(model, script, trace)
        after = model.jt.cluster_multiset()
        marked = trace.marked_ids()
        survivors = 0
        for m in old.mpd.cluster_ids():
            if m in marked:
                continue
            for k in old.index.cliques_of[m]:
                assert old.jt.cluster(k) in after
                survivors += 1
        if len(model.jt):
            assert stability(old.jt, model.jt) >= survivors / len(model.jt)


# -- validation of edits ------------------------------------------------------


def test_invalid_modifications_are_rejected(asia_model):
    m = asia_model
    t = m.dag.table
    with pytest.raises(CycleError):
        incremental_compile(m, [AddArc(t.id("X"), t.id("A"))])
    with pytest.raises(InvalidEditError):
        incremental_compile(m, [AddArc(t.id("A"), t.id("T"))])
    with pytest.raises(InvalidEditError):
        incremental_compile(m, [RemoveNode(t.id("E"))])
    with pytest.raises(InvalidEditError):
        incremental_compile(m, [RemoveArc(t.id("A"), t.id("E"))])
    with pytest.raises(InvalidEditError):
        incremental_compile(m, [AddNode("A")])
    # the model stayed intact through all rejections
    assert validate(m).passed


def test_empty_batch_is_a_no_op(asia_model):
    before = asia_model.jt.cluster_multiset()
    incremental_compile(asia_model, [])
    assert asia_model.jt.cluster_multiset() == before
    assert validate(asia_model).passed


# -- regressions --------------------------------------------------------------


def test_stale_family_host_still_spreads_marks():
    # an arc added earlier in the batch leaves the child's family host
    # without the new parent; the deletion of an induced moral link later in
    # the same batch must still reach every cluster holding the dead pair
    dag = Dag()
    v = [dag.add_node(f"v{i}") for i in range(6)]
    for p, c in [(2, 1), (3, 1), (4, 1), (0, 2), (0, 3), (0, 4), (5, 4), (2, 5)]:
        dag.add_arc(v[p], v[c])
    model = full_recompile(dag.copy())
    incremental_compile(
        model, [AddArc(v[0], v[1]), RemoveArc(v[0], v[2]), RemoveArc(v[0], v[1])]
    )
    ref = full_recompile(model.dag.copy())
    assert mpd_equal(model.mpd, ref.mpd) and validate(model).passed


def test_rewiring_never_severs_marked_subtrees():
    # node removals can empty a separator between two marked clusters; a
    # later arc addition must not delete that edge while rewiring, or the
    # pending rebuild region falls apart (pinned multi-batch seeds)
    for seed in (356, 654, 260, 511):
        rng = Random(777_000 + seed)
        n = rng.randint(1, 30)
        dag = random_dag(n, rng, edge_prob=rng.choice([0.05, 0.15, 0.3, 0.5, 0.7]))
        model = full_recompile(dag.copy())
        for _ in range(rng.randint(1, 3)):
            script = random_script(model.dag, rng.randint(1, 12), rng)
            incremental_compile(model, script)
            ref = full_recompile(model.dag.copy())
            assert mpd_equal(model.mpd, ref.mpd) and validate(model).passed


def test_rejected_batch_leaves_the_model_untouched():
    # the cycle only shows at the second edit; the first must not stay
    # applied
    dag = Dag()
    a, b, c, d = (dag.add_node(name) for name in "ABCD")
    for p, ch in [(a, d), (b, c), (c, d)]:
        dag.add_arc(p, ch)
    model = full_recompile(dag.copy())
    clusters = model.jt.cluster_multiset()
    with pytest.raises(CycleError):
        incremental_compile(model, [RemoveArc(a, d), AddArc(c, b)])
    assert model.dag == dag
    assert model.jt.cluster_multiset() == clusters
    assert validate(model).passed


def _dag_state(dag):
    # everything a rollback must restore, insertion orders included
    t = dag.table
    return (
        t.next_id,
        dict(t._name_of),
        dict(t._id_of),
        {v: list(ps) for v, ps in dag._parents.items()},
        {v: list(cs) for v, cs in dag._children.items()},
    )


def test_rejected_batch_restores_ids_and_arc_order():
    # the dry run replays the batch on the model's own dag and rolls it back
    dag = Dag()
    a, b, c, d = (dag.add_node(name) for name in "ABCD")
    for p, ch in [(d, b), (a, b), (b, c), (a, c), (d, c)]:
        dag.add_arc(p, ch)
    model = full_recompile(dag.copy())
    before = _dag_state(model.dag)
    order = {v: expand_remove_node(model.dag, v) for v in (a, b, d)}
    batches = [
        [AddNode("E"), RemoveArc(a, b), AddArc(c, a)],
        # a removed node comes back with its id, and its name is not kept
        # by the node that took it over inside the batch
        expand_remove_node(model.dag, d) + [AddNode("D"), RemoveArc(a, b), AddArc(c, a)],
    ]
    for mods in batches:
        with pytest.raises(CycleError):
            incremental_compile(model, mods)
        assert _dag_state(model.dag) == before
        assert {v: expand_remove_node(model.dag, v) for v in (a, b, d)} == order
        assert model.dag == dag and validate(model).passed
    assert model.dag.add_node("F") == 4


def test_local_flush_walks_no_whole_tree_and_copies_no_dag(monkeypatch):
    dag = Dag()
    v = [dag.add_node(f"b{j}") for j in range(2000)]
    rng = Random(3)
    for j in range(2000):
        for i in range(max(0, j - 5), j):
            if rng.random() < 0.3:
                dag.add_arc(v[i], v[j])
    model = full_recompile(dag)
    p, c = next((p, c) for p, c in dag.arcs() if p > 1000)
    u, w = next((v[i], v[i + 2]) for i in range(1500, 2000) if not dag.has_arc(v[i], v[i + 2]))
    mods = [RemoveArc(p, c), AddArc(u, w)]

    calls = {"components": 0, "copy": 0}
    components, copy = ClusterTree.components, Dag.copy

    def counted_components(self, ids=None):
        calls["components"] += ids is None
        return components(self, ids)

    def counted_copy(self):
        calls["copy"] += 1
        return copy(self)

    monkeypatch.setattr(ClusterTree, "components", counted_components)
    monkeypatch.setattr(Dag, "copy", counted_copy)
    trace = BatchTrace()
    incremental_compile(model, mods, trace)
    assert calls == {"components": 0, "copy": 0}
    assert trace.subtrees and all(s.variables for s in trace.subtrees)
    monkeypatch.undo()
    assert validate(model).passed


def test_junction_cycle_after_rejoin_raises(asia_model, monkeypatch):
    # the rejoin's edge count is the only junction-tree check of a flush
    rejoin = bnic.engine._rejoin_fragments

    def rejoin_with_extra_edge(model):
        jt = model.jt
        ids = jt.cluster_ids()
        a, b = next((a, b) for a in ids for b in ids if a < b and not jt.has_edge(a, b))
        jt.add_edge(a, b, frozenset())
        rejoin(model)

    monkeypatch.setattr(bnic.engine, "_rejoin_fragments", rejoin_with_extra_edge)
    t = asia_model.dag.table
    with pytest.raises(InconsistencyError, match="cycle in the junction tree"):
        incremental_compile(asia_model, [RemoveArc(t.id("A"), t.id("T"))])


def test_reattachment_outside_the_mps_boundary_raises(asia_model, monkeypatch):
    # the splice maps reattached cliques to their MPS through the boundary
    # MPSs only; a record naming any other clique is an inconsistency
    model = asia_model
    t = model.dag.table
    far = next(c for c in model.jt.cluster_ids() if name_set(t, model.jt.cluster(c)) == frozenset("EX"))
    splice = bnic.engine.connect

    def connect_with_far_record(tree, replacement_ids, doomed):
        records, visited = splice(tree, replacement_ids, doomed)
        return records + [(doomed[0], far, frozenset(), records[0][3])], visited

    monkeypatch.setattr(bnic.engine, "connect", connect_with_far_record)
    with pytest.raises(InconsistencyError, match="outside the MPS boundary"):
        incremental_compile(model, [RemoveArc(t.id("A"), t.id("T"))])


def _stack_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def _compile_under_low_recursion_limit(model, mods):
    # the limit sits far above the engine's ordinary call depth but below
    # the number of clusters each walk crosses (about 300)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 150)
    try:
        incremental_compile(model, mods)
    finally:
        sys.setrecursionlimit(old)
    assert mpd_equal(model.mpd, full_recompile(model.dag.copy()).mpd)


def test_closing_a_long_chain_needs_no_recursion():
    # connect walks every clique of the chain's rebuilt region
    dag = Dag()
    v = [dag.add_node(f"v{i}") for i in range(300)]
    for p, c in zip(v, v[1:]):
        dag.add_arc(p, c)
    model = full_recompile(dag)
    _compile_under_low_recursion_limit(model, [AddArc(v[0], v[-1])])


def test_removing_a_hub_of_a_long_chain_needs_no_recursion():
    # the hub sits in every MPS {hub, v_i, v_i+1}; its removal rebuilds them
    # all, so connect walks a region of about 300 cliques
    dag = Dag()
    v = [dag.add_node(f"v{i}") for i in range(300)]
    hub = dag.add_node("hub")
    for p, c in zip(v, v[1:]):
        dag.add_arc(p, c)
    for c in v:
        dag.add_arc(hub, c)
    model = full_recompile(dag)
    _compile_under_low_recursion_limit(model, expand_remove_node(model.dag, hub))


# -- batch vs simple ----------------------------------------------------------


def test_batch_and_simple_mode_agree():
    rng = Random(99)
    for _ in range(10):
        dag = random_dag(rng.randint(2, 14), rng, edge_prob=0.3)
        script = random_script(dag, 6, rng)
        batch = full_recompile(dag.copy())
        simple = full_recompile(dag.copy())
        incremental_compile(batch, script)
        for mod in script:
            incremental_compile(simple, [mod])
        assert mpd_equal(batch.mpd, simple.mpd)
        assert validate(batch).passed and validate(simple).passed


# -- the triangulation read off the clusters ----------------------------------


def _derive_fill_reference(moral, jt):
    # The former copy-and-diff derivation: complete every cluster in a copy
    # of the moral graph and take its edge surplus over the moral graph.
    gt = moral.copy()
    for cid in jt.cluster_ids():
        vs = sorted(jt.cluster(cid))
        for i, u in enumerate(vs):
            for v in vs[i + 1 :]:
                if not gt.has_edge(u, v):
                    gt.add_edge(u, v)
    return frozenset(gt.edge_set() - moral.edge_set())


def test_derived_fill_matches_copy_and_diff_reference():
    rng = Random(2024)
    removals = fills = 0
    for _ in range(25):
        dag = random_dag(rng.randint(4, 18), rng, edge_prob=0.3)
        script = random_script(dag, 10, rng)
        removals += sum(isinstance(mod, RemoveNode) for mod in script)
        batch = full_recompile(dag.copy())
        incremental_compile(batch, script)
        simple = full_recompile(dag.copy())
        flushed = [batch]
        for mod in script:
            incremental_compile(simple, [mod])
            flushed.append(simple.copy())
        for model in flushed:
            assert model.tri.fill == _derive_fill_reference(model.moral, model.jt)
            # the splice leaves no cluster inside a neighbour for a scan to absorb
            assert len(absorb_non_maximal(model.jt.copy())) == len(model.jt)
            fills += bool(model.tri.fill)
    assert removals > 0 and fills > 0


def test_compiled_fill_is_the_cluster_implied_fill():
    rng = Random(31)
    for _ in range(30):
        dag = random_dag(rng.randint(0, 20), rng, edge_prob=0.3)
        model = full_recompile(dag)
        assert model.tri.fill == derive_triangulation(model.moral, model.jt).fill
