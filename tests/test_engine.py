import sys
from collections import Counter
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
from bnic.clustertree import HolderIndex
from bnic.engine import (
    _insert_link,
    absorb_non_maximal,
    add_node,
    connect,
    derive_triangulation,
    mark_add_link,
    mark_remove_link,
    mark_remove_node,
    modify_moral_graph,
)
from bnic.graph import is_chordal
from bnic.oracle import random_arc_edits
from bnic.pipeline import assign_families, extract_cliques, thin_join_tree

import replay
from conftest import banded_dag, build_asia, cluster_names, holders_of, name_set


def _link_names(table, links):
    return {(name_set(table, link.pair), link.added) for link in links}


def _marked_names(table, rec):
    return {name_set(table, vs) for vs in rec.marked_sets()}


def _mps_names(model, marks):
    # what a trace records of marks: each MPS as the union of its cliques
    return {name_set(model.dag.table, model.mpd.cluster(m)) for m in marks}


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
    marks = mark_remove_link(m, t.id("L"), t.id("E"), links)
    assert _mps_names(m, marks) == {frozenset("TLE"), frozenset("SLBE")}


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
    assert len(mark_remove_link(m, b, c, links)) == 1


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
        start = m.owner[m.family[c]]
        # an arc whose removal deletes no moral link marks nothing
        expected = _closure_marks(m, links, start) if links else set()
        marks = mark_remove_link(m, p, c, links)
        assert len(marks) == len(set(marks)) and set(marks) == expected
        checked += 1
    assert checked > 20


def _common_child_dag():
    # p -> c with a common child d, so removing p -> c deletes no moral
    # link; q -> p makes q a moral neighbour of p as well
    dag = Dag()
    p, c, d, q = (dag.add_node(n) for n in "pcdq")
    for a, b in [(p, c), (p, d), (c, d), (q, p)]:
        dag.add_arc(a, b)
    return dag, p, c, q


def test_a_remove_arc_deleting_no_moral_link_marks_nothing():
    dag, p, c, _q = _common_child_dag()
    model = full_recompile(dag)
    jt = {cid: model.jt.cluster(cid) for cid in model.jt.cluster_ids()}
    trace = BatchTrace()
    incremental_compile(model, [RemoveArc(p, c)], trace)
    assert trace.mods[0].links == [] and trace.mods[0].touched == {} and trace.subtrees == []
    assert {cid: model.jt.cluster(cid) for cid in model.jt.cluster_ids()} == jt
    assert validate(model).passed


def test_a_family_grown_earlier_in_the_batch_keeps_its_host_marked():
    # the added arc grows c's family past its host and marks the path to
    # that host; the removal after it deletes no link and marks nothing
    dag, p, c, q = _common_child_dag()
    model = full_recompile(dag)
    trace = BatchTrace()
    incremental_compile(model, [AddArc(q, c), RemoveArc(p, c)], trace)
    assert trace.mods[1].links == [] and trace.mods[1].touched == {}
    assert validate(model).passed
    assert mpd_equal(model.mpd, full_recompile(model.dag.copy()).mpd)


# -- marking: node removal ----------------------------------------------------


def _holds_nowhere(model, x):
    return all(
        x not in tree.cluster(c) and all(x not in sep for _, _, sep in tree.edges())
        for tree in (model.jt, model.mpd)
        for c in tree.cluster_ids()
    )


def test_remove_node_strips_variable_from_hosting_cluster(asia_model):
    m = asia_model
    t = m.dag.table
    d = t.id("D")
    trace = BatchTrace()
    incremental_compile(m, expand_remove_node(m.dag, d), trace)
    node_rec = trace.mods[-1]
    assert isinstance(node_rec.mod, RemoveNode)
    # the hosting MPS is marked as it stood, and the rebuild leaves D out
    assert node_rec.marked_sets() == {frozenset({t.id("E"), t.id("B"), d})}
    assert _holds_nowhere(m, d)
    assert validate(m).passed


def test_remove_node_spanning_three_clusters():
    dag = Dag()
    x = dag.add_node("x")
    leaves = [dag.add_node(n) for n in "abc"]
    for leaf in leaves:
        dag.add_arc(x, leaf)
    m = full_recompile(dag)
    trace = BatchTrace()
    incremental_compile(m, expand_remove_node(m.dag, x), trace)
    assert len(trace.mods[-1].touched) == 3
    assert _holds_nowhere(m, x)
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
    if not deleted:  # the moral graph is unchanged: nothing to mark
        return 0

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
    # the former walk from x's host across separators holding x, marking
    # as it goes; no cluster loses x before the rebuild
    def step(m, m_z):
        if x not in model.mpd.separator(m, m_z):
            return False
        marked.add(m_z)
        return True

    marked.add(m_x)
    _walk_reference(model.mpd, m_x, step)


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
    # parent from the child's host on the MPS tree, the tree path to it and
    # the rewiring of the first empty separator on that path; an arc
    # between moral neighbours that induces no link still marks that path
    # once
    jt, owner = model.jt, model.owner
    m_y = owner[model.family[child]]
    for _link in links or [None]:
        mpd = model.mpd
        m_x = _nearest_containing_reference(mpd, m_y, parent)
        path = _tree_path_reference(mpd, m_x, m_y)
        empty = [
            (a, b)
            for a, b in zip(path, path[1:])
            if not mpd.separator(a, b) and not (a in marked and b in marked)
        ]
        if empty:
            a, b = empty[0]
            # the one junction edge between the two clique groups
            ((ca, cb),) = [
                (c, nb) for c in jt.cluster_ids() if owner[c] == a for nb in jt.neighbors(c) if owner[nb] == b
            ]
            jt.remove_edge(ca, cb)
            cx = min(c for c in jt.cluster_ids() if owner[c] == m_x and parent in jt.cluster(c))
            jt.add_edge(cx, m_y)
            path = [m_x, m_y]
        for m in path:
            marked.add(m)


def _phase_one(model, mod, marked):
    # one modification's phase one, as incremental_compile runs it; returns
    # the rewiring of an added arc, or None
    apply_modification(model.dag, mod)
    links = modify_moral_graph(model, mod)
    rewiring = None
    match mod:
        case AddNode(name):
            marks = add_node(model, model.dag.table.id(name))
        case RemoveNode(node):
            marks = mark_remove_node(model, node)
        case RemoveArc(parent, child):
            marks = mark_remove_link(model, parent, child, links)
        case AddArc(parent, child):
            marks, rewiring = mark_add_link(model, parent, child, marked)
    marked.update(marks)
    return rewiring


def _phase_one_reference(model, mod, marked):
    # the same by the former walks; returns the number of walks re-seeded
    apply_modification(model.dag, mod)
    links = modify_moral_graph(model, mod)
    match mod:
        case AddNode(name):
            marked.update(add_node(model, model.dag.table.id(name)))
        case RemoveNode(node):
            _mark_remove_node_reference(model, node, model.owner[model.family.pop(node)], marked)
        case RemoveArc(parent, child):
            return _mark_remove_link_reference(model, links, model.owner[model.family[child]], marked)
        case AddArc(parent, child):
            _mark_add_link_reference(model, parent, child, links, marked)
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
            rewiring = _phase_one(model, mod, marked)
            reseeded += _phase_one_reference(reference, mod, ref_marked)
            assert marked == ref_marked and model.family == reference.family
            for tree, ref_tree in ((model.mpd, reference.mpd), (model.jt, reference.jt)):
                assert _tree_state(tree) == _tree_state(ref_tree)
            removals += isinstance(mod, RemoveNode)
            rewired += rewiring is not None
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


def test_owner_keys_ascend_through_streams_that_add_and_remove_nodes():
    # add_node hangs a new clique on the first owner key, which must be the least clique
    rng = Random(2718)
    kinds = Counter()
    for k in range(60):
        n = rng.randint(2, 40)
        dag = banded_dag(n, rng) if k % 2 else random_dag(n, rng, edge_prob=rng.choice([0.1, 0.25]))
        model = full_recompile(dag)
        for _ in range(5):
            script = random_script(model.dag, rng.randint(1, 10), rng)
            kinds.update(type(mod).__name__ for mod in script)
            incremental_compile(model, script)
            assert list(model.owner) == model.jt.cluster_ids()
    assert kinds["AddNode"] > 50 and kinds["RemoveNode"] > 50


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


def test_a_rewired_junction_edge_is_empty_until_the_rebuild(asia_model, monkeypatch):
    # the trace labels the rewired link {A}; the junction edge joining c_x
    # to m_y has ends sharing nothing until the rebuild
    m = asia_model
    t = m.dag.table
    incremental_compile(m, [AddNode("Z")])
    a, z = t.id("A"), t.id("Z")
    real, seen = bnic.engine.mark_add_link, []

    def checked(model, parent, child, marked):
        result = real(model, parent, child, marked)
        jt = model.jt
        c_x = min(c for c in jt.cluster_ids() if parent in jt.cluster(c))
        seen.append(jt.separator(c_x, model.owner[model.family[child]]))
        return result

    monkeypatch.setattr(bnic.engine, "mark_add_link", checked)
    trace = BatchTrace()
    incremental_compile(m, [AddArc(a, z)], trace)
    assert seen == [frozenset()]
    assert [rw["separator"] for rw in trace.mods[0].rewired] == [frozenset({a})]
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
        jt = ClusterTree(clusters, next_id=3)
        jt.add_edge(0, 1)
        jt.add_edge(0, 2)
        trees.append(CompiledModel(Dag(), UndirectedGraph(), jt, {k: k for k in clusters}, {c: 0}, UndirectedGraph()))
    model, reference = trees
    ref_marked = set()
    marks, _ = mark_add_link(model, p, c, set())
    _mark_add_link_reference(reference, p, c, [Link(p, c, True)], ref_marked)
    assert set(marks) == ref_marked == {0, 1}


# -- connect and absorb -------------------------------------------------------


def test_connect_reattaches_boundary_to_best_cover():
    tree = ClusterTree()
    doomed = tree.add_cluster({1, 2, 3})
    outside = tree.add_cluster({2, 3, 9})
    tree.add_edge(doomed, outside)
    fresh = [tree.add_cluster(vs) for vs in ({1, 2}, {2, 3}, {3, 4})]
    expected_tree = tree.copy()
    expected = _connect_reference(expected_tree, fresh, [doomed])
    (piece,) = connect(tree, HolderIndex(tree, fresh), [doomed])
    assert [piece] == expected and tree.edges() == expected_tree.edges()
    assert tree.cluster(piece) == frozenset({2, 3})  # = S: the outside clique absorbs it
    assert tree.has_edge(piece, outside)


def test_connect_with_everything_marked_makes_no_records():
    tree = ClusterTree()
    a = tree.add_cluster({1, 2})
    b = tree.add_cluster({2, 3})
    tree.add_edge(a, b)
    fresh = tree.add_cluster({1, 2, 3})
    assert connect(tree, HolderIndex(tree, [fresh]), [a, b]) == []


def test_a_disconnected_doomed_set_leaves_one_surplus_edge_per_extra_piece():
    # the path 0-1-...-6 with doomed {1, 4}: two pieces, one edge too many
    tree = ClusterTree()
    path = [tree.add_cluster({i, i + 1}) for i in range(7)]
    for a, b in zip(path, path[1:]):
        tree.add_edge(a, b)
    fresh = tree.add_cluster(range(8))
    connect(tree, HolderIndex(tree, [fresh]), [1, 4])
    for k in (1, 4):
        tree.remove_cluster(k)
    assert tree.edge_count() - (len(tree) - 1) == 1


def _connect_reference(tree, replacement_ids, doomed):
    # The former splice: a depth-first walk from doomed[0], with every replacement
    # cluster scanned in ascending id order for each boundary separator and
    # ranked first by its overlap with the outside cluster, which connect
    # leaves out because every cover meets it in the separator alone.
    # Returns the covers equal to their separator.
    pieces, visited = [], {doomed[0]}
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
            tree.add_edge(best[1], ck)
            if tree.cluster(best[1]) == sep:
                pieces.append(best[1])
    return pieces


def _emptied_reference(tree, doomed):
    # An emptied subtree has no replacements: every boundary cluster hangs
    # by an empty separator on one of them, the first in (C_i, C_k) order,
    # and none of them is a piece to absorb.
    boundary = sorted((ci, ck) for ci in doomed for ck in tree.neighbors(ci) if ck not in doomed)
    assert all(not tree.separator(ci, ck) for ci, ck in boundary)
    for _, ck in boundary[1:]:
        tree.add_edge(boundary[0][1], ck)
    return []


def test_connect_matches_full_scan_reference(monkeypatch):
    # connect scans in (C_i, C_k) order, the reference depth first, so the
    # pieces are compared as multisets; the resulting edges must agree
    real = bnic.engine.connect
    seen = {"boundary": 0, "empty": 0, "emptied": 0, "pieces": 0}

    def checked(tree, index, doomed):
        # a position of the handed holder index may name a cluster the tree lacks
        replacement_ids = {c for c in index.ids if c in tree}
        seps = [tree.separator(ci, ck) for ci in doomed for ck in tree.neighbors(ci) if ck not in doomed]
        expected_tree = tree.copy()
        if replacement_ids:
            expected = _connect_reference(expected_tree, replacement_ids, doomed)
        else:
            expected = _emptied_reference(expected_tree, doomed)
            seen["emptied"] += len(seps) > 1
        got = real(tree, index, doomed)
        assert Counter(got) == Counter(expected)
        assert tree.edges() == expected_tree.edges()
        seen["boundary"] += len(seps)
        seen["empty"] += sum(not sep for sep in seps)
        seen["pieces"] += len(got)
        return got

    monkeypatch.setattr(bnic.engine, "connect", checked)
    rng = Random(4242)
    for _ in range(40):
        dag = random_dag(rng.randint(2, 30), rng, edge_prob=rng.choice([0.05, 0.15, 0.3]))
        model = full_recompile(dag)
        for _ in range(3):
            incremental_compile(model, random_script(model.dag, rng.randint(1, 8), rng))
    # the isolated h's clique anchors the other three components; removing
    # h empties its MPS, whose boundary holds one cluster per component
    dag = Dag()
    h, a, b, _, _ = (dag.add_node(x) for x in "habcd")
    dag.add_arc(a, b)
    incremental_compile(full_recompile(dag), [RemoveNode(h)])
    assert min(seen.values()) > 0


def test_an_empty_boundary_separator_hangs_on_a_live_clique_after_the_region_thinned(monkeypatch):
    # a re-triangulated region whose thinning split a clique hands connect
    # holder positions that name no clique; an empty boundary separator,
    # which every clique covers, must still hang on a live one
    real = bnic.engine.connect
    hits = 0

    def checked(tree, index, doomed):
        nonlocal hits
        inside = set(doomed)
        empty = any(not tree.separator(ci, ck) for ci in doomed for ck in tree.neighbors(ci) if ck not in inside)
        hits += empty and any(c not in tree for c in index.ids)
        return real(tree, index, doomed)

    monkeypatch.setattr(bnic.engine, "connect", checked)
    for seed in (103, 156, 321):
        rng = Random(seed)
        model = full_recompile(banded_dag(rng.randint(10, 60), rng))
        for _ in range(5):
            incremental_compile(model, random_script(model.dag, rng.randint(1, 8), rng))
            assert validate(model).passed and mpd_equal(model.mpd, full_recompile(model.dag).mpd)
    assert hits >= 3


# -- the InconsistencyError guards ----------------------------------------------


def _tree(clusters, edges=()):
    tree = ClusterTree({c: frozenset(vs) for c, vs in enumerate(clusters)}, len(clusters))
    for a, b in edges:
        tree.add_edge(a, b)
    return tree


def _uncovered_boundary_separator():
    # the new cluster {1, 2} does not cover the boundary separator {2, 3}
    tree = _tree([{1, 2, 3}, {2, 3, 9}, {1, 2}], [(0, 1)])
    connect(tree, HolderIndex(tree, [2]), [0])


def _emptied_region_with_a_non_empty_separator():
    tree = _tree([{1, 2}, {2, 3}], [(0, 1)])
    connect(tree, HolderIndex(tree), [0])


def _unhosted_family():
    # no cluster holds 0 -> 1's family {0, 1}
    dag = Dag()
    a, b = dag.add_node("a"), dag.add_node("b")
    dag.add_arc(a, b)
    tree = _tree([{a}, {b}], [(0, 1)])
    assign_families(dag, [b], HolderIndex(tree, [0, 1]))


def _unheld_fill_pair():
    # the fill pair {0, 2} lies in no cluster
    tree = _tree([{0, 1}, {1, 2}], [(0, 1)])
    thin_join_tree(tree, [(0, 2)], UndirectedGraph.from_edges(range(3), [(0, 2)]), HolderIndex(tree, [0, 1]))


def _fill_pair_without_a_mask():
    # vertex 5 lies in no cluster, so it has no holder mask
    tree = _tree([{0, 1}])
    thin_join_tree(tree, [(0, 5)], UndirectedGraph.from_edges([0, 1, 5], [(0, 5)]), HolderIndex(tree, [0]))


def _unreachable_parent():
    # the parent's clique is cut off from the child's host
    p, c = 0, 1
    jt = _tree([{c}, {p}])
    model = CompiledModel(Dag(), UndirectedGraph(), jt, {0: 0, 1: 1}, {c: 0}, UndirectedGraph())
    mark_add_link(model, p, c, set())


def _stray_moral_edge_on_a_removed_node():
    # the dag accepts removing the arc-free x; only a broken moral graph
    # can still give it a neighbour
    dag = Dag()
    a, b, x = (dag.add_node(n) for n in "abx")
    dag.add_arc(a, b)
    model = full_recompile(dag)
    model.moral.add_edge(x, a)
    incremental_compile(model, [RemoveNode(x)])


@pytest.mark.parametrize(
    "case, message",
    [
        pytest.param(case, message, id=case.__name__.strip("_"))
        for case, message in [
            (_uncovered_boundary_separator, "no replacement cluster covers boundary separator"),
            (_emptied_region_with_a_non_empty_separator, "emptied subtree has a non-empty boundary separator"),
            (_unhosted_family, "no cluster contains the family of variable"),
            (_unheld_fill_pair, r"no cluster holds the fill pair \(0, 2\)"),
            (_fill_pair_without_a_mask, "no cluster holds vertex 5"),
            (_unreachable_parent, "no cluster reachable from the host of 1 contains variable 0"),
            (_stray_moral_edge_on_a_removed_node, "node 2 still has moral edges"),
        ]
    ],
)
def test_an_inconsistent_input_raises(case, message):
    with pytest.raises(InconsistencyError, match=message):
        case()


def test_absorb_collapses_subset_chain():
    tree = ClusterTree()
    ab = tree.add_cluster({0, 1})
    mid = tree.add_cluster({1})
    bc = tree.add_cluster({1, 2})
    tree.add_edge(ab, mid)
    tree.add_edge(mid, bc)
    absorb_non_maximal(tree, tree.cluster_ids())
    assert sorted(tree.cluster(c) for c in tree.cluster_ids()) == [{0, 1}, {1, 2}]
    assert tree.separator(ab, bc) == frozenset({1})


def test_absorb_leaves_maximal_trees_alone(asia_model):
    before = asia_model.jt.cluster_multiset()
    absorb_non_maximal(asia_model.jt, asia_model.jt.cluster_ids())
    assert asia_model.jt.cluster_multiset() == before


# -- the region's starting junction tree ---------------------------------------


def _forbid_min_fill(monkeypatch):
    def forbidden(g):
        raise AssertionError("min-fill ran")

    monkeypatch.setattr(bnic.kernels, "min_fill", forbidden)


def test_a_lone_remove_arc_thins_its_region_without_min_fill(monkeypatch):
    # the benchmark's random-120 network (its generator draws as random_dag
    # does, seed 42): an arc removed inside the largest MPS rebuilds that
    # region from its own junction subtree
    model = full_recompile(random_dag(120, Random(42), edge_prob=3 / 119))
    largest = max(model.mpd.cluster_ids(), key=lambda m: len(model.mpd.cluster(m)))
    parent, child = next(
        (p, c)
        for p, c in model.dag.arcs()
        if model.owner[model.family[c]] == largest and not model.dag.common_child(p, c)
    )
    _forbid_min_fill(monkeypatch)
    trace = BatchTrace()
    incremental_compile(model, [RemoveArc(parent, child)], trace)
    monkeypatch.undo()
    assert trace.mods[0].links and len(trace.subtrees[0].variables) > 50
    assert validate(model).passed
    assert mpd_equal(model.mpd, full_recompile(model.dag.copy()).mpd)


def test_arcs_whose_links_are_all_fill_keep_every_cluster(monkeypatch):
    # H stays a minimal triangulation when the moral graph gains only fill
    # pairs, so the region is rebuilt from its own subtree unchanged
    rng = Random(808)
    checked = 0
    for _ in range(60):
        model = full_recompile(random_dag(rng.randint(4, 25), rng, edge_prob=rng.choice([0.1, 0.2, 0.3])))
        dag, fill = model.dag, model.fill
        arcs = [
            (u, v)
            for u, v in fill.edges() + [(v, u) for u, v in fill.edges()]
            if not dag.has_path(v, u)
            and all(fill.has_edge(u, w) or model.moral.has_edge(u, w) for w in dag.parents(v))
        ]
        if not arcs:
            continue
        before = model.jt.cluster_multiset()
        _forbid_min_fill(monkeypatch)
        incremental_compile(model, [AddArc(*rng.choice(arcs))])
        monkeypatch.undo()
        assert model.jt.cluster_multiset() == before
        assert validate(model).passed
        checked += 1
    assert checked > 20


def test_a_rewired_separator_in_the_region_is_thinned(monkeypatch):
    # seed 22 of test_property_sweep_small: AddArc(1, 4) rewired an empty
    # separator into {1} inside the region, and the batch's net link
    # changes cancel; the rebuild resets that separator to the empty
    # intersection of its ends, so the region thins
    rng = Random(22)
    dag = random_dag(rng.randint(1, 20), rng, edge_prob=rng.choice([0.1, 0.25, 0.4]))
    model = full_recompile(dag.copy())
    script = random_script(dag, rng.randint(1, 8), rng)
    assert script == [
        RemoveArc(1, 0), RemoveArc(2, 3), AddArc(1, 4), AddNode("r5"), RemoveArc(1, 4), AddArc(3, 2), RemoveNode(5)
    ]
    _forbid_min_fill(monkeypatch)
    trace = BatchTrace()
    incremental_compile(model, script, trace)
    monkeypatch.undo()
    assert trace.mods[2].rewired and all(sub.thinned for sub in trace.subtrees)
    assert validate(model).passed
    assert mpd_equal(model.mpd, full_recompile(model.dag.copy()).mpd)


def test_a_thinned_remove_arc_changes_only_the_cliques_it_splits(monkeypatch):
    # single-arc removals inside the benchmark's random-120 network: every
    # clique that survives keeps its vertex set and its edges to the other
    # survivors, only a clique holding a dropped pair goes, the new ids are
    # the new cliques', and neither the splice nor min-fill runs
    model = full_recompile(random_dag(120, Random(42), edge_prob=3 / 119))

    def forbidden(*args):
        raise AssertionError("a thinned region ran the splice or min-fill")

    rng = Random(9)
    split = 0
    for _ in range(40):
        parent, child = rng.choice(model.dag.arcs())
        jt = model.jt
        clusters = {c: jt.cluster(c) for c in jt.cluster_ids()}
        edges = {(a, b): sep for a, b, sep in jt.edges()}
        fill = model.fill.edge_set() | {frozenset((parent, w)) for w in model.moral.neighbors(parent)}
        monkeypatch.setattr(bnic.engine, "connect", forbidden)
        monkeypatch.setattr(bnic.engine, "construct_join_tree", forbidden)
        trace = BatchTrace()
        incremental_compile(model, [RemoveArc(parent, child)], trace)
        monkeypatch.undo()
        assert all(sub.thinned for sub in trace.subtrees)
        dropped = fill - model.fill.edge_set() - model.moral.edge_set()
        gone = clusters.keys() - set(jt.cluster_ids())
        assert all(any(pair <= clusters[c] for pair in dropped) for c in gone)
        assert all(jt.cluster(c) == vs for c, vs in clusters.items() if c not in gone)
        kept = {(a, b): sep for (a, b), sep in edges.items() if a not in gone and b not in gone}
        assert all(jt.has_edge(a, b) and jt.separator(a, b) == sep for (a, b), sep in kept.items())
        assert trace.new_jt_ids == set(jt.cluster_ids()) - clusters.keys()
        assert validate(model).passed
        split += len(gone)
    assert split > 0
    assert mpd_equal(model.mpd, full_recompile(model.dag.copy()).mpd)


# -- the shared rebuild tail ----------------------------------------------------


@pytest.mark.parametrize("case", [6, 187])
def test_a_regroup_retests_every_separator_the_rebuild_may_have_changed(case):
    # banded replay models whose grouping must not be kept where the
    # rebuild changed a separator: in case 6 a node removal cuts its
    # variable out of kept cliques, and in case 187 a split's half is
    # absorbed by a kept clique, which gains an edge to another kept clique
    # (flushes 4 and 3 split an MPS); every flush must pass validate and
    # match a full recompile's MPS tree
    model, batches = replay.random_case(case, banded=True)
    for f in range(replay.FLUSHES):
        trace = BatchTrace()
        incremental_compile(model, next(batches), trace)
        record = replay.flush_record("banded", str(case), f, model, trace)
        assert record["valid"] and record["mpd_equal"], f


# -- exact link insertion ------------------------------------------------------


def test_the_link_path_test_agrees_with_chordality_and_insertion_keeps_a_junction_tree():
    # on min-fill triangulations of seeded random nets, a non-adjacent pair
    # is insertable iff H plus the pair is chordal; an insertion leaves a
    # tree whose clusters are the maximal cliques of H + uv, with running
    # intersection, and a refused pair leaves the tree and the region as
    # they were
    rng = Random(2024)
    inserted = refused = 0
    for _ in range(60):
        model = full_recompile(random_dag(rng.randint(4, 30), rng, edge_prob=rng.choice([0.1, 0.2, 0.3])))
        h = model.moral.union(model.fill)
        nodes = sorted(h.vertices())
        pairs = [(u, v) for u in nodes for v in nodes if u < v and not h.has_edge(u, v)]
        for u, v in rng.sample(pairs, min(6, len(pairs))):
            tree, region = model.jt.copy(), set(model.jt.cluster_ids())
            g = h.union(UndirectedGraph.from_edges(nodes, [(u, v)]))
            k = _insert_link(tree, region, u, v)
            assert (k is not None) == is_chordal(g)[0]
            if k is None:
                assert replay.tree_record(tree) == replay.tree_record(model.jt)
                assert region == set(model.jt.cluster_ids())
                refused += 1
                continue
            assert tree.cluster(k) >= {u, v} and region == set(tree.cluster_ids())
            assert tree.is_tree() and tree.cluster_multiset() == Counter(extract_cliques(g))
            assert all(tree.reach(min(cs), cs.__contains__) == cs for cs in holders_of(tree).values())
            inserted += 1
    assert inserted > 50 and refused > 50


def test_a_region_with_an_insertable_and_a_refused_link_ends_as_min_fill_leaves_it(monkeypatch):
    # AddArc(11, 3) adds two links that H lacks: the first is inserted, the
    # second then cannot be, so the region is re-triangulated by min-fill
    # and ends as a rebuild that places no link, but for the ids: the
    # min-fill cliques' fresh ids come after the clique the first link made
    rng = Random(5)
    model = full_recompile(random_dag(rng.randint(8, 20), rng, edge_prob=0.2))
    h = model.moral.union(model.fill)
    reference = model.copy()
    trace = BatchTrace()
    incremental_compile(model, [AddArc(11, 3)], trace)
    missing = [(l.u, l.v) for l in trace.mods[0].links if not h.has_edge(l.u, l.v)]
    region = set().union(*(bnic.engine._group(reference.jt, reference.owner, m) for m in trace.marked_ids()))
    assert len(missing) == 2 and _insert_link(reference.jt.copy(), set(region), *missing[0]) is not None
    assert [s.path for s in trace.subtrees] == ["re-triangulated"]
    monkeypatch.setattr(bnic.engine, "_insert_link", lambda tree, region, u, v: None)
    reference_trace = BatchTrace()
    incremental_compile(reference, [AddArc(11, 3)], reference_trace)
    a, b = (replay.flush_record("", "", 0, m, t) for m, t in ((model, trace), (reference, reference_trace)))
    assert all(a[k] == b[k] for k in ("cliques", "mps", "shape", "fill"))
    assert [s.path for s in trace.subtrees] == [s.path for s in reference_trace.subtrees]
    assert model.jt.next_id == reference.jt.next_id + 1


def _arc_inserting_two_links(model):
    """The first arc whose trial flush, on a copy, inserts two links H lacks into one region."""
    dag, h = model.dag, model.moral.union(model.fill)
    for u in dag.nodes():
        for v in dag.nodes():
            if u != v and not dag.has_arc(u, v) and not dag.has_path(v, u):
                trace = BatchTrace()
                incremental_compile(model.copy(), [AddArc(u, v)], trace)
                lacked = [l for l in trace.mods[0].links if not h.has_edge(l.u, l.v)]
                if len(lacked) == 2 and [s.path for s in trace.subtrees] == ["inserted"]:
                    return u, v
    raise AssertionError("no arc inserts two links into one region")


def test_each_link_a_region_takes_is_inserted_once(monkeypatch):
    # a region that takes two links H lacks inserts each once, straight
    # into the junction tree
    model = full_recompile(random_dag(20, Random(5), edge_prob=0.2))
    u, v = _arc_inserting_two_links(model)
    calls = Counter()
    insert = bnic.engine._insert_link

    def counted_insert(*args):
        calls["insert"] += 1
        return insert(*args)

    monkeypatch.setattr(bnic.engine, "_insert_link", counted_insert)
    trace = BatchTrace()
    incremental_compile(model, [AddArc(u, v)], trace)
    assert calls == {"insert": 2} and [s.path for s in trace.subtrees] == ["inserted"]
    assert validate(model).passed


def test_insertion_keeps_the_fill_near_a_full_recompile_over_a_long_arc_stream():
    # 300 single-arc edits: every flush's MPS tree equals a full
    # recompile's, and the engine's fill, summed over the flushes and at
    # the end, stays within 1.05 times the recompiles'
    dag = random_dag(60, Random(1), edge_prob=0.06)
    model = full_recompile(dag)
    paths = Counter()
    engine_fill = reference_fill = 0
    for mod in random_arc_edits(dag, 300, Random(1)):
        trace = BatchTrace()
        incremental_compile(model, [mod], trace)
        paths.update(s.path for s in trace.subtrees)
        reference = full_recompile(model.dag.copy())
        assert mpd_equal(model.mpd, reference.mpd)
        engine_fill += model.fill.edge_count()
        reference_fill += reference.fill.edge_count()
    assert paths["inserted"] > 20 and paths["re-triangulated"] > 20
    assert engine_fill <= 1.05 * reference_fill
    assert model.fill.edge_count() <= 1.05 * reference.fill.edge_count()


def test_trace_ids_name_live_cliques_and_mpss():
    # the first 1,500 flushes of the replay's random stream
    flushes = 0
    for _, _, model, trace in replay.random_flushes(300):
        assert trace.new_jt_ids <= set(model.jt.cluster_ids())
        assert trace.new_mpd_ids <= set(model.owner.values())
        flushes += 1
    assert flushes == 1500


def test_rebuilt_regions_rehost_families_by_the_shared_rule(monkeypatch):
    # every rebuild of the replay's first 1,500 random flushes: a family
    # whose host died or stopped covering it sits on the smallest clique
    # covering it, of the region's live cliques and the outside cliques that
    # absorbed a piece (ties: lower id), by a scan of them all; every other
    # family stays; every absorbed piece is complete in the moral graph.
    # Each flush with a region that absorbed a piece and was re-triangulated
    # or took inserted links, both of which make new cliques, must pass
    # validate and match a full recompile.
    rebuild = bnic.engine._rebuild_subtree
    absorbing = []

    def checked(model, doomed, links, grown):
        jt, dag = model.jt, model.dag
        start, before = jt.next_id, dict(model.family)
        result = rebuild(model, doomed, links, grown)
        _, thinned, inserted, pieces, _ = result
        assert all(model.moral.is_complete(piece) for piece, _ in pieces)
        hosts = sorted({c for c in jt.cluster_ids() if c in doomed or c >= start} | {c for _, c in pieces})
        for v, host in before.items():
            family = frozenset((v, *dag.parents(v)))
            if host in doomed and (host not in jt or not family <= jt.cluster(host)):
                covers = [c for c in hosts if family <= jt.cluster(c)]
                assert model.family[v] == min(covers, key=lambda c: (len(jt.cluster(c)), c))
            else:
                assert model.family[v] == host
        absorbing.append(bool(pieces) and (inserted or not thinned))
        return result

    monkeypatch.setattr(bnic.engine, "_rebuild_subtree", checked)
    flushes = 0
    for _, _, model, _ in replay.random_flushes(300):
        if any(absorbing):
            assert validate(model).passed
            assert mpd_equal(model.mpd, full_recompile(model.dag.copy()).mpd)
            flushes += 1
        absorbing.clear()
    assert flushes > 80


@pytest.mark.parametrize("edit", ["add-arc A X", "remove-node D"])
def test_an_absorbed_piece_incomplete_in_the_moral_graph_raises(asia_model, monkeypatch, edit):
    # the re-triangulated region of A -> X splices and absorbs; the thinned
    # region of D's removal absorbs its cut cliques; both report a piece
    # {S X}, whose ends the moral graph does not join, into an unmarked clique
    t = asia_model.dag.table
    kind, *names = edit.split()
    ids = [t.id(n) for n in names]
    mods = [AddArc(*ids)] if kind == "add-arc" else expand_remove_node(asia_model.dag, ids[0])
    probe = asia_model.copy()
    trace = BatchTrace()
    incremental_compile(probe, mods, trace)
    assert trace.subtrees[0].thinned == (kind == "remove-node")
    outside = next(c for c, m in asia_model.owner.items() if m not in trace.marked_ids())
    real = bnic.engine.absorb_non_maximal

    def reporting(tree, ids=None):
        return real(tree, ids) + [(frozenset({t.id("S"), t.id("X")}), outside)]

    monkeypatch.setattr(bnic.engine, "absorb_non_maximal", reporting)
    with pytest.raises(InconsistencyError, match="not complete in the moral graph"):
        incremental_compile(asia_model, mods)


def _flush_of_random_case(case, flush):
    # the model of the replay's random stream for this case, flushed up to
    # the given flush; returns it and that flush's batch
    model, batches = replay.random_case(case)
    for _ in range(flush):
        incremental_compile(model, next(batches))
    return model, next(batches)


def test_a_batch_adding_and_removing_one_arc_thins_across_the_rewired_edge():
    # the added arc rewires an empty junction edge to one whose ends share
    # nothing; removing the arc again cancels its links, so the region
    # thins without splitting those ends
    for case, flush, batch in [
        (0, 3, [AddNode("r30"), AddArc(1, 19), RemoveArc(1, 19)]),
        (6, 2, [AddArc(13, 4), RemoveArc(13, 4)]),
    ]:
        model, mods = _flush_of_random_case(case, flush)
        assert mods == batch
        trace = BatchTrace()
        incremental_compile(model, mods, trace)
        assert any(rec.rewired for rec in trace.mods) and all(sub.thinned for sub in trace.subtrees)
        assert validate(model).passed
        assert mpd_equal(model.mpd, full_recompile(model.dag.copy()).mpd)


def test_phase_one_leaves_every_cluster_as_it_was():
    # asia with an isolated Z: removing D and adding A -> Z, which rewires
    # Z's empty separator, marks MPSs and edits no cluster's vertex set
    dag = build_asia()
    z = dag.add_node("Z")
    t = dag.table
    batch = [*expand_remove_node(dag, t.id("D")), AddArc(t.id("A"), z)]
    model = full_recompile(dag.copy())
    before = [{c: tree.cluster(c) for c in tree.cluster_ids()} for tree in (model.jt, model.mpd)]
    marked = set()
    rewirings = [_phase_one(model, mod, marked) for mod in batch]
    assert any(rewirings) and any(t.id("D") in model.mpd.cluster(c) for c in model.mpd.cluster_ids())
    assert [{c: tree.cluster(c) for c in tree.cluster_ids()} for tree in (model.jt, model.mpd)] == before
    model = full_recompile(dag.copy())
    incremental_compile(model, batch)
    assert validate(model).passed
    assert mpd_equal(model.mpd, full_recompile(model.dag.copy()).mpd)


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
    # the split of LEB hands its half LE to the outside clique TLE in place
    assert {name_set(t, c) for c in sub.new_cliques} == {frozenset("SL"), frozenset("SB")}
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
            for k in (k for k, o in old.owner.items() if o == m):
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


def test_a_batch_given_as_a_generator_is_applied():
    # the batch is walked once, by the pass that applies it, and its
    # records serve the marking after it
    model = incremental_compile(full_recompile(Dag()), (m for m in [AddNode("a"), AddNode("b")]))
    assert sorted(model.dag.table.name(v) for v in model.dag.nodes()) == ["a", "b"]
    assert len(model.jt) == 2 and validate(model).passed


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
    moral = model.moral.copy()
    with pytest.raises(CycleError):
        incremental_compile(model, [RemoveArc(a, d), AddArc(c, b)])
    assert model.dag == dag
    assert model.moral == moral
    assert model.jt.cluster_multiset() == clusters
    assert validate(model).passed


def _dag_state(dag):
    # everything a failed transaction must restore, insertion orders included
    t = dag.table
    return (
        t.next_id,
        dict(t._name_of),
        dict(t._id_of),
        {v: list(ps) for v, ps in dag._parents.items()},
        {v: list(cs) for v, cs in dag._children.items()},
    )


def test_rejected_batch_restores_ids_and_arc_order():
    # the batch reaches the model's own dag, and a raise puts it back
    dag = Dag()
    a, b, c, d = (dag.add_node(name) for name in "ABCD")
    for p, ch in [(d, b), (a, b), (b, c), (a, c), (d, c)]:
        dag.add_arc(p, ch)
    model = full_recompile(dag.copy())
    before = _dag_state(model.dag)
    moral = model.moral.copy()
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
        assert model.moral == moral
        assert {v: expand_remove_node(model.dag, v) for v in (a, b, d)} == order
        assert model.dag == dag and validate(model).passed
    assert model.dag.add_node("F") == 4


def test_an_inconsistent_moral_graph_rejects_the_whole_batch():
    # the stray moral edge on x shows only at the last edit, after the
    # earlier ones changed the dag and the moral graph
    dag = Dag()
    a, b, x = (dag.add_node(n) for n in "abx")
    dag.add_arc(a, b)
    model = full_recompile(dag)
    model.moral.add_edge(x, a)
    before, moral = _dag_state(model.dag), model.moral.copy()
    with pytest.raises(InconsistencyError, match="node 2 still has moral edges"):
        incremental_compile(model, [AddNode("c"), AddArc(3, b), RemoveArc(a, b), RemoveNode(x)])
    assert _dag_state(model.dag) == before
    assert model.moral == moral


def test_a_moral_graph_lacking_a_family_vertex_rejects_the_added_arc_whole():
    # z -> b with z gone from the moral graph: adding a -> b raises before
    # its first moral link goes in, so the undo has no link to miss
    dag = Dag()
    a, b, z = (dag.add_node(n) for n in "abz")
    dag.add_arc(z, b)
    model = full_recompile(dag)
    model.moral.remove_vertex(z)
    before, moral = _dag_state(model.dag), model.moral.copy()
    with pytest.raises(InconsistencyError, match="lacks a vertex of the family of 1"):
        incremental_compile(model, [AddArc(a, b)])
    assert _dag_state(model.dag) == before
    assert model.moral == moral


def test_a_moral_graph_lacking_a_removed_node_rejects_the_batch_whole():
    # b gone from the moral graph: removing it raises InconsistencyError,
    # not a KeyError from reading its neighbours, and the batch is undone
    dag = Dag()
    a, b = (dag.add_node(n) for n in "ab")
    dag.add_arc(a, b)
    model = full_recompile(dag)
    model.moral.remove_vertex(b)
    before, moral = _dag_state(model.dag), model.moral.copy()
    with pytest.raises(InconsistencyError, match="the moral graph lacks node 1"):
        incremental_compile(model, [RemoveArc(a, b), RemoveNode(b)])
    assert _dag_state(model.dag) == before
    assert model.moral == moral


def test_each_edit_reaches_the_dag_once(asia_model, monkeypatch):
    # one pass applies the batch: no edit is replayed, and an added arc
    # searches for a cycle once
    calls = Counter()
    apply, has_path = bnic.engine.apply_modification, Dag.has_path

    def counted_apply(dag, mod):
        calls["apply"] += 1
        return apply(dag, mod)

    def counted_has_path(dag, src, dst):
        calls["has_path"] += 1
        return has_path(dag, src, dst)

    monkeypatch.setattr(bnic.engine, "apply_modification", counted_apply)
    monkeypatch.setattr(Dag, "has_path", counted_has_path)
    t = asia_model.dag.table
    mods = [AddNode("Z"), AddArc(t.id("A"), t.id("E")), AddArc(t.id("S"), t.id("X")), RemoveArc(t.id("S"), t.id("L"))]
    incremental_compile(asia_model, mods, BatchTrace())
    assert calls == {"apply": 4, "has_path": 2}
    assert validate(asia_model).passed


def _two_local_arc_edits():
    dag = banded_dag(2000, Random(3))  # a new dag, so node b{i} has id i
    p, c = next((p, c) for p, c in dag.arcs() if p > 1000)
    u, w = next((i, i + 2) for i in range(1500, 2000) if not dag.has_arc(i, i + 2))
    return dag, [RemoveArc(p, c), AddArc(u, w)]


def _isolated_hub_removal():
    # the isolated h comes first, so its singleton clique is the hub of a
    # star of empty separators, one per component; removing h empties it
    dag = Dag()
    h = dag.add_node("h")
    banded_dag(2000, Random(3), dag)
    return dag, [RemoveNode(h)]


def test_local_flush_walks_no_whole_tree_and_copies_no_dag(monkeypatch):
    for flush in (_two_local_arc_edits, _isolated_hub_removal):
        dag, mods = flush()
        model = full_recompile(dag)
        emptied = isinstance(mods[0], RemoveNode)
        if emptied:
            assert len(model.mpd.neighbors(model.owner[model.family[mods[0].node]])) >= 2

        calls = {"whole-tree reach": 0, "copy": 0}
        reach, copy = ClusterTree.reach, Dag.copy

        def counted_reach(self, start, keep):
            found = reach(self, start, keep)
            calls["whole-tree reach"] += len(found) == len(self)
            return found

        def counted_copy(self):
            calls["copy"] += 1
            return copy(self)

        monkeypatch.setattr(ClusterTree, "reach", counted_reach)
        monkeypatch.setattr(Dag, "copy", counted_copy)
        trace = BatchTrace()
        incremental_compile(model, mods, trace)
        assert calls == {"whole-tree reach": 0, "copy": 0}
        assert trace.subtrees and all(bool(s.variables) != emptied for s in trace.subtrees)
        monkeypatch.undo()
        assert model.jt.is_tree() and model.mpd.is_tree()
        assert validate(model).passed
        assert mpd_equal(model.mpd, full_recompile(model.dag.copy()).mpd)


def test_junction_cycle_after_a_rebuild_raises(asia_model, monkeypatch):
    # the closing edge count is the only junction-tree check of a flush
    rebuild = bnic.engine._rebuild_subtree

    def rebuild_with_extra_edge(model, comp, *batch):
        result = rebuild(model, comp, *batch)
        jt = model.jt
        ids = jt.cluster_ids()
        a, b = next((a, b) for a in ids for b in ids if a < b and not jt.has_edge(a, b))
        jt.add_edge(a, b)
        return result

    monkeypatch.setattr(bnic.engine, "_rebuild_subtree", rebuild_with_extra_edge)
    t = asia_model.dag.table
    with pytest.raises(InconsistencyError, match="junction clusters"):
        incremental_compile(asia_model, [RemoveArc(t.id("A"), t.id("T"))])


def test_a_clique_owned_apart_from_its_mps_fails_mpd_owner():
    # an owner naming an MPS whose group the clique does not touch, which
    # the group walks of a flush would never reach: validate, which
    # re-aggregates, names that clique
    rng = Random(515)
    flagged = 0
    for _ in range(40):
        model = full_recompile(random_dag(rng.randint(6, 25), rng, edge_prob=rng.choice([0.1, 0.2, 0.3])))
        jt, owner = model.jt, model.owner
        m = owner[model.family[rng.choice(model.dag.nodes())]]
        group = {c for c, o in owner.items() if o == m}
        near = group | {nb for c in group for nb in jt.neighbors(c)}
        stray = next((c for c in jt.cluster_ids() if c not in near), None)
        if stray is None:
            continue
        owner[stray] = m
        failed = [c for c in validate(model).checks if not c.passed]
        assert [c.name for c in failed] == ["mpd_owner"]
        assert failed[0].detail.startswith(f"clique {stray} has owner {m},")
        flagged += 1
    assert flagged > 10


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


# -- tracing ------------------------------------------------------------------


def _model_state(model):
    jt = model.jt
    clusters = [(c, jt.cluster(c)) for c in jt.cluster_ids()]
    return clusters, jt.edges(), list(model.owner.items()), model.family, model.fill, model.moral


def test_tracing_only_observes():
    # each seeded stream is flushed twice, traced and untraced; after every
    # flush both models agree on the junction tree with its ids, the owner
    # map in key order, the family map, the fill and the moral graph
    rng = Random(4242)
    paths = Counter()
    for k in range(40):
        n = rng.randint(2, 40)
        dag = banded_dag(n, rng) if k % 2 else random_dag(n, rng, edge_prob=rng.choice([0.1, 0.25]))
        traced, plain = full_recompile(dag.copy()), full_recompile(dag)
        for _ in range(5):
            script = random_script(plain.dag, rng.randint(1, 10), rng)
            trace = BatchTrace()
            incremental_compile(traced, script, trace)
            incremental_compile(plain, script)
            assert _model_state(traced) == _model_state(plain)
            paths.update(s.thinned for s in trace.subtrees)
            paths["rewired"] += sum(bool(rec.rewired) for rec in trace.mods)
    assert min(paths[True], paths[False], paths["rewired"]) > 10


# -- the stored fill -----------------------------------------------------------


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
    # the fill the engine keeps through rebuilds and node removals is the
    # non-moral pairs inside the clusters, after each whole-script batch
    # and after each single-edit flush
    rng = Random(2024)
    removals = multi = fills = 0
    for _ in range(25):
        dag = random_dag(rng.randint(4, 18), rng, edge_prob=0.3)
        script = random_script(dag, 10, rng)
        batch = full_recompile(dag.copy())
        simple = full_recompile(dag.copy())
        for model, mods in [(batch, script)] + [(simple, [mod]) for mod in script]:
            trace = BatchTrace()
            incremental_compile(model, mods, trace)
            removals += any(isinstance(mod, RemoveNode) for mod in mods)
            multi += len(trace.subtrees) > 1
            assert set(model.fill.vertices()) == set(model.moral.vertices())
            assert model.fill.edge_set() == _derive_fill_reference(model.moral, model.jt)
            assert model.copy().fill == model.fill
            # a rebuild leaves no cluster inside a neighbour for a scan to absorb
            assert absorb_non_maximal(model.jt.copy(), model.jt.cluster_ids()) == []
            fills += model.fill.edge_count() > 0
    assert removals > 0 and multi > 0 and fills > 0


def test_compiled_fill_is_the_cluster_implied_fill():
    rng = Random(31)
    for _ in range(30):
        dag = random_dag(rng.randint(0, 20), rng, edge_prob=0.3)
        model = full_recompile(dag)
        assert model.tri.fill == derive_triangulation(model.moral, model.jt).fill
