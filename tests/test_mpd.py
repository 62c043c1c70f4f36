from collections import Counter
from random import Random

from bnic import (
    BatchTrace,
    ClusterTree,
    Dag,
    UndirectedGraph,
    full_recompile,
    incremental_compile,
    is_chordal,
    moralize,
    random_dag,
    random_script,
)
from bnic.mpd import aggregate_cliques, group_owners
from bnic.pipeline import build_join_tree, construct_join_tree, extract_cliques

from conftest import banded_dag, cluster_names, edited, family_hosts, holders_of, name_set


def test_aggregate_asia(asia, asia_model):
    t = asia.table
    assert set(cluster_names(asia_model.mpd, t)) == {
        frozenset("AT"),
        frozenset("TLE"),
        frozenset("SLBE"),
        frozenset("EBD"),
        frozenset("EX"),
    }
    # every clique has an owner, and each MPS is the union of its cliques
    # under the least id among them
    owner = asia_model.owner
    assert sorted(owner) == asia_model.jt.cluster_ids()
    for m in asia_model.mpd.cluster_ids():
        cs = [c for c, o in owner.items() if o == m]
        assert min(cs) == m
        assert frozenset().union(*(asia_model.jt.cluster(c) for c in cs)) == asia_model.mpd.cluster(m)


def test_aggregate_is_identity_when_all_separators_complete(asia):
    # the projection graph after removing L->E: every separator is complete
    t = asia.table
    gm = moralize(asia)
    gm.remove_edge(t.id("L"), t.id("E"))
    gm.remove_edge(t.id("T"), t.id("L"))
    sub = gm.induced({t.id(n) for n in "TLEBS"})
    tree = construct_join_tree(sub, UndirectedGraph(sub.vertices()), ClusterTree()).tree
    mpd, owner = aggregate_cliques(tree, sub)
    assert mpd.cluster_multiset() == tree.cluster_multiset()
    assert mpd.separator_multiset() == tree.separator_multiset()
    assert all(m == c for c, m in owner.items())


def _aggregate_by_restart_scan(jt, gm, family, rng):
    # Reference: contract one incomplete separator at a time, drawn by rng
    # from those left after rescanning the whole tree; the merged cluster
    # keeps the smaller id, and the family map follows each merge.
    mpd = jt.copy()
    while True:
        incomplete = [(a, b) for a, b, sep in mpd.edges() if not gm.is_complete(sep)]
        if not incomplete:
            return mpd, family
        a, b = rng.choice(incomplete)
        keep, gone = min(a, b), max(a, b)
        merged = mpd.cluster(keep) | mpd.cluster(gone)
        mpd.merge_into(gone, keep)
        mpd = edited(mpd, {keep: merged})
        family = {v: keep if c == gone else c for v, c in family.items()}


def test_aggregate_result_is_merge_order_independent():
    for seed in (11, 12, 13):
        dag = random_dag(24, Random(seed), edge_prob=0.25)
        gm = moralize(dag)
        tree = construct_join_tree(gm, UndirectedGraph(gm.vertices()), ClusterTree()).tree
        family = family_hosts(dag, tree)
        one_pass, owner = aggregate_cliques(tree, gm)
        assert len(tree) - len(one_pass) >= 5
        clusters = {c: one_pass.cluster(c) for c in one_pass.cluster_ids()}
        for shuffle_seed in range(20):
            scanned, scanned_family = _aggregate_by_restart_scan(tree, gm, family, Random(shuffle_seed))
            assert {c: scanned.cluster(c) for c in scanned.cluster_ids()} == clusters
            assert scanned.edges() == one_pass.edges()
            assert scanned_family == {v: owner[c] for v, c in family.items()}


def test_mpd_separators_complete_and_rip(asia_model):
    moral, mpd = asia_model.moral, asia_model.mpd
    assert mpd.is_tree()
    for _, _, sep in mpd.edges():
        assert moral.is_complete(sep)
    for members in holders_of(mpd).values():
        start = next(iter(members))
        seen, stack = {start}, [start]
        while stack:
            c = stack.pop()
            for nb in mpd.neighbors(c):
                if nb in members and nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        assert seen == members


def test_decomposition_invariant_across_minimal_triangulations(asia):
    # the chest-clinic square S-L-E-B admits two minimal fills; both give
    # the same decomposition multisets
    t = asia.table
    gm = moralize(asia)

    def mpd_from_fill(u, v):
        gt = gm.copy()
        gt.add_edge(t.id(u), t.id(v))
        assert is_chordal(gt) == (True, None)
        tree = build_join_tree(extract_cliques(gt), ClusterTree()).tree
        mpd, _ = aggregate_cliques(tree, gm)
        return mpd

    via_lb = mpd_from_fill("L", "B")
    via_se = mpd_from_fill("S", "E")
    assert via_lb.cluster_multiset() == via_se.cluster_multiset()
    assert via_lb.separator_multiset() == via_se.separator_multiset()
    assert Counter(name_set(t, vs) for vs in via_lb.cluster_multiset()) == Counter(
        [
            frozenset("AT"),
            frozenset("TLE"),
            frozenset("SLBE"),
            frozenset("EBD"),
            frozenset("EX"),
        ]
    )


def _aggregate_by_copy_and_components(jt, gm):
    # Reference: the former aggregation.  Copy the junction tree, cut its
    # complete separators, contract each remaining component into its
    # least id and join the groups by the complete separators.
    mpd = jt.copy()
    complete = [(a, b, sep) for a, b, sep in jt.edges() if gm.is_complete(sep)]
    for a, b, _ in complete:
        mpd.remove_edge(a, b)
    groups = {min(comp): comp for comp in mpd.components()}
    root = {c: r for r, comp in groups.items() for c in comp}
    for r, comp in groups.items():
        for c in comp - {r}:
            mpd.remove_cluster(c)
    mpd = edited(mpd, {r: frozenset().union(*(jt.cluster(c) for c in comp)) for r, comp in groups.items()})
    for a, b, sep in complete:
        mpd.add_edge(root[a], root[b], sep)
    return mpd, root


def _assert_aggregates_like_the_reference(jt, gm):
    mpd, owner = aggregate_cliques(jt, gm)
    ref, root = _aggregate_by_copy_and_components(jt, gm)
    assert {c: mpd.cluster(c) for c in mpd.cluster_ids()} == {c: ref.cluster(c) for c in ref.cluster_ids()}
    assert mpd.edges() == ref.edges() and mpd.edge_count() == ref.edge_count()
    assert owner == root
    # fresh ids continue where the reference's do
    assert mpd.add_cluster(()) == ref.add_cluster(())
    return len(jt) - len(mpd)


def test_aggregate_matches_the_copy_and_components_reference():
    merges = spliced = 0
    rng = Random(2024)
    for _ in range(40):
        dag = random_dag(rng.randint(1, 40), rng, edge_prob=rng.choice([0.05, 0.15, 0.3]))
        model = full_recompile(dag)
        merges += _assert_aggregates_like_the_reference(model.jt, model.moral)
        for _ in range(3):
            incremental_compile(model, random_script(model.dag, rng.randint(1, 8), rng))
            merges += _assert_aggregates_like_the_reference(model.jt, model.moral)
            spliced += 1
    assert merges > 100 and spliced == 120


def _owners_by_sorted_union_find(jt, gm):
    # Reference: the union-find over the sorted edges() list, each union
    # keeping the smaller root.
    owner = {c: c for c in jt.cluster_ids()}

    def find(c):
        while owner[c] != c:
            c = owner[c]
        return c

    for a, b, sep in jt.edges():
        if not gm.is_complete(sep):
            ra, rb = find(a), find(b)
            owner[max(ra, rb)] = min(ra, rb)
    return {c: find(c) for c in owner}


def _mps_tree_by_add_edge(jt, owner):
    # Reference: the group unions, joined by add_edge over the sorted edges() list.
    members = {}
    for c, m in owner.items():
        members.setdefault(m, []).append(jt.cluster(c))
    tree = ClusterTree({m: frozenset().union(*vss) for m, vss in members.items()}, jt.next_id)
    for a, b, sep in jt.edges():
        if owner[a] != owner[b]:
            tree.add_edge(owner[a], owner[b], sep)
    return tree


def _assert_one_walk_matches_the_sorted_references(jt, gm):
    owner = group_owners(jt, gm)
    assert list(owner.items()) == list(_owners_by_sorted_union_find(jt, gm).items())
    mpd, ref = jt.quotient(owner), _mps_tree_by_add_edge(jt, owner)
    assert [(c, mpd.cluster(c)) for c in mpd.cluster_ids()] == [(c, ref.cluster(c)) for c in ref.cluster_ids()]
    assert mpd.edges() == ref.edges() and mpd.edge_count() == ref.edge_count()
    assert mpd.next_id == ref.next_id == jt.next_id
    for tree in (jt, mpd):
        assert tree.separator_multiset() == Counter(sep for _, _, sep in tree.edges())
    return len(jt) - len(mpd)


def test_owner_map_and_mps_tree_match_the_sorted_edge_references():
    # seeded random and banded models, compiled and then flushed; the
    # flushes must include rewired separators and absorbed pieces
    merges = rewired = absorbed = 0
    models = [random_dag(Random(seed).randint(5, 40), Random(seed), edge_prob=0.15) for seed in range(20)]
    models += [banded_dag(n, Random(n)) for n in (30, 60, 120)]
    for k, dag in enumerate(models):
        rng = Random(100 + k)
        model = full_recompile(dag)
        merges += _assert_one_walk_matches_the_sorted_references(model.jt, model.moral)
        for _ in range(4):
            trace = BatchTrace()
            incremental_compile(model, random_script(model.dag, rng.randint(1, 8), rng), trace)
            merges += _assert_one_walk_matches_the_sorted_references(model.jt, model.moral)
            rewired += sum(len(rec.rewired) for rec in trace.mods)
            absorbed += len(trace.absorbed)
    assert merges > 100 and rewired > 0 and absorbed > 0
    empty = full_recompile(Dag())
    assert _assert_one_walk_matches_the_sorted_references(empty.jt, empty.moral) == 0
