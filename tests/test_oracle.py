import hashlib
import json
from random import Random

import pytest

from bnic import (
    ClusterTree,
    CompiledModel,
    Dag,
    RemoveArc,
    UndirectedGraph,
    full_recompile,
    incremental_compile,
    is_chordal,
    moralize,
    mpd_equal,
    random_dag,
    random_script,
    stability,
    validate,
)

from bnic.mpd import aggregate_cliques
from bnic.oracle import Check, ValidityReport, oracle, random_arc_edits
from bnic.pipeline import build_join_tree, extract_cliques
from conftest import cluster_names, edited, family_hosts


def test_full_recompile_asia(asia):
    model = full_recompile(asia)
    assert set(cluster_names(model.mpd, asia.table)) == {
        frozenset("AT"),
        frozenset("TLE"),
        frozenset("SLBE"),
        frozenset("EBD"),
        frozenset("EX"),
    }
    assert validate(model).passed


def test_full_recompile_empty_dag():
    model = full_recompile(Dag())
    assert len(model.jt) == 0 and len(model.mpd) == 0
    assert validate(model).passed


def test_incremental_and_full_agree_after_arc_removal(asia, asia_model):
    t = asia.table
    incremental_compile(asia_model, [RemoveArc(t.id("L"), t.id("E"))])
    reference = full_recompile(asia_model.dag.copy())
    assert mpd_equal(asia_model.mpd, reference.mpd)


def test_validate_passes_on_fresh_compilations():
    rng = Random(5)
    for _ in range(15):
        dag = random_dag(rng.randint(0, 14), rng, edge_prob=0.3)
        assert validate(full_recompile(dag)).passed


def _with_fill(dag, fill):
    # A model over dag whose triangulation is the moral graph plus fill,
    # with every other structure derived from that triangulation.
    gm = moralize(dag)
    fill = UndirectedGraph.from_edges(gm.vertices(), fill)
    gt = gm.copy()
    for u, v in fill.edges():
        gt.add_edge(u, v)
    tree = build_join_tree(extract_cliques(gt), ClusterTree()).tree
    family = family_hosts(dag, tree)
    _, owner = aggregate_cliques(tree, fill)
    return CompiledModel(dag, gm, tree, owner, family, fill)


def test_validate_passes_when_the_fill_lacks_a_separator_vertex():
    # a -> b -> c: the one separator {b} holds no fill pair when the fill
    # graph lacks b, so the owner check keeps the two cliques apart
    dag = Dag()
    a, b, c = (dag.add_node(n) for n in "abc")
    dag.add_arc(a, b)
    dag.add_arc(b, c)
    model = full_recompile(dag)
    model.fill.remove_vertex(b)
    report = validate(model)
    assert report.to_dict() == {
        "passed": True,
        "first_failure": None,
        "checks": [{"name": name, "passed": True, "detail": ""} for name in CHECK_NAMES],
    }


def _asia_with_both_diagonals(asia):
    t = asia.table
    fill = {frozenset((t.id("L"), t.id("B"))), frozenset((t.id("S"), t.id("E")))}
    return _with_fill(asia, fill)


def test_validate_flags_redundant_fill(asia):
    # the triangulation carries one fill edge too many
    report = validate(_asia_with_both_diagonals(asia))
    assert not report.passed
    assert report.first_failure == "triangulation_minimal"
    names = [c.name for c in report.checks]
    assert names.count("triangulation_minimal") == 1


def test_validate_names_the_missing_chord(asia):
    # the stored fill lost its edge {L, B}: the 4-cycle S-L-E-B has no
    # chord, and the first missing pair is {S, E}
    model = full_recompile(asia)
    t = asia.table
    assert model.tri.fill == {frozenset((t.id("L"), t.id("B")))}
    model.fill.remove_edge(t.id("L"), t.id("B"))
    failing = {c["name"]: c["detail"] for c in validate(model).to_dict()["checks"] if not c["passed"]}
    assert failing == {
        "triangulation_chordal": f"missing chord at {(t.id('S'), t.id('E'))}",
        "triangulation_minimal": "not checked: triangulation is not chordal",
        "cluster_completeness": "a cluster is incomplete in the triangulated graph",
        "cluster_maximality": "not checked: triangulation is not chordal",
        "mpd_owner": "not checked: triangulation_chordal, cluster_completeness failed",
    }


def test_mps_checks_say_what_they_checked(asia):
    # the owner check, whose prerequisites all hold, re-aggregates and names
    # the first clique whose owner differs; a broken junction tree leaves
    # it unchecked
    model = full_recompile(asia)
    k = max(model.owner)
    model.owner[k] = min(model.owner)
    failing = {c["name"]: c["detail"] for c in validate(model).to_dict()["checks"] if not c["passed"]}
    assert failing == {"mpd_owner": f"clique {k} has owner {min(model.owner)}, re-aggregation gives {k}"}
    a, b, _ = model.jt.edges()[0]
    model.jt.remove_edge(a, b)
    failing = {c["name"]: c["detail"] for c in validate(model).to_dict()["checks"] if not c["passed"]}
    assert failing == {
        "running_intersection": "the junction tree is not a tree",
        "mpd_owner": "not checked: running_intersection failed",
    }


def _redundant_fill_reference(tri):
    # One chordality test per fill edge, in sorted pair order: the first
    # edge whose removal leaves the triangulated graph chordal.
    gt = tri.graph()
    for pair in sorted(tri.fill, key=sorted):
        u, v = sorted(pair)
        probe = gt.copy()
        probe.remove_edge(u, v)
        if is_chordal(probe)[0]:
            return (u, v)
    return None


def _rip_offender_reference(jt, variables):
    # One search per variable over the clusters holding it.
    for v in variables:
        members = [c for c in jt.cluster_ids() if v in jt.cluster(c)]
        seen, stack = {members[0]}, [members[0]]
        while stack:
            for nb in jt.neighbors(stack.pop()):
                if nb in members and nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        if seen != set(members):
            return v
    return None


CHECK_NAMES = [
    "moral_graph",
    "triangulation_chordal",
    "triangulation_minimal",
    "running_intersection",
    "cluster_completeness",
    "cluster_maximality",
    "family_coverage",
    "mpd_owner",
]


def test_minimality_matches_single_edge_removal_probe():
    # Models built from a thinned triangulation plus up to two extra edges
    # that keep it chordal: every check but minimality passes, and
    # minimality names the reference's first redundant fill edge.
    rng = Random(23)
    flagged = 0
    for _ in range(60):
        dag = random_dag(rng.randint(2, 25), rng, edge_prob=rng.choice([0.1, 0.2, 0.35]))
        base = full_recompile(dag).tri
        fill, gt = set(base.fill), base.graph()
        vs = gt.vertices()
        for _ in range(rng.randint(0, 2)):
            for _ in range(50):
                u, v = sorted(rng.sample(vs, 2))
                probe = gt.copy()
                probe.add_edge(u, v)
                if not gt.has_edge(u, v) and is_chordal(probe)[0]:
                    gt = probe
                    fill.add(frozenset((u, v)))
                    break
        model = _with_fill(dag, fill)
        redundant = _redundant_fill_reference(model.tri)
        flagged += redundant is not None
        expected = [
            {"name": name, "passed": True, "detail": ""} for name in CHECK_NAMES
        ]
        if redundant is not None:
            expected[2] = {
                "name": "triangulation_minimal",
                "passed": False,
                "detail": f"fill edge {redundant} is redundant",
            }
        assert validate(model).to_dict()["checks"] == expected
    assert flagged >= 20


def test_running_intersection_matches_per_variable_search():
    # Adding one variable to one cluster may disconnect that variable's
    # clusters; the check must name the same first variable as a search.
    rng = Random(31)
    broken = 0
    for _ in range(60):
        dag = random_dag(rng.randint(3, 20), rng, edge_prob=0.25)
        model = full_recompile(dag)
        cid = rng.choice(model.jt.cluster_ids())
        model.jt = jt = edited(model.jt, {cid: model.jt.cluster(cid) | {rng.choice(dag.nodes())}})
        offender = _rip_offender_reference(jt, dag.nodes())
        broken += offender is not None
        rip = validate(model).checks[3]
        assert rip.name == "running_intersection"
        assert rip.passed == (offender is None)
        assert rip.detail == ("" if offender is None else f"violated for variable {offender}")
    assert broken >= 10


def test_running_intersection_reports_a_broken_tree(asia):
    model = _asia_with_both_diagonals(asia)
    a, b, _ = model.jt.edges()[0]
    model.jt.remove_edge(a, b)
    rip = validate(model).checks[3]
    assert (rip.name, rip.passed) == ("running_intersection", False)
    assert rip.detail == "the junction tree is not a tree"


def test_family_coverage_names_the_unhosted_variable(asia):
    model = _asia_with_both_diagonals(asia)
    d = asia.table.id("D")
    del model.family[d]
    fam = validate(model).checks[6]
    assert (fam.name, fam.passed) == ("family_coverage", False)
    assert fam.detail == f"family map variables differ from the dag's: missing [{d}], unknown []"


def test_family_coverage_names_a_host_that_lacks_a_parent(asia_model):
    # E's family host becomes a live clique that holds E but not both of
    # its parents; every other check still passes
    jt, e = asia_model.jt, asia_model.dag.table.id("E")
    family = frozenset((e, *asia_model.dag.parents(e)))
    asia_model.family[e] = next(c for c in jt.cluster_ids() if e in jt.cluster(c) and not family <= jt.cluster(c))
    assert _failed(asia_model) == ["family_coverage"]
    assert validate(asia_model).checks[6].detail == f"family of {e} is not hosted"


def _failed(model):
    return [c.name for c in validate(model).checks if not c.passed]


def test_mpd_owner_flags_a_remapped_owner(asia_model):
    owner = asia_model.owner
    c = min(owner)
    owner[c] = next(m for m in set(owner.values()) if m != owner[c])
    assert _failed(asia_model) == ["mpd_owner"]


def test_mpd_owner_flags_a_grouping_under_a_non_root_id(asia_model):
    # a two-clique MPS renamed after its larger clique: the grouping is
    # right, but an MPS id is the least clique of its group
    owner = asia_model.owner
    m = next(m for m in set(owner.values()) if sum(o == m for o in owner.values()) > 1)
    other = max(c for c, o in owner.items() if o == m)
    for c, o in owner.items():
        if o == m:
            owner[c] = other
    assert len(asia_model.mpd) == 5
    assert _failed(asia_model) == ["mpd_owner"]


def test_a_missing_owner_entry_fails_a_check_without_raising(asia_model):
    del asia_model.owner[asia_model.family[asia_model.dag.table.id("D")]]
    assert _failed(asia_model) == ["mpd_owner"]


def _with_stray_id(where, derived):
    # a model one of whose vertex sets, or a clique's owner, holds id 999,
    # which no structure knows
    model = full_recompile(random_dag(10, Random(3), edge_prob=0.4))
    tree = model.jt
    if where == "owner":
        model.owner[tree.cluster_ids()[0]] = 999
        return model
    c = tree.cluster_ids()[0]
    model.jt = tree = edited(tree, clusters={c: tree.cluster(c) | {999}})
    if derived:
        # the fill gains the pairs that complete the grown cluster
        model.fill.add_vertex(999)
        for v in tree.cluster(c) - {999}:
            model.fill.add_edge(999, v)
    return model


@pytest.mark.parametrize(
    "where, derived, failing",
    [
        ("cluster", False, "running_intersection"),
        ("cluster", True, "triangulation_chordal"),
        ("owner", False, "mpd_owner"),
    ],
)
def test_an_unknown_id_fails_a_check_without_raising(where, derived, failing):
    report = validate(_with_stray_id(where, derived)).to_dict()
    assert [c["name"] for c in report["checks"]] == CHECK_NAMES
    assert report["passed"] is False
    assert failing in [c["name"] for c in report["checks"] if not c["passed"]]
    if derived:
        details = {c["name"]: c["detail"] for c in report["checks"]}
        for name in ("triangulation_chordal", "cluster_completeness", "cluster_maximality"):
            assert details[name].startswith("not checked: unknown vertex")
        assert details["mpd_owner"].startswith("not checked: triangulation_chordal")


@pytest.mark.parametrize("case", ["moral-pair-added", "kept-pair-removed", "unheld-pair-added", "unknown-vertex"])
def test_a_corrupted_fill_fails_a_named_check(case):
    model = full_recompile(random_dag(40, Random(8), edge_prob=0.12))
    assert model.fill.edge_count() > 0 and validate(model).passed
    moral, kept, unheld = model.moral.edges()[0], model.fill.edges()[0], _redundant_extra_edge(model)
    if case == "moral-pair-added":
        model.fill.add_edge(*moral)
        failing, detail = "cluster_completeness", f"fill pair {moral} is a moral edge"
    elif case == "kept-pair-removed":
        model.fill.remove_edge(*kept)
        failing, detail = "triangulation_chordal", "missing chord at ("
    elif case == "unheld-pair-added":
        model.fill.add_edge(*unheld)
        failing, detail = "cluster_maximality", "clusters are not exactly the maximal cliques of the triangulated graph"
    else:
        model.fill.add_vertex(999)
        failing, detail = "triangulation_chordal", "not checked: unknown vertex 999"
    details = {c.name: c.detail for c in validate(model).checks if not c.passed}
    assert details[failing].startswith(detail)
    if case == "moral-pair-added":  # minimality is not blamed for a corrupt fill record
        assert details["triangulation_minimal"] == f"not checked: fill pair {moral} is a moral edge"


@pytest.mark.parametrize("case", ["grown-cluster", "unheld-pair-added"])
def test_completeness_is_scanned_when_maximality_fails(case):
    # validate takes completeness from a passing maximality, as maximal
    # cliques of H are complete in H; a failed maximality must still scan.
    # H stays chordal in both cases: a cluster grown by a vertex that misses
    # one of its members in H is incomplete, while a fill pair that no
    # cluster holds leaves every cluster complete
    model = full_recompile(random_dag(40, Random(8), edge_prob=0.12))
    jt, h = model.jt, model.tri.graph()
    if case == "grown-cluster":
        c, x = next(
            (c, x)
            for c in jt.cluster_ids()
            for x in sorted(h.vertices())
            if x not in jt.cluster(c) and not jt.cluster(c) <= h.neighbors(x)
        )
        model.jt = edited(jt, clusters={c: jt.cluster(c) | {x}})
    else:
        model.fill.add_edge(*_redundant_extra_edge(model))
    assert is_chordal(model.tri.graph())[0]
    checks = {c.name: c for c in validate(model).checks}
    maximality, completeness = checks["cluster_maximality"], checks["cluster_completeness"]
    assert not maximality.passed
    assert maximality.detail == "clusters are not exactly the maximal cliques of the triangulated graph"
    if case == "grown-cluster":
        assert not completeness.passed
        assert completeness.detail == "a cluster is incomplete in the triangulated graph"
    else:
        assert completeness.passed and completeness.detail == ""


def test_report_to_dict_is_json_ready(asia):
    report = validate(_asia_with_both_diagonals(asia))
    d = json.loads(json.dumps(report.to_dict()))
    assert d["passed"] is False
    assert d["first_failure"] == "triangulation_minimal"
    assert [c["name"] for c in d["checks"]] == CHECK_NAMES
    failing = [c for c in d["checks"] if not c["passed"]]
    assert [c["name"] for c in failing] == ["triangulation_minimal"]
    assert failing[0]["detail"].startswith("fill edge (")
    assert all(c["detail"] == "" for c in d["checks"] if c["passed"])
    assert validate(full_recompile(asia)).to_dict()["passed"] is True


def test_report_text_has_a_line_per_check_and_a_verdict():
    # a passed check's detail is not shown; a failed one's is, when it has one
    report = ValidityReport((Check("a", True, "unshown"), Check("b", False, "why"), Check("c", False)))
    assert str(report).splitlines() == [
        "  PASS  a",
        "  FAIL  b: why",
        "  FAIL  c",
        "  => model is INVALID (first failure: b)",
    ]
    assert str(ValidityReport((Check("a", True),))) == "  PASS  a\n  => model is valid"


def _chain(n):
    dag = Dag()
    ids = [dag.add_node(f"c{i}") for i in range(n)]
    for p, c in zip(ids, ids[1:]):
        dag.add_arc(p, c)
    return dag


def _redundant_extra_edge(model):
    # u: the smallest vertex with a single neighbour x in the triangulated
    # graph; v: x's smallest other neighbour.  With {u, v} added u stays
    # simplicial, so the graph stays chordal, and {u, v} becomes the only
    # fill edge held by a single maximal clique.
    gt = model.tri.graph()
    for u in gt.vertices():
        if len(gt.neighbors(u)) == 1:
            (x,) = gt.neighbors(u)
            others = sorted(gt.neighbors(x) - {u})
            if others:
                return tuple(sorted((u, others[0])))
    raise AssertionError("no vertex of degree one with a neighbour of degree two or more")


@pytest.mark.parametrize(
    "dag",
    [_chain(1500), random_dag(300, Random(42), edge_prob=3 / 299), random_dag(600, Random(42), edge_prob=3 / 599)],
    ids=["chain-1500", "random-300", "random-600"],
)
def test_validate_at_scale_flags_one_injected_fill_edge(dag):
    model = full_recompile(dag)
    assert validate(model).passed
    u, v = _redundant_extra_edge(model)
    report = validate(_with_fill(dag, set(model.tri.fill) | {frozenset((u, v))}))
    assert report.first_failure == "triangulation_minimal"
    assert report.checks[2].detail == f"fill edge {(u, v)} is redundant"


def test_minimality_matches_a_brute_force_count_of_holding_cliques():
    # seeded random models given 0 to 3 redundant pairs, each joining a
    # simplicial vertex u to a vertex v adjacent to all of u's neighbours:
    # the graph stays chordal and every edge at u, fill or not, lies in
    # one maximal clique only; validate must name the first fill pair that
    # one maximal clique holds, counted here clique by clique
    rng = Random(23)
    flagged = 0
    for _ in range(60):
        model = full_recompile(random_dag(rng.randint(2, 40), rng, edge_prob=rng.choice([0.1, 0.2, 0.3])))
        for _ in range(rng.randint(0, 3)):
            gt = model.tri.graph()
            pairs = [
                (u, v)
                for u in gt.vertices()
                if gt.is_complete(gt.neighbors(u))
                for v in gt.vertices()
                if v != u and not gt.has_edge(u, v) and gt.neighbors(u) <= gt.neighbors(v)
            ]
            if pairs:
                model.fill.add_edge(*rng.choice(pairs))
        cliques = extract_cliques(model.tri.graph())
        redundant = next((e for e in model.fill.edges() if sum(set(e) <= c for c in cliques) == 1), None)
        minimal = next(c for c in validate(model).checks if c.name == "triangulation_minimal")
        assert minimal.detail == (f"fill edge {redundant} is redundant" if redundant else "")
        flagged += redundant is not None
    assert 20 < flagged < 60


def test_mpd_equal_examples(asia, asia_model):
    assert mpd_equal(asia_model.mpd, asia_model.mpd)
    other = asia_model.copy()
    t = asia.table
    incremental_compile(other, [RemoveArc(t.id("L"), t.id("E"))])
    assert not mpd_equal(asia_model.mpd, other.mpd)


def test_oracle_checks_validity_then_the_expected_dag(asia, asia_model):
    t = asia.table
    assert oracle(asia_model, full_recompile(asia_model.dag)) is None
    edited = asia_model.copy()
    incremental_compile(edited, [RemoveArc(t.id("L"), t.id("E"))])
    assert oracle(edited, full_recompile(edited.dag)) is None
    assert oracle(edited, full_recompile(asia_model.dag)) == "mpd_equality_vs_full_recompile"
    c = edited.jt.cluster_ids()[0]
    edited.owner[c] = -1
    failed = oracle(edited, full_recompile(edited.dag))
    assert failed == f"mpd_owner: clique {c} has owner -1, re-aggregation gives {c}"


def test_stability_bounds(asia_model):
    assert stability(asia_model.jt, asia_model.jt) == 1.0
    other = full_recompile(random_dag(4, Random(1), edge_prob=0.5))
    assert stability(asia_model.jt, other.jt) == 0.0


def test_stability_counts_multiset_overlap():
    a = full_recompile(random_dag(8, Random(2), edge_prob=0.3))
    b = a.copy()
    assert stability(a.jt, b.jt) == 1.0


def test_random_script_is_replayable():
    rng = Random(13)
    dag = random_dag(10, rng, edge_prob=0.3)
    script = random_script(dag, 10, rng)
    assert 0 < len(script) <= 10
    replay = dag.copy()
    from bnic import apply_modification

    for mod in script:
        apply_modification(replay, mod)  # raises if invalid at its position


def test_the_edit_generators_draw_the_pinned_streams():
    # a seed draws the same edits and leaves its rng in the same state;
    # the empty, one-node and complete dags draw no addition
    streams = []
    for seed, (n, p) in enumerate([(0, 0.2), (1, 0.2), (2, 1.0), (6, 1.0), (12, 0.2), (25, 0.5), (25, 0.1), (40, 0.05)]):
        rng = Random(seed)
        dag = random_dag(n, rng, edge_prob=p)
        streams.append([repr(mod) for mod in random_arc_edits(dag, 25, rng)])
        streams.append([repr(mod) for mod in random_script(dag, 25, rng)])
        streams.append(rng.random())
    assert hashlib.sha256(repr(streams).encode()).hexdigest() == (
        "f04b100d13c776f7c79aeffb443baf56f56534b09b69b87471c338c25621ee3a"
    )


def test_property_sweep_small():
    # a slice of the acceptance property suite, kept quick for the dev loop
    fails = 0
    for seed in range(60):
        rng = Random(seed)
        dag = random_dag(rng.randint(1, 20), rng, edge_prob=rng.choice([0.1, 0.25, 0.4]))
        model = full_recompile(dag.copy())
        script = random_script(dag, rng.randint(1, 8), rng)
        incremental_compile(model, script)
        reference = full_recompile(model.dag.copy())
        if not (
            mpd_equal(model.mpd, reference.mpd)
            and validate(model).passed
            and validate(reference).passed
        ):
            fails += 1
    assert fails == 0
