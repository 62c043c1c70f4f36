import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path
from random import Random

import pytest

from bnic import (
    CycleError,
    Dag,
    InvalidEditError,
    UndirectedGraph,
    UnknownVariableError,
    is_chordal,
    moralize,
    random_dag,
)

from conftest import name_set


# -- variable table ---------------------------------------------------------


def test_table_ids_are_dense_and_never_reused():
    dag = Dag()
    a = dag.add_node("a")
    b = dag.add_node("b")
    assert (a, b) == (0, 1)
    dag.remove_node(a)
    with pytest.raises(UnknownVariableError):
        dag.table.name(a)
    c = dag.add_node("a")  # name free again, id is fresh
    assert c == 2
    assert dag.table.ids() == [1, 2]


def test_table_rejects_bad_names():
    dag = Dag()
    dag.add_node("x")
    with pytest.raises(InvalidEditError):
        dag.add_node("x")
    with pytest.raises(InvalidEditError):
        dag.add_node("")


# -- dag edits --------------------------------------------------------------


def test_dag_rejects_cycles_self_loops_duplicates():
    dag = Dag()
    a, b, c = (dag.add_node(n) for n in "abc")
    dag.add_arc(a, b)
    dag.add_arc(b, c)
    with pytest.raises(CycleError):
        dag.add_arc(c, a)
    with pytest.raises(InvalidEditError):
        dag.add_arc(a, a)
    with pytest.raises(InvalidEditError):
        dag.add_arc(a, b)


def test_dag_remove_node_requires_isolation():
    dag = Dag()
    a, b = dag.add_node("a"), dag.add_node("b")
    dag.add_arc(a, b)
    with pytest.raises(InvalidEditError):
        dag.remove_node(a)
    dag.remove_arc(a, b)
    dag.remove_node(a)
    assert dag.nodes() == [b]


# -- moralization -----------------------------------------------------------


def test_moralize_asia_adds_exactly_two_links(asia):
    gm = moralize(asia)
    t = asia.table
    skeleton = {frozenset((t.name(p), t.name(c))) for p, c in asia.arcs()}
    moral = {name_set(t, e) for e in gm.edge_set()}
    assert moral - skeleton == {frozenset("TL"), frozenset("EB")}


def test_moralize_chain_adds_nothing():
    dag = Dag()
    a, b, c = (dag.add_node(n) for n in "abc")
    dag.add_arc(a, b)
    dag.add_arc(b, c)
    gm = moralize(dag)
    assert gm.edge_set() == {frozenset((a, b)), frozenset((b, c))}


def _brute_force_moral(dag):
    edges = set()
    for u in dag.nodes():
        for v in dag.nodes():
            if u < v and dag.moral_condition(u, v):
                edges.add(frozenset((u, v)))
    return edges


def _strip(dag, v):
    for p in dag.parents(v):
        dag.remove_arc(p, v)
    for c in dag.children(v):
        dag.remove_arc(v, c)
    dag.remove_node(v)


def test_moralize_matches_pairwise_scan_on_random_dag():
    dag = random_dag(8, Random(7), edge_prob=0.3)
    gm = moralize(dag)
    assert gm.edge_set() == _brute_force_moral(dag)
    # ids gapped by node removals, arcs re-added in shuffled order so parent
    # order is not id order, and nodes a failed transaction put back after the rest
    gapped = unordered = 0
    for seed in range(30):
        rng = Random(seed)
        dag = random_dag(rng.randint(4, 30), rng, edge_prob=rng.choice([0.1, 0.3, 0.6]))
        arcs = dag.arcs()
        for a in arcs:
            dag.remove_arc(*a)
        rng.shuffle(arcs)
        for a in arcs:
            dag.add_arc(*a)
        for v in rng.sample(dag.nodes(), len(dag) // 3):
            _strip(dag, v)
        with pytest.raises(RuntimeError), dag.transaction():
            _strip(dag, dag.nodes()[0])
            raise RuntimeError
        gm = moralize(dag)
        assert gm.vertices() == dag.nodes()
        assert gm.edge_set() == _brute_force_moral(dag)
        gapped += dag.nodes() != list(range(len(dag)))
        unordered += any(list(dag.parents(v)) != sorted(dag.parents(v)) for v in dag.nodes())
    assert gapped > 20 and unordered > 20


def test_moralize_is_a_fixpoint():
    # re-running the moral-condition scan over the moral graph adds nothing
    for seed in range(10):
        dag = random_dag(9, Random(seed), edge_prob=0.25)
        gm = moralize(dag)
        assert all(
            gm.has_edge(u, v)
            for u in dag.nodes()
            for v in dag.nodes()
            if u < v and dag.moral_condition(u, v)
        )
        assert {frozenset((p, c)) for p, c in dag.arcs()} <= gm.edge_set()


# -- induced subgraphs ------------------------------------------------------


def test_induced_projection_after_link_removal(asia):
    gm = moralize(asia)
    t = asia.table
    gm.remove_edge(t.id("L"), t.id("E"))
    gm.remove_edge(t.id("T"), t.id("L"))
    sub = gm.induced({t.id(n) for n in "TLEBS"})
    assert {name_set(t, e) for e in sub.edge_set()} == {
        frozenset("TE"),
        frozenset("SL"),
        frozenset("SB"),
        frozenset("EB"),
    }


def test_induced_empty_and_identity(asia):
    gm = moralize(asia)
    assert len(gm.induced(set())) == 0
    assert gm.induced(set(gm.vertices())) == gm
    with pytest.raises(UnknownVariableError):
        gm.induced({999})


def test_induced_names_every_unknown_vertex(asia):
    gm = moralize(asia)
    with pytest.raises(UnknownVariableError, match=r"unknown vertices \[998, 999\]"):
        gm.induced({999, asia.table.id("A"), 998})


def test_remove_induced_keeps_the_edges_leaving_the_set(asia):
    gm = moralize(asia)
    vs = {asia.table.id(n) for n in "TLEBS"}
    expected = gm.edge_set() - gm.induced(vs).edge_set()
    gm.remove_induced(vs)
    assert gm.edge_set() == expected and set(gm.vertices()) == set(asia.nodes())


def test_update_adds_the_other_graphs_edges_and_rejects_an_unknown_vertex():
    g = UndirectedGraph.from_edges(range(5), [(0, 1), (3, 4)])
    g.update(UndirectedGraph.from_edges(range(3), [(0, 1), (1, 2), (0, 2)]))
    assert g == UndirectedGraph.from_edges(range(5), [(0, 1), (1, 2), (0, 2), (3, 4)])
    before = g.copy()
    with pytest.raises(UnknownVariableError):
        g.update(UndirectedGraph.from_edges([0, 1, 7], [(0, 1), (0, 7)]))
    with pytest.raises(UnknownVariableError):
        g.union(UndirectedGraph([7]))
    assert g == before
    # union is a fresh graph; difference_update takes the other's edges out again
    h = UndirectedGraph.from_edges(range(5), [(2, 4)])
    u = g.union(h)
    assert u == UndirectedGraph.from_edges(range(5), [(0, 1), (1, 2), (0, 2), (3, 4), (2, 4)]) and g == before
    u.difference_update(h)
    assert u == g and u._adj[2] is not g._adj[2]


def test_add_edges_matches_add_edge_and_rejects_an_unknown_end():
    g = UndirectedGraph(range(4))
    g.add_edges([(0, 1), (1, 2), (0, 1)])
    assert g == UndirectedGraph.from_edges(range(4), [(0, 1), (1, 2)])
    with pytest.raises(UnknownVariableError):
        g.add_edges([(2, 3), (3, 9)])


# -- completeness -----------------------------------------------------------


def test_is_complete(asia):
    gm = moralize(asia)
    t = asia.table
    assert gm.is_complete({t.id("L"), t.id("E")})
    assert not gm.is_complete({t.id("L"), t.id("B")})
    assert gm.is_complete({t.id("A")})
    assert gm.is_complete(set())


# -- chordality -------------------------------------------------------------


def test_asia_moral_graph_is_not_chordal(asia):
    gm = moralize(asia)
    ok, witness = is_chordal(gm)
    assert not ok
    u, v = witness
    assert not gm.has_edge(u, v)
    t = asia.table
    gm.add_edge(t.id("L"), t.id("B"))
    assert is_chordal(gm) == (True, None)


def test_trees_are_chordal():
    g = UndirectedGraph.from_edges(range(7), [(0, 1), (1, 2), (1, 3), (3, 4), (0, 5), (5, 6)])
    assert is_chordal(g) == (True, None)


def _connected(g):
    vs = g.vertices()
    if not vs:
        return True
    seen = {vs[0]}
    stack = [vs[0]]
    while stack:
        v = stack.pop()
        for nb in g.neighbors(v):
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == len(vs)


def _has_chordless_cycle(g):
    # an induced cycle of length >= 4 is exactly a connected induced
    # subgraph where every vertex has degree two
    vs = g.vertices()
    for k in range(4, len(vs) + 1):
        for sub in combinations(vs, k):
            h = g.induced(set(sub))
            if all(len(h.neighbors(v)) == 2 for v in sub) and _connected(h):
                return True
    return False


def test_is_chordal_agrees_with_chordless_cycle_enumeration():
    rng = Random(123)
    for _ in range(60):
        n = rng.randint(1, 9)
        g = UndirectedGraph(range(n))
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.35:
                    g.add_edge(u, v)
        assert is_chordal(g)[0] == (not _has_chordless_cycle(g))


def test_importing_the_package_does_not_load_numpy():
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", "import sys, bnic, bnic.cli; print('numpy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"
