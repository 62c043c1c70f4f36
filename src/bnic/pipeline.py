"""From an undirected (moral) graph to a junction tree.

The pipeline is: greedy minimum-fill triangulation, recursive thinning down
to a minimal triangulation, maximal-clique extraction via maximum
cardinality search, maximum-weight spanning-tree assembly, and family
assignment.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernels
from .clustertree import ClusterTree
from .errors import InconsistencyError, NotChordalError
from .graph import Dag, UndirectedGraph, is_chordal


@dataclass(frozen=True)
class Triangulation:
    """An elimination order over a base graph plus the fill edges it added.

    Invariant: ``base + fill`` is chordal, and after thinning no single fill
    edge can be dropped without breaking chordality.
    """

    base: UndirectedGraph
    order: tuple[int, ...]
    fill: frozenset[frozenset[int]]

    def graph(self) -> UndirectedGraph:
        g = self.base.copy()
        for pair in self.fill:
            u, v = sorted(pair)
            g.add_edge(u, v)
        return g


def triangulate_min_fill(g: UndirectedGraph) -> Triangulation:
    """Triangulate by greedily eliminating the vertex adding fewest fill edges.

    Ties are broken by ascending vertex id, so the result is deterministic.
    """
    order, fill = kernels.min_fill(g)
    return Triangulation(g.copy(), tuple(order), frozenset(frozenset(p) for p in fill))


def recursive_thinning(t: Triangulation) -> Triangulation:
    """Drop redundant fill edges until the triangulation is minimal.

    A fill edge {u, v} is removable exactly when the common neighbourhood of
    u and v in the current graph is complete; the scan runs over fill edges
    in ascending pair order and restarts after every removal.
    """
    work = t.graph()
    ok, witness = is_chordal(work)
    if not ok:
        raise NotChordalError(f"input triangulation is not chordal (missing edge {witness})")
    fill = set(t.fill)
    changed = True
    while changed:
        changed = False
        for pair in sorted(fill, key=sorted):
            u, v = sorted(pair)
            common = work.neighbors(u) & work.neighbors(v)
            if work.is_complete(common):
                work.remove_edge(u, v)
                fill.remove(pair)
                changed = True
                break
    order = perfect_elimination_order(work)
    return Triangulation(t.base, order, frozenset(fill))


def perfect_elimination_order(g: UndirectedGraph) -> tuple[int, ...]:
    """A perfect elimination order of a chordal graph (reversed MCS order)."""
    order, witness = kernels.mcs(g)
    if witness is not None:
        raise NotChordalError("graph is not chordal")
    return tuple(reversed(order))


def extract_cliques(g: UndirectedGraph) -> list[frozenset[int]]:
    """The maximal cliques of a chordal graph, in a deterministic order."""
    order, witness = kernels.mcs(g)
    if witness is not None:
        raise NotChordalError(f"graph is not chordal (missing edge {witness})")
    pos = {v: i for i, v in enumerate(order)}
    candidates = [
        frozenset(u for u in g.neighbors(v) if pos[u] < i) | {v} for i, v in enumerate(order)
    ]
    cliques = [c for c in candidates if not any(c < other for other in candidates)]
    return cliques


def build_join_tree(cliques: list[frozenset[int]]) -> ClusterTree:
    """Assemble cliques into one tree maximising total separator size.

    Kruskal over the clique graph with weight |Ci ∩ Cj|, ties by ascending
    cluster-id pair; disconnected components are afterwards joined by empty
    separators so the result is always a single tree.
    """
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

    def find(c: int) -> int:
        while comp[c] != c:
            comp[c] = comp[comp[c]]
            c = comp[c]
        return c

    for negw, a, b in candidates:
        ra, rb = find(a), find(b)
        if ra != rb:
            comp[ra] = rb
            tree.add_edge(a, b, tree.cluster(a) & tree.cluster(b))
    roots = sorted({find(c) for c in ids})
    if len(roots) > 1:
        anchors = [min(c for c in ids if find(c) == r) for r in roots]
        for other in anchors[1:]:
            tree.add_edge(anchors[0], other, frozenset())
    return tree


def assign_families(dag: Dag, tree: ClusterTree, variables=None) -> None:
    """Point each variable's family map entry at its smallest covering cluster."""
    for vid in sorted(variables) if variables is not None else dag.nodes():
        fam = dag.family(vid)
        best = None
        for cid in tree.cluster_ids():
            vs = tree.cluster(cid)
            if fam <= vs and (best is None or (len(vs), cid) < best[0]):
                best = ((len(vs), cid), cid)
        if best is None:
            raise InconsistencyError(
                f"no cluster contains the family of variable {vid}: triangulation bug"
            )
        tree.family[vid] = best[1]


def construct_join_tree(gm: UndirectedGraph, dag: Dag | None = None) -> tuple[ClusterTree, Triangulation]:
    """Full pipeline from an undirected graph to a junction tree.

    When a dag is supplied its families are assigned into the tree; subtree
    rebuilds inside the incremental engine skip that step and reassign
    hosts after splicing.
    """
    tri = recursive_thinning(triangulate_min_fill(gm))
    cliques = extract_cliques(tri.graph())
    tree = build_join_tree(cliques)
    if dag is not None:
        assign_families(dag, tree)
    return tree, tri
