"""From an undirected (moral) graph to a junction tree.

The pipeline is: greedy minimum-fill triangulation, recursive thinning down
to a minimal triangulation, maximal-clique extraction via maximum
cardinality search, maximum-weight spanning-tree assembly, and family
assignment.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from . import kernels
from .clustertree import ClusterTree
from .errors import InconsistencyError, NotChordalError
from .graph import Dag, UndirectedGraph, is_chordal


@dataclass(frozen=True)
class Triangulation:
    """A base graph plus the fill edges that make it chordal.

    Invariant: ``base + fill`` is chordal, and after thinning no single fill
    edge can be dropped without breaking chordality.  The junction and MPS
    trees keep only the cliques of ``base + fill`` (Olesen & Madsen, IEEE
    SMC-B 2002), and those cliques determine the fill again, so no
    elimination order is recorded.
    """

    base: UndirectedGraph
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
    _order, fill = kernels.min_fill(g)
    return Triangulation(g.copy(), frozenset(frozenset(p) for p in fill))


def recursive_thinning(t: Triangulation) -> Triangulation:
    """Drop redundant fill edges until the triangulation is minimal.

    A fill edge {u, v} is removable exactly when the common neighbourhood of
    u and v in the current graph is complete; the scan runs over fill edges
    in ascending pair order and restarts after every removal.  The input
    is checked for chordality first: the removal test is only sound on a
    chordal graph, and the argument of this public function may be any
    triangulation record.  The scan runs on the bitmasks of
    :func:`kernels.vertex_masks`.
    """
    work = t.graph()
    ok, witness = is_chordal(work)
    if not ok:
        raise NotChordalError(f"input triangulation is not chordal (missing edge {witness})")
    ids, masks = kernels.vertex_masks(work)
    pos = {v: i for i, v in enumerate(ids)}
    pending = sorted(sorted((pos[u], pos[v])) for u, v in t.fill)
    fill = set(t.fill)
    changed = True
    while changed:
        changed = False
        for k, (u, v) in enumerate(pending):
            if _is_clique(masks[u] & masks[v], masks):
                masks[u] &= ~(1 << v)
                masks[v] &= ~(1 << u)
                fill.remove(frozenset((ids[u], ids[v])))
                del pending[k]
                changed = True
                break
    return Triangulation(t.base, frozenset(fill))


def _is_clique(c: int, masks: list[int]) -> bool:
    """True iff every w in the position set c sees all of c but itself."""
    rest = c
    while rest:
        low = rest & -rest  # the bit of the next w
        if c & ~masks[low.bit_length() - 1] != low:
            return False
        rest ^= low
    return True


# Unused by the package; kept because the benchmark's tracer binds it.
def perfect_elimination_order(g: UndirectedGraph) -> tuple[int, ...]:
    """A perfect elimination order of a chordal graph (reversed MCS order)."""
    order, witness = kernels.mcs(g)
    if witness is not None:
        raise NotChordalError("graph is not chordal")
    return tuple(reversed(order))


def extract_cliques(g: UndirectedGraph) -> list[frozenset[int]]:
    """The maximal cliques of a chordal graph, in maximum-cardinality-search order.

    Each vertex together with its earlier-visited neighbours is a clique,
    and every maximal clique is one of these candidates.  Under MCS on a
    chordal graph a candidate is maximal iff it is not contained in the
    next candidate (Blair & Peyton 1993), so one pass over consecutive
    pairs keeps exactly the maximal ones.
    """
    order, witness = kernels.mcs(g)
    if witness is not None:
        raise NotChordalError(f"graph is not chordal (missing edge {witness})")
    pos = {v: i for i, v in enumerate(order)}
    candidates = [
        frozenset(u for u in g.neighbors(v) if pos[u] < i) | {v} for i, v in enumerate(order)
    ]
    return [c for c, nxt in zip(candidates, candidates[1:] + [frozenset()]) if not c < nxt]


def build_join_tree(cliques: list[frozenset[int]]) -> ClusterTree:
    """Assemble cliques into one tree maximising total separator size.

    Kruskal over the clique graph with weight |Ci ∩ Cj|, ties by ascending
    cluster-id pair; disconnected components are afterwards joined by empty
    separators so the result is always a single tree.  Only pairs that
    share a vertex have positive weight, so the candidates are gathered
    through a vertex -> cluster index, with each weight counted there.
    """
    tree = ClusterTree()
    ids = [tree.add_cluster(c) for c in cliques]
    if not ids:
        return tree
    holders = tree.vertex_index()
    candidates = []
    for a in ids:
        shared = Counter(b for v in tree.cluster(a) for b in holders[v] if b > a)
        candidates.extend((-w, a, b) for b, w in shared.items())
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
    anchor_of: dict[int, int] = {}  # component root -> its smallest cluster id
    for c in ids:
        anchor_of.setdefault(find(c), c)
    anchors = [anchor_of[r] for r in sorted(anchor_of)]
    for other in anchors[1:]:
        tree.add_edge(anchors[0], other, frozenset())
    return tree


def assign_families(dag: Dag, tree: ClusterTree) -> None:
    """Point each variable's family map entry at its smallest covering cluster.

    Ties go to the smaller cluster id.  Only clusters holding the variable
    itself can cover its family, so only those are scanned.
    """
    holders = tree.vertex_index()
    for vid in dag.nodes():
        fam = dag.family(vid)
        hosts = [(len(tree.cluster(c)), c) for c in holders.get(vid, ()) if fam <= tree.cluster(c)]
        if not hosts:
            raise InconsistencyError(
                f"no cluster contains the family of variable {vid}: triangulation bug"
            )
        tree.family[vid] = min(hosts)[1]


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
