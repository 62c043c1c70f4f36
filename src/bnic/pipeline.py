"""From an undirected (moral) graph to a junction tree.

The pipeline is: greedy minimum-fill triangulation, recursive thinning down
to a minimal triangulation, maximal-clique extraction via maximum
cardinality search, maximum-weight spanning-tree assembly, and family
assignment.  Thinning and clique extraction share one step: the cliques of
the min-fill triangulation decide which fill edges can go, and MCS runs a
second time only if some did.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from . import kernels
from .clustertree import ClusterTree
from .errors import InconsistencyError, NotChordalError
from .graph import Dag, UndirectedGraph

# Unused by the package; kept because the benchmark's tracer binds it.
from .graph import is_chordal


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

    Raises :class:`NotChordalError` if ``t`` is not chordal: the removal
    test is only sound on a chordal graph, and the argument of this public
    function may be any triangulation record.  See :func:`_thin` for the
    removal rule and the scan order.
    """
    return _thin(t)[0]


def _thin(t: Triangulation) -> tuple[Triangulation, list[frozenset[int]]]:
    """Thin ``t`` to a minimal triangulation; also return its maximal cliques.

    One :func:`extract_cliques` pass on ``base + fill`` doubles as the
    chordality guard.  Each vertex then gets an int mask of the cliques
    holding it.  In a chordal graph an edge {u, v} can be dropped, keeping
    the graph chordal, iff exactly one maximal clique C holds it (Rose,
    Tarjan & Lueker 1976), i.e. iff ``cm[u] & cm[v]`` has one bit.  The
    fill edges are scanned in ascending pair order and the scan restarts
    after every removal.  A removal replaces C by C−u and C−v, each kept
    only if no other live clique contains it (Ibarra, ACM TALG 2008).  If
    anything was removed, the cliques are extracted once more, so their
    order is the MCS order of the thinned graph.
    """
    work = t.graph()
    cliques = extract_cliques(work)
    pending = sorted(sorted(pair) for pair in t.fill)
    live = list(cliques)  # clique of bit k; None once replaced
    cm = dict.fromkeys(work.vertices(), 0)
    for k, c in enumerate(live):
        for w in c:
            cm[w] |= 1 << k
    removed = []
    changed = True
    while changed:
        changed = False
        for i, (u, v) in enumerate(pending):
            shared = cm[u] & cm[v]
            if shared & (shared - 1):
                continue  # two or more cliques hold {u, v}
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
            removed.append(frozenset((u, v)))
            del pending[i]
            changed = True
            break
    if removed:
        cliques = extract_cliques(work)
    return Triangulation(t.base, t.fill.difference(removed)), cliques


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
    tri, cliques = _thin(triangulate_min_fill(gm))
    tree = build_join_tree(cliques)
    if dag is not None:
        assign_families(dag, tree)
    return tree, tri
