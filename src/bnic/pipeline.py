"""From an undirected (moral) graph to a junction tree.

The pipeline is: greedy minimum-fill triangulation, recursive thinning down
to a minimal triangulation, maximal-clique extraction via maximum
cardinality search (MCS), a junction tree read off the MCS order (each
clique hangs on the first one holding its overlap with those before it,
as in Kruskal's maximum-weight tree), and family assignment.  Thinning and
clique extraction share one step: the min-fill triangulation's cliques
decide which fill edges can go, and MCS runs again only if some did.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from . import kernels
from .clustertree import ClusterTree, covering
from .errors import InconsistencyError, NotChordalError, UnknownVariableError
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
            g.add_edge(*pair)
        return g


def triangulate_min_fill(g: UndirectedGraph, *, pairs: bool = False) -> Triangulation | list[tuple[int, int]]:
    """Triangulate by greedily eliminating the vertex adding fewest fill edges.

    Ties are broken by ascending vertex id, so the result is deterministic.
    With ``pairs`` it returns only the fill, as sorted ``(u, v)``, ``u < v``.
    """
    _order, fill = kernels.min_fill(g)
    return sorted(fill) if pairs else Triangulation(g.copy(), frozenset(map(frozenset, fill)))


def recursive_thinning(t: Triangulation) -> Triangulation:
    """Drop redundant fill edges until the triangulation is minimal.

    Raises :class:`NotChordalError` if ``t`` is not chordal: the removal
    test is only sound on a chordal graph, and the argument of this public
    function may be any triangulation record.  See :func:`_thin` for the
    removal rule and the scan order.
    """
    kept, _cliques = _thin(t.base, sorted(tuple(sorted(pair)) for pair in t.fill))
    return Triangulation(t.base, frozenset(map(frozenset, kept)))


def _thin(base: UndirectedGraph, pending: list[tuple[int, int]]) -> tuple[list[tuple[int, int]], list[frozenset[int]]]:
    """Thin ``base`` plus fill, the ascending pairs ``pending``, to a minimal triangulation.

    Returns ``pending``, thinned in place, and the maximal cliques.  One
    :func:`extract_cliques` pass on a copy of ``base`` with the fill added
    doubles as the chordality guard.  Each vertex then gets an int mask of
    the cliques holding it.  In a chordal graph an edge {u, v} can be
    dropped, keeping the graph chordal, iff exactly one maximal clique C
    holds it (Rose, Tarjan & Lueker 1976), i.e. iff ``cm[u] & cm[v]`` has
    one bit.  The fill is scanned in order and the scan restarts after every
    removal.  A removal replaces C by C−u and C−v, each kept only if no
    other live clique contains it (Ibarra, ACM TALG 2008).  If anything was
    removed, the cliques are extracted once more, in the thinned graph's
    MCS order.
    """
    work = base.copy()
    adj = work._adj
    try:
        for u, v in pending:
            adj[u].add(v)
            adj[v].add(u)
    except KeyError:
        raise UnknownVariableError(f"unknown vertex in edge ({u}, {v})") from None
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
            del pending[i]
            changed = True
            break
    if None in live:  # some fill edge went
        cliques = extract_cliques(work)
    return pending, cliques


# Unused by the package; kept because the benchmark's tracer binds it.
def perfect_elimination_order(g: UndirectedGraph) -> tuple[int, ...]:
    """A perfect elimination order of a chordal graph (reversed MCS order)."""
    order, witness, _cliques = kernels.mcs(g)
    if witness is not None:
        raise NotChordalError("graph is not chordal")
    return tuple(reversed(order))


def extract_cliques(g: UndirectedGraph) -> list[frozenset[int]]:
    """The maximal cliques of a chordal graph, in maximum-cardinality-search order.

    :func:`kernels.mcs` emits them in its one pass; a witness of
    non-chordality raises :class:`NotChordalError`.
    """
    _order, witness, cliques = kernels.mcs(g)
    if witness is not None:
        raise NotChordalError(f"graph is not chordal (missing edge {witness})")
    return cliques


def build_join_tree(cliques: list[frozenset[int]]) -> ClusterTree:
    """Join cliques, given in :func:`extract_cliques`' order, into a junction tree.

    Cluster i is C_i.  If S_i = C_i ∩ (C_0 ∪ … ∪ C_{i−1}) is not empty, i
    hangs by S_i on p(i), the lowest j < i with S_i ⊆ C_j: the lowest bit of
    the AND of the earlier holder masks of S_i's vertices.  MCS order has
    running intersection (Tarjan & Yannakakis 1984; Blair & Peyton 1993),
    so j exists; if not, :class:`InconsistencyError`.  An i with S_i = ∅
    starts a component and hangs on cluster 0 by an empty separator.

    This is the tree of Kruskal over the clique graph with weight
    |C_a ∩ C_b|, ties by ascending pair, whose components are then joined
    from the anchor (least id) of the one with the least union-find root.
    Kruskal's forest is unique, as its order is strict.  By the cycle
    property each other pair a < b with X = C_a ∩ C_b ≠ ∅ must sort after
    every edge (p(k), k) on the tree path from a to b, whose separator is
    ⊇ X.  If equal, S_k = X: k ≤ a gives p(k) < a, else X ⊆ C_a gives
    p(k) ≤ a, and p(k) = a means the path enters k's subtree, holding b, so
    k < b as ids grow away from the root.  MCS finishes a component of the
    graph before it starts the next, so each component's cliques are
    consecutive and hold its root: the hub is cluster 0 and the other
    anchors are the i with S_i = ∅.
    """
    tree = ClusterTree()
    holders: dict[int, int] = {}  # vertex -> mask of the clusters so far holding it
    for i, c in enumerate(cliques):
        tree.add_cluster(c)
        common = -1
        for v in c:
            m = holders.get(v, 0)
            common &= m or -1  # a vertex new in C_i is not in S_i
            holders[v] = m | (1 << i)
        if common == -1:
            if i:
                tree.add_edge(0, i, frozenset())
        elif not common:
            raise InconsistencyError(f"no earlier clique holds the separator of clique {i}")
        else:
            p = (common & -common).bit_length() - 1
            tree.add_edge(p, i, cliques[p] & c)
    return tree


def assign_families(dag: Dag, tree: ClusterTree, variables: Iterable[int]) -> dict[int, int]:
    """Map each given variable to the smallest cluster covering its family.

    Ties go to the smaller cluster id.  The clusters covering a family are
    the common bits of its vertices' holder masks.
    """
    ids = tree.cluster_ids()
    holders = tree.holder_masks(ids)
    family: dict[int, int] = {}
    for vid in variables:
        hosts = covering(holders, ids, dag.family(vid))
        if not hosts:
            raise InconsistencyError(
                f"no cluster contains the family of variable {vid}: triangulation bug"
            )
        family[vid] = hosts[0] if len(hosts) == 1 else min(hosts, key=lambda c: len(tree.cluster(c)))
    return family


def construct_join_tree(gm: UndirectedGraph) -> tuple[ClusterTree, list[tuple[int, int]]]:
    """Full pipeline from an undirected graph to a junction tree.

    Returns the tree and the kept fill of ``gm``, as sorted ``(u, v)``,
    ``u < v``.  Family hosting is the caller's: see :func:`assign_families`.
    """
    kept, cliques = _thin(gm, triangulate_min_fill(gm, pairs=True))
    return build_join_tree(cliques), kept
