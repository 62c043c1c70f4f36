"""From an undirected (moral) graph to a junction tree.

The pipeline is: greedy minimum-fill triangulation, maximal-clique
extraction via maximum cardinality search (MCS), a junction tree read off
the MCS order (each clique hangs on the first one holding its overlap with
those before it, as in Kruskal's maximum-weight tree), recursive thinning
down to a minimal triangulation, and family assignment.  Thinning works on
the junction tree: a dropped fill edge splits its one clique in place, so
MCS runs once, and one worklist serves both a full compile and the
engine's rebuild of a region in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import AbstractSet, Iterable

from . import kernels
from .clustertree import ClusterTree, HolderIndex
from .errors import InconsistencyError, NotChordalError
from .graph import Dag, UndirectedGraph

# Unused by the package; kept because the benchmark's tracer binds it.
from .graph import is_chordal


@dataclass(frozen=True)
class Triangulation:
    """A base graph plus a fill graph over its vertices; ``base + fill`` is chordal.

    After thinning no single fill edge can be dropped without breaking
    chordality.  ``CompiledModel.tri`` wraps the model's moral graph and its
    stored fill this way, copying neither.
    """

    base: UndirectedGraph
    fill_graph: UndirectedGraph

    @property
    def fill(self) -> set[frozenset[int]]:
        return self.fill_graph.edge_set()

    def graph(self) -> UndirectedGraph:
        """``base + fill``; a fill vertex the base lacks raises."""
        return self.base.union(self.fill_graph)


def triangulate_min_fill(g: UndirectedGraph, simplicial: AbstractSet[int] = frozenset()) -> list[tuple[int, int]]:
    """Triangulate by greedily eliminating the vertex adding fewest fill edges.

    Ties are broken by ascending vertex id, so the result is deterministic.
    Returns the fill as :func:`kernels.min_fill` gives it: ascending
    ``(u, v)``, ``u < v``.  The search starts without the vertices of
    ``simplicial``, known to be simplicial in ``g``, with the same fill.
    Kept apart from the kernel because the benchmark's tracer binds it.
    """
    return kernels.min_fill(g, simplicial)


def recursive_thinning(t: Triangulation) -> Triangulation:
    """Drop redundant fill edges until the triangulation is minimal.

    Raises :class:`NotChordalError` if ``t`` is not chordal: the removal
    test is only sound on a chordal graph, and the argument of this public
    function may be any triangulation record.  See :func:`thin_join_tree`
    for the removal rule and the scan order.
    """
    index = build_join_tree(extract_cliques(t.graph()), ClusterTree())
    fill = UndirectedGraph.from_edges(t.base.vertices(), t.fill_graph.edges())
    thin_join_tree(index.tree, fill.edges(), fill, index)
    return Triangulation(t.base, fill)


def thin_join_tree(
    tree: ClusterTree, pending: list[tuple[int, int]], fill: UndirectedGraph, index: HolderIndex
) -> list[tuple[frozenset[int], int]]:
    """Thin a chordal graph, given by its junction tree, to a minimal triangulation.

    The graph's fill pairs are the edges of ``fill``, a graph over (at
    least) the tree's vertices; the rest of its edges are the base graph's.
    In a chordal graph an edge {u, v} can be dropped, keeping the graph
    chordal, iff exactly one maximal clique holds it (Rose, Tarjan & Lueker
    1976): iff the AND of its ends' masks in ``index``, the tree's
    :class:`~bnic.clustertree.HolderIndex`, has one bit.  A drop leaves
    ``fill`` and splits its clique C into C−v and C−u in place
    (:func:`_split`).  A new half takes C's place for the pairs inside it,
    and the pairs inside C−{u, v} are then held by both halves' cliques,
    so only a pair joining u (or v) to the rest of a half that a neighbour
    absorbs can become droppable.

    ``pending`` lists, ascending, every pair that may be droppable now.  It
    is scanned once with a pointer beside a heap of re-checks, taking the
    lesser head each time and dropping it if it still is droppable.  After
    a split, each pair that became droppable goes on the heap wherever it
    lies: the pointer may have passed it while a lesser pair waited on the
    heap, and it need not be pending.  So each drop is the least droppable
    pair, the one a scan restarting after every drop would take (Blair,
    Heggernes & Telle, "A practical algorithm for making filled graphs
    minimal", TCS 2001), and when both heads run out the triangulation is
    minimal.

    Clusters outside the index get no bit, so none may hold a fill pair;
    the halves they absorb are returned as (half, cluster).  ``tree`` ends
    a junction tree of the thinned graph, and ``index`` stays its holder
    index.
    """
    ids, pos, masks = index.ids, index.pos, index.masks
    absorbed: list[tuple[frozenset[int], int]] = []
    heap: list[tuple[int, int]] = []
    i, n = 0, len(pending)
    try:
        while True:
            if heap and (i == n or heap[0] < pending[i]):
                u, v = heappop(heap)
            elif i < n:
                u, v = pending[i]
                i += 1
            else:
                break
            shared = masks[u] & masks[v]
            if shared & (shared - 1):
                continue  # two or more cliques hold {u, v}
            if not shared:
                if fill.has_edge(u, v):
                    raise InconsistencyError(f"no cluster holds the fill pair ({u}, {v})")
                continue  # dropped since it was queued
            fill.remove_edge(u, v)
            for w, half, end in _split(tree, ids[shared.bit_length() - 1], u, v, index):
                if end not in pos:
                    absorbed.append((half, end))
                for x in fill.neighbors(w) & half:
                    shared = masks[w] & masks[x]
                    if not shared & (shared - 1):
                        heappush(heap, (w, x) if w < x else (x, w))
    except KeyError as e:
        raise InconsistencyError(f"no cluster holds vertex {e.args[0]}") from None
    return absorbed


def _split(tree: ClusterTree, c: int, u: int, v: int, index: HolderIndex) -> list[tuple[int, frozenset[int], int]]:
    """Drop the edge {u, v} from cluster c, the one clique holding it.

    Without the edge, c's place goes to the cliques c−v and c−u (Ibarra,
    ACM TALG 2008).  A half that another clique contains is absorbed by the
    lowest neighbour containing it: by running intersection, a clique
    containing it has a neighbour of c on its path that does too.  The two
    halves join, meeting in c − {u, v}.  Every other neighbour hangs on the
    half holding its separator: c−u if it holds v, else c−v.  No neighbour
    holds both u and v, which no other clique holds.  ``index`` follows, a
    new cluster taking the next position.  Returns the absorbed halves as
    (the end of {u, v} it holds, half, absorbing cluster).
    """
    vs = tree.cluster(c)
    index.drop(c)
    neighbours = tree.neighbors(c)
    tree.remove_cluster(c)
    ends, absorbed = [], []
    for w, half in ((u, vs - {v}), (v, vs - {u})):
        end = next((nb for nb in neighbours if half <= tree.cluster(nb)), None)
        if end is None:
            end = tree.add_cluster(half)
            index.add(end)
        else:
            absorbed.append((w, half, end))
        ends.append(end)
    tree.add_edge(ends[0], ends[1])
    for nb in neighbours:
        if nb not in ends:
            tree.add_edge(ends[v in tree.cluster(nb)], nb)
    return absorbed


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


def build_join_tree(cliques: list[frozenset[int]], tree: ClusterTree) -> HolderIndex:
    """Join cliques, given in :func:`extract_cliques`' order, into a junction tree in ``tree``.

    Each clique becomes a new cluster of ``tree``, joined only to the
    others, and takes the next position of the returned
    :class:`~bnic.clustertree.HolderIndex`, which the join accumulates.
    Below, cluster i is the one added for C_i.

    If S_i = C_i ∩ (C_0 ∪ … ∪ C_{i−1}) is not empty, i hangs by S_i on
    p(i), the lowest j < i with S_i ⊆ C_j: the lowest bit of the AND of the
    earlier holder masks of S_i's vertices.  MCS order has running
    intersection (Tarjan & Yannakakis 1984; Blair & Peyton 1993), so j
    exists; if not, :class:`InconsistencyError`.  An i with S_i = ∅ starts
    a component and hangs on cluster 0 by an empty separator.

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
    index = HolderIndex(tree)
    ids, pos, holders = index.ids, index.pos, index.masks
    for i, c in enumerate(cliques):
        bit = 1 << i
        common = -1
        for v in c:
            m = holders.get(v, 0)
            common &= m or -1  # a vertex new in C_i is not in S_i
            holders[v] = m | bit
        cid = tree.add_cluster(c)
        pos[cid] = i
        ids.append(cid)
        if common == -1:
            if i:
                tree.add_edge(ids[0], cid)
        elif not common:
            raise InconsistencyError(f"no earlier clique holds the separator of clique {i}")
        else:
            p = (common & -common).bit_length() - 1
            tree.add_edge(ids[p], cid)
    return index


def assign_families(dag: Dag, variables: Iterable[int], index: HolderIndex) -> dict[int, int]:
    """Map each given variable to the smallest cluster of ``index`` covering its family.

    Ties go to the smaller cluster id: each host is the
    :meth:`~bnic.clustertree.HolderIndex.cover` of the variable and its
    parents, the rule :func:`~bnic.engine.connect` also hangs separators by.
    """
    cover, parents = index.cover, dag.parents
    family: dict[int, int] = {}
    for vid in variables:
        host = cover((vid,) + parents(vid))
        if host is None:
            raise InconsistencyError(f"no cluster contains the family of variable {vid}: triangulation bug")
        family[vid] = host
    return family


def construct_join_tree(
    gm: UndirectedGraph, fill: UndirectedGraph, tree: ClusterTree, simplicial: AbstractSet[int] = frozenset()
) -> HolderIndex:
    """Full pipeline from an undirected graph to a junction tree, built in ``tree``.

    Min-fill, starting without ``simplicial`` (vertices known to be
    simplicial in ``gm``, such as :func:`~bnic.graph.moral_simplicial`
    names), then one MCS of the triangulation (the chordality guard and
    the cliques), the join tree of those cliques, and thinning on the tree.
    ``fill``, an edgeless graph over ``gm``'s vertices, ends with the kept
    fill pairs; MCS runs on it while it also holds ``gm``'s edges, so no
    second graph of the triangulation is built beside it.  The new
    clusters join only each other.  Returns their holder index, as
    :func:`thin_join_tree` leaves it.  Family hosting is the caller's:
    see :func:`assign_families`, which takes that index.
    """
    pairs = triangulate_min_fill(gm, simplicial)
    fill.add_edges(pairs)
    fill.update(gm)
    cliques = extract_cliques(fill)
    fill.difference_update(gm)
    index = build_join_tree(cliques, tree)
    thin_join_tree(tree, pairs, fill, index)
    return index
