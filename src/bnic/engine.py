"""Incremental recompilation of a compiled model under structural edits.

A batch of modifications is processed in two phases.  Phase one applies each
edit to the dag, patches the moral graph, and marks the MPS clusters whose
internal structure may have changed.  Phase two rebuilds each connected
marked subtree from its induced moral subgraph and splices the fresh
junction / MPS subtrees into the existing trees, leaving every unmarked
cluster untouched.

Throughout, the engine maintains the refinement invariant between the two
trees: each MPS aggregates a connected set of junction clusters, and every
MPS-tree edge corresponds to exactly one junction edge crossing the two
clique groups with the same separator.  That invariant is what makes
boundary separators complete and the splice well defined; violations raise
:class:`~bnic.errors.InconsistencyError` rather than being repaired.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Sequence

from .clustertree import ClusterTree
from .errors import InconsistencyError, InvalidEditError
from .graph import Dag, Link, UndirectedGraph
from .mpd import MpdIndex, aggregate_cliques
from .pipeline import Triangulation, construct_join_tree

# Unused by the package; kept because the benchmark's tracer binds it.
from .pipeline import perfect_elimination_order


# ---------------------------------------------------------------------------
# Modifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AddNode:
    name: str


@dataclass(frozen=True)
class RemoveNode:
    node: int


@dataclass(frozen=True)
class AddArc:
    parent: int
    child: int


@dataclass(frozen=True)
class RemoveArc:
    parent: int
    child: int


Modification = AddNode | RemoveNode | AddArc | RemoveArc


def describe(mod: Modification, dag: Dag) -> str:
    match mod:
        case AddNode(name):
            return f"add-node {name}"
        case RemoveNode(node):
            return f"remove-node {dag.table.name(node)}"
        case AddArc(parent, child):
            return f"add-arc {dag.table.name(parent)} {dag.table.name(child)}"
        case RemoveArc(parent, child):
            return f"remove-arc {dag.table.name(parent)} {dag.table.name(child)}"
    raise TypeError(f"unknown modification {mod!r}")


def apply_modification(dag: Dag, mod: Modification) -> int | None:
    """Apply a structural edit to a dag alone; returns the new id for AddNode."""
    match mod:
        case AddNode(name):
            return dag.add_node(name)
        case RemoveNode(node):
            dag.remove_node(node)
        case AddArc(parent, child):
            dag.add_arc(parent, child)
        case RemoveArc(parent, child):
            dag.remove_arc(parent, child)
        case _:
            raise TypeError(f"unknown modification {mod!r}")
    return None


def expand_remove_node(dag: Dag, node: int) -> list[Modification]:
    """A user-level node deletion as arc removals followed by the node removal.

    Incident arcs are listed in insertion order (parent arcs first), so the
    expansion is reproducible.
    """
    mods: list[Modification] = [RemoveArc(p, node) for p in dag.parents(node)]
    mods += [RemoveArc(node, c) for c in dag.children(node)]
    mods.append(RemoveNode(node))
    return mods


# ---------------------------------------------------------------------------
# The compiled model and traces
# ---------------------------------------------------------------------------


class CompiledModel:
    """The mutually consistent bundle of structures kept up to date by edits.

    ``jt.family`` aliases ``index.clique_of`` and ``mpd.family`` aliases
    ``index.mps_of``: there is a single source of truth for family hosting.
    The triangulation record is derived from the clusters on demand and
    cached; edits invalidate the cache.
    """

    def __init__(
        self,
        dag: Dag,
        moral: UndirectedGraph,
        jt: ClusterTree,
        mpd: ClusterTree,
        index: MpdIndex,
        tri: Triangulation | None = None,
    ):
        self.dag = dag
        self.moral = moral
        self.jt = jt
        self.mpd = mpd
        self.index = index
        self._tri = tri
        jt.family = index.clique_of
        mpd.family = index.mps_of

    @property
    def tri(self) -> Triangulation:
        if self._tri is None:
            self._tri = derive_triangulation(self.moral, self.jt)
        return self._tri

    def copy(self) -> "CompiledModel":
        dag = self.dag.copy()
        moral = self.moral.copy()
        jt = self.jt.copy()
        mpd = self.mpd.copy()
        index = self.index.copy()
        tri = None if self._tri is None else Triangulation(moral, self._tri.fill)
        return CompiledModel(dag, moral, jt, mpd, index, tri)


@dataclass
class ModTrace:
    """What one modification did during the marking phase."""

    mod: Modification
    description: str
    links: list[Link] = field(default_factory=list)
    touched: dict[int, frozenset[int]] = field(default_factory=dict)
    rewired: list[dict] = field(default_factory=list)

    def marked_sets(self) -> set[frozenset[int]]:
        return set(self.touched.values())


@dataclass
class SubtreeTrace:
    """One connected marked subtree rebuilt during the splice phase."""

    mps_ids: tuple[int, ...]
    variables: frozenset[int]
    new_cliques: tuple[frozenset[int], ...]
    new_mps: tuple[frozenset[int], ...]


@dataclass
class BatchTrace:
    """Record of a whole incremental-compilation batch."""

    mods: list[ModTrace] = field(default_factory=list)
    subtrees: list[SubtreeTrace] = field(default_factory=list)
    absorbed: list[tuple[frozenset[int], frozenset[int]]] = field(default_factory=list)
    new_jt_ids: set[int] = field(default_factory=set)
    new_mpd_ids: set[int] = field(default_factory=set)

    def marked_ids(self) -> set[int]:
        out: set[int] = set()
        for rec in self.mods:
            out |= set(rec.touched)
        return out


def _mark(tree: ClusterTree, cid: int, rec: ModTrace | None) -> None:
    tree.mark(cid)
    if rec is not None:
        rec.touched[cid] = tree.cluster(cid)


# ---------------------------------------------------------------------------
# Phase one: moral-graph maintenance and marking
# ---------------------------------------------------------------------------


def modify_moral_graph(model: CompiledModel, mod: Modification) -> list[Link]:
    """Patch the moral graph after the dag already reflects the edit.

    Returns the list of moral links added or deleted.  All membership tests
    run against the invariant: {u, v} is a moral edge iff u and v are joined
    by an arc or share a child in the updated dag.
    """
    dag, moral = model.dag, model.moral
    match mod:
        case AddNode(name):
            moral.add_vertex(dag.table.id(name))
            return []
        case RemoveNode(node):
            if moral.neighbors(node):
                raise InvalidEditError(f"node {node} still has moral edges")
            moral.remove_vertex(node)
            return []
        case AddArc(parent, child):
            links = [Link(parent, child, True)]
            if not moral.has_edge(parent, child):
                moral.add_edge(parent, child)
            fam = sorted(dag.family(child))
            for i, u in enumerate(fam):
                for v in fam[i + 1 :]:
                    if not moral.has_edge(u, v):
                        moral.add_edge(u, v)
                        link = Link(u, v, True)
                        if link not in links:
                            links.append(link)
            return links
        case RemoveArc(parent, child):
            candidates = [(parent, child)]
            candidates += [(parent, z) for z in dag.parents(child) if z != parent]
            links = []
            for u, v in candidates:
                if moral.has_edge(u, v) and not dag.moral_condition(u, v):
                    moral.remove_edge(u, v)
                    links.append(Link(u, v, False))
            return links
    raise TypeError(f"unknown modification {mod!r}")


def mark_remove_link(
    model: CompiledModel,
    links: Sequence[Link],
    m_y: int,
    rec: ModTrace | None = None,
) -> None:
    """Mark the MPSs invalidated by deleted moral links.

    These are the host m_y of the removed arc's child and every MPS holding
    both endpoints of a deleted link; the rebuild must cover each of them or
    its boundary separators could stay incomplete.  Membership is read off
    the current vertex sets, so a host gone stale inside a batch (an earlier
    edit grew the family without a rebuild yet) changes nothing.
    """
    mpd = model.mpd
    deleted = [l.pair for l in links if not l.added]
    _mark(mpd, m_y, rec)
    for m in mpd.cluster_ids():
        vs = mpd.cluster(m)
        for pair in deleted:
            if pair <= vs:
                _mark(mpd, m, rec)
                break


def mark_remove_node(model: CompiledModel, x: int, rec: ModTrace | None = None) -> None:
    """Strip an isolated variable out of both trees and mark its former MPSs.

    Every cluster and separator of the junction and MPS trees loses x; the
    MPSs that held it are marked after the strip, so a trace records their
    stripped vertex sets.
    """
    for m in _strip_variable(model.mpd, x):
        _mark(model.mpd, m, rec)
    _strip_variable(model.jt, x)


def _strip_variable(tree: ClusterTree, x: int) -> list[int]:
    """Remove x from every cluster and separator; returns the clusters that held it."""
    holders = [cid for cid in tree.cluster_ids() if x in tree.cluster(cid)]
    for cid in holders:
        tree.replace_cluster(cid, tree.cluster(cid) - {x})
    for a, b, sep in tree.edges():
        if x in sep:
            tree.set_separator(a, b, sep - {x})
    return holders


def add_node(model: CompiledModel, x: int, rec: ModTrace | None = None) -> None:
    """Host a brand-new isolated variable in singleton clusters of both trees.

    The clusters attach by empty separators: the clique to the lowest-id
    existing clique, the MPS to that clique's owner (keeping the two trees'
    edges mirrored).  The MPS is marked for rebuild.
    """
    jt, mpd, index = model.jt, model.mpd, model.index
    anchor = min(jt.cluster_ids()) if len(jt) else None
    c = jt.add_cluster({x})
    m = mpd.add_cluster({x}, marked=True)
    if anchor is not None:
        jt.add_edge(c, anchor, frozenset())
        mpd.add_edge(m, index.owner_map()[anchor], frozenset())
    index.cliques_of[m] = {c}
    index.clique_of[x] = c
    index.mps_of[x] = m
    if rec is not None:
        rec.touched[m] = mpd.cluster(m)


def mark_add_link(
    model: CompiledModel,
    parent: int,
    child: int,
    links: Sequence[Link],
    rec: ModTrace | None = None,
) -> None:
    """Mark the MPS path that must host a new arc and its induced moral links.

    For each link the nearest MPS containing the new parent is located from
    the child's family host; if an empty separator lies on the path between
    them it is deleted and the two MPSs are joined directly by an artificial
    separator {parent}, shrinking the region to re-triangulate.
    """
    mpd, jt, index = model.mpd, model.jt, model.index
    m_y = index.mps_of[child]
    for _link in links:
        m_x = _nearest_containing(mpd, m_y, parent)
        path = mpd.path(m_x, m_y)
        if path is None:
            raise InconsistencyError("MPS tree is disconnected")
        # an empty separator between two already-marked clusters must stay:
        # deleting it would sever a pending rebuild obligation (marks are
        # rebuilt together only while they stay connected)
        empty = [
            (path[i], path[i + 1])
            for i in range(len(path) - 1)
            if not mpd.separator(path[i], path[i + 1])
            and not (mpd.is_marked(path[i]) and mpd.is_marked(path[i + 1]))
        ]
        if empty:
            a, b = empty[0]
            ca, cb = _crossing_edge(model, a, b)
            mpd.remove_edge(a, b)
            jt.remove_edge(ca, cb)
            sep = frozenset({parent})
            mpd.add_edge(m_x, m_y, sep)
            cx = min(c for c in index.cliques_of[m_x] if parent in jt.cluster(c))
            cy = min(index.cliques_of[m_y])
            jt.add_edge(cx, cy, sep)
            if rec is not None:
                rec.rewired.append(
                    {"removed": (a, b), "added": (m_x, m_y), "separator": sep}
                )
            path = [m_x, m_y]
        for m in path:
            _mark(mpd, m, rec)


def _nearest_containing(tree: ClusterTree, start: int, x: int) -> int:
    """The cluster containing x closest to start (ties: lowest id)."""
    if x in tree.cluster(start):
        return start
    seen = {start}
    frontier = [start]
    while frontier:
        found = []
        nxt = []
        for c in frontier:
            for nb in tree.neighbors(c):
                if nb in seen:
                    continue
                seen.add(nb)
                nxt.append(nb)
                if x in tree.cluster(nb):
                    found.append(nb)
        if found:
            return min(found)
        frontier = nxt
    raise InconsistencyError(f"no cluster contains variable {x}")


def _crossing_edge(model: CompiledModel, m_a: int, m_b: int) -> tuple[int, int]:
    """The unique junction edge between the clique groups of two adjacent MPSs."""
    ga = model.index.cliques_of[m_a]
    gb = model.index.cliques_of[m_b]
    found = None
    for c in sorted(ga):
        for nb in model.jt.neighbors(c):
            if nb in gb:
                if found is not None:
                    raise InconsistencyError(
                        f"multiple junction edges cross MPS edge ({m_a}, {m_b})"
                    )
                found = (c, nb)
    if found is None:
        raise InconsistencyError(f"MPS edge ({m_a}, {m_b}) has no junction counterpart")
    return found


# ---------------------------------------------------------------------------
# Phase two: rebuild and splice
# ---------------------------------------------------------------------------


def _best_attachment(
    tree: ClusterTree, candidates: Iterable[int], sep: frozenset[int], ck: frozenset[int]
) -> int | None:
    """The replacement cluster covering sep with maximal overlap with ck.

    Ties go to the smaller cluster, then the lower id.
    """
    best = None
    for cid in sorted(candidates):
        vs = tree.cluster(cid)
        if sep <= vs:
            key = (-len(vs & ck), len(vs), cid)
            if best is None or key < best[0]:
                best = (key, cid)
    return None if best is None else best[1]


def connect(
    tree: ClusterTree, replacement_ids: set[int], c_i: int
) -> tuple[list[tuple[int, int, frozenset[int], int]], set[int]]:
    """Reattach the boundary of the marked subtree around c_i to new clusters.

    Walks the marked clusters depth first from c_i.  Every separator S
    leading to an unmarked neighbour C_k is re-hung onto the replacement
    cluster chosen by :func:`_best_attachment`; a record where the chosen
    cluster equals S flags a later amalgamation.  Returns the reattachment
    records and the set of marked clusters visited.  The explicit stack of
    neighbour iterators keeps deep trees clear of the recursion limit.
    """
    records: list[tuple[int, int, frozenset[int], int]] = []
    visited = {c_i}
    stack = [(c_i, iter(tree.neighbors(c_i)))]
    while stack:
        ci, nbrs = stack[-1]
        ck = next(nbrs, None)
        if ck is None:
            stack.pop()
        elif tree.is_marked(ck):
            if ck not in visited:
                visited.add(ck)
                stack.append((ck, iter(tree.neighbors(ck))))
        else:
            sep = tree.separator(ci, ck)
            target = _best_attachment(tree, replacement_ids, sep, tree.cluster(ck))
            if target is None:
                raise InconsistencyError(
                    f"no replacement cluster covers boundary separator {sorted(sep)}"
                )
            tree.add_edge(target, ck, sep)
            records.append((ci, ck, sep, target))
    return records, visited


# Unused by the package; kept because the benchmark's tracer binds it.
def absorb_non_maximal(tree: ClusterTree) -> ClusterTree:
    """Merge every cluster contained in an adjacent neighbour into it.

    Scans in ascending id order and restarts after each merge.  Returns the
    tree.  The engine never needs this scan: a rebuild can only leave a
    non-maximal cluster where :func:`_amalgamate` already merges it.
    """
    changed = True
    while changed:
        changed = False
        for cid in tree.cluster_ids():
            for nb in tree.neighbors(cid):
                if tree.cluster(cid) <= tree.cluster(nb):
                    tree.merge_into(cid, nb)
                    changed = True
                    break
            if changed:
                break
    return tree


def _amalgamate(
    model: CompiledModel, src: int, dst: int, m_src: int, m_dst: int, trace: BatchTrace | None
) -> None:
    """Merge the new clique src, equal to its boundary separator, into dst.

    :func:`connect` hung the boundary separator S of the unmarked cluster dst
    on the new clique src, with src ⊇ S.  Running intersection on the old
    tree gives src ∩ dst = S, so src ⊆ dst iff src = S: this is the only
    place a rebuild leaves a non-maximal cluster, since the new cliques are
    maximal among themselves and unmarked clusters keep their vertex sets.
    S is complete in the moral graph, so src is the only clique of its new
    MPS m_src, which the mirrored boundary edge joins to dst's MPS m_dst;
    the MPS merge mirrors the clique merge one to one.
    """
    index = model.index
    if trace is not None:
        trace.absorbed.append((model.jt.cluster(src), model.jt.cluster(dst)))
    if index.cliques_of[m_src] != {src}:
        raise InconsistencyError(
            f"absorbed cluster {src} is not the only clique of its MPS {m_src}"
        )
    if not model.mpd.has_edge(m_src, m_dst):
        raise InconsistencyError(f"MPSs {m_src} and {m_dst} are not adjacent")
    model.mpd.merge_into(m_src, m_dst)
    del index.cliques_of[m_src]
    model.jt.merge_into(src, dst)


def _rebuild_subtree(model: CompiledModel, comp: list[int], trace: BatchTrace | None) -> None:
    jt, mpd, index = model.jt, model.mpd, model.index
    variables: set[int] = set()
    for m in comp:
        variables |= mpd.cluster(m)
    doomed = sorted(set().union(*(index.cliques_of[m] for m in comp)))
    for k in doomed:
        jt.mark(k)

    old_boundary = sorted(
        (m, nb, mpd.separator(m, nb))
        for m in comp
        for nb in mpd.neighbors(m)
        if nb not in comp
    )

    if not variables:
        # every cluster of the subtree was emptied by node removals: the
        # boundary separators are necessarily empty, so drop the clusters
        # and leave reconnection to the end-of-batch fragment rejoin
        if any(sep for _, _, sep in old_boundary):
            raise InconsistencyError("emptied subtree has a non-empty boundary separator")
        for k in doomed:
            jt.remove_cluster(k)
        for m in comp:
            mpd.remove_cluster(m)
            del index.cliques_of[m]
        if trace is not None:
            trace.subtrees.append(SubtreeTrace(tuple(comp), frozenset(), (), ()))
        return

    g_sub = model.moral.induced(variables)
    t, _tri = construct_join_tree(g_sub)
    t_mpd, t_index = aggregate_cliques(t, g_sub)

    jt_map = {lid: jt.add_cluster(t.cluster(lid)) for lid in t.cluster_ids()}
    for a, b, sep in t.edges():
        jt.add_edge(jt_map[a], jt_map[b], sep)
    mpd_map = {lid: mpd.add_cluster(t_mpd.cluster(lid)) for lid in t_mpd.cluster_ids()}
    for a, b, sep in t_mpd.edges():
        mpd.add_edge(mpd_map[a], mpd_map[b], sep)
    for m_local, cliques in t_index.cliques_of.items():
        index.cliques_of[mpd_map[m_local]] = {jt_map[c] for c in cliques}
    owner_global = {jt_map[c]: mpd_map[m] for c, m in t_index.owner_map().items()}
    new_clique_ids = set(jt_map.values())
    if trace is not None:
        trace.new_jt_ids |= new_clique_ids
        trace.new_mpd_ids |= set(mpd_map.values())
        trace.subtrees.append(
            SubtreeTrace(
                tuple(comp),
                frozenset(variables),
                tuple(t.cluster(l) for l in t.cluster_ids()),
                tuple(t_mpd.cluster(l) for l in t_mpd.cluster_ids()),
            )
        )

    records, visited = connect(jt, new_clique_ids, doomed[0])
    if visited != set(doomed):
        raise InconsistencyError(
            "marked cliques do not form one connected junction subtree"
        )

    # mirror each junction reattachment as an MPS-tree edge; the boundary
    # must match the old MPS boundary one-to-one, so only the cliques of the
    # boundary MPSs can be reattached
    owner_old = {c: nb for _, nb, _ in old_boundary for c in index.cliques_of[nb]}
    mirrored = Counter()
    for _k, c_k, sep, target in records:
        m_out = owner_old.get(c_k)
        if m_out is None:
            raise InconsistencyError(
                f"reattached cluster {c_k} lies outside the MPS boundary of the subtree"
            )
        mpd.add_edge(owner_global[target], m_out, sep)
        mirrored[(m_out, sep)] += 1
    if mirrored != Counter((nb, sep) for _, nb, sep in old_boundary):
        raise InconsistencyError("junction and MPS boundaries disagree")

    for k in doomed:
        jt.remove_cluster(k)
    for m in comp:
        mpd.remove_cluster(m)
        del index.cliques_of[m]

    # re-host families whose clique died; a dead host is a doomed clique,
    # which holds its variable, so only the region's variables can need it
    dead = set(doomed)
    for var in sorted(variables):
        if index.clique_of.get(var) in dead:
            fam = model.dag.family(var)
            best = None
            for cid in sorted(new_clique_ids):
                vs = jt.cluster(cid)
                if fam <= vs and (best is None or (len(vs), cid) < best):
                    best = (len(vs), cid)
            if best is None:
                raise InconsistencyError(
                    f"family of variable {var} not covered by the rebuilt subtree"
                )
            index.clique_of[var] = best[1]
            index.mps_of[var] = owner_global[best[1]]

    for _k, c_k, sep, target in records:
        if target in jt and jt.cluster(target) == sep:
            _amalgamate(model, target, c_k, owner_global[target], owner_old[c_k], trace)


def _rejoin_fragments(model: CompiledModel) -> None:
    # hang every fragment left by emptied subtrees on the first by an empty
    # separator; the junction tree is then connected, so it is a tree iff it
    # has one edge fewer than clusters
    comps = model.jt.components()
    if len(comps) > 1:
        owner = model.index.owner_map()
        anchor = min(comps[0])
        for comp in comps[1:]:
            other = min(comp)
            model.jt.add_edge(anchor, other, frozenset())
            model.mpd.add_edge(owner[anchor], owner[other], frozenset())
    if len(model.jt) and model.jt.edge_count() != len(model.jt) - 1:
        raise InconsistencyError("rebuild left a cycle in the junction tree")


def derive_triangulation(moral: UndirectedGraph, jt: ClusterTree) -> Triangulation:
    """The triangulation record implied by a junction tree over a moral graph.

    The triangulated graph is the union of the cluster completions, so the
    fill is every pair inside a cluster that is not a moral edge.  Its
    chordality is ``validate``'s to check, not this function's.
    """
    fill = frozenset(
        frozenset((u, v))
        for cid in jt.cluster_ids()
        for u, v in combinations(sorted(jt.cluster(cid)), 2)
        if not moral.has_edge(u, v)
    )
    return Triangulation(moral, fill)


def incremental_compile(
    model: CompiledModel,
    mods: Sequence[Modification],
    trace: BatchTrace | None = None,
) -> CompiledModel:
    """Re-establish the compiled structures after a batch of edits.

    The model is updated in place (and returned); unmarked clusters survive
    with identical vertex sets.  The whole batch is first replayed on a copy
    of the dag, so an invalid modification raises before the model is
    touched; internal inconsistencies raise InconsistencyError and are never
    silently repaired.
    """
    scratch = model.dag.copy()
    for mod in mods:
        apply_modification(scratch, mod)
    for mod in mods:
        rec = ModTrace(mod=mod, description=describe(mod, model.dag))
        apply_modification(model.dag, mod)
        links = modify_moral_graph(model, mod)
        rec.links = list(links)
        match mod:
            case AddNode(name):
                add_node(model, model.dag.table.id(name), rec)
            case RemoveNode(node):
                mark_remove_node(model, node, rec)
                model.index.mps_of.pop(node, None)
                model.index.clique_of.pop(node, None)
            case RemoveArc(_, child):
                mark_remove_link(model, links, model.index.mps_of[child], rec)
            case AddArc(parent, child):
                mark_add_link(model, parent, child, links, rec)
        if trace is not None:
            trace.mods.append(rec)

    marked = model.mpd.marked_ids()
    if marked:
        for comp in map(sorted, model.mpd.components(marked)):
            _rebuild_subtree(model, comp, trace)
        _rejoin_fragments(model)
        if model.mpd.marked_ids() or model.jt.marked_ids():
            raise InconsistencyError("marks survived the rebuild phase")
        if not model.mpd.is_tree():
            raise InconsistencyError("rebuild left a disconnected cluster structure")
    model._tri = None
    return model
