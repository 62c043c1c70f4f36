"""Incremental recompilation of a compiled model under structural edits.

A batch of modifications is processed in two phases.  Phase one applies each
edit to the dag, patches the moral graph, and marks the MPS clusters whose
internal structure may have changed; the marks are a set owned by the batch,
and no existing cluster's vertex set changes before phase two.
Phase two rebuilds each connected marked subtree, by thinning its own
junction subtree when its triangulation still covers the batch's edits and
else from its induced moral subgraph, and splices the fresh junction / MPS
subtrees into the existing trees, leaving every unmarked cluster untouched.

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
from typing import Sequence

from .clustertree import ClusterTree, covering
from .errors import InconsistencyError, InvalidEditError
from .graph import Dag, Link, UndirectedGraph
from .mpd import MpdIndex, aggregate_cliques
from .pipeline import Triangulation, assign_families, construct_join_tree, thin_join_tree

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

    Each hosting fact is kept once: ``family`` maps a variable to the clique
    hosting its family, and ``index.owner`` maps that clique to its MPS.
    ``fill`` is the triangulation's fill, a graph over the moral graph's
    vertices: the moral graph plus ``fill`` is the triangulated graph H,
    whose maximal cliques are the junction clusters.  Edits keep it (see
    :func:`_rebuild_subtree`); ``tri`` is a view of both graphs.
    """

    def __init__(
        self,
        dag: Dag,
        moral: UndirectedGraph,
        jt: ClusterTree,
        mpd: ClusterTree,
        index: MpdIndex,
        family: dict[int, int],
        fill: UndirectedGraph,
    ):
        self.dag = dag
        self.moral = moral
        self.jt = jt
        self.mpd = mpd
        self.index = index
        self.family = family
        self.fill = fill

    @property
    def tri(self) -> Triangulation:
        return Triangulation(self.moral, self.fill)

    def copy(self) -> "CompiledModel":
        parts = (self.dag, self.moral, self.jt, self.mpd, self.index)
        return CompiledModel(*(p.copy() for p in parts), dict(self.family), self.fill.copy())


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
    """One connected marked subtree rebuilt during the splice phase.

    ``thinned`` says whether its own junction subtree was thinned, rather
    than its region re-triangulated by min-fill.
    """

    mps_ids: tuple[int, ...]
    variables: frozenset[int]
    new_cliques: tuple[frozenset[int], ...]
    thinned: bool


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


def _mark(marked: set[int], tree: ClusterTree, cid: int, rec: ModTrace | None) -> None:
    marked.add(cid)
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
            links = []
            for u, v in [(parent, child), *combinations(sorted(dag.family(child)), 2)]:
                if not moral.has_edge(u, v):
                    moral.add_edge(u, v)
                    links.append(Link(u, v, True))
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
    parent: int,
    child: int,
    links: Sequence[Link],
    marked: set[int],
    rec: ModTrace | None = None,
) -> None:
    """Mark the MPSs invalidated by removing the arc parent → child.

    These are the host m_y of the child's family and every MPS holding both
    ends of a deleted moral link; the rebuild must cover each of them or its
    boundary separators could stay incomplete.  Every deleted link is
    {parent, w}, so one walk over the holders of parent, from the MPS of
    parent's family host, finds them all: the holders that contain any
    deleted partner w.  Membership is read off the current vertex sets, so a
    host gone stale inside a batch (an earlier edit grew the family without
    a rebuild yet) changes nothing.

    An arc whose removal deletes no moral link (parent and child keep a
    common child) marks nothing: the moral graph is unchanged, and the
    child's host still covers its shrunk family.  If an earlier edit of the
    batch grew that family, it has already marked its path to the host.
    """
    if not links:
        return
    mpd, family, owner = model.mpd, model.family, model.index.owner
    _mark(marked, mpd, owner[family[child]], rec)
    partners = {l.u if l.v == parent else l.v for l in links}
    for m in sorted(_holders(mpd, owner[family[parent]], parent)):
        if partners & mpd.cluster(m):
            _mark(marked, mpd, m, rec)


def mark_remove_node(model: CompiledModel, x: int, marked: set[int], rec: ModTrace | None = None) -> None:
    """Mark the MPSs holding an isolated variable, and drop it from the family map and the fill.

    The clusters keep x until the rebuild, which leaves out the variables
    the batch removed; every holder of x is marked, so no boundary
    separator holds it.
    """
    host = model.family.pop(x)
    model.fill.remove_vertex(x)
    for m in sorted(_holders(model.mpd, model.index.owner[host], x)):
        _mark(marked, model.mpd, m, rec)


def _holders(tree: ClusterTree, start: int, x: int) -> set[int]:
    """The clusters holding x, walked from start, which holds x.

    Running intersection makes them a connected subtree, and a batch keeps
    it so until the rebuild: new nodes get singletons, and rewiring only
    cuts empty separators, whose ends share nothing (as do the ends it
    joins).
    """
    found = {start}
    stack = [start]
    while stack:
        for nb in tree.neighbors(stack.pop()):
            if nb not in found and x in tree.cluster(nb):
                found.add(nb)
                stack.append(nb)
    return found


def add_node(model: CompiledModel, x: int, marked: set[int], rec: ModTrace | None = None) -> None:
    """Host a brand-new isolated variable in singleton clusters of both trees.

    The clusters attach by empty separators: the clique to the lowest-id
    existing clique, the MPS to that clique's owner (keeping the two trees'
    edges mirrored).  The MPS is marked for rebuild.
    """
    jt, mpd, index = model.jt, model.mpd, model.index
    anchor = min(jt.cluster_ids()) if len(jt) else None
    c = jt.add_cluster({x})
    m = mpd.add_cluster({x})
    if anchor is not None:
        jt.add_edge(c, anchor, frozenset())
        mpd.add_edge(m, index.owner[anchor], frozenset())
    index.cliques_of[m] = {c}
    index.owner[c] = m
    model.family[x] = c
    model.fill.add_vertex(x)
    _mark(marked, mpd, m, rec)


def mark_add_link(
    model: CompiledModel,
    parent: int,
    child: int,
    marked: set[int],
    rec: ModTrace | None = None,
) -> None:
    """Mark the MPS path that must host a new arc and its induced moral links.

    One breadth-first walk from m_y, the MPS hosting the child's family,
    stops at the first layer holding parent and takes its lowest id as m_x;
    the path [m_x … m_y] is read back along the walk's parents.  If an empty
    separator lies on the path, it is deleted and the two MPSs are joined
    directly by an artificial separator {parent}, shrinking the region to
    re-triangulate.

    One path serves every link the arc induces: each joins parent to a
    member w of the child's family.  An old member lies in m_y; a parent
    added earlier in the batch has already marked its own path to the same
    m_y.  So the marked component holding this path holds both ends of
    every new link.
    """
    mpd, jt, index = model.mpd, model.jt, model.index
    m_y = index.owner[model.family[child]]
    up = {m_y: m_y}
    layer = [m_y]
    found = [m_y] if parent in mpd.cluster(m_y) else []
    while not found:
        if not layer:
            raise InconsistencyError(f"no cluster contains variable {parent}")
        nxt = []
        for c in layer:
            for nb in mpd.neighbors(c):
                if nb not in up:
                    up[nb] = c
                    nxt.append(nb)
        found = [c for c in nxt if parent in mpd.cluster(c)]
        layer = nxt
    m_x = min(found)
    path = [m_x]
    while path[-1] != m_y:
        path.append(up[path[-1]])
    # an empty separator between two already-marked clusters must stay:
    # deleting it would sever a pending rebuild obligation (marks are
    # rebuilt together only while they stay connected)
    empty = [
        (a, b)
        for a, b in zip(path, path[1:])
        if not mpd.separator(a, b) and not (a in marked and b in marked)
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
            rec.rewired.append({"removed": (a, b), "added": (m_x, m_y), "separator": sep})
        path = [m_x, m_y]
    for m in path:
        _mark(marked, mpd, m, rec)


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


def connect(
    tree: ClusterTree, replacement_ids: set[int], doomed: list[int]
) -> list[tuple[int, int, frozenset[int], int]]:
    """Reattach the boundary of the doomed clusters to new clusters.

    Scans the doomed clusters C_i and their neighbours in ascending order.
    Every separator S leading to a cluster C_k outside them is re-hung onto
    the smallest replacement cluster covering S (ties: lower id), found
    from the replacements' holder masks.  Every cover meets C_k in exactly
    S, since C_k meets the rebuilt region only in S, so overlap with C_k
    cannot rank them.  With no replacements (an emptied subtree, whose
    separators are all empty) every C_k hangs on the first record's C_k,
    which itself gets no edge.  Returns the records (C_i, C_k, S, target);
    one whose target equals S flags a later amalgamation.
    """
    ids = sorted(replacement_ids)
    holders = tree.holder_masks(ids)
    inside = set(doomed)
    records: list[tuple[int, int, frozenset[int], int]] = []
    for ci in sorted(inside):
        for ck in tree.neighbors(ci):
            if ck in inside:
                continue
            sep = tree.separator(ci, ck)
            if ids:
                covers = covering(holders, ids, sep)
                if not covers:
                    raise InconsistencyError(f"no replacement cluster covers boundary separator {sorted(sep)}")
                target = min(covers, key=lambda c: len(tree.cluster(c)))
            else:
                target = records[0][1] if records else ck
            if target != ck:
                tree.add_edge(target, ck, sep)
            records.append((ci, ck, sep, target))
    return records


def absorb_non_maximal(tree: ClusterTree) -> ClusterTree:
    """Merge every cluster contained in an adjacent neighbour into it.

    Scans in ascending id order and restarts after each merge.  Returns the
    tree.
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


def _amalgamate(model: CompiledModel, src: int, dst: int, trace: BatchTrace | None) -> None:
    """Merge the new clique src, equal to its boundary separator, into dst.

    :func:`connect` hung the boundary separator S of the unmarked cluster dst
    on the new clique src, with src ⊇ S.  Running intersection on the old
    tree gives src ∩ dst = S, so src ⊆ dst iff src = S: this is the only
    place a rebuild leaves a non-maximal cluster, since the new cliques are
    maximal among themselves and unmarked clusters keep their vertex sets.
    S is complete in the moral graph, so src is the only clique of its new
    MPS m_src, which the mirrored boundary edge joins to dst's MPS m_dst;
    the MPS merge mirrors the clique merge one to one, and the families
    src hosted move to dst.
    """
    index = model.index
    m_src, m_dst = index.owner[src], index.owner[dst]
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
    del index.owner[src]
    for v in model.jt.cluster(src):
        if model.family.get(v) == src:
            model.family[v] = dst
    model.jt.merge_into(src, dst)


def _doomed_tree(jt: ClusterTree, doomed: list[int], variables: set[int]) -> ClusterTree:
    """The doomed cliques cut to variables and the junction edges among them, under local ids 0, 1, ….

    Each separator is the intersection of its two ends, so a separator
    rewired by the batch, whose ends share nothing, becomes empty.  A
    cluster that lost removed variables can lie inside a neighbour, and
    :func:`absorb_non_maximal` contracts it: the result is a junction tree.
    """
    local = {c: i for i, c in enumerate(doomed)}
    t = ClusterTree({i: jt.cluster(c) & variables for c, i in local.items()}, len(doomed))
    for c, i in local.items():
        for nb in jt.neighbors(c):
            j = local.get(nb)
            if j is not None and i < j:
                t.add_edge(i, j, t.cluster(i) & t.cluster(j))
    if t.edge_count() != len(t) - 1:
        raise InconsistencyError("the doomed cliques do not form a subtree")
    return absorb_non_maximal(t)


def _rebuild_subtree(
    model: CompiledModel,
    comp: list[int],
    links: dict[tuple[int, int], bool],
    trace: BatchTrace | None,
) -> None:
    """Rebuild the union of comp's MPSs and splice it into both trees.

    ``links`` holds the batch's net moral link changes, each pair mapped to
    whether it was added.  The region R is the union of comp's MPSs less
    the variables the batch removed, and H = moral + fill is the
    triangulation before the batch.  Every holder of a removed variable is
    marked, so no boundary separator holds one.

    When every link the batch added inside R is already a fill pair, the
    doomed cliques' own junction subtree is thinned, and min-fill does not
    run:

    - H restricted to R is chordal, as an induced subgraph of a chordal
      graph, and contains the new moral graph on R: an added link was
      fill, a deleted one becomes fill.
    - The doomed subtree cut to R (:func:`_doomed_tree`) is a junction tree
      of that restriction: an outside clique meets R only inside a
      boundary separator, which a doomed clique holds.
    - The pending pairs are the fill pairs inside R less the added links,
      plus the links deleted inside R.  Thinning them leaves a minimal
      triangulation (see :func:`thin_join_tree`).
    - A boundary separator is complete in the moral graph, so it holds no
      pending pair, and each split keeps it inside one half: some new
      cluster still covers it for :func:`connect`.

    Otherwise min-fill re-triangulates the region's induced moral graph.
    Either way the fill drops its pairs inside R and gains the region's
    kept pairs.  The dropped pairs are the doomed cliques' fill: an outside
    clique meets R only inside one boundary MPS separator, complete in the
    moral graph, and an edit changes moral links only inside the marked
    region.
    """
    jt, mpd, index = model.jt, model.mpd, model.index
    variables = {v for m in comp for v in mpd.cluster(m) if model.moral.has_vertex(v)}
    doomed = sorted(set().union(*(index.cliques_of[m] for m in comp)))
    old_boundary = Counter(
        (nb, mpd.separator(m, nb)) for m in comp for nb in mpd.neighbors(m) if nb not in comp
    )
    if not variables and any(sep for _, sep in old_boundary):
        raise InconsistencyError("emptied subtree has a non-empty boundary separator")

    g_sub = model.moral.induced(variables)
    inside = {pair: a for pair, a in links.items() if variables.issuperset(pair)}
    added = {pair for pair, a in inside.items() if a}
    # an emptied region keeps no cluster, so it takes the (empty) min-fill path
    thinned = bool(variables) and all(model.fill.has_edge(*pair) for pair in added)
    if thinned:
        t = _doomed_tree(jt, doomed, variables)
        fill = {(u, w) for u in variables for w in model.fill.neighbors(u) if u < w and w in variables}
        kept = thin_join_tree(t, sorted(fill.union(inside) - added))
    else:
        t, kept = construct_join_tree(g_sub)
    t_mpd, t_index = aggregate_cliques(t, g_sub)
    model.fill.remove_induced(variables)
    for u, v in kept:
        model.fill.add_edge(u, v)

    jt_map = {lid: jt.add_cluster(t.cluster(lid)) for lid in t.cluster_ids()}
    for a, b, sep in t.edges():
        jt.add_edge(jt_map[a], jt_map[b], sep)
    mpd_map = {lid: mpd.add_cluster(t_mpd.cluster(lid)) for lid in t_mpd.cluster_ids()}
    for a, b, sep in t_mpd.edges():
        mpd.add_edge(mpd_map[a], mpd_map[b], sep)
    for m_local, cliques in t_index.cliques_of.items():
        index.cliques_of[mpd_map[m_local]] = {jt_map[c] for c in cliques}
    for c, m_local in t_index.owner.items():
        index.owner[jt_map[c]] = mpd_map[m_local]
    if trace is not None:
        trace.new_jt_ids |= set(jt_map.values())
        trace.new_mpd_ids |= set(mpd_map.values())
        trace.subtrees.append(
            SubtreeTrace(tuple(comp), frozenset(variables), tuple(t.cluster(l) for l in t.cluster_ids()), thinned)
        )

    # the junction boundary must mirror the old MPS boundary one to one;
    # each reattachment then becomes the MPS edge it mirrors
    records = connect(jt, set(jt_map.values()), doomed)
    if Counter((index.owner.get(c_k), sep) for _, c_k, sep, _ in records) != old_boundary:
        raise InconsistencyError("junction and MPS boundaries of the rebuilt subtree disagree")
    for _k, c_k, sep, target in records:
        if target != c_k:
            mpd.add_edge(index.owner[target], index.owner[c_k], sep)

    # re-host families whose clique died; a dead host is a doomed clique,
    # which holds its variable, so only the region's variables can need
    # it.  jt_map is increasing, so the local (size, id) choice is the
    # global one.
    dead = set(doomed)
    orphans = [v for v in sorted(variables) if model.family.get(v) in dead]
    for v, c in assign_families(model.dag, t, orphans).items():
        model.family[v] = jt_map[c]

    for k in doomed:
        jt.remove_cluster(k)
        del index.owner[k]
    for m in comp:
        mpd.remove_cluster(m)
        del index.cliques_of[m]

    for _k, c_k, sep, target in records:
        if target in jt and jt.cluster(target) == sep:
            _amalgamate(model, target, c_k, trace)


# Unused by the package; kept because the benchmark's tracer binds it.
def derive_triangulation(moral: UndirectedGraph, jt: ClusterTree) -> Triangulation:
    """The triangulation whose fill is every non-moral pair inside a cluster."""
    fill = UndirectedGraph(moral.vertices())
    for cid in jt.cluster_ids():
        for u, v in combinations(sorted(jt.cluster(cid)), 2):
            if not moral.has_edge(u, v):
                fill.add_edge(u, v)
    return Triangulation(moral, fill)


def incremental_compile(
    model: CompiledModel,
    mods: Sequence[Modification],
    trace: BatchTrace | None = None,
) -> CompiledModel:
    """Re-establish the compiled structures after a batch of edits.

    The model is updated in place (and returned); unmarked clusters survive
    with identical vertex sets.  The whole batch is first replayed on the
    dag and rolled back (:meth:`Dag.rollback`), so an invalid modification
    raises before the model is touched; internal inconsistencies raise
    InconsistencyError and are never silently repaired.

    The closing check counts edges.  A splice re-hangs each boundary edge
    of the doomed cliques on their replacement tree (or, when none, on one
    boundary cluster), so a connected doomed set leaves both trees trees,
    and c disconnected pieces leave c - 1 edges too many.
    """
    with model.dag.rollback():
        for mod in mods:
            apply_modification(model.dag, mod)
    marked: set[int] = set()
    net: dict[tuple[int, int], bool] = {}  # the batch's moral link changes, pair -> added
    for mod in mods:
        rec = None if trace is None else ModTrace(mod=mod, description=describe(mod, model.dag))
        apply_modification(model.dag, mod)
        links = modify_moral_graph(model, mod)
        for l in links:  # a link added and deleted again cancels
            if net.pop((l.u, l.v), None) is None:
                net[l.u, l.v] = l.added
        match mod:
            case AddNode(name):
                add_node(model, model.dag.table.id(name), marked, rec)
            case RemoveNode(node):
                mark_remove_node(model, node, marked, rec)
            case RemoveArc(parent, child):
                mark_remove_link(model, parent, child, links, marked, rec)
            case AddArc(parent, child):
                mark_add_link(model, parent, child, marked, rec)
        if rec is not None:
            rec.links = list(links)
            trace.mods.append(rec)

    if marked:
        for comp in map(sorted, model.mpd.components(marked)):
            _rebuild_subtree(model, comp, net, trace)
        for name, tree in (("junction", model.jt), ("MPS", model.mpd)):
            if tree and tree.edge_count() != len(tree) - 1:
                raise InconsistencyError(f"rebuild left {tree.edge_count()} edges on {len(tree)} {name} clusters")
    return model
