"""Incremental recompilation of a compiled model under structural edits.

A batch of modifications is processed in two phases.  Phase one applies each
edit to the dag, patches the moral graph, and marks the MPSs whose internal
structure may have changed; the marks are a set owned by the batch, and no
existing cluster's vertex set changes before phase two.
Phase two rebuilds the cliques of each connected marked region.  When the
region's triangulation still covers the batch's edits, its own junction
subtree is thinned in place, and only the cliques a dropped fill edge
splits change; otherwise the region is re-triangulated from its induced
moral subgraph into new cliques of the junction tree, which are spliced in.
Either way no unmarked clique's vertex set changes, and one tail finishes
the region: it regroups the region's cliques, maps their owners, re-hosts
the families whose clique died or stopped covering them, and records the
trace.

The engine keeps one tree, the junction tree, and an owner map from each
clique to its MPS (see :class:`CompiledModel`).  The MPSs are connected
clique groups cut at separators complete in the moral graph, which is what
makes boundary separators complete and the splice well defined; violations
raise :class:`~bnic.errors.InconsistencyError` rather than being repaired.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Sequence

from .clustertree import ClusterTree, HolderIndex
from .errors import InconsistencyError, InvalidEditError
from .graph import Dag, Link, UndirectedGraph
from .mpd import aggregate_cliques
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
    hosting its family, and ``owner`` maps every clique to its MPS.
    ``fill`` is the triangulation's fill, a graph over the moral graph's
    vertices: the moral graph plus ``fill`` is the triangulated graph H,
    whose maximal cliques are the junction clusters.  Edits keep it (see
    :func:`_rebuild_subtree`); ``tri`` is a view of both graphs, and
    ``mpd`` derives the MPS tree from ``jt`` and ``owner`` on every read.

    Every MPS id is the least clique of its group, and that clique belongs
    to the group.  One rule names them: a full compile and a rebuilt region
    alike group junction cliques under their own ids and take each group's
    least.  A new node's clique owns itself, and a piece of a region that an
    outside clique absorbs is complete in the moral graph, so it is the
    only clique of its group, and the group goes with it.  Groups change in
    no other way, so the cliques of MPS m are a walk from clique m over the
    cliques m owns (:func:`_group`).
    """

    def __init__(
        self,
        dag: Dag,
        moral: UndirectedGraph,
        jt: ClusterTree,
        owner: dict[int, int],
        family: dict[int, int],
        fill: UndirectedGraph,
    ):
        self.dag = dag
        self.moral = moral
        self.jt = jt
        self.owner = owner
        self.family = family
        self.fill = fill

    # Unused by the package; kept because the benchmark's workload reads it.
    @property
    def tri(self) -> Triangulation:
        return Triangulation(self.moral, self.fill)

    @property
    def mpd(self) -> ClusterTree:
        """The MPS tree that the owner map (clique → MPS) makes of the junction tree.

        Each MPS is the union of its cliques under its own id, and every
        junction edge between cliques of two MPSs becomes an MPS edge with
        the same separator.  Fresh ids continue after the junction tree's.
        Derived on every read in one walk of the junction adjacency
        (:meth:`ClusterTree.quotient`), which needs each MPS's cliques
        connected, as the owner map keeps them.
        """
        return self.jt.quotient(self.owner)

    def copy(self) -> "CompiledModel":
        return CompiledModel(
            self.dag.copy(), self.moral.copy(), self.jt.copy(), dict(self.owner), dict(self.family), self.fill.copy()
        )


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

    ``thinned`` says whether its own junction subtree was thinned in place,
    rather than its region re-triangulated by min-fill.  ``new_cliques``
    lists the region's cliques alive after the rebuild: for a thinned
    region, those it kept and those its splits made; a piece an outside
    clique absorbed is not among them.
    """

    mps_ids: tuple[int, ...]
    variables: frozenset[int]
    new_cliques: tuple[frozenset[int], ...]
    thinned: bool


@dataclass
class BatchTrace:
    """Record of a whole incremental-compilation batch.

    ``absorbed`` lists each piece of a rebuilt region, thinned or
    re-triangulated, merged into an unmarked clique, as (piece, clique);
    ``new_jt_ids`` the cliques the rebuilds created; ``new_mpd_ids`` the
    MPSs of the rebuilt regions.  Both id sets name only cliques and MPSs
    alive after the batch: an absorbed piece is in neither.
    """

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


def _mark(marked: set[int], model: CompiledModel, m: int, rec: ModTrace | None) -> None:
    """Mark MPS m; a trace records it with the union of its cliques."""
    marked.add(m)
    if rec is not None:
        rec.touched[m] = frozenset().union(*map(model.jt.cluster, _group(model.jt, model.owner, m)))


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

    These are the MPS m_y of the child's family host and the owner of every
    clique holding both ends of a deleted moral link.  A boundary separator
    lies inside a clique, so one holding a deleted pair makes that clique's
    owner marked, and the rebuild leaves no boundary separator incomplete.
    Every deleted link is {parent, w}, so one walk over the cliques holding
    parent, from parent's family host, finds them all: the holders that
    contain any deleted partner w.  Membership is read off the current
    vertex sets, so a host gone stale inside a batch (an earlier edit grew
    the family without a rebuild yet) changes nothing.

    An arc whose removal deletes no moral link (parent and child keep a
    common child) marks nothing: the moral graph is unchanged, and the
    child's host still covers its shrunk family.  If an earlier edit of the
    batch grew that family, it has already marked its path to the host.
    """
    if not links:
        return
    jt, family, owner = model.jt, model.family, model.owner
    _mark(marked, model, owner[family[child]], rec)
    partners = {l.u if l.v == parent else l.v for l in links}
    hit = {owner[c] for c in _holders(jt, family[parent], parent) if partners & jt.cluster(c)}
    for m in sorted(hit):
        _mark(marked, model, m, rec)


def mark_remove_node(model: CompiledModel, x: int, marked: set[int], rec: ModTrace | None = None) -> None:
    """Mark the MPSs holding an isolated variable, and drop it from the family map and the fill.

    The clusters keep x until the rebuild, which leaves out the variables
    the batch removed; every holder of x is marked, so no boundary
    separator holds it.
    """
    host = model.family.pop(x)
    model.fill.remove_vertex(x)
    for m in sorted({model.owner[c] for c in _holders(model.jt, host, x)}):
        _mark(marked, model, m, rec)


def _holders(jt: ClusterTree, start: int, x: int) -> set[int]:
    """The cliques holding x, walked from start, which holds x.

    Running intersection makes them a connected subtree, and a batch keeps
    it so until the rebuild: new nodes get singletons, and rewiring only
    cuts empty separators, whose ends share nothing (as do the ends it
    joins).
    """
    return jt.reach(start, lambda c: x in jt.cluster(c))


def _group(jt: ClusterTree, owner: dict[int, int], m: int) -> set[int]:
    """The cliques of MPS m: a walk from clique m over the cliques m owns.

    A group is connected, and a batch keeps it so: rewiring cuts and adds
    only edges between two groups.
    """
    return jt.reach(m, lambda c: owner[c] == m)


def add_node(model: CompiledModel, x: int, marked: set[int], rec: ModTrace | None = None) -> None:
    """Host a brand-new isolated variable in a singleton clique, its own MPS.

    The clique attaches to the lowest-id existing clique by an empty
    separator.  Its MPS is marked for rebuild.
    """
    jt = model.jt
    anchor = min(model.owner, default=None)  # every clique is an owner key
    c = jt.add_cluster({x})
    if anchor is not None:
        jt.add_edge(c, anchor, frozenset())
    model.owner[c] = c
    model.family[x] = c
    model.fill.add_vertex(x)
    _mark(marked, model, c, rec)


def mark_add_link(
    model: CompiledModel,
    parent: int,
    child: int,
    marked: set[int],
    rec: ModTrace | None = None,
) -> None:
    """Mark the MPS path that must host a new arc and its induced moral links.

    One breadth-first walk over the junction tree from the child's family
    host stops at the first layer holding parent and takes its lowest id as
    c_x; the owners along the path [c_x … host] are the MPS path
    [m_x … m_y].  If an empty separator lies on the path, the junction edge
    carrying it is cut and c_x is joined to clique m_y directly by an
    artificial separator {parent}, shrinking the region to re-triangulate.

    One path serves every link the arc induces: each joins parent to a
    member w of the child's family.  An old member lies in m_y; a parent
    added earlier in the batch has already marked its own path to the same
    m_y.  So the marked component holding this path holds both ends of
    every new link.
    """
    jt, owner = model.jt, model.owner
    host = model.family[child]
    up = {host: host}
    layer = [host]
    found = [host] if parent in jt.cluster(host) else []
    while not found:
        if not layer:
            raise InconsistencyError(f"no cluster contains variable {parent}")
        nxt = []
        for c in layer:
            for nb in jt.neighbors(c):
                if nb not in up:
                    up[nb] = c
                    nxt.append(nb)
        found = [c for c in nxt if parent in jt.cluster(c)]
        layer = nxt
    c_x = min(found)
    path = [c_x]
    while path[-1] != host:
        path.append(up[path[-1]])
    # an empty separator between two already-marked MPSs must stay:
    # cutting it would sever a pending rebuild obligation (marks are
    # rebuilt together only while they stay connected)
    empty = [
        (a, b)
        for a, b in zip(path, path[1:])
        if not jt.separator(a, b) and not (owner[a] in marked and owner[b] in marked)
    ]
    if empty:
        a, b = empty[0]
        m_x, m_y = owner[c_x], owner[host]
        jt.remove_edge(a, b)
        sep = frozenset({parent})
        jt.add_edge(c_x, m_y, sep)
        if rec is not None:
            rec.rewired.append({"removed": (owner[a], owner[b]), "added": (m_x, m_y), "separator": sep})
        path = [c_x, m_y]
    for m in dict.fromkeys(owner[c] for c in path):
        _mark(marked, model, m, rec)


# ---------------------------------------------------------------------------
# Phase two: rebuild and splice
# ---------------------------------------------------------------------------


def connect(tree: ClusterTree, index: HolderIndex, doomed: list[int]) -> list[tuple[int, int, frozenset[int], int]]:
    """Reattach the boundary of the doomed clusters to new clusters.

    Scans the doomed clusters C_i and their neighbours in ascending order.
    Every separator S leading to a cluster C_k outside them is re-hung onto
    the replacements' :meth:`~bnic.clustertree.HolderIndex.cover` of S (the
    smallest cluster covering it, ties: lower id; families are hosted by
    the same rule).  The replacements are the live clusters of ``index``.
    Every cover meets C_k in exactly S, since C_k meets the rebuilt region
    only in S, so overlap with C_k cannot rank them.  With no replacements
    (an emptied subtree, whose separators must all be empty) every C_k
    hangs on the first record's C_k, which itself gets no edge.  Returns
    the records (C_i, C_k, S, target); a target equal to S is a new clique
    that :func:`absorb_non_maximal` then merges into an outside clique.
    """
    inside = set(doomed)
    records: list[tuple[int, int, frozenset[int], int]] = []
    for ci in sorted(inside):
        for ck in tree.neighbors(ci):
            if ck in inside:
                continue
            sep = tree.separator(ci, ck)
            if index.ids:
                target = index.cover(sep)
                if target is None:
                    raise InconsistencyError(f"no replacement cluster covers boundary separator {sorted(sep)}")
            elif sep:
                raise InconsistencyError("emptied subtree has a non-empty boundary separator")
            else:
                target = records[0][1] if records else ck
            if target != ck:
                tree.add_edge(target, ck, sep)
            records.append((ci, ck, sep, target))
    return records


def absorb_non_maximal(tree: ClusterTree, ids: list[int]) -> list[tuple[frozenset[int], int]]:
    """Merge every cluster of ``ids`` contained in an adjacent neighbour into it.

    Scans the live ones in ascending id order and restarts after each
    merge.  A cluster inside another lies inside the neighbour on its tree
    path to it, by running intersection, so none is left.  Returns the
    merges as (merged vertex set, absorbing cluster).
    """
    ids = sorted(ids)
    merges: list[tuple[frozenset[int], int]] = []
    changed = True
    while changed:
        changed = False
        for cid in ids:
            if cid not in tree:
                continue
            vs = tree.cluster(cid)
            nb = next((nb for nb in tree.neighbors(cid) if vs <= tree.cluster(nb)), None)
            if nb is not None:
                tree.merge_into(cid, nb)
                merges.append((vs, nb))
                changed = True
                break
    return merges


def _rebuild_subtree(
    model: CompiledModel,
    doomed: list[int],
    links: dict[tuple[int, int], bool],
    trace: BatchTrace | None,
) -> None:
    """Rebuild the doomed cliques, in place when their triangulation still covers the batch.

    ``doomed`` lists, ascending, the cliques of a connected set of marked
    MPSs.  ``links`` holds the batch's net moral link changes, each pair
    mapped to whether it was added.  The region R is the union of the
    doomed cliques less the variables the batch removed, and H = moral +
    fill is the triangulation before the batch.  Every holder of a removed
    variable is marked, so no boundary separator holds one.

    When every link the batch added inside R is already a fill pair, H
    restricted to R still contains the new moral graph on R (an added link
    was fill, a deleted one becomes fill), and :func:`_thin_region` thins
    it in place.  Otherwise min-fill re-triangulates the region's induced
    moral graph into new cliques of the junction tree, joined only to each
    other until :func:`connect` splices them in, and the fill drops its
    pairs inside R for the region's kept pairs.  The dropped pairs are the
    doomed cliques' fill: an outside clique meets R only inside one
    boundary MPS separator, complete in the moral graph, and an edit
    changes moral links only inside the marked region.  The new
    cliques are maximal among themselves and an outside clique keeps its
    vertex set, so a new clique inside another equals the boundary
    separator it hangs on, and :func:`absorb_non_maximal` merges it into
    the outside clique beyond.

    Either way the region's live cliques are then finished alike:

    - Every piece an outside clique absorbed must be complete in the moral
      graph, as the boundary separator it equals is; so all its separators
      are complete and it was the only clique of its group.
    - The region is regrouped through one view of its live cliques under
      their own ids (:meth:`ClusterTree.induced`, a forest at times), so
      each group is named by its least clique.  Every separator between the
      region and the rest stays complete, so this is the whole regroup.
    - A family moves only when its host is one of the doomed cliques and
      died or no longer covers it (an added arc grew it), to the smallest
      covering clique of the region or of the outside cliques that
      absorbed a piece of it (ties: lower id).  Two doomed components can
      share variables through unmarked cliques, so only this component's
      hosts are checked.  The covers are read off the holder index of the
      region's new or kept cliques that either branch hands on, widened by
      the absorbing outside cliques; none is built again.
    """
    jt, owner, family, dag = model.jt, model.owner, model.family, model.dag
    variables = {v for c in doomed for v in jt.cluster(c) if model.moral.has_vertex(v)}
    inside = {pair: a for pair, a in links.items() if variables.issuperset(pair)}
    mps_ids = tuple(sorted({owner[c] for c in doomed})) if trace is not None else ()
    start = jt.next_id
    # an emptied region keeps no cluster, so it takes the (empty) min-fill path
    thinned = bool(variables) and all(model.fill.has_edge(*pair) for pair, a in inside.items() if a)
    if thinned:
        absorbed, index = _thin_region(model, doomed, variables, inside)
    else:
        g_sub = model.moral.induced(variables)
        model.fill.remove_induced(variables)
        kept = UndirectedGraph(variables)
        index = construct_join_tree(g_sub, kept, jt)
        model.fill.update(kept)
        records = connect(jt, index, doomed)
        for k in doomed:
            jt.remove_cluster(k)
        absorbed = absorb_non_maximal(jt, [c for _, _, sep, c in records if jt.cluster(c) == sep])
    region = [c for c in doomed if c in jt] + [c for c in range(start, jt.next_id) if c in jt]

    for vs, c in absorbed:
        if not model.moral.is_complete(vs):
            raise InconsistencyError(f"absorbed piece {sorted(vs)} is not complete in the moral graph")
    for c in doomed:
        if c not in jt:
            del owner[c]
    owner.update(aggregate_cliques(jt.induced(region), model.moral)[1])

    doomed_set = set(doomed)
    orphans = [
        v
        for v in sorted(variables)
        if family.get(v) in doomed_set
        and not (family[v] in jt and v in (host := jt.cluster(family[v])) and host.issuperset(dag.parents(v)))
    ]
    if orphans:
        # widened by the cliques that absorbed pieces, which hold them
        for c in {c for _, c in absorbed}:
            index.add(c)
        family.update(assign_families(dag, orphans, index))

    if trace is not None:
        trace.absorbed += [(vs, jt.cluster(c)) for vs, c in absorbed]
        trace.new_jt_ids |= {c for c in region if c >= start}
        trace.new_mpd_ids |= {owner[c] for c in region}
        trace.subtrees.append(
            SubtreeTrace(mps_ids, frozenset(variables), tuple(jt.cluster(c) for c in region), thinned)
        )


def _thin_region(
    model: CompiledModel,
    doomed: list[int],
    variables: set[int],
    inside: dict[tuple[int, int], bool],
) -> tuple[list[tuple[frozenset[int], int]], HolderIndex]:
    """Thin the doomed cliques' own junction subtree to a minimal triangulation of the region, in place.

    Only the cliques a drop splits change; every other clique keeps its id,
    its vertex set and its edges, and no splice runs.

    - The batch's links inside R move between the moral graph and the
      fill: an added link was a fill pair and changes no clique, a deleted
      one joins the fill.
    - Each separator between two doomed cliques becomes the intersection
      of its ends: :func:`mark_add_link` may have rewired an empty one into
      {parent}.
    - The removed variables leave their holders, all doomed, and the
      separators between them, and a cut clique inside a neighbour merges
      into it (:func:`absorb_non_maximal` on the cut cliques).  The doomed
      subtree is then a junction tree of H restricted to R, which is
      chordal and contains the new moral graph on R.
    - Seeds: H was minimal, so every old fill pair lies in two or more
      maximal cliques; only a deleted link, or a pair inside a merged cut
      clique, which lost a holder, can lie in one.  Any other pair becomes
      droppable only inside a clique a drop splits, which
      :func:`thin_join_tree` re-checks, so the seeds drop what a scan of
      all the region's fill would.
    - An outside clique meets R only inside a boundary separator, complete
      in the moral graph, so it holds no fill pair and needs no holder bit.
      A split keeps each boundary separator inside one half, and a half or
      a cut clique equal to one may be absorbed by the clique beyond it.

    Returns those absorbed pieces as (piece, outside clique), and the
    thinning's holder index over the region's live cliques.
    """
    jt, fill = model.jt, model.fill
    doomed_set = set(doomed)
    seeds = []
    for (u, v), added in inside.items():
        if added:
            fill.remove_edge(u, v)
        else:
            fill.add_edge(u, v)
            seeds.append((u, v))
    cut = []
    for c in doomed:
        removed = jt.cluster(c) - variables
        if removed:
            jt.shrink(c, removed)
            cut.append(c)
        for nb in jt.neighbors(c):
            if c < nb and nb in doomed_set:
                sep = jt.cluster(c) & jt.cluster(nb)
                if sep != jt.separator(c, nb):
                    jt.remove_edge(c, nb)
                    jt.add_edge(c, nb, sep)
    absorbed = absorb_non_maximal(jt, cut) if cut else []
    for vs, _ in absorbed:
        seeds += [(u, w) for u in vs for w in fill.neighbors(u) & vs if u < w]
    index = HolderIndex(jt, [c for c in doomed if c in jt])
    absorbed += thin_join_tree(jt, sorted(set(seeds)), fill, index)
    return [(vs, c) for vs, c in absorbed if c not in doomed_set], index


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

    The doomed cliques are the groups of the marked MPSs, and each
    connected piece of them is rebuilt apart.  The closing check counts
    edges.  A split in place (:func:`_thin_region`) and an absorption
    (:func:`absorb_non_maximal`) each keep a tree a tree.  A splice re-hangs each boundary edge of the doomed
    cliques on their replacement tree (or, when none, on one boundary
    cluster), so a connected doomed set leaves the junction tree a tree,
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
        jt = model.jt
        doomed = set().union(*(_group(jt, model.owner, m) for m in marked))
        for comp in map(sorted, jt.components(doomed)):
            _rebuild_subtree(model, comp, net, trace)
        if jt and jt.edge_count() != len(jt) - 1:
            raise InconsistencyError(f"rebuild left {jt.edge_count()} edges on {len(jt)} junction clusters")
    return model
