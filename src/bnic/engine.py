"""Incremental recompilation of a compiled model under structural edits.

A batch of modifications is processed in two phases.  Phase one applies the
batch to the dag in one pass, undone whole if an edit raises, reading off
each edit the moral links it changed, then walks its record edit by edit
and marks the MPSs whose internal structure may have changed; the marks
are a set owned by the batch, and no existing cluster's vertex set changes
before phase two.  The dag is the one record of moral adjacency: {u, v} is
moral iff an arc joins u and v or they share a child
(:meth:`~bnic.graph.Dag.moral_condition`), and no moral graph is stored.
Phase two rebuilds the cliques of each connected marked region.  Each
added link that the region's triangulation lacks goes straight into its
junction subtree as one new clique while Ibarra's rule allows it.  When
all go in, the subtree is thinned in place, and only the cliques an
insertion or a dropped fill edge touches change; at the first link
refused, the region is re-triangulated from its moral subgraph, read off
the dag (:func:`~bnic.graph.moral_subgraph`), into new cliques of the
junction tree, spliced in for its live cliques, the inserted ones
included.  Either way no unmarked clique's vertex set changes, and one
tail finishes the region: it regroups the region's cliques at their
separators that hold a fill pair, which are those incomplete in the moral
graph, maps their owners and re-hosts the families whose clique died or
stopped covering them.

Each step returns what it did: a marking function the MPSs it marks, a
rebuild its region and the pieces absorbed.  Only
:func:`incremental_compile` writes the trace, from those results.

The engine keeps one tree, the junction tree, and an owner map from each
clique to its MPS (see :class:`CompiledModel`).  The MPSs are connected
clique groups cut at separators complete in the moral graph, which is what
makes boundary separators complete and the splice well defined; violations
raise :class:`~bnic.errors.InconsistencyError` rather than being repaired.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Sequence

from .clustertree import ClusterTree, HolderIndex
from .errors import InconsistencyError
from .graph import Dag, Link, UndirectedGraph, moral_subgraph, moralize
from .mpd import inner_edges, union_groups
from .pipeline import Triangulation, assign_families, construct_join_tree, thin_join_tree

# Unused by the package; kept because the benchmark's tracer binds them.
from .mpd import aggregate_cliques
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


@dataclass(eq=False, repr=False)
class CompiledModel:
    """The mutually consistent bundle of structures kept up to date by edits.

    Each hosting fact is kept once: ``family`` maps a variable to the clique
    hosting its family, and ``owner`` maps every clique to its MPS.  The
    moral graph is not kept: the dag is its one record (see
    :func:`~bnic.graph.moralize`).  ``fill`` is the triangulation's fill, a
    graph over the dag's variables: the moral graph plus ``fill`` is the
    triangulated graph H, whose maximal cliques are the junction clusters.
    Edits keep it (see :func:`_rebuild_subtree`); ``moral`` and ``tri``
    moralize the dag on every read, and ``mpd`` derives the MPS tree from
    ``jt`` and ``owner`` on every read.

    Every MPS id is the least clique of its group, and that clique belongs
    to the group.  One rule names them: a full compile and a rebuilt region
    alike group junction cliques under their own ids and take each group's
    least.  A new node's clique owns itself, and a piece of a region that an
    outside clique absorbs is complete in the moral graph, so it is the
    only clique of its group, and the group goes with it.  Groups change in
    no other way, so the cliques of MPS m are a walk from clique m over the
    cliques m owns (:func:`_group`).

    ``owner`` lists its cliques in ascending id order: ids only grow, and a
    full compile, a new node and a rebuilt region each add theirs in order.
    """

    dag: Dag
    jt: ClusterTree
    owner: dict[int, int]
    family: dict[int, int]
    fill: UndirectedGraph

    # Unused by the package; kept because the benchmark's workload reads them.
    @property
    def moral(self) -> UndirectedGraph:
        return moralize(self.dag)

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
        return CompiledModel(self.dag.copy(), self.jt.copy(), dict(self.owner), dict(self.family), self.fill.copy())


@dataclass
class ModTrace:
    """What one modification did during the marking phase."""

    mod: Modification
    description: str
    links: list[Link]
    touched: dict[int, frozenset[int]]
    rewired: list[dict]

    def marked_sets(self) -> set[frozenset[int]]:
        return set(self.touched.values())


@dataclass
class SubtreeTrace:
    """One connected marked subtree rebuilt during the splice phase.

    ``thinned`` says whether its own junction subtree was rebuilt in place,
    rather than its region re-triangulated by min-fill, and ``inserted``
    whether that took links H lacked, each in a new clique.
    ``new_cliques`` lists the region's cliques alive after the rebuild: for
    a region rebuilt in place, those it kept and those its insertions and
    splits made; a piece an outside clique absorbed is not among them.
    """

    mps_ids: tuple[int, ...]
    variables: frozenset[int]
    new_cliques: tuple[frozenset[int], ...]
    thinned: bool
    inserted: bool

    @property
    def path(self) -> str:
        """The rebuild path the region took: "inserted", "thinned" or "re-triangulated"."""
        return "inserted" if self.inserted else "thinned" if self.thinned else "re-triangulated"


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


# ---------------------------------------------------------------------------
# Phase one: moral links and marking
# ---------------------------------------------------------------------------


def modify_moral_graph(model: CompiledModel, mod: Modification) -> list[Link]:
    """The moral links an edit added or deleted, read off the dag after the edit.

    {u, v} is moral iff an arc joins u and v or they share a child
    (:meth:`Dag.moral_condition`).  An arc p → c can change only the pairs
    {p, c} and {p, z}, z another parent of c; every other pair of the
    family keeps its common child c.  An added arc lists {p, c} unless p
    and c share a child, and {p, z} unless an arc joins p and z or they
    share a child other than c.  A removed arc lists each of those pairs
    that is no longer moral: all were moral before.  A node is added and
    removed without arcs, so it changes no link.
    """
    dag = model.dag
    match mod:
        case AddNode() | RemoveNode():
            return []
        case AddArc(parent, child):
            links = [] if dag.common_child(parent, child) else [Link(parent, child, True)]
            kids = set(dag.children(parent))  # child among them
            for z in sorted(dag.parents(child)):
                if z != parent and not (
                    dag.has_arc(parent, z) or dag.has_arc(z, parent) or len(kids.intersection(dag.children(z))) > 1
                ):
                    links.append(Link(parent, z, True))
            return links
        case RemoveArc(parent, child):
            candidates = [(parent, child), *((parent, z) for z in dag.parents(child) if z != parent)]
            return [Link(u, v, False) for u, v in candidates if not dag.moral_condition(u, v)]
    raise TypeError(f"unknown modification {mod!r}")


def mark_remove_link(model: CompiledModel, parent: int, child: int, links: Sequence[Link]) -> list[int]:
    """The MPSs invalidated by removing the arc parent → child, in marking order.

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
        return []
    jt, family, owner = model.jt, model.family, model.owner
    m_y = owner[family[child]]
    partners = {l.u if l.v == parent else l.v for l in links}
    hit = {owner[c] for c in _holders(jt, family[parent], parent) if partners & jt.cluster(c)}
    return [m_y, *sorted(hit - {m_y})]


def mark_remove_node(model: CompiledModel, x: int) -> list[int]:
    """The MPSs holding an isolated variable, ascending; drops it from the family map and the fill.

    The clusters keep x until the rebuild, which leaves out the variables
    the batch removed; every holder of x is marked, so no boundary
    separator holds it.
    """
    host = model.family.pop(x)
    model.fill.remove_vertex(x)
    return sorted({model.owner[c] for c in _holders(model.jt, host, x)})


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


def add_node(model: CompiledModel, x: int) -> list[int]:
    """Host a brand-new isolated variable in a singleton clique, its own MPS.

    The clique attaches to the lowest-id existing clique by an empty
    separator.  Returns its MPS, the one mark.
    """
    jt = model.jt
    anchor = next(iter(model.owner), None)  # the least clique: owner keys ascend
    c = jt.add_cluster({x})
    if anchor is not None:
        jt.add_edge(c, anchor)
    model.owner[c] = c
    model.family[x] = c
    model.fill.add_vertex(x)
    return [c]


def mark_add_link(model: CompiledModel, parent: int, child: int, marked: set[int]) -> tuple[list[int], dict | None]:
    """The MPS path that must host a new arc and its induced moral links, and the rewiring.

    One breadth-first walk over the junction tree from the child's family
    host (:meth:`ClusterTree.path`) stops at the first clique holding
    parent, c_x: the holders of
    parent are one subtree (see :func:`_holders`), so the nearest is
    unique.  The owners along the path [c_x … host] are the MPS path
    [m_x … m_y].  If an empty separator lies on the path, the junction edge
    carrying it is cut and c_x is joined to clique m_y directly, shrinking
    the region to re-triangulate.  The rewiring, returned with the path's
    MPSs (the batch's earlier ``marked`` decide only which separators may
    be cut), labels the new link by the separator {parent}; the junction
    edge itself stays empty until the rebuild, since its ends share nothing.

    One path serves every link the arc induces: each joins parent to a
    member w of the child's family.  An old member lies in m_y; a parent
    added earlier in the batch has already marked its own path to the same
    m_y.  So the marked component holding this path holds both ends of
    every new link.
    """
    jt, owner = model.jt, model.owner
    host = model.family[child]
    path = jt.path(host, lambda c: parent in jt.cluster(c))
    if path is None:
        raise InconsistencyError(f"no cluster reachable from the host of {child} contains variable {parent}")
    c_x = path[0]
    # an empty separator between two already-marked MPSs must stay:
    # cutting it would sever a pending rebuild obligation (marks are
    # rebuilt together only while they stay connected)
    empty = [
        (a, b)
        for a, b in zip(path, path[1:])
        if jt.cluster(a).isdisjoint(jt.cluster(b)) and not (owner[a] in marked and owner[b] in marked)
    ]
    rewiring = None
    if empty:
        a, b = empty[0]
        m_x, m_y = owner[c_x], owner[host]
        jt.remove_edge(a, b)
        jt.add_edge(c_x, m_y)
        rewiring = {"removed": (owner[a], owner[b]), "added": (m_x, m_y), "separator": frozenset({parent})}
        path = [c_x, m_y]
    return list(dict.fromkeys(owner[c] for c in path)), rewiring


# ---------------------------------------------------------------------------
# Phase two: rebuild and splice
# ---------------------------------------------------------------------------


def connect(tree: ClusterTree, index: HolderIndex, doomed: list[int]) -> list[int]:
    """Reattach the boundary of the doomed clusters to new clusters.

    Scans the doomed clusters C_i and their neighbours in ascending order.
    Every edge from C_i to a cluster C_k outside them, with separator S, is
    re-hung onto the replacements' :meth:`~bnic.clustertree.HolderIndex.cover`
    of S (the smallest cluster covering it, ties: lower id; families are
    hosted by the same rule).  The replacements are the live clusters of
    ``index``.  Every cover meets C_k in exactly S, since C_k meets the
    rebuilt region only in S, so the new edge's separator is S again and
    overlap with C_k cannot rank the covers.  With no replacements
    (an emptied subtree, whose separators must all be empty) every C_k
    hangs on the first C_k, which itself gets no edge.  Returns, in scan
    order, the covers equal to their separator: new cliques that
    :func:`absorb_non_maximal` then merges into the outside clique beyond.
    """
    inside = set(doomed)
    pieces: list[int] = []
    hub = None  # with no replacements, the first C_k
    for ci in sorted(inside):
        for ck in tree.neighbors(ci):
            if ck in inside:
                continue
            sep = tree.separator(ci, ck)
            if index.ids:
                target = index.cover(sep)
                if target is None:
                    raise InconsistencyError(f"no replacement cluster covers boundary separator {sorted(sep)}")
                if tree.cluster(target) == sep:
                    pieces.append(target)
            elif sep:
                raise InconsistencyError("emptied subtree has a non-empty boundary separator")
            else:
                hub = target = ck if hub is None else hub
            if target != ck:
                tree.add_edge(target, ck)
    return pieces


def absorb_non_maximal(tree: ClusterTree, ids: list[int]) -> list[tuple[frozenset[int], int]]:
    """Merge every cluster of ``ids`` contained in an adjacent neighbour into it.

    One scan in ascending id order.  A cluster inside another lies inside
    the neighbour on its tree path to it, by running intersection, so only
    neighbours need a look, and no merge makes a scanned cluster X
    absorbable.  When src merges into dst, X gains dst as a neighbour only
    if src was one or X is dst.  In the first case X ⊆ dst would give
    X ⊆ src, src lying on the path from X to dst; in the second, a new
    neighbour Y ⊇ dst would give dst ⊆ Y ∩ dst ⊆ src, src lying on the path
    from dst to Y.  Either way X lay inside a neighbour before the merge,
    as no scanned, unmerged cluster does.  Returns the merges as (merged
    vertex set, absorbing cluster).
    """
    merges: list[tuple[frozenset[int], int]] = []
    for cid in sorted(set(ids)):
        vs = tree.cluster(cid)
        nb = next((nb for nb in tree.neighbors(cid) if vs <= tree.cluster(nb)), None)
        if nb is not None:
            tree.merge_into(cid, nb)
            merges.append((vs, nb))
    return merges


def _rebuild_subtree(
    model: CompiledModel, doomed: list[int], links: dict[tuple[int, int], bool], grown: set[int]
) -> tuple[set[int], bool, bool, list[tuple[frozenset[int], int]], list[int]]:
    """Rebuild the doomed cliques, in place when their triangulation covers the batch or can take its links.

    ``doomed`` lists, ascending, the cliques of a connected set of marked
    MPSs.  ``links`` holds the batch's net moral link changes, each pair
    mapped to whether it was added, and ``grown`` the children of its added
    arcs.  The region R is the union of the doomed cliques less the
    variables the batch removed (those the dag's table lost), and
    H = moral + fill is the triangulation before the batch.  Every holder
    of a removed variable is marked, so no boundary separator holds one.

    Each link the batch added inside R that H lacks is placed and inserted
    by one call of :func:`_insert_link` straight into the junction tree, in
    batch order, over the region's live cliques: the doomed ones less the
    ends an inserted clique K absorbed, plus the Ks.
    When all go in, :func:`_thin_region` thins the subtree in place: H
    restricted to R then contains the new moral graph on R (an added link
    was fill or is inserted, a deleted one becomes fill).  At the first
    link refused, min-fill re-triangulates the region's moral subgraph,
    read off the dag (:func:`~bnic.graph.moral_subgraph`), into new cliques
    of the junction tree, joined only to each other until :func:`connect`
    splices them in for the live cliques, and the
    fill drops its pairs inside R for the region's kept pairs.  The Ks add
    no fill, so the dropped pairs are the doomed cliques' fill: an outside
    clique meets R only inside one boundary MPS separator, complete in the
    moral graph, and an edit changes moral links only inside the marked
    region.  The new cliques are maximal among themselves and an outside
    clique keeps its vertex set, so a new clique inside another equals the
    boundary separator it hangs on, and
    :func:`absorb_non_maximal` merges it into the outside clique beyond.

    Either way the branch hands on the holder index of the region's new or
    kept cliques, whose live clusters are the region's cliques, and they are
    then finished alike:

    - Every piece an outside clique absorbed must be complete in the moral
      graph, as the boundary separator it equals is, which each of its pairs
      checks on the dag; so all its separators are complete and it was the
      only clique of its group.
    - The region's live cliques are regrouped by the rule of a full compile
      (:func:`~bnic.mpd.inner_edges`): the edges among them whose separator
      holds a fill pair join their ends, and :func:`~bnic.mpd.union_groups`
      names each group by its least clique.  The fill is the region's new
      one by now, and it shares no pair with the moral graph, so those are
      the separators incomplete in the moral graph.  The separators between
      the region and the rest stay complete, so this is the whole regroup.
    - A family moves only when its host is one of the doomed cliques and
      died or no longer covers it, to the smallest covering clique of the
      region or of the outside cliques that absorbed a piece of it (ties:
      lower id).  A kept clique loses only removed variables, so a host
      that did not die stops covering a family only when an added arc grew
      it: only the variables of the dead cliques and ``grown`` are checked.
      The covers are read off the same holder index, widened by the
      absorbing outside cliques; none is built again.

    Returns the region's variables, whether it was rebuilt in place and
    whether links were inserted, the absorbed pieces as (piece, outside
    clique) and the region's live cliques.
    """
    jt, owner, family, dag = model.jt, model.owner, model.family, model.dag
    before = {c: jt.cluster(c) for c in doomed}
    variables = set(filter(dag.table.__contains__, frozenset().union(*before.values())))
    inside = {pair: a for pair, a in links.items() if variables.issuperset(pair)}
    missing = [pair for pair, a in inside.items() if a and not model.fill.has_edge(*pair)]
    live, inserted = set(doomed), []
    for u, v in missing:
        k = _insert_link(jt, live, u, v)
        if k is None:
            break
        inserted.append(k)
    # an emptied region keeps no cluster, so it takes the (empty) min-fill path
    thinned = bool(variables) and len(inserted) == len(missing)
    if thinned:
        absorbed, index = _thin_region(model, live, variables, inside, inserted)
    else:
        g_sub = moral_subgraph(dag, variables)
        model.fill.remove_induced(variables)
        kept = UndirectedGraph(variables)
        index = construct_join_tree(g_sub, kept, jt)
        model.fill.update(kept)
        pieces = connect(jt, index, sorted(live))
        for k in live:
            jt.remove_cluster(k)
        absorbed = absorb_non_maximal(jt, pieces)
    region = [c for c in index.ids if c in jt]

    for vs, c in absorbed:
        if not all(dag.moral_condition(u, w) for u, w in combinations(vs, 2)):
            raise InconsistencyError(f"absorbed piece {sorted(vs)} is not complete in the moral graph")
    for c in doomed:
        if c not in jt:
            del owner[c]
    owner.update(union_groups(region, inner_edges(jt.edges_within(set(region)), model.fill)))

    candidates = grown.union(*(vs for c, vs in before.items() if c not in jt))
    orphans = [
        v
        for v in sorted(candidates)
        if family.get(v) in before
        and not (family[v] in jt and v in (host := jt.cluster(family[v])) and host.issuperset(dag.parents(v)))
    ]
    if orphans:
        # widened by the cliques that absorbed pieces, which hold them
        for c in {c for _, c in absorbed}:
            index.add(c)
        family.update(assign_families(dag, orphans, index))
    return variables, thinned, bool(missing) and thinned, absorbed, region


def _insert_link(tree: ClusterTree, region: set[int], u: int, v: int) -> int | None:
    """Insert the link {u, v}, which no cluster holds, into a junction tree if its graph stays chordal.

    ``region`` holds the live clusters of a connected subtree of ``tree``
    holding both u and v.  The junction path C0 … Ck between the clusters
    holding u and those holding v is found by one breadth-first walk in the
    region from a holder of v to the nearest holder of u, C0; Ck is the
    holder of v nearest C0 on the way back.  C0 ∩ Ck is the set of the
    common neighbours of u and v, and the graph plus uv is chordal iff it
    equals the separator of some edge on the path (Ibarra, ACM TALG 2008).
    If none does, returns None and changes nothing.  Else the first such
    edge from C0 is cut, and K = (C0 ∩ Ck) ∪ {u, v}, the one new maximal
    clique, is joined to C0 and to Ck: the tree is a junction tree of the
    graph plus uv.  K absorbs either end it contains; no other cluster lies
    inside K, as every other maximal clique stays maximal.  ``region``
    follows: K joins it, and an absorbed end leaves.  Returns K.
    """
    cluster = tree.cluster
    start = next((c for c in region if v in cluster(c)), None)
    path = None if start is None else tree.path(start, lambda c: u in cluster(c), region.__contains__)
    if path is None:
        raise InconsistencyError(f"no clusters of the region hold variables {u} and {v}")
    k = next(i for i, c in enumerate(path) if v in cluster(c))
    ends = path[0], path[k]
    meet = cluster(ends[0]) & cluster(ends[1])
    i = next((i for i in range(k) if cluster(path[i]) & cluster(path[i + 1]) == meet), None)
    if i is None:
        return None
    tree.remove_edge(path[i], path[i + 1])
    new = tree.add_cluster(meet | {u, v})
    region.add(new)
    for end in ends:
        tree.add_edge(new, end)
    for end in ends:
        if cluster(end) <= cluster(new):
            tree.merge_into(end, new)
            region.remove(end)
    return new


def _fill_pairs(fill: UndirectedGraph, vs: frozenset[int]) -> list[tuple[int, int]]:
    """The fill pairs inside vs, each as (u, w) with u < w."""
    return [(u, w) for u in vs for w in fill.neighbors(u) & vs if u < w]


def _thin_region(
    model: CompiledModel,
    live: set[int],
    variables: set[int],
    inside: dict[tuple[int, int], bool],
    inserted: list[int],
) -> tuple[list[tuple[frozenset[int], int]], HolderIndex]:
    """Thin the region's junction subtree, over its ``live`` cliques, in place.

    The result is a minimal triangulation of the region.  Only the cliques
    an insertion or a drop touches change; every other clique keeps its
    id, its vertex set and its edges, and no splice runs.

    - The batch's links inside R move between the moral graph and the
      fill: an added link was a fill pair and changes no clique, a deleted
      one joins the fill.
    - Each link the batch added and H lacks is already in the tree:
      :func:`_rebuild_subtree` inserted it, and ``inserted`` lists the new
      cliques K in batch order.  ``live`` holds the doomed cliques less the
      ends a K absorbed, plus the Ks.  The link joins the moral graph and
      its K holds no new fill pair.
    - The removed variables leave their holders, all live, and so the
      separators between them, and a cut clique inside a neighbour merges
      into it (:func:`absorb_non_maximal` on the cut cliques).  The subtree
      is then a junction tree of H plus the inserted links restricted to R,
      which is chordal and contains the new moral graph on R.
    - Seeds: H was minimal, so every old fill pair lies in two or more
      maximal cliques; only a deleted link, a pair inside a merged cut
      clique, which lost a holder, or a fill pair of an inserted clique K
      can lie in one (Rose, Tarjan & Lueker 1976).  Any other pair becomes
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
    seeds = []
    for (u, v), added in inside.items():
        if added:
            if fill.has_edge(u, v):  # else H lacked it, and it was inserted
                fill.remove_edge(u, v)
        else:
            fill.add_edge(u, v)
            seeds.append((u, v))
    cut = [c for c in live if not variables.issuperset(jt.cluster(c))]
    for c in cut:
        jt.shrink(c, jt.cluster(c) - variables)
    absorbed = absorb_non_maximal(jt, cut)
    for vs, _ in absorbed:
        seeds += _fill_pairs(fill, vs)
    for k in inserted:
        if k in jt:
            seeds += _fill_pairs(fill, jt.cluster(k))
    index = HolderIndex(jt, [c for c in sorted(live) if c in jt])
    absorbed += thin_join_tree(jt, sorted(set(seeds)), fill, index)
    return [(vs, c) for vs, c in absorbed if c not in live], index


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
    mods: Iterable[Modification],
    trace: BatchTrace | None = None,
) -> CompiledModel:
    """Re-establish the compiled structures after a batch of edits.

    The model is updated in place (and returned); unmarked clusters survive
    with identical vertex sets.  One pass applies each edit to the dag and
    records the edit's new node id, description and the moral links it
    changed (:func:`modify_moral_graph`).  An invalid edit leaves the dag as
    before the batch: its transaction (:meth:`Dag.transaction`) restores
    it, and the model stores nothing else that phase one changes.  Marking
    then walks the records and reads no graph.  Internal inconsistencies
    raise InconsistencyError and are never silently repaired.

    The doomed cliques are the groups of the marked MPSs, and each
    connected piece of them is rebuilt apart; one walk finds the pieces,
    from each marked id in ascending order over the cliques whose owner is
    marked.  The closing check counts edges.  An insertion, a split in
    place (:func:`_thin_region`) and an absorption (:func:`absorb_non_maximal`)
    each keep a tree a tree.  A splice re-hangs each boundary edge of the
    region's live cliques on their replacement tree (or, when none, on one
    boundary cluster), so a connected doomed set leaves the junction tree a
    tree, and c disconnected pieces leave c - 1 edges too many.

    A trace records each modification's links, the marks its marking
    function returns, each with the union of its cliques, and its
    rewiring; then each rebuilt region.  A region's MPSs are its marked
    ids: every MPS id is a clique of its own group.
    """
    dag, records = model.dag, []
    with dag.transaction():
        for mod in mods:
            # a removed node loses its name; any other edit raises before it is described
            description = describe(mod, dag) if trace is not None and isinstance(mod, RemoveNode) else None
            new = apply_modification(dag, mod)
            if trace is not None and description is None:
                description = describe(mod, dag)
            records.append((mod, new, description, modify_moral_graph(model, mod)))
    marked: set[int] = set()
    net: dict[tuple[int, int], bool] = {}  # the batch's moral link changes, pair -> added
    jt, owner = model.jt, model.owner
    for mod, new, description, links in records:
        for l in links:  # a link added and deleted again cancels
            if net.pop((l.u, l.v), None) is None:
                net[l.u, l.v] = l.added
        rewiring = None
        match mod:
            case AddNode():
                marks = add_node(model, new)
            case RemoveNode(node):
                marks = mark_remove_node(model, node)
            case RemoveArc(parent, child):
                marks = mark_remove_link(model, parent, child, links)
            case AddArc(parent, child):
                marks, rewiring = mark_add_link(model, parent, child, marked)
        marked.update(marks)
        if trace is not None:
            touched = {m: frozenset().union(*map(jt.cluster, _group(jt, owner, m))) for m in marks}
            trace.mods.append(ModTrace(mod, description, links, touched, [rewiring] if rewiring else []))

    if marked:
        # one walk over the marked groups: each component starts at its least
        # marked id, which is its least clique, so they come in ascending order
        doomed: set[int] = set()
        comps = []
        for m in sorted(marked):
            if m not in doomed:
                comps.append(jt.reach(m, lambda c: owner[c] in marked))
                doomed |= comps[-1]
        grown = {mod.child for mod, *_ in records if isinstance(mod, AddArc)}
        for comp in map(sorted, comps):
            variables, thinned, inserted, absorbed, region = _rebuild_subtree(model, comp, net, grown)
            if trace is not None:
                trace.absorbed += [(vs, jt.cluster(c)) for vs, c in absorbed]
                trace.new_jt_ids |= set(region) - doomed
                trace.new_mpd_ids |= {owner[c] for c in region}
                mps_ids = tuple(sorted(marked.intersection(comp)))
                cliques = tuple(jt.cluster(c) for c in region)
                trace.subtrees.append(SubtreeTrace(mps_ids, frozenset(variables), cliques, thinned, inserted))
        if jt and jt.edge_count() != len(jt) - 1:
            raise InconsistencyError(f"rebuild left {jt.edge_count()} edges on {len(jt)} junction clusters")
    return model
