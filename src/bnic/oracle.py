"""From-scratch recompilation and independent validity checks.

Everything here re-derives structure from the dag alone, so the checks stay
independent of the incremental engine's bookkeeping.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from random import Random

from . import pipeline
from .clustertree import ClusterTree
from .engine import (
    AddArc,
    AddNode,
    CompiledModel,
    Modification,
    RemoveArc,
    apply_modification,
    expand_remove_node,
)
from .errors import CycleError, InvalidEditError, NotChordalError, UnknownVariableError
from .graph import Dag, UndirectedGraph, is_chordal, moralize
# aggregate_cliques is not called here, but the benchmark's tracer wraps this module's binding
from .mpd import aggregate_cliques, group_owners, inner_edges, union_groups  # noqa: F401
from .pipeline import construct_join_tree, extract_cliques


def full_recompile(dag: Dag) -> CompiledModel:
    """Compile the whole model from scratch; deterministic for a fixed dag."""
    gm = moralize(dag)
    fill = UndirectedGraph(gm.vertices())
    index = construct_join_tree(gm, fill, ClusterTree())
    # through the module, whose binding the benchmark's tracer wraps
    family = pipeline.assign_families(dag, dag.nodes(), index)
    owner = group_owners(index.tree, fill)
    return CompiledModel(dag, gm, index.tree, owner, family, fill)


# ---------------------------------------------------------------------------
# Validity report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidityReport:
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def first_failure(self) -> str | None:
        for c in self.checks:
            if not c.passed:
                return c.name
        return None

    def to_dict(self) -> dict:
        """A JSON-ready form: every check in order, the verdict and the first failure."""
        return {
            "passed": self.passed,
            "first_failure": self.first_failure,
            "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in self.checks],
        }

    def __str__(self) -> str:
        lines = [
            f"  {'PASS' if c.passed else 'FAIL'}  {c.name}" + (f": {c.detail}" if c.detail and not c.passed else "")
            for c in self.checks
        ]
        verdict = "valid" if self.passed else f"INVALID (first failure: {self.first_failure})"
        return "\n".join(lines + [f"  => model is {verdict}"])


def validate(model: CompiledModel) -> ValidityReport:
    """Run every structural check against independently re-derived facts.

    Each check's detail is empty when it passes.  Two facts keep the checks
    close to linear.  Removing an edge from a chordal graph keeps it chordal
    iff the edge lies in exactly one maximal clique (Heggernes, "Minimal
    triangulations of graphs: a survey", Discrete Math. 2006; the
    single-clique rule of Rose, Tarjan & Lueker 1976).  So minimality gives
    each vertex an int with bit i set when the i-th maximal clique holds
    it, and a fill edge {u, v} is redundant iff the AND of its ends' ints
    has exactly one bit.  The least redundant edge is the one named, and
    no fill pair list is built or sorted: the fill's vertices are scanned
    in ascending order, and the first with a redundant partner is the least
    edge's lower end (the partner's scan would otherwise have come first);
    the least fill pair that is a moral edge is found the same way, with
    one intersection of neighbourhoods per vertex.  In a tree, the
    clusters holding a variable induce a forest whose component count is
    the number of those clusters less the number of tree edges both of
    whose ends hold it, so running intersection is one count per variable.

    H is the moral graph plus the stored fill.  ``cluster_completeness``
    also requires the fill to share no pair with the moral graph; with the
    clusters complete in H and exactly its maximal cliques, the fill is
    then the non-moral pairs inside the clusters, with no scan of them.
    A maximal clique of H is complete in H, so when ``cluster_maximality``
    holds, the clusters are complete and ``cluster_completeness`` takes
    that verdict; only when maximality fails are the clusters' pairs
    scanned, so both checks keep their verdicts and details on every input.

    The junction edges are listed once, with their derived separators, for
    both the running-intersection count and the owner check, which regroups
    them by the rule of a full compile (:func:`~bnic.mpd.inner_edges`) and
    builds no MPS tree.  That rule reads the fill, whose pairs are the
    clusters' non-moral pairs once ``cluster_completeness`` holds.
    """
    checks: list[Check] = []
    dag, moral, jt, owner, fill = model.dag, model.moral, model.jt, model.owner, model.fill
    ends = [(u, ns) for u in fill.vertices() if (ns := fill.neighbors(u))]  # ascending

    def check(name: str, passed: bool, detail: str) -> None:
        checks.append(Check(name, passed, "" if passed else detail))

    def complete(g, vs) -> bool:
        try:
            return g.is_complete(vs)
        except UnknownVariableError:  # a vertex g lacks makes vs incomplete
            return False

    check("moral_graph", moral == moralize(dag), "stored moral graph differs from moralize(dag)")

    gt, chordal, witness, cliques, stray = None, False, None, [], ""
    try:
        gt = moral.union(model.fill)
        cliques = extract_cliques(gt)
        chordal = True
    except UnknownVariableError as e:  # a fill vertex the moral graph lacks
        stray = f"not checked: {e}"
    except NotChordalError:
        # only a failure pays for a second MCS, which names the witness
        chordal, witness = is_chordal(gt)
    check("triangulation_chordal", chordal, stray or f"missing chord at {witness}")

    unchecked = stray or "not checked: triangulation is not chordal"
    moral_pair = next(
        ((u, min(both)) for u, ns in ends if moral.has_vertex(u) and (both := ns & moral.neighbors(u))), None
    )
    if not chordal:
        minimal_detail = unchecked
    elif moral_pair:
        minimal_detail = f"not checked: fill pair {moral_pair} is a moral edge"
    else:
        holders = dict.fromkeys(gt.vertices(), 0)  # bit i: cliques[i] holds the vertex
        for i, c in enumerate(cliques):
            b = 1 << i
            for v in c:
                holders[v] |= b
        redundant = next(
            ((u, min(one)) for u, ns in ends if (one := [v for v in ns if (holders[u] & holders[v]).bit_count() == 1])),
            None,
        )
        minimal_detail = f"fill edge {redundant} is redundant" if redundant else ""
    check("triangulation_minimal", not minimal_detail, minimal_detail)

    nodes = set(dag.nodes())
    held = Counter(v for c in jt.cluster_ids() for v in jt.cluster(c))
    rip_detail = ""
    if not jt.is_tree():
        rip_detail = "the junction tree is not a tree"
    elif held.keys() != nodes:
        rip_detail = "junction tree variables differ from the dag's"
    else:
        edges = jt.edge_items()
        linked = Counter(v for _, _, sep in edges for v in sep)
        broken = next((v for v in dag.nodes() if held[v] - linked[v] != 1), None)
        if broken is not None:
            rip_detail = f"violated for variable {broken}"
    check("running_intersection", not rip_detail, rip_detail)

    maximal = chordal and Counter(cliques) == jt.cluster_multiset()
    # maximal cliques of H are complete in H: only a failed maximality scans
    complete_ok = gt is not None and not moral_pair and (
        maximal or all(complete(gt, jt.cluster(c)) for c in jt.cluster_ids())
    )
    incomplete = "a cluster is incomplete in the triangulated graph"
    detail = stray or (f"fill pair {moral_pair} is a moral edge" if moral_pair else incomplete)
    check("cluster_completeness", complete_ok, detail)

    check(
        "cluster_maximality",
        maximal,
        "clusters are not exactly the maximal cliques of the triangulated graph" if chordal else unchecked,
    )

    fam_detail = ""
    if set(model.family) != nodes:
        unhosted = sorted(nodes - set(model.family))
        extra = sorted(set(model.family) - nodes)
        fam_detail = f"family map variables differ from the dag's: missing {unhosted}, unknown {extra}"
    else:
        for v in dag.nodes():
            c = model.family[v]
            if not (c in jt and v in (host := jt.cluster(c)) and host.issuperset(dag.parents(v))):
                fam_detail = f"family of {v} is not hosted"
                break
    check("family_coverage", not fam_detail, fam_detail)

    # re-aggregation needs a junction tree of the triangulation whose
    # clusters are complete in it, with a fill that shares no moral pair, so
    # a separator holds a fill pair iff it is incomplete in the moral graph;
    # its owner map names every MPS by its least clique, so equality also
    # proves that the groups are connected, cut at complete separators, and
    # that the MPS tree is a tree
    prerequisites = ("triangulation_chordal", "running_intersection", "cluster_completeness")
    unmet = [c.name for c in checks if c.name in prerequisites and not c.passed]
    if unmet:
        check("mpd_owner", False, f"not checked: {', '.join(unmet)} failed")
    else:
        reference = union_groups(jt.cluster_ids(), inner_edges(edges, fill))
        differs = (c for c in sorted(owner.keys() | reference.keys()) if owner.get(c) != reference.get(c))
        c = None if owner == reference else next(differs)
        check("mpd_owner", c is None, f"clique {c} has owner {owner.get(c)}, re-aggregation gives {reference.get(c)}")

    return ValidityReport(tuple(checks))


def mpd_equal(a: ClusterTree, b: ClusterTree) -> bool:
    """Decomposition equality: cluster and separator vertex-set multisets match."""
    return (
        a.cluster_multiset() == b.cluster_multiset()
        and a.separator_multiset() == b.separator_multiset()
    )


def oracle(model: CompiledModel, reference: CompiledModel) -> str | None:
    """None when the model passes ``validate`` and its MPS tree equals the
    reference's, a full recompile of its dag; otherwise the name and detail
    of the failing check."""
    report = validate(model)
    if not report.passed:
        failed = next(c for c in report.checks if not c.passed)
        return f"{failed.name}: {failed.detail}" if failed.detail else failed.name
    if not mpd_equal(model.mpd, reference.mpd):
        return "mpd_equality_vs_full_recompile"
    return None


def stability(old: ClusterTree, new: ClusterTree) -> float:
    """Fraction of the new tree's clusters reused verbatim from the old tree."""
    if len(new) == 0:
        return 1.0
    shared = old.cluster_multiset() & new.cluster_multiset()
    return sum(shared.values()) / len(new)


# ---------------------------------------------------------------------------
# Random models and edit scripts (documented seeds live in the tests)
# ---------------------------------------------------------------------------


def random_dag(n: int, rng: Random, edge_prob: float = 0.25) -> Dag:
    """A random dag: forward arcs over a shuffled topological order."""
    dag = Dag()
    ids = [dag.add_node(f"v{i}") for i in range(n)]
    order = list(ids)
    rng.shuffle(order)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                dag.add_arc(order[i], order[j])
    return dag


def random_script(dag: Dag, n_mods: int, rng: Random) -> list[Modification]:
    """A valid mixed edit script of at most n_mods modifications.

    Node removals are expanded into their incident arc removals, exactly as
    the script front-end does.
    """
    scratch = dag.copy()
    mods: list[Modification] = []
    kinds = ["add-arc", "remove-arc", "add-node", "remove-node"]
    weights = [4, 4, 1, 1]
    guard = 0
    while len(mods) < n_mods and guard < 50 * n_mods + 50:
        guard += 1
        kind = rng.choices(kinds, weights=weights)[0]
        nodes = scratch.nodes()
        if kind in ("add-arc", "remove-arc"):
            mod = _draw_arc_edit(scratch, kind == "add-arc", rng)
            if mod is not None:
                mods.append(mod)
        elif kind == "add-node":
            mod = AddNode(f"r{scratch.table.next_id}")
            apply_modification(scratch, mod)
            mods.append(mod)
        elif kind == "remove-node" and nodes:
            node = rng.choice(nodes)
            expansion = expand_remove_node(scratch, node)
            if len(mods) + len(expansion) <= n_mods:
                for mod in expansion:
                    apply_modification(scratch, mod)
                mods.extend(expansion)
    return mods


def random_arc_edits(dag: Dag, n_edits: int, rng: Random) -> list[Modification]:
    """At most n_edits single-arc edits, each an addition or a removal with odds 1/2."""
    scratch = dag.copy()
    mods: list[Modification] = []
    guard = 0
    while len(mods) < n_edits and guard < 50 * n_edits + 50:
        guard += 1
        mod = _draw_arc_edit(scratch, rng.random() < 0.5, rng)
        if mod is not None:
            mods.append(mod)
    return mods


def _draw_arc_edit(scratch: Dag, add: bool, rng: Random) -> Modification | None:
    """Draw one valid arc addition or removal and apply it to scratch.

    An addition tries 30 random ordered pairs on scratch until one is
    neither an arc nor closes a cycle, which :meth:`Dag.add_arc` checks.
    Returns None when nothing valid was drawn.
    """
    if add:
        nodes = scratch.nodes()
        if len(nodes) < 2:
            return None
        for _ in range(30):
            u, v = rng.sample(nodes, 2)
            try:
                scratch.add_arc(u, v)
            except (InvalidEditError, CycleError):
                continue
            return AddArc(u, v)
        return None
    arcs = scratch.arcs()
    if not arcs:
        return None
    mod = RemoveArc(*rng.choice(arcs))
    apply_modification(scratch, mod)
    return mod
