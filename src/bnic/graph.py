"""Variable identity plus the directed and undirected graph types.

Vertex identity is a dense integer id handed out by :class:`VariableTable`;
ids of removed variables are retired and never reused, so stale references
fail loudly instead of aliasing a new variable.  All deterministic
tie-breaking elsewhere in the package is by ascending id.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

from . import kernels
from .errors import CycleError, InvalidEditError, UnknownVariableError

if TYPE_CHECKING:
    import numpy as np


class VariableTable:
    """Bidirectional name <-> dense integer id registry."""

    def __init__(self):
        self._name_of: dict[int, str] = {}
        self._id_of: dict[str, int] = {}
        self._next = 0

    def add(self, name: str) -> int:
        if not isinstance(name, str) or not name:
            raise InvalidEditError("variable name must be a non-empty string")
        if name in self._id_of:
            raise InvalidEditError(f"variable name already in use: {name!r}")
        vid = self._next
        self._next += 1
        self._name_of[vid] = name
        self._id_of[name] = vid
        return vid

    def remove(self, vid: int) -> None:
        name = self.name(vid)
        del self._name_of[vid]
        del self._id_of[name]
        # self._next is never decremented: retired ids stay retired.

    def name(self, vid: int) -> str:
        try:
            return self._name_of[vid]
        except KeyError:
            raise UnknownVariableError(f"unknown variable id {vid}") from None

    def id(self, name: str) -> int:
        try:
            return self._id_of[name]
        except KeyError:
            raise UnknownVariableError(f"unknown variable name {name!r}") from None

    @property
    def next_id(self) -> int:
        """The id the next added variable will receive."""
        return self._next

    def ids(self) -> list[int]:
        return sorted(self._name_of)

    def names(self) -> list[str]:
        return [self._name_of[v] for v in self.ids()]

    def __contains__(self, vid: int) -> bool:
        return vid in self._name_of

    def __len__(self) -> int:
        return len(self._name_of)

    def copy(self) -> "VariableTable":
        t = VariableTable()
        t._name_of = dict(self._name_of)
        t._id_of = dict(self._id_of)
        t._next = self._next
        return t


class Dag:
    """Directed acyclic graph over a variable table.

    Per-variable parent and child collections preserve arc insertion order,
    which keeps script expansion (remove-node into its incident arc
    removals) reproducible.
    """

    def __init__(self):
        self.table = VariableTable()
        self._parents: dict[int, dict[int, None]] = {}
        self._children: dict[int, dict[int, None]] = {}
        self._journal: dict[int, tuple[str, dict[int, None], dict[int, None]]] | None = None

    @contextmanager
    def transaction(self) -> Iterator[None]:
        """Undo every edit made inside the block if it raises, then re-raise.

        Each node's name and arc maps are saved before their first change and
        put back on a raise, insertion order and removed nodes included;
        added nodes are dropped and their ids unissued.  Costs O(nodes
        touched); a block that returns keeps its edits.
        """
        self._journal = journal = {}
        table, next_id = self.table, self.table.next_id
        try:
            yield
        except BaseException:
            for v in range(next_id, table.next_id):
                if v in table:
                    table.remove(v)
                    del self._parents[v], self._children[v]
            table._next = next_id
            for v, (name, ps, cs) in journal.items():
                if v < next_id:
                    table._name_of[v], table._id_of[name] = name, v
                    self._parents[v], self._children[v] = ps, cs
            raise
        finally:
            self._journal = None

    def _save(self, *vs: int) -> None:
        if self._journal is not None:
            for v in vs:
                if v not in self._journal:
                    self._journal[v] = (self.table.name(v), dict(self._parents[v]), dict(self._children[v]))

    def add_node(self, name: str) -> int:
        vid = self.table.add(name)
        self._parents[vid] = {}
        self._children[vid] = {}
        return vid

    def remove_node(self, vid: int) -> None:
        if vid not in self.table:
            raise UnknownVariableError(f"unknown variable id {vid}")
        if self._parents[vid] or self._children[vid]:
            raise InvalidEditError(
                f"cannot remove {self.table.name(vid)!r}: node still has incident arcs"
            )
        self._save(vid)
        self.table.remove(vid)
        del self._parents[vid]
        del self._children[vid]

    def add_arc(self, parent: int, child: int) -> None:
        for v in (parent, child):
            if v not in self.table:
                raise UnknownVariableError(f"unknown variable id {v}")
        if parent == child:
            raise InvalidEditError("self-loops are not allowed")
        if child in self._children[parent]:
            raise InvalidEditError(
                f"duplicate arc {self.table.name(parent)} -> {self.table.name(child)}"
            )
        if self.has_path(child, parent):
            raise CycleError(
                f"arc {self.table.name(parent)} -> {self.table.name(child)} would create a cycle"
            )
        self._save(parent, child)
        self._children[parent][child] = None
        self._parents[child][parent] = None

    def remove_arc(self, parent: int, child: int) -> None:
        if child not in self._children.get(parent, ()):
            raise InvalidEditError(f"no such arc {parent} -> {child}")
        self._save(parent, child)
        del self._children[parent][child]
        del self._parents[child][parent]

    def has_arc(self, parent: int, child: int) -> bool:
        return child in self._children.get(parent, ())

    def parents(self, vid: int) -> tuple[int, ...]:
        if vid not in self.table:
            raise UnknownVariableError(f"unknown variable id {vid}")
        return tuple(self._parents[vid])

    def children(self, vid: int) -> tuple[int, ...]:
        if vid not in self.table:
            raise UnknownVariableError(f"unknown variable id {vid}")
        return tuple(self._children[vid])

    def nodes(self) -> list[int]:
        return self.table.ids()

    def arcs(self) -> list[tuple[int, int]]:
        """All arcs, grouped by child in id order, parents in insertion order."""
        out = []
        for child in self.nodes():
            for parent in self._parents[child]:
                out.append((parent, child))
        return out

    def arc_count(self) -> int:
        return sum(len(ps) for ps in self._parents.values())

    def has_path(self, src: int, dst: int) -> bool:
        """True when dst is reachable from src along arcs (src == dst counts)."""
        if src == dst:
            return True
        seen = {src}
        stack = [src]
        while stack:
            v = stack.pop()
            for c in self._children[v]:
                if c == dst:
                    return True
                if c not in seen:
                    seen.add(c)
                    stack.append(c)
        return False

    def common_child(self, u: int, v: int) -> bool:
        return not self._children[u].keys().isdisjoint(self._children[v].keys())

    def moral_condition(self, u: int, v: int) -> bool:
        """True iff {u, v} must be an edge of the moral graph of this dag."""
        return self.has_arc(u, v) or self.has_arc(v, u) or self.common_child(u, v)

    def copy(self) -> "Dag":
        d = Dag()
        d.table = self.table.copy()
        d._parents = {v: dict(ps) for v, ps in self._parents.items()}
        d._children = {v: dict(cs) for v, cs in self._children.items()}
        return d

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dag):
            return NotImplemented
        if set(self.table.names()) != set(other.table.names()):
            return False
        mine = {(self.table.name(p), self.table.name(c)) for p, c in self.arcs()}
        theirs = {(other.table.name(p), other.table.name(c)) for p, c in other.arcs()}
        return mine == theirs

    def __len__(self) -> int:
        return len(self.table)


class UndirectedGraph:
    """Simple undirected graph over a subset of variable ids."""

    def __init__(self, vertices: Iterable[int] = ()):
        self._adj: dict[int, set[int]] = {v: set() for v in vertices}

    @classmethod
    def from_edges(cls, vertices: Iterable[int], edges: Iterable[tuple[int, int]]) -> "UndirectedGraph":
        g = cls(vertices)
        for u, v in edges:
            g.add_edge(u, v)
        return g

    def add_vertex(self, v: int) -> None:
        self._adj.setdefault(v, set())

    def remove_vertex(self, v: int) -> None:
        if v not in self._adj:
            raise UnknownVariableError(f"unknown vertex {v}")
        for nb in self._adj.pop(v):
            self._adj[nb].discard(v)

    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise InvalidEditError("self-loops are not allowed")
        if u not in self._adj or v not in self._adj:
            raise UnknownVariableError(f"unknown vertex in edge ({u}, {v})")
        self._adj[u].add(v)
        self._adj[v].add(u)

    def add_edges(self, pairs: Iterable[tuple[int, int]]) -> None:
        """Add the edges (u, v), u != v, without add_edge's per-pair checks; an unknown end raises."""
        adj = self._adj
        try:
            for u, v in pairs:
                adj[u].add(v)
                adj[v].add(u)
        except KeyError:
            raise UnknownVariableError(f"unknown vertex in edge ({u}, {v})") from None

    def remove_edge(self, u: int, v: int) -> None:
        self._adj[u].discard(v)
        self._adj[v].discard(u)

    def update(self, other: "UndirectedGraph") -> None:
        """Add other's edges: one set union per vertex of other; a vertex only other has raises, first."""
        self._check_within(other)
        adj = self._adj
        for v, ns in other._adj.items():
            adj[v] |= ns

    def _check_within(self, other: "UndirectedGraph") -> None:
        stray = other._adj.keys() - self._adj.keys()
        if stray:
            raise UnknownVariableError(f"unknown vertex {min(stray)}")

    def difference_update(self, other: "UndirectedGraph") -> None:
        """Remove other's edges: one set difference per vertex of other, which must all be this graph's."""
        adj = self._adj
        for v, ns in other._adj.items():
            adj[v] -= ns

    def remove_induced(self, vs: set[int]) -> None:
        """Remove every edge with both ends in vs: one set difference per vertex of vs."""
        for v in vs:
            self._adj[v] = self._adj[v] - vs

    def has_vertex(self, v: int) -> bool:
        return v in self._adj

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj.get(u, ())

    def neighbors(self, v: int) -> set[int]:
        return self._adj[v]

    def vertices(self) -> list[int]:
        return sorted(self._adj)

    def edges(self) -> list[tuple[int, int]]:
        return sorted((u, v) for u in self._adj for v in self._adj[u] if u < v)

    def edge_count(self) -> int:
        return sum(len(ns) for ns in self._adj.values()) // 2

    def edge_set(self) -> set[frozenset[int]]:
        return {frozenset((u, v)) for u, v in self.edges()}

    def induced(self, vs: Iterable[int]) -> "UndirectedGraph":
        """The subgraph induced by the vertex set vs."""
        vs = set(vs)
        for v in vs:  # a membership loop: a set difference would walk the whole graph
            if v not in self._adj:
                raise UnknownVariableError(f"unknown vertices {sorted(vs - self._adj.keys())}")
        g = UndirectedGraph()
        g._adj = {v: self._adj[v] & vs for v in vs}
        return g

    def union(self, other: "UndirectedGraph") -> "UndirectedGraph":
        """This graph plus other's edges, one set union per vertex; a vertex only other has raises."""
        self._check_within(other)
        get = other._adj.get
        g = UndirectedGraph()
        g._adj = {v: ns | get(v, ns) for v, ns in self._adj.items()}
        return g

    def is_complete(self, vs: Iterable[int]) -> bool:
        """True iff every pair of vs is adjacent (empty and singletons pass)."""
        vs = list(vs)
        for v in vs:
            if v not in self._adj:
                raise UnknownVariableError(f"unknown vertex {v}")
        for i, u in enumerate(vs):
            au = self._adj[u]
            for v in vs[i + 1 :]:
                if v not in au:
                    return False
        return True

    def has_edge_within(self, vs: frozenset[int] | set[int]) -> bool:
        """True iff some pair of vs is an edge; a vertex the graph lacks has no edges."""
        adj = self._adj
        for v in vs:
            ns = adj.get(v)
            if ns and not ns.isdisjoint(vs):
                return True
        return False

    # Unused by the package; kept because the benchmark's tracer binds it.
    def to_dense(self) -> tuple[np.ndarray, list[int]]:
        """Dense boolean adjacency plus the index -> vertex-id mapping."""
        import numpy as np

        idx = self.vertices()
        pos = {v: i for i, v in enumerate(idx)}
        a = np.zeros((len(idx), len(idx)), dtype=np.bool_)
        for u in idx:
            for v in self._adj[u]:
                a[pos[u], pos[v]] = True
        return a, idx

    def copy(self) -> "UndirectedGraph":
        g = UndirectedGraph()
        g._adj = {v: set(ns) for v, ns in self._adj.items()}
        return g

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UndirectedGraph):
            return NotImplemented
        return self._adj == other._adj

    def __len__(self) -> int:
        return len(self._adj)


@dataclass(frozen=True)
class Link:
    """An unordered vertex pair tagged as added to or deleted from the moral graph."""

    u: int
    v: int
    added: bool

    def __post_init__(self):
        if self.u == self.v:
            raise InvalidEditError("link endpoints must differ")
        if self.u > self.v:
            u, v = self.v, self.u
            object.__setattr__(self, "u", u)
            object.__setattr__(self, "v", v)

    @property
    def pair(self) -> frozenset[int]:
        return frozenset((self.u, self.v))


def moralize(dag: Dag) -> UndirectedGraph:
    """Moral graph: the skeleton plus an edge between every two co-parents."""
    g = UndirectedGraph(dag.nodes())
    adj = g._adj
    for child, ps in dag._parents.items():
        adj[child].update(ps)
        for p in ps:
            nb = adj[p]
            nb.update(ps)  # p itself among them
            nb.discard(p)
            nb.add(child)
    return g


def is_chordal(g: UndirectedGraph) -> tuple[bool, tuple[int, int] | None]:
    """Chordality test via maximum cardinality search.

    Returns ``(True, None)`` for chordal graphs, else ``(False, (u, v))``
    where {u, v} is a missing edge witnessing the failure.
    """
    if len(g) <= 2:
        return True, None
    _, witness, _ = kernels.mcs(g)
    return witness is None, witness
