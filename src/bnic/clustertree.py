"""Trees of vertex-set clusters with separator-labelled edges.

One structure serves both the junction tree and the MPS tree: clusters have
stable integer ids, and edges carry a separator vertex set (possibly empty).
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from .errors import InconsistencyError


def append_holder(ids: list[int], masks: dict[int, int], cid: int, vertices: Iterable[int]) -> int:
    """Give cluster cid the next position of a holder index; returns it.

    A holder index is a list ``ids`` of cluster ids and ``masks``, for every
    vertex, an int whose bit i is set iff cluster ``ids[i]`` holds it
    (:meth:`ClusterTree.holder_masks`).  Positions are never compacted: a
    cluster that leaves the tree keeps its position and id (or -1, which
    no cluster has), with no bit if it was split, or with its bits if it
    was merged into a cluster that has a position too.  So such a
    position is never the only bit of the AND over a non-empty vertex set,
    and :func:`smallest_cover` passes over it.
    """
    i = len(ids)
    bit = 1 << i
    ids.append(cid)
    for v in vertices:
        masks[v] = masks.get(v, 0) | bit
    return i


def smallest_cover(tree: "ClusterTree", ids: list[int], common: int) -> int | None:
    """The smallest live cluster among the set bits of ``common``, or None if none.

    ``common`` is the AND of a vertex set's holder masks over ``ids``
    (:func:`append_holder`), or every position for the empty set; ties go
    to the lower id, so positions need not follow id order.
    """
    clusters = tree._clusters
    best, size = None, 0
    while common:
        low = common & -common
        common ^= low
        c = ids[low.bit_length() - 1]
        if c in clusters:
            n = len(clusters[c])
            if best is None or n < size or n == size and c < best:
                best, size = c, n
    return best


class ClusterTree:
    def __init__(self, clusters: dict[int, frozenset[int]] | None = None, next_id: int = 0):
        """An edgeless tree of the given clusters under their ids; fresh ids start at next_id."""
        self._clusters: dict[int, frozenset[int]] = dict(clusters or {})
        self._adj: dict[int, dict[int, frozenset[int]]] = {c: {} for c in self._clusters}
        self._next = next_id
        self._edges = 0

    @classmethod
    def _from_join(cls, cliques: list[frozenset[int]], edges: list[tuple[int, int, frozenset[int]]]) -> "ClusterTree":
        """Cluster i is cliques[i]; the edges (a, b, separator) are written without :meth:`add_edge`'s checks.

        For :func:`~bnic.pipeline.build_join_tree`, whose edges each join a
        new clique to an earlier one.
        """
        tree = cls(dict(enumerate(cliques)), len(cliques))
        adj = tree._adj
        for a, b, sep in edges:
            adj[a][b] = adj[b][a] = sep
        tree._edges = len(edges)
        return tree

    # -- clusters ---------------------------------------------------------

    def add_cluster(self, vertices: Iterable[int]) -> int:
        cid = self._next
        self._next += 1
        self._clusters[cid] = frozenset(vertices)
        self._adj[cid] = {}
        return cid

    def remove_cluster(self, cid: int) -> None:
        for nb in self._adj[cid]:
            del self._adj[nb][cid]
        self._edges -= len(self._adj.pop(cid))
        del self._clusters[cid]

    def shrink(self, cid: int, drop: Iterable[int]) -> None:
        """Remove the vertices drop from cluster cid and from every separator at it."""
        drop = frozenset(drop)
        self._clusters[cid] -= drop
        adj = self._adj
        for nb, sep in adj[cid].items():
            adj[nb][cid] = adj[cid][nb] = sep - drop

    def cluster(self, cid: int) -> frozenset[int]:
        return self._clusters[cid]

    def cluster_ids(self) -> list[int]:
        return sorted(self._clusters)

    @property
    def next_id(self) -> int:
        """The id the next added cluster will receive."""
        return self._next

    def holder_masks(self, ids: Iterable[int]) -> dict[int, int]:
        """The masks of the holder index of the clusters ``ids``, in that order (:func:`append_holder`)."""
        index: list[int] = []
        masks: dict[int, int] = {}
        for cid in ids:
            append_holder(index, masks, cid, self._clusters[cid])
        return masks

    def vertices(self) -> set[int]:
        out: set[int] = set()
        for vs in self._clusters.values():
            out |= vs
        return out

    def __contains__(self, cid: int) -> bool:
        return cid in self._clusters

    def __len__(self) -> int:
        return len(self._clusters)

    # -- edges ------------------------------------------------------------

    def add_edge(self, a: int, b: int, separator: Iterable[int]) -> None:
        if a == b:
            raise InconsistencyError("cannot connect a cluster to itself")
        if a not in self._clusters or b not in self._clusters:
            raise KeyError((a, b))
        if b in self._adj[a]:
            raise InconsistencyError(f"clusters {a} and {b} are already connected")
        sep = frozenset(separator)
        self._adj[a][b] = sep
        self._adj[b][a] = sep
        self._edges += 1

    def remove_edge(self, a: int, b: int) -> None:
        del self._adj[a][b]
        del self._adj[b][a]
        self._edges -= 1

    def has_edge(self, a: int, b: int) -> bool:
        return b in self._adj.get(a, ())

    def separator(self, a: int, b: int) -> frozenset[int]:
        return self._adj[a][b]

    def neighbors(self, cid: int) -> list[int]:
        return sorted(self._adj[cid])

    def edges(self) -> list[tuple[int, int, frozenset[int]]]:
        return sorted(self.edge_items())

    def edge_items(self) -> list[tuple[int, int, frozenset[int]]]:
        """Every edge once, as (a, b, separator) with a < b, unsorted: one walk of the adjacency."""
        return [(a, b, sep) for a, nbrs in self._adj.items() for b, sep in nbrs.items() if a < b]

    def edge_count(self) -> int:
        return self._edges

    # -- structure --------------------------------------------------------

    def reach(self, start: int, keep) -> set[int]:
        """The clusters reached from start over neighbours for which keep holds."""
        found = {start}
        stack = [start]
        adj = self._adj
        while stack:
            for nb in adj[stack.pop()]:
                if nb not in found and keep(nb):
                    found.add(nb)
                    stack.append(nb)
        return found

    def components(self, ids: Iterable[int] | None = None) -> list[set[int]]:
        """The components of the forest induced by ids (default: every cluster).

        Components come in ascending order of their least member.
        """
        members = self._clusters if ids is None else set(ids)
        seen: set[int] = set()
        comps: list[set[int]] = []
        for start in sorted(members):
            if start not in seen:
                comps.append(self.reach(start, members.__contains__))
                seen |= comps[-1]
        return comps

    def is_tree(self) -> bool:
        n = len(self._clusters)
        if n == 0:
            return True
        return self.edge_count() == n - 1 and len(self.components()) == 1

    def merge_into(self, src: int, dst: int) -> None:
        """Contract src into an adjacent (or disjoint) dst cluster.

        Edges incident to src move to dst with their separators.  Vertex
        sets are left to the caller.
        """
        if src == dst:
            raise InconsistencyError("cannot merge a cluster into itself")
        for nb, sep in list(self._adj[src].items()):
            if nb == dst:
                continue
            if nb in self._adj[dst]:
                raise InconsistencyError(
                    f"merging {src} into {dst} would create a parallel edge via {nb}"
                )
            self._adj[dst][nb] = sep
            self._adj[nb][dst] = sep
            del self._adj[nb][src]
        self._adj[src] = {k: v for k, v in self._adj[src].items() if k == dst}
        self.remove_cluster(src)

    # -- summaries --------------------------------------------------------

    def cluster_multiset(self) -> Counter:
        return Counter(self._clusters.values())

    def separator_multiset(self) -> Counter:
        """The separators' multiset, counted in one walk of the adjacency."""
        return Counter(sep for a, nbrs in self._adj.items() for b, sep in nbrs.items() if a < b)

    def quotient(self, owner: dict[int, int]) -> "ClusterTree":
        """The tree of the groups that owner (cluster → group id) makes of this tree.

        Group m's cluster is the union of its members' clusters, and every
        edge between members of two groups becomes a group edge with the same
        separator; fresh ids continue after this tree's.  One walk of the
        adjacency writes both directions of each group edge, with no sort and
        no add_edge checks, so the groups must be connected subtrees: two
        edges between the same two groups would become one.
        """
        members: dict[int, list[int]] = {}
        for c, m in owner.items():
            members.setdefault(m, []).append(c)
        get = self._clusters.__getitem__
        # most groups are one cluster, whose vertex set needs no copy
        clusters = {m: get(cs[0]) if len(cs) == 1 else frozenset().union(*map(get, cs)) for m, cs in members.items()}
        t = ClusterTree(clusters, self._next)
        for a, nbrs in self._adj.items():
            m, out = owner[a], t._adj[owner[a]]
            for b, sep in nbrs.items():
                if owner[b] != m:
                    out[owner[b]] = sep
        t._edges = sum(map(len, t._adj.values())) // 2
        return t

    def induced(self, ids: Iterable[int]) -> "ClusterTree":
        """The clusters ids under their own ids, with the edges among them.

        Edges that leave ids are dropped, so the view may be a forest; fresh
        ids continue after this tree's, which is left unchanged.
        """
        t = ClusterTree()
        t._clusters = keep = {c: self._clusters[c] for c in ids}
        t._adj = {c: {nb: sep for nb, sep in self._adj[c].items() if nb in keep} for c in keep}
        t._next = self._next
        t._edges = sum(map(len, t._adj.values())) // 2
        return t

    def copy(self) -> "ClusterTree":
        t = ClusterTree()
        t._clusters = dict(self._clusters)
        t._adj = {c: dict(ns) for c, ns in self._adj.items()}
        t._next = self._next
        t._edges = self._edges
        return t

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [f"{c}:{{{','.join(map(str, sorted(vs)))}}}" for c, vs in sorted(self._clusters.items())]
        return f"ClusterTree({'; '.join(parts)})"
