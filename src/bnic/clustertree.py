"""Trees of vertex-set clusters; an edge's separator is the intersection of its ends.

One structure serves both the junction tree and the MPS tree: clusters have
stable integer ids, and the tree stores only them and its adjacency.  A
separator, possibly empty, is derived from the two clusters whenever it is
read (Blair & Peyton 1993), so no edit of a cluster leaves one stale.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from .errors import InconsistencyError


class HolderIndex:
    """Which clusters of ``tree`` hold each vertex, as one bitmask per vertex.

    Each indexed cluster has a position: ``ids[i]`` is the cluster at
    position i and ``pos`` maps it back.  ``masks`` maps every vertex to an
    int whose bit i is set iff cluster ``ids[i]`` holds it.  Positions are
    never compacted: a cluster that leaves the tree keeps its position and
    id, with no bit if it was split (:meth:`drop`), or with its bits if it
    was merged into a cluster that has a position too.  So such a position
    is never the only bit of the AND over a non-empty vertex set, and
    :meth:`cover` passes over it.  Clusters of the tree that were never
    added have no bit.
    """

    __slots__ = ("tree", "ids", "pos", "masks")

    def __init__(self, tree: "ClusterTree", ids: Iterable[int] = ()):
        """The index of the clusters ids of tree, in that order."""
        self.tree = tree
        self.ids: list[int] = []
        self.pos: dict[int, int] = {}
        self.masks: dict[int, int] = {}
        for cid in ids:
            self.add(cid)

    def add(self, cid: int) -> None:
        """Give cluster cid the next position, with a bit for each of its vertices."""
        bit = 1 << len(self.ids)
        self.pos[cid] = len(self.ids)
        self.ids.append(cid)
        masks = self.masks
        for v in self.tree._clusters[cid]:
            masks[v] = masks.get(v, 0) | bit

    def drop(self, cid: int) -> None:
        """Clear the bits of cluster cid, which is about to be split; its position stays."""
        bit = 1 << self.pos[cid]
        masks = self.masks
        for v in self.tree._clusters[cid]:
            masks[v] ^= bit

    def cover(self, vs: Iterable[int]) -> int | None:
        """The smallest live indexed cluster holding every vertex of vs, or None if none.

        Ties go to the lower id, so positions need not follow id order.  For
        the empty set it is the smallest live indexed cluster.
        """
        masks, clusters, ids = self.masks, self.tree._clusters, self.ids
        vs = iter(vs)
        first = next(vs, None)
        common = (1 << len(ids)) - 1 if first is None else masks.get(first, 0)
        for v in vs:
            common &= masks.get(v, 0)
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
        self._adj: dict[int, set[int]] = {c: set() for c in self._clusters}
        self._next = next_id
        self._edges = 0

    # -- clusters ---------------------------------------------------------

    def add_cluster(self, vertices: Iterable[int]) -> int:
        cid = self._next
        self._next += 1
        self._clusters[cid] = frozenset(vertices)
        self._adj[cid] = set()
        return cid

    def remove_cluster(self, cid: int) -> None:
        for nb in self._adj[cid]:
            self._adj[nb].remove(cid)
        self._edges -= len(self._adj.pop(cid))
        del self._clusters[cid]

    def shrink(self, cid: int, drop: Iterable[int]) -> None:
        """Remove the vertices drop from cluster cid; the separators at it follow."""
        self._clusters[cid] -= frozenset(drop)

    def cluster(self, cid: int) -> frozenset[int]:
        return self._clusters[cid]

    def cluster_ids(self) -> list[int]:
        return sorted(self._clusters)

    @property
    def next_id(self) -> int:
        """The id the next added cluster will receive."""
        return self._next

    def __contains__(self, cid: int) -> bool:
        return cid in self._clusters

    def __len__(self) -> int:
        return len(self._clusters)

    # -- edges ------------------------------------------------------------

    def add_edge(self, a: int, b: int) -> None:
        if a == b:
            raise InconsistencyError("cannot connect a cluster to itself")
        if a not in self._clusters or b not in self._clusters:
            raise KeyError((a, b))
        if b in self._adj[a]:
            raise InconsistencyError(f"clusters {a} and {b} are already connected")
        self._adj[a].add(b)
        self._adj[b].add(a)
        self._edges += 1

    def remove_edge(self, a: int, b: int) -> None:
        self._adj[a].remove(b)
        self._adj[b].remove(a)
        self._edges -= 1

    def has_edge(self, a: int, b: int) -> bool:
        return b in self._adj.get(a, ())

    def separator(self, a: int, b: int) -> frozenset[int]:
        """The separator of edge (a, b): the intersection of its ends."""
        if b not in self._adj[a]:
            raise KeyError((a, b))
        return self._clusters[a] & self._clusters[b]

    def neighbors(self, cid: int) -> list[int]:
        return sorted(self._adj[cid])

    def edges(self) -> list[tuple[int, int, frozenset[int]]]:
        return sorted(self.edge_items())

    def edge_items(self) -> list[tuple[int, int, frozenset[int]]]:
        """Every edge once, as (a, b, separator) with a < b, unsorted: one walk of the adjacency."""
        clusters = self._clusters
        return [(a, b, clusters[a] & clusters[b]) for a, nbrs in self._adj.items() for b in nbrs if a < b]

    def edges_within(self, ids) -> list[tuple[int, int, frozenset[int]]]:
        """Every edge with both ends in ids (a set or a dict), once, as (a, b, separator) with a < b, unsorted."""
        adj, clusters = self._adj, self._clusters
        return [(a, b, clusters[a] & clusters[b]) for a in ids for b in adj[a] if a < b and b in ids]

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

    def path(self, start: int, stop, keep=None) -> list[int] | None:
        """The tree path from the nearest cluster for which stop holds back to start, or None.

        One breadth-first walk from start over the neighbours for which keep
        holds (default: all), each cluster's in ascending id order; the
        nearest is the first one reached.  When stop holds on a subtree, as
        on the holders of a vertex, the nearest is unique; otherwise a tie
        goes to the cluster the walk reaches first.
        """
        up = {start: start}
        queue = [start]
        adj = self._adj
        for c in queue:  # the queue grows as the walk goes
            if stop(c):
                path = [c]
                while c != start:
                    c = up[c]
                    path.append(c)
                return path
            for nb in sorted(adj[c]):
                if nb not in up and (keep is None or keep(nb)):
                    up[nb] = c
                    queue.append(nb)
        return None

    def is_tree(self) -> bool:
        n = len(self._clusters)
        return n == 0 or self.edge_count() == n - 1 and len(self.reach(next(iter(self._clusters)), lambda c: True)) == n

    def merge_into(self, src: int, dst: int) -> None:
        """Contract src into an adjacent (or disjoint) dst cluster.

        Edges incident to src move to dst.  Vertex sets are left to the
        caller.
        """
        if src == dst:
            raise InconsistencyError("cannot merge a cluster into itself")
        adj = self._adj
        moved = adj[src] - {dst}
        if moved & adj[dst]:
            raise InconsistencyError(
                f"merging {src} into {dst} would create a parallel edge via {min(moved & adj[dst])}"
            )
        for nb in moved:
            adj[nb].remove(src)
            adj[nb].add(dst)
        adj[dst] |= moved
        adj[src] -= moved
        self.remove_cluster(src)

    # -- summaries --------------------------------------------------------

    def cluster_multiset(self) -> Counter:
        return Counter(self._clusters.values())

    def separator_multiset(self) -> Counter:
        """The separators' multiset, counted in one walk of the adjacency."""
        return Counter(sep for _, _, sep in self.edge_items())

    def quotient(self, owner: dict[int, int]) -> "ClusterTree":
        """The tree of the groups that owner (cluster → group id) makes of this tree.

        Group m's cluster is the union of its members' clusters, and every
        edge between members of two groups becomes a group edge; fresh ids
        continue after this tree's.  One walk of the adjacency writes both
        directions of each group edge and skips the edges inside a group,
        with no sort and no add_edge checks, so the groups must be
        connected subtrees: two edges between the same two groups would
        become one.  By running intersection a group edge's separator, the
        intersection of the two unions, is then the separator of the
        junction edge it stands for.
        """
        members: dict[int, list[int]] = {}
        for c, m in owner.items():
            members.setdefault(m, []).append(c)
        get = self._clusters.__getitem__
        t = ClusterTree(next_id=self._next)
        # most groups are one cluster, whose vertex set needs no copy
        t._clusters = {m: get(cs[0]) if len(cs) == 1 else frozenset().union(*map(get, cs)) for m, cs in members.items()}
        t._adj = adj = {m: set() for m in members}
        for a, nbrs in self._adj.items():
            m = owner[a]
            out = adj[m]
            for b in nbrs:
                k = owner[b]
                if k != m:
                    out.add(k)
        t._edges = sum(map(len, adj.values())) // 2
        return t

    def copy(self) -> "ClusterTree":
        t = ClusterTree()
        t._clusters = dict(self._clusters)
        t._adj = {c: set(ns) for c, ns in self._adj.items()}
        t._next = self._next
        t._edges = self._edges
        return t

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [f"{c}:{{{','.join(map(str, sorted(vs)))}}}" for c, vs in sorted(self._clusters.items())]
        return f"ClusterTree({'; '.join(parts)})"
