"""Trees of vertex-set clusters with separator-labelled edges.

One structure serves both the junction tree and the MPS tree: clusters have
stable integer ids, and edges carry a separator vertex set (possibly empty).
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from .errors import InconsistencyError


def covering(holders: dict[int, int], ids: list[int], vs: Iterable[int]) -> list[int]:
    """The ids, in the order of ``ids``, whose clusters contain vs, given their holder masks."""
    common = (1 << len(ids)) - 1
    for v in vs:
        common &= holders.get(v, 0)
    out = []
    while common:
        low = common & -common
        common ^= low
        out.append(ids[low.bit_length() - 1])
    return out


class ClusterTree:
    def __init__(self, clusters: dict[int, frozenset[int]] | None = None, next_id: int = 0):
        """An edgeless tree of the given clusters under their ids; fresh ids start at next_id."""
        self._clusters: dict[int, frozenset[int]] = dict(clusters or {})
        self._adj: dict[int, dict[int, frozenset[int]]] = {c: {} for c in self._clusters}
        self._next = next_id
        self._edges = 0

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

    def holder_masks(self, ids: list[int]) -> dict[int, int]:
        """For every vertex of the clusters ``ids``: bit i is set iff ``ids[i]`` holds it."""
        masks: dict[int, int] = {}
        for i, cid in enumerate(ids):
            bit = 1 << i
            for v in self._clusters[cid]:
                masks[v] = masks.get(v, 0) | bit
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

    def components(self, ids: Iterable[int] | None = None) -> list[set[int]]:
        """The components of the forest induced by ids (default: every cluster).

        Components come in ascending order of their least member.
        """
        members = self._clusters if ids is None else set(ids)
        seen: set[int] = set()
        comps: list[set[int]] = []
        for start in sorted(members):
            if start in seen:
                continue
            comp = {start}
            stack = [start]
            while stack:
                c = stack.pop()
                for nb in self._adj[c]:
                    if nb in members and nb not in comp:
                        comp.add(nb)
                        stack.append(nb)
            seen |= comp
            comps.append(comp)
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
