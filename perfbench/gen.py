"""Seeded input generators owned by the benchmark.

The package has generators of its own (``bnic.random_dag``,
``random_script``, the CLI's random arc edits).  The benchmark does not
call them, so a later change to those cannot silently change a workload.
Every generator here is pure Python on a ``random.Random`` and renders
text in the package's network and edit-script formats.
"""

from __future__ import annotations

import hashlib
from random import Random

EDGE_DEGREE = 3.0  # random DAGs: edge_prob = 3 / (n - 1), the ROADMAP generator
BAND_WIDTH = 5
BAND_PROB = 0.3


class Net:
    """A DAG as the package's ``Dag`` keeps it: node ids in insertion order,
    parents and children in arc-insertion order (``arcs()`` and node removal
    depend on that order), and the arcs in the order they were added."""

    def __init__(self, names: list[str]):
        self.names = list(names)
        self.alive = set(range(len(names)))
        self.parents: dict[int, list[int]] = {v: [] for v in self.alive}
        self.children: dict[int, list[int]] = {v: [] for v in self.alive}
        self.arc_order: dict[tuple[int, int], None] = {}

    def copy(self) -> "Net":
        other = Net([])
        other.names = list(self.names)
        other.alive = set(self.alive)
        other.parents = {v: list(ps) for v, ps in self.parents.items()}
        other.children = {v: list(cs) for v, cs in self.children.items()}
        other.arc_order = dict(self.arc_order)
        return other

    def add_node(self, name: str) -> int:
        v = len(self.names)
        self.names.append(name)
        self.alive.add(v)
        self.parents[v] = []
        self.children[v] = []
        return v

    def remove_node(self, v: int) -> None:
        for p in list(self.parents[v]):
            self.remove_arc(p, v)
        for c in list(self.children[v]):
            self.remove_arc(v, c)
        self.alive.discard(v)
        del self.parents[v], self.children[v]

    def add_arc(self, p: int, c: int) -> None:
        self.parents[c].append(p)
        self.children[p].append(c)
        self.arc_order[p, c] = None

    def remove_arc(self, p: int, c: int) -> None:
        self.parents[c].remove(p)
        self.children[p].remove(c)
        del self.arc_order[p, c]

    def has_arc(self, p: int, c: int) -> bool:
        return (p, c) in self.arc_order

    def nodes(self) -> list[int]:
        return sorted(self.alive)

    def arcs(self) -> list[tuple[int, int]]:
        return [(p, c) for c in self.nodes() for p in self.parents[c]]

    def has_path(self, src: int, dst: int) -> bool:
        if src == dst:
            return True
        seen, stack = {src}, [src]
        while stack:
            for c in self.children[stack.pop()]:
                if c == dst:
                    return True
                if c not in seen:
                    seen.add(c)
                    stack.append(c)
        return False

    def text(self) -> str:
        """The network in the package's file format."""
        lines = [f"node {self.names[v]}" for v in self.nodes()]
        lines += [f"arc {self.names[p]} {self.names[c]}" for p, c in self.arc_order]
        return "\n".join(lines) + "\n"


def random_dag(n: int, rng: Random, prefix: str = "v") -> Net:
    """Forward arcs over a shuffled order, each with probability 3 / (n - 1).

    Draws from ``rng`` in the same sequence as ``bnic.random_dag``, so one
    seed gives the network that ``bnic bench --random`` builds.
    """
    p = min(1.0, EDGE_DEGREE / max(n - 1, 1))
    net = Net([f"{prefix}{i}" for i in range(n)])
    order = list(range(n))
    rng.shuffle(order)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                net.add_arc(order[i], order[j])
    return net


def banded_dag(n: int, rng: Random, prefix: str = "b") -> Net:
    """Node j takes each of the BAND_WIDTH preceding nodes as a parent
    with probability BAND_PROB: a chain-like network of bounded width."""
    net = Net([f"{prefix}{j}" for j in range(n)])
    for j in range(n):
        for i in range(max(0, j - BAND_WIDTH), j):
            if rng.random() < BAND_PROB:
                net.add_arc(i, j)
    return net


def arc_stream(net: Net, n_edits: int, rng: Random) -> list[tuple[str, int, int]]:
    """Single-arc edits, add or remove with even odds; adds keep the DAG acyclic.

    Draws in the same sequence as the CLI's ``bench --random`` edits.  Each
    edit is ``("add-arc" | "remove-arc", parent, child)`` over net's ids.
    """
    scratch = net.copy()
    edits: list[tuple[str, int, int]] = []
    guard = 0
    while len(edits) < n_edits and guard < 50 * n_edits + 50:
        guard += 1
        if rng.random() < 0.5:
            nodes = scratch.nodes()
            for _ in range(30):
                u, v = rng.sample(nodes, 2)
                if not scratch.has_arc(u, v) and not scratch.has_path(v, u):
                    scratch.add_arc(u, v)
                    edits.append(("add-arc", u, v))
                    break
        else:
            arcs = scratch.arcs()
            if arcs:
                p, c = rng.choice(arcs)
                scratch.remove_arc(p, c)
                edits.append(("remove-arc", p, c))
    return edits


ARC_KINDS = ("add-arc", "remove-arc")
NODE_KINDS = ("add-node", "remove-node")


def local_script(net: Net, n_flushes: int, rng: Random, prefix: str = "x") -> str:
    """A mixed edit script of n_flushes batches of four edits each.

    Every batch holds one add-arc, one remove-arc, one more arc edit of
    either kind and one node edit (add or remove), in random order: the
    four kinds in the proportions 3 : 3 : 1 : 1, with less variation in a
    batch's cost than independent draws would give.  Nodes keep a position
    in a line (a new node is inserted at a random place), and arcs are only
    added from a node to one of the BAND_WIDTH live nodes after it, so every
    edit stays local and the DAG acyclic.
    """
    scratch = net.copy()
    line = scratch.nodes()  # banded_dag ids are already in position order
    lines: list[str] = []
    fresh = 0
    for _ in range(n_flushes):
        kinds = ["add-arc", "remove-arc", rng.choice(ARC_KINDS), rng.choice(NODE_KINDS)]
        rng.shuffle(kinds)
        for kind in kinds:
            arcs = scratch.arcs()
            if kind == "remove-arc" and not arcs or kind == "remove-node" and len(line) < 2:
                kind = "add-arc"
            if kind == "add-arc":
                for _ in range(30):
                    i = rng.randrange(len(line) - 1)
                    j = rng.randrange(i + 1, min(len(line), i + 1 + BAND_WIDTH))
                    u, v = line[i], line[j]
                    if not scratch.has_arc(u, v):
                        scratch.add_arc(u, v)
                        lines.append(f"add-arc {scratch.names[u]} {scratch.names[v]}")
                        break
            elif kind == "remove-arc":
                p, c = rng.choice(arcs)
                scratch.remove_arc(p, c)
                lines.append(f"remove-arc {scratch.names[p]} {scratch.names[c]}")
            elif kind == "add-node":
                v = scratch.add_node(f"{prefix}{fresh}")
                fresh += 1
                line.insert(rng.randrange(len(line) + 1), v)
                lines.append(f"add-node {scratch.names[v]}")
            else:
                v = rng.choice(line)
                line.remove(v)
                lines.append(f"remove-node {scratch.names[v]}")
                scratch.remove_node(v)
        lines.append("compile")
    return "\n".join(lines) + "\n"


def digest(*texts: str) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]
