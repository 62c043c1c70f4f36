"""Text formats: network files, edit scripts, and DOT export.

Network files are line based: ``node <name>`` declarations followed by
``arc <parent> <child>`` lines; ``#`` starts a comment; blank lines are
ignored.  Edit scripts use ``add-node`` / ``remove-node`` / ``add-arc`` /
``remove-arc`` lines plus ``compile`` markers that flush the accumulated
batch.
"""

from __future__ import annotations

from .clustertree import ClusterTree
from .engine import AddArc, AddNode, Modification, RemoveArc, apply_modification, expand_remove_node
from .errors import BnicError, ParseError, UnwritableNameError
from .graph import Dag, VariableTable


def _parse_lines(text: str, parse_line) -> list:
    """``(tokens, parse_line(tokens))`` for each line that has tokens.

    ``#`` starts a comment.  A :class:`BnicError` that parse_line raises
    becomes a :class:`ParseError` naming the line.
    """
    out = []
    try:
        for lineno, raw in enumerate(text.splitlines(), 1):
            if tokens := raw.split("#", 1)[0].split():
                out.append((tokens, parse_line(tokens)))
    except BnicError as exc:
        raise ParseError(str(exc), lineno) from exc
    return out


def parse_network(text: str) -> Dag:
    """Parse a network file; unknown names and cycles fail with line numbers."""
    dag = Dag()

    def parse_line(tokens: list[str]) -> None:
        if tokens[0] == "node" and len(tokens) == 2:
            dag.add_node(tokens[1])
        elif tokens[0] == "arc" and len(tokens) == 3:
            dag.add_arc(dag.table.id(tokens[1]), dag.table.id(tokens[2]))
        else:
            raise ParseError(f"unrecognized line: {' '.join(tokens)!r}")

    _parse_lines(text, parse_line)
    return dag


def serialize_network(dag: Dag) -> str:
    """Render a dag back into the network format (round-trips to an equal dag).

    A name is one token without ``#``; the first variable whose name is
    not raises :class:`UnwritableNameError`, as the parser could not read
    it back.
    """
    names = dag.table.names()
    bad = next((name for name in names if "#" in name or name.split() != [name]), None)
    if bad is not None:
        raise UnwritableNameError(f"variable name {bad!r} is not one token without '#'")
    lines = [f"node {name}" for name in names]
    lines += [
        f"arc {dag.table.name(p)} {dag.table.name(c)}" for p, c in dag.arcs()
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def _parse_edit(tokens: list[str], scratch: Dag) -> list[Modification]:
    op = tokens[0]
    if op == "add-node" and len(tokens) == 2:
        return [AddNode(tokens[1])]
    if op == "remove-node" and len(tokens) == 2:
        return expand_remove_node(scratch, scratch.table.id(tokens[1]))
    if op == "add-arc" and len(tokens) == 3:
        return [AddArc(scratch.table.id(tokens[1]), scratch.table.id(tokens[2]))]
    if op == "remove-arc" and len(tokens) == 3:
        return [RemoveArc(scratch.table.id(tokens[1]), scratch.table.id(tokens[2]))]
    raise ParseError(f"unrecognized edit: {' '.join(tokens)!r}")


def _script_lines(text: str, dag: Dag) -> list[tuple[list[str], list[Modification] | None]]:
    # each line's tokens and modifications (None for ``compile``), with names
    # resolved against a scratch copy of the dag replayed line by line
    scratch = dag.copy()

    def parse_line(tokens: list[str]) -> list[Modification] | None:
        if tokens == ["compile"]:
            return None
        mods = _parse_edit(tokens, scratch)
        for mod in mods:
            apply_modification(scratch, mod)
        return mods

    return _parse_lines(text, parse_line)


def parse_script(text: str, dag: Dag) -> list[list[Modification]]:
    """Parse an edit script into batches split at ``compile`` markers.

    Names are resolved against the network state at their position, and
    ``remove-node`` expands into its incident arc removals first.
    """
    batches: list[list[Modification]] = [[]]
    for _tokens, mods in _script_lines(text, dag):
        if mods is None:
            batches.append([])
        else:
            batches[-1].extend(mods)
    return batches if batches[-1] else batches[:-1]


def parse_edits(text: str, dag: Dag) -> list[tuple[str, list[Modification]]]:
    """Like parse_script but one entry per edit line, ignoring ``compile``."""
    return [(" ".join(tokens), mods) for tokens, mods in _script_lines(text, dag) if mods is not None]


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------


def _label(names) -> str:
    """The names, space-separated, as a quoted DOT string (``\\`` and ``"`` escaped)."""
    text = " ".join(names).replace("\\", "\\\\").replace('"', '\\"')
    return f'"{text}"'


def graph_dot(kind: str, name: str, table: VariableTable, vertices, edges) -> str:
    """A ``digraph`` (arcs ``->``) or a ``graph`` (edges ``--``) in DOT, its vertices labelled by name."""
    op = "->" if kind == "digraph" else "--"
    lines = [f"{kind} {name} {{"]
    lines += [f"  n{v} [label={_label([table.name(v)])}];" for v in vertices]
    lines += [f"  n{u} {op} n{v};" for u, v in edges]
    lines.append("}")
    return "\n".join(lines) + "\n"


def tree_dot(
    tree: ClusterTree,
    table: VariableTable,
    name: str = "clusters",
    highlight: frozenset[int] | set[int] = frozenset(),
) -> str:
    """A cluster tree in DOT; freshly replaced clusters get a distinct fill."""
    lines = [f"graph {name} {{", "  node [shape=ellipse];"]
    for cid in tree.cluster_ids():
        label = _label(table.name(v) for v in sorted(tree.cluster(cid)))
        style = ' style=filled fillcolor="lightgrey"' if cid in highlight else ""
        lines.append(f"  c{cid} [label={label}{style}];")
    for a, b, sep in tree.edges():
        lines.append(f"  c{a} -- c{b} [label={_label(table.name(v) for v in sorted(sep))}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
