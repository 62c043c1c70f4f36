"""The bnic command line: compile, apply, and bench.

Exit codes: 0 success, 1 usage, parse or write failure, 2 verification failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from random import Random

from .bench import run_bench
from .engine import BatchTrace, CompiledModel, describe, incremental_compile
from .errors import BnicError, ParseError
from .fileio import graph_dot, parse_edits, parse_network, parse_script, tree_dot
from .graph import UndirectedGraph, moralize
from .oracle import full_recompile, oracle, random_arc_edits, random_dag

DEFAULT_SEED = 42


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="bnic", description="Compile Bayesian-network structure incrementally.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="compile a network from scratch")
    p_compile.add_argument("network", help="network file")
    p_compile.add_argument("--dot", metavar="DIR", help="write DOT files into DIR")
    p_compile.set_defaults(run=_cmd_compile)

    p_apply = sub.add_parser("apply", help="compile, then replay an edit script")
    p_apply.add_argument("network", help="network file")
    p_apply.add_argument("script", help="edit script")
    p_apply.add_argument("--verify", action="store_true", help="check against a full recompile after every flush")
    p_apply.add_argument("--trace", action="store_true", help="print marked MPSs per modification")
    p_apply.add_argument("--dot", metavar="DIR", help="write DOT snapshots after each flush")
    p_apply.set_defaults(run=_cmd_apply)

    p_bench = sub.add_parser("bench", help="time incremental vs full recompilation")
    p_bench.add_argument("network", nargs="?", help="network file (omit with --random)")
    p_bench.add_argument("script", nargs="?", help="edit script")
    p_bench.add_argument(
        "--random",
        nargs="+",
        type=int,
        metavar="N",
        help="N EDITS [SEED]: random network of N nodes, EDITS single-arc edits",
    )
    p_bench.add_argument("--json", metavar="FILE", help="also write the report and its medians as JSON")
    p_bench.set_defaults(run=_cmd_bench)
    return parser


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}")


def _write(path: Path, text: str, make_parent: bool = False) -> None:
    try:
        if make_parent:
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise BnicError(f"cannot write {path}: {exc.strerror}")


def _write_dot(directory: str, names_to_text: dict[str, str]) -> None:
    for name, text in names_to_text.items():
        _write(Path(directory) / name, text, make_parent=True)


def _tree_dots(model: CompiledModel, prefix: str = "", trace: BatchTrace | None = None) -> dict[str, str]:
    """The junction and MPS trees' DOT files; the trace's new clusters are filled."""
    table = model.dag.table
    return {
        f"{prefix}junction.dot": tree_dot(model.jt, table, "junction", trace.new_jt_ids if trace else frozenset()),
        f"{prefix}mpd.dot": tree_dot(model.mpd, table, "mpd", trace.new_mpd_ids if trace else frozenset()),
    }


def _summary(model: CompiledModel, moral: UndirectedGraph) -> str:
    table = model.dag.table
    lines = [
        f"network: {len(model.dag)} variable(s), {model.dag.arc_count()} arc(s)",
        f"moral graph: {moral.edge_count()} edge(s)",
        f"triangulation: {model.fill.edge_count()} fill edge(s)",
    ]

    def tree_lines(tag, tree):
        out = [f"{tag}: {len(tree)} cluster(s)"]
        for cid in tree.cluster_ids():
            label = " ".join(table.name(v) for v in sorted(tree.cluster(cid)))
            out.append(f"  [{cid}] {label}")
        for a, b, sep in tree.edges():
            label = " ".join(table.name(v) for v in sorted(sep))
            out.append(f"  edge {a} -({label})- {b}")
        return out

    lines += tree_lines("junction tree", model.jt)
    lines += tree_lines("mpd tree", model.mpd)
    return "\n".join(lines)


def _print_trace(model: CompiledModel, trace: BatchTrace) -> None:
    table = model.dag.table

    def names(vs) -> str:
        return "{" + " ".join(table.name(v) if v in table else f"#{v}" for v in sorted(vs)) + "}"

    for rec in trace.mods:
        links = ", ".join(
            ("+" if l.added else "-") + names({l.u}).strip("{}") + "-" + names({l.v}).strip("{}")
            for l in rec.links
        )
        marked = ", ".join(names(vs) for _, vs in sorted(rec.touched.items()))
        print(f"  {rec.description}: links=[{links}] marked=[{marked}]")
        for rw in rec.rewired:
            print(f"    rewired empty separator to {names(rw['separator'])}")
    for sub in trace.subtrees:
        print(f"  {sub.path} over {names(sub.variables)} -> {len(sub.new_cliques)} clique(s)")
    for absorbed, into in trace.absorbed:
        print(f"  absorbed non-maximal {names(absorbed)} into {names(into)}")


def _cmd_compile(args) -> int:
    dag = parse_network(_read(args.network))
    model, moral = full_recompile(dag), moralize(dag)
    print(_summary(model, moral))
    if args.dot:
        _write_dot(
            args.dot,
            {
                "network.dot": graph_dot("digraph", "network", dag.table, dag.nodes(), dag.arcs()),
                "moral.dot": graph_dot("graph", "moral", dag.table, moral.vertices(), moral.edges()),
                **_tree_dots(model),
            },
        )
    return 0


def _cmd_apply(args) -> int:
    dag = parse_network(_read(args.network))
    batches = parse_script(_read(args.script), dag)
    model = full_recompile(dag)
    if args.dot:
        _write_dot(args.dot, _tree_dots(model, "step000_"))
    for i, batch in enumerate(batches, 1):
        trace = BatchTrace() if args.trace or args.dot else None  # read by --trace and --dot only
        incremental_compile(model, batch, trace)
        if args.trace:
            print(f"flush {i}:")
            _print_trace(model, trace)
        if args.dot:
            _write_dot(args.dot, _tree_dots(model, f"step{i:03d}_", trace))
        if args.verify:
            failed = oracle(model, full_recompile(model.dag))
            if failed is not None:
                print(f"verification failed after flush {i}: {failed}", file=sys.stderr)
                return 2
    print(_summary(model, moralize(model.dag)))
    return 0


def _cmd_bench(args) -> int:
    if args.random is not None:
        if args.network is not None or args.script is not None:
            raise ParseError("--random replaces the network and script arguments")
        if len(args.random) not in (2, 3):
            raise ParseError("--random takes N EDITS [SEED]")
        n, n_edits = args.random[0], args.random[1]
        if n < 0 or n_edits < 0:
            raise ParseError("--random N and EDITS must not be negative")
        seed = args.random[2] if len(args.random) == 3 else DEFAULT_SEED
        rng = Random(seed)
        dag = random_dag(n, rng, edge_prob=min(1.0, 3.0 / max(n - 1, 1)))
        edits = [(describe(mod, dag), [mod]) for mod in random_arc_edits(dag, n_edits, rng)]
    else:
        if args.network is None or args.script is None:
            raise ParseError("bench needs a network and script, or --random N EDITS [SEED]")
        dag = parse_network(_read(args.network))
        edits = parse_edits(_read(args.script), dag)
    model = full_recompile(dag)
    report = run_bench(model, edits)
    print(report.to_text())
    if args.json:
        _write(Path(args.json), report.to_json())
    if not report.all_verified():
        print("bench verification failed", file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args)
    except BnicError as exc:
        print(f"bnic: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
