"""Count the lines of each module of the ``bnic`` package.

    python3 tests/loc.py

Prints, per module of ``src/bnic`` and in total, the physical lines and
the code lines.  Code lines are the physical lines less the blank ones,
the comment-only ones and the docstrings' (the string that opens a
module, class or function): every line that a token other than a
comment, a newline or an indent covers, found by ``tokenize``, less the
docstring spans, found by ``ast``.  It reads the package next to this
checkout's ``tests``, so a count at another commit is the same command in
that commit's checkout.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bnic"
LAYOUT = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER)


def docstring_lines(text: str) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    out: set[int] = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def code_lines(text: str) -> int:
    """The lines a token other than layout covers, docstrings left out."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(text))


def main() -> None:
    rows = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        rows.append((path.name, len(text.splitlines()), code_lines(text)))
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, physical, code in rows:
        print(f"{name:<{width}}  {physical:>6}  {code:>6}")


if __name__ == "__main__":
    main()
