"""Print the line count of the library's source, as ROADMAP aim 2 counts it.

    python3 tools/src_lines.py [directory]      # default: src/

Two numbers are printed for the ``.py`` files under the directory: all
lines, and the lines left without docstrings, comments and blank lines.  A
docstring is the span, from its first line to its last, of a string that
opens a module, class or function body (``ast``); a comment line is one
whose only token is a comment (``tokenize``).
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def comment_lines(text: str) -> set[int]:
    comments, other = set(), set()
    skip = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in skip:
            other.update(range(tok.start[0], tok.end[0] + 1))
    return comments - other


def count(text: str) -> tuple[int, int]:
    """(all lines, lines without docstrings, comments and blank lines)."""
    lines = text.splitlines()
    blank = {i for i, line in enumerate(lines, 1) if not line.strip()}
    dropped = blank | comment_lines(text) | docstring_lines(ast.parse(text))
    return len(lines), len(lines) - len(dropped)


def main(argv: list[str]) -> None:
    root = Path(argv[1] if len(argv) > 1 else "src")
    total = code = 0
    for path in sorted(root.rglob("*.py")):
        t, c = count(path.read_text())
        total += t
        code += c
    print(f"{total} lines, {code} without docstrings, comments and blank "
          f"lines")


if __name__ == "__main__":
    main(sys.argv)
