"""Physical and code lines of each module of ``src/padicsde``.

    python tools/ncloc.py

Prints one row per module, in path order, with its physical lines (what
``wc -l`` counts) and its code lines, then a row of totals.  A code line
holds a token other than a comment and lies on no line of a docstring,
the string that opens a module, class or function body.  Blank lines,
comment lines and docstring lines are not code; any other string is.
Stdlib only.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "padicsde"

# tokens that are layout or comment, not code
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and \
                    isinstance(first.value, ast.Constant) and \
                    isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(source: str) -> tuple[int, int]:
    """(physical lines, code lines) of one module's text."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return source.count("\n"), len(code - _docstring_lines(ast.parse(source)))


def report(package: Path = PACKAGE) -> str:
    """The table ``main`` prints for the modules of ``package``."""
    rows = [(path.name, *counts(path.read_text(encoding="utf-8")))
            for path in sorted(package.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(name) for name, _, _ in rows)
    return "\n".join([f"{'module':<{width}}  {'lines':>6}  {'code':>6}"] +
                     [f"{name:<{width}}  {lines:>6}  {code:>6}"
                      for name, lines, code in rows]) + "\n"


def main() -> None:
    print(report(), end="")


if __name__ == "__main__":
    main()
