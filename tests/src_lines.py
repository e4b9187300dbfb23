"""Print the two size counts of the package source: its lines, and its code
lines.

    python tests/src_lines.py [SRC]

SRC is a ``src`` directory (default: this checkout's).  Every ``*.py`` file
under it is counted.  A code line holds a token other than a comment or a
docstring; blank lines, comment lines and the lines of module, class and
function docstrings are left out.  pytest does not collect this file.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers the module's, classes' and functions' docstrings
    span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node):
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The lines of ``source`` that hold a token outside comments and
    docstrings (a token spanning lines counts on each of them)."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main() -> None:
    src = Path(sys.argv[1]) if len(sys.argv) > 1 else ROOT / "src"
    sources = [path.read_text() for path in sorted(src.rglob("*.py"))]
    print(f"lines {sum(len(source.splitlines()) for source in sources)}")
    print(f"code lines {sum(map(code_lines, sources))}")


if __name__ == "__main__":
    main()
