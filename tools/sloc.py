"""Count the code lines of src/liesys/*.py.

    python tools/sloc.py [TREE]

A code line holds at least one token that is not a comment or a module,
class or function docstring; blank lines, comment lines and docstring lines
do not count, so deleting a comment or a docstring leaves the count as it
was.  A multi-line token, such as a string that is not a docstring, counts
on every line it spans.  Prints the total, then one line per module.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(source: str) -> set[int]:
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    docstrings = _docstring_lines(source)
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _LAYOUT:
            continue
        span = range(token.start[0], token.end[0] + 1)
        if token.type == tokenize.STRING and all(line in docstrings for line in span):
            continue
        lines.update(span)
    return len(lines)


def module_counts(tree: Path) -> dict[str, int]:
    """code_lines of each module of tree/src/liesys, by file name."""
    return {path.name: code_lines(path.read_text())
            for path in sorted((tree / "src" / "liesys").glob("*.py"))}


def main(argv: list[str]) -> int:
    counts = module_counts(Path(argv[0]) if argv else Path(__file__).resolve().parent.parent)
    print(f"src/liesys code lines: {sum(counts.values())}")
    for name, count in counts.items():
        print(f"  {name}: {count}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
