"""Count the lines of Python code in each module of a directory.

A line counts when it holds code: blank lines, comment lines and the lines
of docstrings (a string literal that is the first statement of a module,
class or function) do not. A statement that spans several lines, a
multi-line string that is not a docstring included, counts every line it
spans. Prints one row per module, sorted by file name, then the total.

    python scripts/code_lines.py [DIR]     # DIR defaults to src/charrnn
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

DEFAULT_DIR = Path(__file__).resolve().parents[1] / "src" / "charrnn"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every docstring in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of lines of path that hold code."""
    with tokenize.open(path) as f:
        source = f.read()
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source, str(path))))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", nargs="?", type=Path, default=DEFAULT_DIR,
                        help="directory of .py files (default: src/charrnn)")
    args = parser.parse_args(argv)
    modules = sorted(args.dir.glob("*.py"))
    if not modules:
        print(f"code_lines: no .py files in {args.dir}", file=sys.stderr)
        return 1
    counts = {path.name: code_lines(path) for path in modules}
    width = max(len(name) for name in [*counts, "total"])
    for name, count in counts.items():
        print(f"{name:<{width}}  {count:>6,}")
    print(f"{'total':<{width}}  {sum(counts.values()):>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
