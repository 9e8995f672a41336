"""Count the code lines of a package: the lines that hold a token other
than a comment, less the lines of docstrings, per module and in total.

Usage: python scripts/code_lines.py [package_dir]   (default: src/umbilic)

A line counts once however many tokens it holds, and each line of a
multi-line string that is not a docstring counts.  A docstring is a
string statement that opens a module, class or function body.
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(text: str) -> int:
    """The code lines of one module's source."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        first = node.body[0] if isinstance(node, _BODIES) and node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("package", nargs="?", default="src/umbilic", type=Path)
    args = parser.parse_args()
    modules = sorted(args.package.glob("*.py"))
    if not modules:
        print(f"no modules in {args.package}", file=sys.stderr)
        return 1
    total = 0
    for path in modules:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
