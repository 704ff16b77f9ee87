#!/usr/bin/env python3
"""Count the lines of each module of src/galilei: all lines, and code lines.

Code lines leave out blank lines, comment-only lines and docstring lines.
Docstrings, the leading string statement of a module, class or function, are
found with ``ast``; any other line is code when ``tokenize`` finds a token on
it that is not a comment or a line break.  Given a git ref, the modules at
that ref are counted too and the change from them is printed.

    python tools/linecount.py          # the working tree
    python tools/linecount.py HEAD~1   # the working tree against HEAD~1

Standard library only.
"""

from __future__ import annotations

import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path
from typing import Dict, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "src/galilei"

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(source: str) -> Tuple[int, int]:
    """(total lines, code lines) of one module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstrings)


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout


def modules(ref: Optional[str] = None) -> Dict[str, Tuple[int, int]]:
    """Module name -> (total lines, code lines), in the working tree or at ``ref``."""
    if ref is None:
        return {p.stem: count(p.read_text()) for p in sorted((ROOT / PACKAGE).glob("*.py"))}
    names = _git("ls-tree", "--name-only", f"{ref}:{PACKAGE}").split()
    return {
        Path(name).stem: count(_git("show", f"{ref}:{PACKAGE}/{name}"))
        for name in sorted(names)
        if name.endswith(".py")
    }


def _total(counts: Dict[str, Tuple[int, int]]) -> Tuple[int, int]:
    return tuple(map(sum, zip(*counts.values()))) if counts else (0, 0)


def main(argv) -> int:
    ref = argv[0] if argv else None
    now = modules()
    then = modules(ref) if ref else {}
    names = sorted(now.keys() | then.keys())
    rows = [(name, now.get(name, (0, 0)), then.get(name, (0, 0))) for name in names]
    rows.append(("total", _total(now), _total(then)))
    header = f"{'module':<12}{'lines':>8}{'code':>8}"
    if ref:
        header += f"{'was':>8}{'code':>8}{'delta':>8}{'code':>8}"
    print(header)
    for name, (lines, code), (old_lines, old_code) in rows:
        row = f"{name:<12}{lines:>8,}{code:>8,}"
        if ref:
            row += f"{old_lines:>8,}{old_code:>8,}{lines - old_lines:>+8,}{code - old_code:>+8,}"
        print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
