"""Every public function and class of the package has a caller inside it.

A module-level public name that nothing else in ``src/galilei`` reads (the
``__init__`` exports do not count) is a feature no check needs.  Names the
tests use as tools stay only through the allowlist, each with its reason.
"""

import ast
from pathlib import Path

import galilei

PACKAGE = Path(galilei.__file__).parent

ALLOWED = {
    "clear_memo_caches": "the tests' memo reset between planted-defect runs",
    "poly_bareiss_det": "the tests' reference determinant for poly_det",
}


def _referenced_names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)


def unreferenced_public_names():
    """{name: module} of the public module-level functions and classes that
    no code outside their own body reads."""
    defined = {}
    referenced = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                owner = stmt.name
                if not owner.startswith("_"):
                    defined[owner] = path.stem
            referenced.update(name for name in _referenced_names(stmt) if name != owner)
    return {name: module for name, module in defined.items() if name not in referenced}


def test_every_public_name_has_a_caller_in_the_package():
    flagged = unreferenced_public_names()
    assert set(flagged) == set(ALLOWED), sorted(f"{m}.{n}" for n, m in flagged.items())
