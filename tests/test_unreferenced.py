"""Every public function and class of the package has a caller inside it,
and every field, method and property of its classes has a reader.

A module-level public name that nothing else in ``src/galilei`` reads is a
feature no check needs.  Names the tests use as tools stay only through the
allowlist, each with its reason.

A ``NamedTuple`` field or ``__slots__`` entry whose name is never loaded as
an attribute in the package is a value that nothing reads.  The package's
records are ``NamedTuple`` classes (a validating label subclasses a private
one, such as ``_SimpleHCFields``) and ``__slots__`` classes.  The check goes by
name, so it only sees fields that nothing at all reads.  A field that its own
class's methods read counts as read, so a ``basis`` or ``var`` value that
every constructor and operation carries along and passes on is not flagged.

A public method or property whose name is loaded as an attribute nowhere in
the package outside its own body is likewise reached only from the tests.
Dunder methods are left out: the language calls them.
"""

import ast
from pathlib import Path

import galilei

PACKAGE = Path(galilei.__file__).parent

ALLOWED = {
    "clear_memo_caches": "the tests' memo reset between planted-defect runs",
    "sym_weight_dim": "one table cell by its own index rules: the tests' oracle for f_enum's in-place reads",
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
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                owner = stmt.name
                if not owner.startswith("_"):
                    defined[owner] = path.stem
            referenced.update(name for name in _referenced_names(stmt) if name != owner)
    return {name: module for name, module in defined.items() if name not in referenced}


def _declared_fields(cls):
    """Names of the ``NamedTuple`` fields and ``__slots__`` entries of a class node."""
    is_record = any(isinstance(b, ast.Name) and b.id == "NamedTuple" for b in cls.bases)
    for stmt in cls.body:
        if is_record and isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            yield stmt.target.id
        elif isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets
        ):
            yield from (elt.value for elt in stmt.value.elts)


def field_reads():
    """{"module.Class.field": whether a loaded attribute of that name exists}.

    Reads off the argparse namespace ``args`` do not count: an option such as
    ``args.top`` would hide a field of the same name.
    """
    declared = {}
    loaded = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef):
                for name in _declared_fields(node):
                    declared[f"{path.stem}.{node.name}.{name}"] = name
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                if not (isinstance(node.value, ast.Name) and node.value.id == "args"):
                    loaded.add(node.attr)
    return {field: name in loaded for field, name in declared.items()}


def _public_methods(cls):
    """The public, non-dunder methods and properties of a class node."""
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_"):
            yield stmt


def method_reads():
    """{"module.Class.method": whether its name is loaded as an attribute in
    the package outside its own body}, for each public method or property."""
    trees = [(path.stem, ast.parse(path.read_text(), filename=str(path)))
             for path in sorted(PACKAGE.glob("*.py"))]
    methods = {}
    loads = []  # (attribute name, ids of the function bodies it sits in)
    for module, tree in trees:
        stack = [(tree, frozenset())]
        while stack:
            node, inside = stack.pop()
            if isinstance(node, ast.ClassDef):
                for method in _public_methods(node):
                    methods[f"{module}.{node.name}.{method.name}"] = method
            elif isinstance(node, ast.FunctionDef):
                inside = inside | {id(node)}
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loads.append((node.attr, inside))
            stack.extend((child, inside) for child in ast.iter_child_nodes(node))
    return {
        name: any(attr == method.name and id(method) not in inside for attr, inside in loads)
        for name, method in methods.items()
    }


def test_every_class_field_is_read_in_the_package():
    reads = field_reads()
    # the scan sees both kinds of declaration, and the fields under a label
    assert reads.keys() >= {"verify.Verdict.detail", "exact.TruncatedSeries.coeffs",
                            "sl2rep._SimpleHCFields.primed", "cli.Report.wall_time_ms"}
    assert sorted(field for field, read in reads.items() if not read) == []


def test_every_public_name_has_a_caller_in_the_package():
    flagged = unreferenced_public_names()
    assert set(flagged) == set(ALLOWED), sorted(f"{m}.{n}" for n, m in flagged.items())


def test_every_public_method_is_read_in_the_package():
    reads = method_reads()
    # the scan sees methods, class methods and properties
    assert reads.keys() >= {"exact.Polynomial.monic", "exact.Polynomial.zero", "exact.Polynomial.degree"}
    assert sorted(method for method, read in reads.items() if not read) == []
