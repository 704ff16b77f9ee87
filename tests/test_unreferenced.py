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
the package outside its own class is likewise reached only from the tests or
from its own class, whose reader could compute it in place.  Dunder methods
are left out: the language calls them.

A class method whose body, apart from its docstring, is a single
``return cls(...)`` restates the constructor under a second name; callers
call the constructor.

A class-body assignment whose value names a function of the same class,
such as ``__radd__ = __add__``, binds that function under a second name that
no ``def`` shows, so the checks above and below cannot see whether anything
reaches it.  Each such alias is allowlisted, with its reason, or flagged.

The name checks cannot see dunder methods, which the language calls, so
every function of the package, dunders included, must also be entered when
the README's commands and ``verify all`` run through ``cli.main`` under a
profiler; the few that no command enters are allowlisted, each with its
reason.
"""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import galilei

PACKAGE = Path(galilei.__file__).parent

# the README's command block is parsed by one reader, the output-comparison tool's
_TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_output.py"
_spec = importlib.util.spec_from_file_location("same_output", _TOOL)
same_output = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_output)

ALLOWED = {
    "clear_memo_caches": "the tests' memo reset between planted-defect runs",
    "sym_weight_dim": "one table cell by its own index rules: the tests' oracle for f_enum's in-place reads",
}


NOT_ENTERED = {
    "exact.Polynomial.__repr__": "a debugging display; reports print str",
    "exact.RationalFunction.__repr__": "a debugging display; reports print str",
    "exact.TruncatedSeries.__repr__": "a debugging display; reports print str",
    "symalg.SymElement.__repr__": "a debugging display; reports print str",
    "younglat.PathMatrix.__repr__": "a debugging display that leaves out the entries",
    "exact.RationalFunction.__eq__": "without it, == on closed forms compares identity",
    "genfun.sym_weight_dim": ALLOWED["sym_weight_dim"],
    "genfun.clear_memo_caches": ALLOWED["clear_memo_caches"],
}


ALIASES = {
    "exact.Polynomial.__rmul__": "perfbench's alias test reads it to check that the tracer wraps every alias",
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
    the package outside its own class}, for each public method or property."""
    trees = [(path.stem, ast.parse(path.read_text(), filename=str(path)))
             for path in sorted(PACKAGE.glob("*.py"))]
    methods = {}  # "module.Class.method": (method name, id of its class node)
    loads = []  # (attribute name, ids of the class bodies it sits in)
    for module, tree in trees:
        stack = [(tree, frozenset())]
        while stack:
            node, inside = stack.pop()
            if isinstance(node, ast.ClassDef):
                inside = inside | {id(node)}
                for method in _public_methods(node):
                    methods[f"{module}.{node.name}.{method.name}"] = (method.name, id(node))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loads.append((node.attr, inside))
            stack.extend((child, inside) for child in ast.iter_child_nodes(node))
    return {
        name: any(attr == method and owner not in inside for attr, inside in loads)
        for name, (method, owner) in methods.items()
    }


def _is_constructor_wrapper(method):
    """Whether a method node is a class method whose body, apart from its
    docstring, is a single ``return cls(...)``."""
    if not any(isinstance(d, ast.Name) and d.id == "classmethod" for d in method.decorator_list):
        return False
    body = method.body[1:] if ast.get_docstring(method) is not None else method.body
    return (
        len(body) == 1
        and isinstance(body[0], ast.Return)
        and isinstance(body[0].value, ast.Call)
        and isinstance(body[0].value.func, ast.Name)
        and body[0].value.func.id == "cls"
    )


def constructor_wrappers():
    """Names, as "module.Class.method", of the package's constructor wrappers."""
    return [
        f"{path.stem}.{cls.name}.{method.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for cls in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(cls, ast.ClassDef)
        for method in cls.body
        if isinstance(method, ast.FunctionDef) and _is_constructor_wrapper(method)
    ]


def class_aliases(tree, module):
    """"module.Class.name" of each class-body assignment in ``tree`` whose
    value names a function defined in the same class body."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        functions = {stmt.name for stmt in cls.body if isinstance(stmt, ast.FunctionDef)}
        for stmt in cls.body:
            if isinstance(stmt, ast.Assign) and functions.intersection(_referenced_names(stmt.value)):
                yield from (f"{module}.{cls.name}.{t.id}" for t in stmt.targets if isinstance(t, ast.Name))


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
    assert reads.keys() >= {"exact.Polynomial.exact_div", "exact.TruncatedSeries.from_polynomial", "exact.Polynomial.degree"}
    assert sorted(method for method, read in reads.items() if not read) == []


def test_no_class_method_only_restates_the_constructor():
    # the check sees a wrapper, with or without a docstring, and passes a
    # class method that does more than call the constructor
    (example,) = ast.parse(
        "class P:\n"
        "    @classmethod\n"
        "    def zero(cls, var):\n"
        "        return cls(var, ())\n"
        "    @classmethod\n"
        "    def one(cls, var):\n"
        "        \"\"\"One.\"\"\"\n"
        "        return cls(var, (1,))\n"
        "    @classmethod\n"
        "    def padded(cls, p, n):\n"
        "        head = p[:n]\n"
        "        return cls(head)\n"
    ).body
    assert [_is_constructor_wrapper(m) for m in example.body] == [True, True, False]
    assert constructor_wrappers() == []


def test_no_class_level_alias_of_a_method_but_the_allowlisted():
    # the check sees a plain and a wrapped alias, and passes slots and constants
    planted = ast.parse(
        "class P:\n"
        "    __slots__ = ('var',)\n"
        "    ZERO = ()\n"
        "    def __add__(self, other):\n"
        "        return self\n"
        "    __radd__ = __add__\n"
        "    plus = staticmethod(__add__)\n"
    )
    assert list(class_aliases(planted, "m")) == ["m.P.__radd__", "m.P.plus"]
    found = [alias for path in sorted(PACKAGE.glob("*.py"))
             for alias in class_aliases(ast.parse(path.read_text(), filename=str(path)), path.stem)]
    assert sorted(found) == sorted(ALIASES)


# Runs each command line (a JSON list of argv lists) through cli.main with a
# profiler set before the package is imported, and prints the (file, first
# line) of every code object entered.
_PROFILED_RUN = """
import contextlib, io, json, sys
entered = set()
def hook(frame, event, arg):
    if event == "call":
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
sys.setprofile(hook)
from galilei import cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        cli.main(argv)
sys.setprofile(None)
print(json.dumps(sorted(entered)))
"""


def package_functions():
    """{(file, first line): "module.Class.function"} for every function of the
    package; a decorated function starts at its first decorator, as its code
    object does."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [(ast.parse(path.read_text(), filename=str(path)), path.stem)]
        while stack:
            node, name = stack.pop()
            for child in ast.iter_child_nodes(node):
                inner = name
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    inner = f"{name}.{child.name}"
                if isinstance(child, ast.FunctionDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[str(path.resolve()), first] = inner
                stack.append((child, inner))
    return found


def entered_code(commands):
    """(file, first line) of every code object that running ``commands`` enters."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", _PROFILED_RUN, json.dumps(commands)],
                         env=env, capture_output=True, text=True, check=True)
    return {(str(Path(f).resolve()), line) for f, line in json.loads(out.stdout)}


def test_every_function_is_entered_by_the_commands():
    commands = same_output.readme_commands() + [["verify", "all"], ["verify", "all", "--quick"],
                                     ["verify", "all", "--format", "structured"]]
    assert ["quiver", "blocks"] in commands and len(commands) >= 14
    functions = package_functions()
    # the scan sees dunders, properties, decorated and nested functions
    assert {"exact.Polynomial.__mul__", "exact.Polynomial.degree", "sl2rep.SimpleHC.parse",
            "younglat.bounded_partitions", "verify.check_tensor_calculus.type_rows"} <= set(functions.values())
    entered = entered_code(commands)
    missed = {name for key, name in functions.items() if key not in entered}
    assert sorted(missed) == sorted(NOT_ENTERED)
