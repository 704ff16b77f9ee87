"""The package's imports stay lean.

Every claim is checked in a fresh process, so each import is paid on every
run.  ``import galilei`` loads no module of the package, and each module
loads only the modules it uses, so a process that needs only the series
does not pay for the Young lattice, and the reverse.  Beyond what the
interpreter loaded at start-up (a site ``.pth`` file may import modules on
some hosts), every library module together (``galilei.verify`` imports them
all) loads only ``fractions`` and the core modules in CORE.  In particular
the command line loads neither ``dataclasses`` nor ``inspect``: with the
``ast``, ``dis`` and ``tokenize`` behind them they took over half of the
package's import.
"""

import os
import subprocess
import sys
from pathlib import Path

import galilei

SRC = Path(galilei.__file__).parent.parent

#: Modules the package imports that most programs have loaded already.
CORE = ("__future__", "collections", "functools", "itertools", "math", "re", "typing")


def _added_modules(module, preload=()):
    """Names that ``import module`` adds to ``sys.modules`` in a fresh
    interpreter, after its start-up and the preloaded modules."""
    probe = "; ".join(
        [f"import {name}" for name in ("sys",) + preload]
        + ["before = set(sys.modules)", f"import {module}",
           "print(*sorted(set(sys.modules) - before))"]
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    return set(out.stdout.split())


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    added = _added_modules("galilei.cli")
    assert "galilei.verify" in added  # the probe saw the import
    assert not added & {"dataclasses", "inspect"}, sorted(added)


def test_package_import_loads_only_fractions_beyond_the_core():
    added = _added_modules("galilei.verify", CORE)
    assert "galilei.younglat" in added  # the probe saw the library
    added = {name for name in added if name.split(".")[0] != "galilei"}
    assert added <= {"fractions", "decimal", "_decimal", "_pydecimal", "numbers"}, sorted(added)


def test_package_import_loads_no_module_of_the_package():
    assert _added_modules("galilei") == {"galilei"}


def test_series_import_loads_no_young_lattice_or_representation_module():
    added = _added_modules("galilei.genfun")
    assert {"galilei.genfun", "galilei.exact"} <= added
    unused = {f"galilei.{name}" for name in ("younglat", "linalg", "symalg", "sl2rep", "quiver")}
    assert not added & unused, sorted(added & unused)


def test_young_lattice_import_loads_no_series_or_representation_module():
    added = _added_modules("galilei.younglat")
    assert {"galilei.younglat", "galilei.exact", "galilei.linalg"} <= added
    unused = {f"galilei.{name}" for name in ("genfun", "sl2rep", "symalg", "quiver")}
    assert not added & unused, sorted(added & unused)
