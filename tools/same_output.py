#!/usr/bin/env python3
"""Check that the working tree's command line prints what a git ref's does.

One fixed list of commands runs through ``galilei.cli.main``, first against
REF's ``src`` and then against the working tree's, each tree in one fresh
interpreter.  REF's ``src`` is exported with ``git archive`` into a temporary
directory, so no worktree is made and nothing is fetched.  The printed
``wall_time_ms`` is masked; stdout, stderr and the exit status must then be
identical.  Each command that differs is printed with a diff, and the exit
status is 1 if any differs.

    python tools/same_output.py HEAD~1   # the working tree against HEAD~1

The list runs every command group at more than the README's one size: the
README's commands; ``verify all`` full and ``--quick``, as text and
structured; ``genfun series`` with ``--method all`` and ``closed`` at degree
20 for k = 0..7 and l = 0..12, and ``--method all`` at k = 6, l = 0, degree
240; ``genfun invariants`` and ``genfun freeness --l 1`` for k = 0..8,
``genfun freeness --k 100 --l 0 --degree 199``, and at degree 240 ``genfun
invariants`` for k = 5, 6 and ``genfun freeness`` at (k, l) = (5, 1), (6, 2);
``sl2 sym --k 4`` for n = 0..6, and ``sl2 sym`` at odd k*n, k and n each in
{1, 3, 5}; ``sl2 q0 --l`` for l = 0..20, and ``sl2 q0 --table`` 24 and 996;
``sl2 tensor`` for k = 0..8 against V'(0), V'(2), V(1), V(2),
V(3), V(4) and V(7); ``symalg check-invariants`` structured; ``symalg
independence`` for k = 1..11 and 24; ``young matrix`` for n = 1..6, and ``--emit``
at n = 5 and 12; ``young rank --upto`` 16 and 24; ``young det --upto`` 9
and 16; ``quiver radical`` at depth 8 for V'(2) and V(1)..V(8); ``quiver
decompose-q`` for k = 0..12; five refused requests; and argparse's own
error paths, ``ARGPARSE_ERRORS``.

Standard library only, with ``git`` and ``tar``.
"""

from __future__ import annotations

import difflib
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]

# Runs argv lists (JSON in argv[2]) through cli.main with argv[1] first on the
# path, and prints [exit status, stdout, stderr] for each as JSON.
RUNNER = """
import contextlib, io, json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from galilei import cli
assert Path(cli.__file__).resolve().is_relative_to(Path(sys.argv[1]).resolve()), cli.__file__
results = []
for argv in json.loads(sys.argv[2]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(argv)
        except SystemExit as exc:
            status = exc.code
    results.append([status, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""

_WALL_TIME = re.compile(r'(wall_time_ms"?: )\d+')

Result = Tuple[int, str, str]

#: no group, an unknown group, a group with no command, an unknown command,
#: a missing required flag and a non-integer --k
ARGPARSE_ERRORS = [
    [],
    ["nosuch"],
    ["verify"],
    ["verify", "nosuch"],
    ["genfun", "series", "--k", "5"],
    ["genfun", "series", "--k", "five", "--l", "0"],
]


def readme_commands() -> List[List[str]]:
    """The argv lists of the README's command-line block, without the
    ``verify all [--quick]`` synopsis line."""
    block = re.search(r"```\n(galilei .*?)```", (ROOT / "README.md").read_text(), re.DOTALL).group(1)
    return [shlex.split(line)[1:] for line in block.splitlines() if "[" not in line]


def command_list() -> List[List[str]]:
    """The fixed list of argv lists that both trees run."""
    argvs = readme_commands()
    for extra in ([], ["--quick"]):
        argvs += [["verify", "all", *extra], ["verify", "all", *extra, "--format", "structured"]]
    for k in range(8):
        for l in range(13):
            for method in ("all", "closed"):
                argvs.append(["genfun", "series", "--k", str(k), "--l", str(l),
                              "--degree", "20", "--method", method])
    for k in range(9):
        argvs += [["genfun", "invariants", "--k", str(k)],
                  ["genfun", "freeness", "--k", str(k), "--l", "1"]]
    argvs.append(["genfun", "freeness", "--k", "100", "--l", "0", "--degree", "199"])
    for k, l in (("5", "1"), ("6", "2")):
        argvs += [["genfun", "freeness", "--k", k, "--l", l, "--degree", "240"],
                  ["genfun", "invariants", "--k", k, "--degree", "240"]]
    argvs.append(["genfun", "series", "--k", "6", "--l", "0", "--degree", "240", "--method", "all"])
    argvs += [["sl2", "sym", "--k", "4", "--n", str(n)] for n in range(7)]
    argvs += [["sl2", "sym", "--k", k, "--n", n] for k in ("1", "3", "5") for n in ("1", "3", "5")]
    argvs += [["sl2", "q0", "--l", str(l)] for l in range(21)]
    argvs += [["sl2", "q0", "--table", size] for size in ("24", "996")]
    for k in range(9):
        for simple in ("V'(0)", "V'(2)", "V(1)", "V(2)", "V(3)", "V(4)", "V(7)"):
            argvs.append(["sl2", "tensor", "--k", str(k), "--simple", simple])
    argvs.append(["symalg", "check-invariants", "--format", "structured"])
    argvs += [["symalg", "independence", "--k", str(k)] for k in (*range(1, 12), 24)]
    argvs += [["young", "matrix", "--n", str(n)] for n in range(1, 7)]
    argvs += [["young", "matrix", "--n", size, "--emit"] for size in ("5", "12")]
    argvs += [["young", "rank", "--upto", size] for size in ("16", "24")]
    argvs += [["young", "det", "--upto", size] for size in ("9", "16")]
    for top in ["V'(2)"] + [f"V({n})" for n in range(1, 9)]:
        argvs.append(["quiver", "radical", "--top", top, "--depth", "8"])
    argvs += [["quiver", "decompose-q", "--k", str(k)] for k in range(13)]
    argvs += [
        ["young", "rank", "--upto", "-1"],
        ["genfun", "series", "--k", "101", "--l", "0"],
        ["quiver", "radical", "--top", "V(0)", "--depth", "1"],
        ["sl2", "q0", "--l", "1", "--table", "2"],
        ["symalg", "independence", "--k", "41"],
    ]
    return argvs + ARGPARSE_ERRORS


def run(src: Path, argvs: Sequence[Sequence[str]]) -> List[Result]:
    """(exit status, stdout, stderr) of each command, in one fresh interpreter on ``src``."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run([sys.executable, "-c", RUNNER, str(src), json.dumps(list(map(list, argvs)))],
                          env=env, capture_output=True, text=True, check=True)
    return [tuple(result) for result in json.loads(done.stdout)]


def _shown(result: Result) -> List[str]:
    status, out, err = result
    text = f"exit status {status}\n--- stdout\n{out}--- stderr\n{err}"
    return _WALL_TIME.sub(r"\g<1>*", text).splitlines(keepends=True)


def compare(ref_src: Path, new_src: Path, argvs: Sequence[Sequence[str]]) -> List[Tuple[List[str], str]]:
    """(argv, diff) for each command whose masked output differs between the two trees."""
    differing = []
    for argv, old, new in zip(argvs, run(ref_src, argvs), run(new_src, argvs)):
        diff = "".join(difflib.unified_diff(_shown(old), _shown(new), "ref", "working tree"))
        if diff:
            differing.append((list(argv), diff))
    return differing


def export_src(ref: str, dest: Path) -> Path:
    """REF's ``src`` directory, unpacked from ``git archive`` by ``tar`` under ``dest``."""
    archive = subprocess.run(["git", "archive", "--format=tar", ref, "src"], cwd=ROOT,
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest / "src"


def main(argv: Sequence[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/same_output.py REF", file=sys.stderr)
        return 2
    argvs = command_list()
    with tempfile.TemporaryDirectory() as tmp:
        differing = compare(export_src(argv[0], Path(tmp)), ROOT / "src", argvs)
    for command, diff in differing:
        print(f"$ galilei {shlex.join(command)}")
        print(diff)
    print(f"{len(argvs)} commands, {len(differing)} differ from {argv[0]}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
