"""Command-line front end.

Every invocation produces a Report: the echoed command, its parameters, the
computed results, and a list of named verdicts.  The table ``COMMANDS``
declares every group, command, flag and handler once.  ``main`` builds the
command and parameters from the parsed arguments; each handler only computes,
filling in the results and taking its verdicts from ``verify``.  The process
exit status is 0 exactly when every verdict passed.  Reports render as aligned
text (default) or as a JSON document (``--format structured``) that carries
every field of the report.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List, Optional

from . import genfun, quiver, sl2rep, symalg, younglat, verify as verify_mod
from .exact import series_expand
from .genfun import DEFAULT_TRUNCATION
from .sl2rep import SimpleHC
from .verify import Verdict


class Report:
    __slots__ = ("command", "params", "results", "verdicts", "wall_time_ms")

    def __init__(self, command: str, params: Dict):
        self.command, self.params = command, params
        self.results: Dict = {}
        self.verdicts: List[Verdict] = []
        self.wall_time_ms = 0

    def to_json(self) -> str:
        return json.dumps({
            "command": self.command,
            "params": self.params,
            "results": self.results,
            "verdicts": [v._asdict() for v in self.verdicts],
            "wall_time_ms": self.wall_time_ms,
        }, indent=2, sort_keys=True)

    def render_text(self) -> str:
        lines = [f"command: {self.command}"]
        if self.params:
            lines.append(
                "params: " + " ".join(f"{k}={v}" for k, v in self.params.items())
            )
        for key, value in self.results.items():
            if isinstance(value, list) and all(isinstance(v, (int, str)) for v in value):
                if all(isinstance(v, int) for v in value):
                    lines.append(f"{key}: " + " ".join(map(str, value)))
                else:
                    lines.append(f"{key}:")
                    lines.extend(f"  {v}" for v in value)
            elif isinstance(value, dict):
                lines.append(f"{key}: " + json.dumps(value, sort_keys=True))
            else:
                lines.append(f"{key}: {value}")
        for v in self.verdicts:
            lines.append(v.line())
        lines.append(f"wall_time_ms: {self.wall_time_ms}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Handlers, one per command of the table COMMANDS below
# ---------------------------------------------------------------------------

def _cmd_genfun_series(args, rep: Report) -> None:
    _series_bound(args.k, args.degree)
    _bound("--l", args.l, SERIES_MAX_L, "series")
    if args.method in ("recur", "all"):
        # f_recur builds the levels below k one at a time, each from the one
        # before, and holds at most two, the larger about one weight table.
        # It is charged one table per level k, k-2, ..., 1 or 2.  At that
        # charge, k = 8/12/20/40/100 to degree 352/235/140/70/27 (l = 0, 1)
        # and k = 51, l = 1 to degree 54 each took 0.15-0.26 s and 17-21 MB
        # peak RSS as a subprocess, and at most 0.34 s and 25 MB with
        # --method all (CPython 3.11, 2 cores).
        _cell_bound(f"the recursion for k={args.k} to degree {args.degree}",
                    (args.k + 1) // 2 * (args.degree + 1) * (args.k * args.degree + 1))
    # a route asked for by name refuses its own domain; `all` skips it there
    routes = (("enum",) + genfun.series_routes(args.k, args.l)
              if args.method == "all" else (args.method,))
    methods = {}
    if "enum" in routes:
        methods["enum"] = genfun.f_enum(args.k, args.l, args.degree)
    if "recur" in routes:
        methods["recur"] = genfun.f_recur(args.k, args.l, args.degree)
    if "closed" in routes:
        rf = genfun.f_closed(args.k, args.l)
        rep.results["closed_form"] = str(rf)
        methods["closed"] = series_expand(rf, args.degree)
    for name, series in methods.items():
        rep.results[f"{name}_coefficients"] = list(series.coeffs)
    if args.method == "all":
        rep.verdicts = [
            verify_mod.route_verdict(name, series, methods["enum"])
            for name, series in methods.items()
            if name != "enum"
        ]


def _cmd_genfun_invariants(args, rep: Report) -> None:
    _series_bound(args.k, args.degree)
    rep.results["hilbert_series"] = list(genfun.invariant_series(args.k, args.degree).coeffs)
    structure, recognized = verify_mod.structure_verdict(args.k, args.degree)
    if structure is not None:
        rep.results["structure"] = structure.describe()
        rep.results["generator_degrees"] = list(structure.generator_degrees)
        if structure.relation_degree is not None:
            rep.results["relation_degree"] = structure.relation_degree
    rep.verdicts.append(recognized)


def _cmd_genfun_freeness(args, rep: Report) -> None:
    _series_bound(args.k, args.degree)
    _bound("--l", args.l, SERIES_MAX_L, "series")
    series, negative = genfun.freeness_quotient(args.k, args.l, args.degree)
    rep.results["quotient_coefficients"] = list(series.coeffs)
    if negative is None:
        rep.results["first_negative"] = "first negative coefficient: none"
    else:
        rep.results["first_negative"] = f"first negative coefficient: degree {negative}"


def _cmd_sl2_sym(args, rep: Report) -> None:
    _series_bound(args.k, args.n)
    decomposition = sl2rep.sym_power_decompose(args.k, args.n)
    rep.results["decomposition"] = [
        f"L({l}) x {mult}" for l, mult in sorted(decomposition.items())
    ]
    rep.verdicts.append(verify_mod.dimension_verdict(args.k, args.n, decomposition))


def _cmd_sl2_q0(args, rep: Report) -> None:
    if args.l is not None and args.table is not None:
        raise ValueError("sl2 q0: give either --l or --table, not both")
    if args.l is not None:
        rep.params = dict(l=args.l)
        rep.results["multiplicity"] = sl2rep.q0_multiplicity(args.l)
        return
    upto = args.table if args.table is not None else 8
    _nonnegative("--table", upto)
    # degree part k reads the L(4) table to degree k; the budget is charged
    # for degree MAX + 3, so MAX = 996 is the largest table accepted
    _series_bound(4, upto + 3)
    rep.params = dict(table=upto)
    rows = []
    # largest degree first: it builds the L(4) table once, to degree MAX, and
    # every smaller part reads that table instead of rebuilding a larger one
    for k in range(upto, -1, -1):
        part = sl2rep.q00_degree_part(k)
        body = " + ".join(f"L({l})" for l in sorted(part)) or "0"
        rows.append(f"degree {k}: {body}")
    rep.results["graded_table"] = rows[::-1]


def _cmd_sl2_tensor(args, rep: Report) -> None:
    _bound("--k", args.k, SUMMAND_MAX_K, "summand-list")
    simple = SimpleHC.parse(args.simple)
    rep.params["simple"] = str(simple)
    result = sl2rep.hc_tensor(args.k, simple)
    rep.results["decomposition"] = [
        f"{s} x {mult}" for s, mult in sorted(result.items())
    ]


def _cmd_symalg_check(args, rep: Report) -> None:
    c2, c3 = symalg.build_C2(), symalg.build_C3()
    rep.results["C2"] = str(c2)
    rep.results["C3"] = str(c3)
    rep.verdicts = verify_mod.invariance_verdicts(c2, c3)


def _cmd_symalg_independence(args, rep: Report) -> None:
    _bound("--k", args.k, INDEPENDENCE_MAX_K, "independence")
    rank = symalg.independence_check(args.k)
    rep.results["rank"] = rank
    rep.results["expected"] = args.k
    rep.verdicts.append(verify_mod.independence_verdict(args.k, rank))


# The series commands read genfun's weight-by-degree table for L(k): rows
# n = 0..degree, row n packing the kn + 1 weights of the parity of kn into one
# int of fixed-width fields.  The budget counts (N+1)(kN+1) cells, the full
# weight range, about twice the fields of that table.  The table is built in
# k + 1 passes and the recursion route in about k/2 levels, so k has a limit
# of its own: without it, a 1-cell request takes time linear in k.  F_l^(k)
# is zero to degree N once l > kN, and kN <= 19,900 inside the k and cell
# limits, so a larger l only adds zeros; at the l limit every closed form
# took 0.2 s.  At the limits, peak RSS measured 21 MB at k = 1, 48 MB at
# k = 8 and 107 MB at k = 100, and the slowest requests, `genfun invariants`
# and `genfun freeness` at k = 100 to degree 199, took 2.7-3.0 s as a
# subprocess (CPython 3.11, 2 cores); a larger request is refused before
# anything is built.
SERIES_MAX_CELLS = 4_000_000
SERIES_MAX_K = 100
SERIES_MAX_L = 20_000

# The Young-lattice commands are certified up to this level (det N_40 is a
# 588x588 matrix); a larger request is refused before anything is built.  At
# the limit (medians of 8 subprocess runs, 2 cores, CPython 3.11.7) `young rank
# --upto 40` took 0.70 s and `young det --upto 40` 2.69 s.
YOUNG_MAX_N = 40

# `sl2 tensor` and `quiver decompose-q` list one summand V(j) per step of 2 up
# to about 2k, at most k + 2 entries; memory grows linearly in k.  At the limit
# (medians of 5 subprocess runs, 2 cores, CPython 3.11.7) `sl2 tensor --k 100000`
# took 0.23 s and 30 MB peak RSS with --simple "V(3)", 0.32 s and 44 MB with
# "V(100000)", and `quiver decompose-q --k 100000` 0.19 s and 30 MB; a larger
# request is refused before anything is built.
SUMMAND_MAX_K = 100_000

# `quiver radical` counts the surviving paths by their last two vertices, a
# few pairs per layer, so its time grows linearly in the depth.  At the limit
# it took at most 0.21 s and 17 MB peak RSS as a subprocess for each top
# tried, V'(0), V'(2), V(1) to V(4), V(101) and V(1001) (CPython 3.11,
# 2 cores); a larger request is refused before anything is built.
RADICAL_MAX_DEPTH = 1_000


# `symalg independence` ranks the k iterated raisings in Sym^k(L(4)), whose
# matrix grows steeply in k: k = 40 takes about 1.5 s as a child process
# (median of 8) and k = 60 took 29 s with 59 MB peak RSS (CPython 3.11,
# 2 cores); a larger request is refused before anything is built.
INDEPENDENCE_MAX_K = 40


def _series_bound(k: int, degree: int) -> None:
    _bound("--k", k, SERIES_MAX_K, "series")
    # k = 0 is charged as k = 1: its table has one cell per degree, but the
    # quotient division of `genfun freeness` still takes time quadratic in N
    _cell_bound(f"k={k} to degree {degree}", (degree + 1) * (max(k, 1) * degree + 1))


def _cell_bound(request: str, cells: int) -> None:
    if cells > SERIES_MAX_CELLS:
        raise ValueError(
            f"{request} needs {cells} weight-table cells, "
            f"above the series limit {SERIES_MAX_CELLS}"
        )


def _nonnegative(flag: str, value: int) -> None:
    if value < 0:
        raise ValueError(f"{flag} {value} must be non-negative")


def _bound(flag: str, value: int, limit: int, name: str) -> None:
    if value > limit:
        raise ValueError(f"{flag} {value} is above the {name} limit {limit}")


def _cmd_young_matrix(args, rep: Report) -> None:
    _bound("--n", args.n, YOUNG_MAX_N, "Young-lattice")
    m = younglat.path_matrix(args.n)
    header = [""] + [str(c) for c in m.cols]
    rows = [[str(r)] + [str(e) for e in row] for r, row in zip(m.rows, m.entries)]
    widths = [max(len(line[i]) for line in [header] + rows) for i in range(len(header))]
    table = [
        "  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip()
        for line in [header] + rows
    ]
    rep.results["matrix"] = table
    if args.emit:
        rep.results["entries"] = {
            str(r): {str(c): str(e) for c, e in zip(m.cols, row)}
            for r, row in zip(m.rows, m.entries)
        }


def _cmd_young_rank(args, rep: Report) -> None:
    _nonnegative("--upto", args.upto)
    _bound("--upto", args.upto, YOUNG_MAX_N, "Young-lattice")
    lines = []
    for n in range(1, args.upto + 1):
        rank = younglat.rank_at(n)
        verdict = verify_mod.rank_verdict(n, rank)
        lines.append(f"n={n:2d}  rank = {rank}: {'PASS' if verdict.passed else 'FAIL'}")
        rep.verdicts.append(verdict)
    rep.results["table"] = lines


def _cmd_young_det(args, rep: Report) -> None:
    _nonnegative("--upto", args.upto)
    _bound("--upto", args.upto, YOUNG_MAX_N, "Young-lattice")
    lines = []
    for n in range(2, args.upto + 1):
        _, verdicts = verify_mod.det_verdicts(n, args.upto)
        # the shape verdict's detail is the factorization, or why there is none
        lines.append(verdicts[0].detail)
        rep.verdicts.extend(verdicts)
    rep.results["factorizations"] = lines


def _cmd_quiver_radical(args, rep: Report) -> None:
    _bound("--depth", args.depth, RADICAL_MAX_DEPTH, "radical-depth")
    top = SimpleHC.parse(args.top)
    rep.params["top"] = str(top)
    rep.results["layers"] = [
        f"rad^{l}: " + " + ".join(
            str(s) if m == 1 else f"{s}^{m}" for s, m in sorted(layer.items())
        )
        for l, layer in enumerate(quiver.radical_filtration(top, args.depth))
    ]


def _cmd_quiver_decompose(args, rep: Report) -> None:
    _bound("--k", args.k, SUMMAND_MAX_K, "summand-list")
    parts = quiver.decompose_Q(args.k)
    rep.results["decomposition"] = [
        f"P[{s}] x {mult}" for s, mult in sorted(parts.items())
    ]


def _cmd_quiver_blocks(args, rep: Report) -> None:
    rep.results["blocks"] = [
        "block 1: vertices V(n) for odd n on the line "
        "... V(11) - V(7) - V(3) - V(1) - V(5) - V(9) ...; "
        "arrows both ways between neighbours; all 2-cycles are zero",
        "block 2: vertices V(2) - V(6) - V(10) - ... with a loop at V(2); "
        "all 2-cycles are zero and the loop squares to zero",
        "block 3: vertices V'(0), V'(2) and V(4) - V(8) - V(12) - ...; "
        "arrows both ways in the diamond {V'(0), V'(2)} <-> V(4) and along "
        "the half-line; the two 2-cycles at V(4) through V'(0) and V'(2) "
        "are equal and nonzero, every other 2-cycle is zero, and both "
        "length-2 routes between V'(0) and V'(2) are zero",
    ]


def _cmd_verify_all(args, rep: Report) -> None:
    lines = []
    for number, title, verdicts in verify_mod.run_all(quick=args.quick):
        for v in verdicts:
            rep.verdicts.append(Verdict(f"[criterion {number}] {v.name}", v.passed, v.detail))
        ok = all(v.passed for v in verdicts)
        lines.append(f"criterion {number} ({title}): {'PASS' if ok else 'FAIL'}")
    rep.results["criteria"] = lines


# ---------------------------------------------------------------------------
# The command line, declared once
# ---------------------------------------------------------------------------

_INT = dict(type=int, required=True)
_DEGREE = ("--degree", dict(type=int, default=DEFAULT_TRUNCATION))

#: group -> (help, {command: (handler, [(flag, argparse keywords)])}), in --help order
COMMANDS = {
    "genfun": ("weight generating functions", {
        "series": (_cmd_genfun_series, [
            ("--k", _INT), ("--l", _INT), _DEGREE,
            ("--method", dict(choices=("enum", "recur", "closed", "all"), default="all")),
        ]),
        "invariants": (_cmd_genfun_invariants, [("--k", _INT), _DEGREE]),
        "freeness": (_cmd_genfun_freeness, [("--k", _INT), ("--l", _INT), _DEGREE]),
    }),
    "sl2": ("sl2 representation combinatorics", {
        "sym": (_cmd_sl2_sym, [("--k", _INT), ("--n", _INT)]),
        "q0": (_cmd_sl2_q0, [("--l", dict(type=int)), ("--table", dict(type=int, metavar="MAX"))]),
        "tensor": (_cmd_sl2_tensor, [
            ("--k", _INT), ("--simple", dict(required=True, help="e.g. V(3) or V'(0)")),
        ]),
    }),
    "symalg": ("symmetric algebra with derivations", {
        "check-invariants": (_cmd_symalg_check, []),
        "independence": (_cmd_symalg_independence, [("--k", _INT)]),
    }),
    "young": ("restricted Young lattice", {
        "matrix": (_cmd_young_matrix, [("--n", _INT), ("--emit", dict(action="store_true"))]),
        "rank": (_cmd_young_rank, [("--upto", _INT)]),
        "det": (_cmd_young_det, [("--upto", _INT)]),
    }),
    "quiver": ("blocks and radical filtrations", {
        "radical": (_cmd_quiver_radical, [
            ("--top", dict(required=True, help="e.g. V'(0) or V(4)")), ("--depth", _INT),
        ]),
        "decompose-q": (_cmd_quiver_decompose, [("--k", _INT)]),
        "blocks": (_cmd_quiver_blocks, []),
    }),
    "verify": ("run the verification suite", {
        "all": (_cmd_verify_all, [("--quick", dict(action="store_true"))]),
    }),
}


def build_parser(group_only: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of the whole command line.  Given a group, only that group's
    commands get parsers; the top level and every group keep theirs, so each
    help and error text that can be reached is the same."""
    parser = argparse.ArgumentParser(
        prog="galilei",
        description="Exact verification toolkit for symmetric-power weight series, "
        "restricted Young-lattice rank certificates, and block quivers.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "structured"), default="text")
    common.add_argument("--out", metavar="FILE", default=None)
    groups = parser.add_subparsers(dest="group", required=True)
    for group, (group_help, commands) in COMMANDS.items():
        group_parser = groups.add_parser(group, help=group_help)
        subparsers = group_parser.add_subparsers(dest="command", required=True)
        if group_only not in (None, group):
            continue
        for command, (handler, flags) in commands.items():
            p = subparsers.add_parser(command, parents=[common])
            for flag, keywords in flags:
                p.add_argument(flag, **keywords)
            p.set_defaults(handler=handler)
    return parser


# Parsed arguments that are not parameters of the report
_NOT_PARAMS = ("group", "command", "handler", "format", "out")


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the first word names the group, when it is one: only its commands need parsers
    args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    # argparse keeps the order the flags are declared in, whatever order they are typed in
    params = {key: value for key, value in vars(args).items() if key not in _NOT_PARAMS}
    report = Report(f"{args.group} {args.command}", params)
    started = time.monotonic()
    try:
        args.handler(args, report)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report.wall_time_ms = int((time.monotonic() - started) * 1000)
    text = report.to_json() if args.format == "structured" else report.render_text()
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        print(text)
    failing = [v.name for v in report.verdicts if not v.passed]
    if failing:
        print(f"FAILED: {'; '.join(failing)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
