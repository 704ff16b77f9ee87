"""Command-line front end.

Every invocation produces a Report: the echoed command, its parameters, the
computed results, and a list of named verdicts.  ``main`` builds the command
and parameters from the parsed arguments; each handler only computes, filling
in the results and taking its verdicts from ``verify``.  The process exit
status is 0 exactly when every verdict passed.  Reports render as aligned
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

    def __init__(self, command: str, params: Dict, results: Optional[Dict] = None,
                 verdicts: Optional[List[Verdict]] = None, wall_time_ms: int = 0):
        self.command, self.params, self.wall_time_ms = command, params, wall_time_ms
        self.results = {} if results is None else results
        self.verdicts = [] if verdicts is None else verdicts

    @property
    def all_passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def to_dict(self) -> Dict:
        return {
            "command": self.command,
            "params": self.params,
            "results": self.results,
            "verdicts": [
                {"name": v.name, "passed": v.passed, "detail": v.detail}
                for v in self.verdicts
            ],
            "wall_time_ms": self.wall_time_ms,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

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


def _series_ints(series) -> List:
    # every exposed series has integer coefficients; keep fractions printable
    return [c if type(c) is int else str(c) for c in series.coeffs]


# ---------------------------------------------------------------------------
# Handlers (one per subcommand); each fills in the results and verdicts of the
# Report that main built from the parsed command and parameters
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
    methods = {}
    if args.method in ("enum", "all"):
        methods["enum"] = genfun.f_enum(args.k, args.l, args.degree)
    # a route asked for by name refuses its own domain; `all` skips it there
    if args.method == "recur" or (args.method == "all" and args.k >= 2):
        methods["recur"] = genfun.f_recur(args.k, args.l, args.degree)
    if args.method == "closed" or (args.method == "all" and genfun.has_closed_form(args.k, args.l)):
        rf = genfun.f_closed(args.k, args.l)
        rep.results["closed_form"] = str(rf)
        methods["closed"] = series_expand(rf, args.degree)
    for name, series in methods.items():
        rep.results[f"{name}_coefficients"] = _series_ints(series)
    if args.method == "all":
        rep.verdicts = [
            verify_mod.route_verdict(name, series, methods["enum"])
            for name, series in methods.items()
            if name != "enum"
        ]


def _cmd_genfun_invariants(args, rep: Report) -> None:
    _series_bound(args.k, args.degree)
    rep.results["hilbert_series"] = _series_ints(genfun.invariant_series(args.k, args.degree))
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
    rep.results["quotient_coefficients"] = _series_ints(series)
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
# and `genfun freeness` at k = 100 to degree 199, took 5.5-6.2 s (CPython
# 3.11, 2 cores); a larger request is refused before anything is built.
SERIES_MAX_CELLS = 4_000_000
SERIES_MAX_K = 100
SERIES_MAX_L = 20_000

# The Young-lattice commands are certified up to this level (det N_40 is a
# 588x588 matrix); a larger request is refused before anything is built.
YOUNG_MAX_N = 40

# `sl2 tensor` and `quiver decompose-q` list one summand V(j) per step of 2 up
# to about 2k, at most k + 2 entries; memory grows linearly in k.  Peak RSS at
# the limit measured 48 MB for `sl2 tensor --k 100000 --simple "V(100000)"`
# and 32 MB for `quiver decompose-q --k 100000` (CPython 3.11); a larger
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
        d = younglat.verify_det_factorization(n)
        lines.append(d.describe())
        rep.verdicts.extend(verify_mod.det_verdicts(d, args.upto))
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
# Parser wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="galilei",
        description="Exact verification toolkit for symmetric-power weight series, "
        "restricted Young-lattice rank certificates, and block quivers.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "structured"), default="text")
    common.add_argument("--out", metavar="FILE", default=None)

    top = parser.add_subparsers(dest="group", required=True)

    gf = top.add_parser("genfun", help="weight generating functions").add_subparsers(
        dest="command", required=True
    )
    p = gf.add_parser("series", parents=[common])
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--degree", type=int, default=DEFAULT_TRUNCATION)
    p.add_argument("--method", choices=("enum", "recur", "closed", "all"), default="all")
    p.set_defaults(handler=_cmd_genfun_series)
    p = gf.add_parser("invariants", parents=[common])
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--degree", type=int, default=DEFAULT_TRUNCATION)
    p.set_defaults(handler=_cmd_genfun_invariants)
    p = gf.add_parser("freeness", parents=[common])
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--degree", type=int, default=DEFAULT_TRUNCATION)
    p.set_defaults(handler=_cmd_genfun_freeness)

    sl2 = top.add_parser("sl2", help="sl2 representation combinatorics").add_subparsers(
        dest="command", required=True
    )
    p = sl2.add_parser("sym", parents=[common])
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_sl2_sym)
    p = sl2.add_parser("q0", parents=[common])
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--table", type=int, default=None, metavar="MAX")
    p.set_defaults(handler=_cmd_sl2_q0)
    p = sl2.add_parser("tensor", parents=[common])
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--simple", required=True, help="e.g. V(3) or V'(0)")
    p.set_defaults(handler=_cmd_sl2_tensor)

    sa = top.add_parser("symalg", help="symmetric algebra with derivations").add_subparsers(
        dest="command", required=True
    )
    p = sa.add_parser("check-invariants", parents=[common])
    p.set_defaults(handler=_cmd_symalg_check)
    p = sa.add_parser("independence", parents=[common])
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(handler=_cmd_symalg_independence)

    yg = top.add_parser("young", help="restricted Young lattice").add_subparsers(
        dest="command", required=True
    )
    p = yg.add_parser("matrix", parents=[common])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--emit", action="store_true")
    p.set_defaults(handler=_cmd_young_matrix)
    p = yg.add_parser("rank", parents=[common])
    p.add_argument("--upto", type=int, required=True)
    p.set_defaults(handler=_cmd_young_rank)
    p = yg.add_parser("det", parents=[common])
    p.add_argument("--upto", type=int, required=True)
    p.set_defaults(handler=_cmd_young_det)

    qv = top.add_parser("quiver", help="blocks and radical filtrations").add_subparsers(
        dest="command", required=True
    )
    p = qv.add_parser("radical", parents=[common])
    p.add_argument("--top", required=True, help="e.g. V'(0) or V(4)")
    p.add_argument("--depth", type=int, required=True)
    p.set_defaults(handler=_cmd_quiver_radical)
    p = qv.add_parser("decompose-q", parents=[common])
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(handler=_cmd_quiver_decompose)
    p = qv.add_parser("blocks", parents=[common])
    p.set_defaults(handler=_cmd_quiver_blocks)

    vf = top.add_parser("verify", help="run the verification suite").add_subparsers(
        dest="command", required=True
    )
    p = vf.add_parser("all", parents=[common])
    p.add_argument("--quick", action="store_true")
    p.set_defaults(handler=_cmd_verify_all)

    return parser


# Parsed arguments that are not parameters of the report
_NOT_PARAMS = ("group", "command", "handler", "format", "out")


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
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
    if not report.all_passed:
        failing = [v.name for v in report.verdicts if not v.passed]
        print(f"FAILED: {'; '.join(failing)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
