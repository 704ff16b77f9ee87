"""Command-line front end.

Every invocation produces a Report: the echoed command, its parameters, the
computed results, and a list of named verdicts.  The process exit status is 0
exactly when every verdict passed.  Reports render as aligned text (default)
or as a JSON document (``--format structured``) that round-trips losslessly.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from . import genfun, quiver, sl2rep, symalg, younglat, verify as verify_mod
from .exact import series_expand
from .genfun import DEFAULT_TRUNCATION, NoClosedFormError, StructureNotRecognizedError
from .sl2rep import SimpleHC
from .verify import Verdict


@dataclass
class Report:
    command: str
    params: Dict
    results: Dict = field(default_factory=dict)
    verdicts: List[Verdict] = field(default_factory=list)
    wall_time_ms: int = 0

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

    @classmethod
    def from_dict(cls, payload: Dict) -> "Report":
        return cls(
            command=payload["command"],
            params=payload["params"],
            results=payload["results"],
            verdicts=[
                Verdict(v["name"], v["passed"], v.get("detail", ""))
                for v in payload["verdicts"]
            ],
            wall_time_ms=payload["wall_time_ms"],
        )

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
# Handlers (one per subcommand); each returns a Report
# ---------------------------------------------------------------------------

def _cmd_genfun_series(args) -> Report:
    _series_bound(args.k, args.degree)
    rep = Report("genfun series", dict(k=args.k, l=args.l, degree=args.degree, method=args.method))
    if args.method == "recur" and args.k < 2:
        raise ValueError("the recursion route needs k >= 2")
    methods = {}
    if args.method in ("enum", "all"):
        methods["enum"] = genfun.f_enum(args.k, args.l, args.degree)
    if args.method in ("recur", "all") and args.k >= 2:
        methods["recur"] = genfun.f_recur(args.k, args.l, args.degree)
    if args.method in ("closed", "all"):
        if genfun.has_closed_form(args.k, args.l):
            rf = genfun.f_closed(args.k, args.l)
            rep.results["closed_form"] = str(rf)
            methods["closed"] = series_expand(rf, args.degree)
        elif args.method == "closed":
            raise NoClosedFormError(f"no closed form for k={args.k}, l={args.l}")
    for name, series in methods.items():
        rep.results[f"{name}_coefficients"] = _series_ints(series)
    if args.method == "all":
        enum = methods["enum"]
        for name, series in methods.items():
            if name != "enum":
                ok = series == enum
                detail = "" if ok else verify_mod._series_mismatch(name, series, enum)
                rep.verdicts.append(Verdict(f"{name} agrees with enum", ok, detail))
    return rep


def _cmd_genfun_invariants(args) -> Report:
    _series_bound(args.k, args.degree)
    rep = Report("genfun invariants", dict(k=args.k, degree=args.degree))
    series = genfun.invariant_series(args.k, args.degree)
    rep.results["hilbert_series"] = _series_ints(series)
    try:
        structure = genfun.detect_invariant_structure(args.k, args.degree)
    except StructureNotRecognizedError as exc:
        rep.verdicts.append(Verdict("invariant structure recognized", False, str(exc)))
        return rep
    rep.results["structure"] = structure.describe()
    rep.results["generator_degrees"] = list(structure.generator_degrees)
    if structure.relation_degree is not None:
        rep.results["relation_degree"] = structure.relation_degree
    rep.verdicts.append(Verdict("invariant structure recognized", True))
    return rep


def _cmd_genfun_freeness(args) -> Report:
    _series_bound(args.k, args.degree)
    rep = Report("genfun freeness", dict(k=args.k, l=args.l, degree=args.degree))
    series, negative = genfun.freeness_quotient(args.k, args.l, args.degree)
    rep.results["quotient_coefficients"] = _series_ints(series)
    if negative is None:
        rep.results["first_negative"] = "first negative coefficient: none"
    else:
        rep.results["first_negative"] = f"first negative coefficient: degree {negative}"
    return rep


def _cmd_sl2_sym(args) -> Report:
    _series_bound(args.k, args.n)
    rep = Report("sl2 sym", dict(k=args.k, n=args.n))
    decomposition = sl2rep.sym_power_decompose(args.k, args.n)
    rep.results["decomposition"] = [
        f"L({l}) x {mult}" for l, mult in sorted(decomposition.items())
    ]
    total = sum((l + 1) * m for l, m in decomposition.items())
    rep.verdicts.append(
        Verdict(
            "total dimension equals C(n+k, k)",
            total == sl2rep.total_sym_dimension(args.k, args.n),
            f"{total}",
        )
    )
    return rep


def _cmd_sl2_q0(args) -> Report:
    if args.l is not None and args.table is not None:
        raise ValueError("sl2 q0: give either --l or --table, not both")
    if args.l is not None:
        rep = Report("sl2 q0", dict(l=args.l))
        rep.results["multiplicity"] = sl2rep.q0_multiplicity(args.l)
        return rep
    upto = args.table if args.table is not None else 8
    _nonnegative("--table", upto)
    # degree part k reads the L(4) table to degree k; the budget is charged
    # for degree MAX + 3, so MAX = 996 is the largest table accepted
    _series_bound(4, upto + 3)
    rep = Report("sl2 q0", dict(table=upto))
    rows = []
    # largest degree first: it builds the L(4) table once, to degree MAX, and
    # every smaller part reads that table instead of rebuilding a larger one
    for k in range(upto, -1, -1):
        part = sl2rep.q00_degree_part(k)
        body = " + ".join(f"L({l})" for l in sorted(part)) or "0"
        rows.append(f"degree {k}: {body}")
    rep.results["graded_table"] = rows[::-1]
    return rep


def _cmd_sl2_tensor(args) -> Report:
    _bound("--k", args.k, SUMMAND_MAX_K, "summand-list")
    simple = SimpleHC.parse(args.simple)
    rep = Report("sl2 tensor", dict(k=args.k, simple=str(simple)))
    result = sl2rep.hc_tensor(args.k, simple)
    rep.results["decomposition"] = [
        f"{s} x {mult}" for s, mult in sorted(result.items())
    ]
    return rep


def _cmd_symalg_check(args) -> Report:
    rep = Report("symalg check-invariants", {})
    c2, c3 = symalg.build_C2(), symalg.build_C3()
    rep.results["C2"] = str(c2)
    rep.results["C3"] = str(c3)
    rep.verdicts = verify_mod.invariance_verdicts(c2, c3)
    return rep


def _cmd_symalg_independence(args) -> Report:
    rep = Report("symalg independence", dict(k=args.k))
    _, rank = symalg.independence_check(args.k)
    rep.results["rank"] = rank
    rep.results["expected"] = args.k
    rep.verdicts.append(verify_mod.independence_verdict(args.k, rank))
    return rep


# The series commands read genfun's weight-by-degree table for L(k): rows
# n = 0..degree, row n holding the kn + 1 weights of the parity of kn.  The
# budget counts (N+1)(kN+1) cells, the full weight range, about twice the
# cells of that parity-halved table.  Peak RSS at the limit measured 142 MB
# at k = 100 (CPython 3.11); a larger request is refused before anything is
# built.
SERIES_MAX_CELLS = 4_000_000

# The Young-lattice commands are certified up to this level (det N_40 is a
# 588x588 matrix); a larger request is refused before anything is built.
YOUNG_MAX_N = 40

# `sl2 tensor` and `quiver decompose-q` list one summand V(j) per step of 2 up
# to about 2k, at most k + 2 entries; memory grows linearly in k.  Peak RSS at
# the limit measured 48 MB for `sl2 tensor --k 100000 --simple "V(100000)"`
# and 32 MB for `quiver decompose-q --k 100000` (CPython 3.11); a larger
# request is refused before anything is built.
SUMMAND_MAX_K = 100_000


def _series_bound(k: int, degree: int) -> None:
    cells = (degree + 1) * (k * degree + 1)
    if cells > SERIES_MAX_CELLS:
        raise ValueError(
            f"k={k} to degree {degree} needs {cells} weight-table cells, "
            f"above the series limit {SERIES_MAX_CELLS}"
        )


def _nonnegative(flag: str, value: int) -> None:
    if value < 0:
        raise ValueError(f"{flag} {value} must be non-negative")


def _bound(flag: str, value: int, limit: int, name: str) -> None:
    if value > limit:
        raise ValueError(f"{flag} {value} is above the {name} limit {limit}")


def _cmd_young_matrix(args) -> Report:
    _bound("--n", args.n, YOUNG_MAX_N, "Young-lattice")
    rep = Report("young matrix", dict(n=args.n, emit=bool(args.emit)))
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
    return rep


def _cmd_young_rank(args) -> Report:
    _nonnegative("--upto", args.upto)
    _bound("--upto", args.upto, YOUNG_MAX_N, "Young-lattice")
    rep = Report("young rank", dict(upto=args.upto))
    lines = []
    for n in range(1, args.upto + 1):
        rank = younglat.rank_at(n)
        verdict = verify_mod.rank_verdict(n, rank)
        lines.append(f"n={n:2d}  rank = {rank}: {'PASS' if verdict.passed else 'FAIL'}")
        rep.verdicts.append(verdict)
    rep.results["table"] = lines
    return rep


def _cmd_young_det(args) -> Report:
    _nonnegative("--upto", args.upto)
    _bound("--upto", args.upto, YOUNG_MAX_N, "Young-lattice")
    rep = Report("young det", dict(upto=args.upto))
    lines = []
    for n in range(2, args.upto + 1):
        d = younglat.verify_det_factorization(n)
        lines.append(d.describe())
        rep.verdicts.extend(verify_mod.det_verdicts(d, args.upto))
    rep.results["factorizations"] = lines
    return rep


def _cmd_quiver_radical(args) -> Report:
    top = SimpleHC.parse(args.top)
    rep = Report("quiver radical", dict(top=str(top), depth=args.depth))
    filtration = quiver.radical_filtration(top, args.depth)
    rep.results["layers"] = filtration.describe()
    return rep


def _cmd_quiver_decompose(args) -> Report:
    _bound("--k", args.k, SUMMAND_MAX_K, "summand-list")
    rep = Report("quiver decompose-q", dict(k=args.k))
    parts = quiver.decompose_Q(args.k)
    rep.results["decomposition"] = [
        f"P[{s}] x {mult}" for s, mult in sorted(parts.items())
    ]
    return rep


def _cmd_quiver_blocks(args) -> Report:
    rep = Report("quiver blocks", {})
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
    return rep


def _cmd_verify_all(args) -> Report:
    rep = Report("verify all", dict(quick=bool(args.quick)))
    lines = []
    for number, title, verdicts in verify_mod.run_all(quick=args.quick):
        for v in verdicts:
            rep.verdicts.append(Verdict(f"[criterion {number}] {v.name}", v.passed, v.detail))
        ok = all(v.passed for v in verdicts)
        lines.append(f"criterion {number} ({title}): {'PASS' if ok else 'FAIL'}")
    rep.results["criteria"] = lines
    return rep


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


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        report: Report = args.handler(args)
    except (NoClosedFormError, StructureNotRecognizedError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report.wall_time_ms = int((time.monotonic() - started) * 1000)
    text = report.to_json() if args.format == "structured" else report.render_text()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if not report.all_passed:
        failing = [v.name for v in report.verdicts if not v.passed]
        print(f"FAILED: {'; '.join(failing)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
