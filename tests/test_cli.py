import argparse
import importlib.util
import inspect
import json
import re
from collections import Counter
from pathlib import Path

import pytest

from galilei import cli, genfun, quiver, sl2rep, symalg, verify, younglat
from galilei.cli import (
    INDEPENDENCE_MAX_K,
    RADICAL_MAX_DEPTH,
    SERIES_MAX_CELLS,
    SERIES_MAX_K,
    SERIES_MAX_L,
    SUMMAND_MAX_K,
    Report,
    build_parser,
    main,
)
from galilei.exact import Polynomial, RationalFunction, TruncatedSeries
from galilei.sl2rep import V
from galilei.verify import Verdict

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_output.py"
_spec = importlib.util.spec_from_file_location("same_output", _TOOL)
same_output = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_output)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_freeness_names_the_negative_degree(capsys):
    code, out, _ = run_cli(capsys, "genfun", "freeness", "--k", "5", "--l", "1", "--degree", "30")
    assert code == 0
    assert "first negative coefficient: degree 23" in out


def test_young_rank_table(capsys):
    code, out, _ = run_cli(capsys, "young", "rank", "--upto", "4")
    assert code == 0
    for n in range(1, 5):
        assert f"rank = {n}: PASS" in out


def test_quiver_radical_layers(capsys):
    code, out, _ = run_cli(capsys, "quiver", "radical", "--top", "V'(0)", "--depth", "2")
    assert code == 0
    assert "rad^0: V'(0)" in out
    assert "rad^1: V(4)" in out
    assert "rad^2: V(8)" in out


def test_series_all_methods_cross_check(capsys):
    code, out, _ = run_cli(
        capsys, "genfun", "series", "--k", "4", "--l", "2", "--degree", "10", "--method", "all"
    )
    assert code == 0
    assert "recur agrees with enum" in out
    assert "closed agrees with enum" in out


def test_series_builds_its_closed_form_once_and_prints_it_first(capsys, monkeypatch):
    built = []
    original = genfun._closed_k5

    def counting(l):
        built.append(l)
        return original(l)

    monkeypatch.setattr(genfun, "_closed_k5", counting)
    code, out, _ = run_cli(
        capsys, "genfun", "series", "--k", "5", "--l", "1", "--degree", "10", "--method", "all"
    )
    assert code == 0
    assert built == [1]
    assert out.index("closed_form:") < out.index("enum_coefficients:")


def test_series_closed_unsupported_is_an_error(capsys):
    code, _, err = run_cli(
        capsys, "genfun", "series", "--k", "6", "--l", "8", "--method", "closed"
    )
    assert code == 2
    assert "no closed form" in err


def test_invariants_structure(capsys):
    code, out, _ = run_cli(capsys, "genfun", "invariants", "--k", "5", "--degree", "60")
    assert code == 0
    assert "4, 8, 12, 18" in out
    assert "36" in out


def test_invariants_past_the_generator_cap_name_the_cap(capsys):
    code, out, _ = run_cli(capsys, "genfun", "invariants", "--k", "7")
    assert code == 1
    assert ("FAIL  invariant structure recognized  "
            "(more than 60 generators to degree 60 for k=7)") in out


def test_sym_and_tensor_and_q0(capsys):
    code, out, _ = run_cli(capsys, "sl2", "sym", "--k", "4", "--n", "3")
    assert code == 0
    for piece in ("L(0)", "L(4)", "L(6)", "L(8)", "L(12)"):
        assert piece in out

    code, out, _ = run_cli(capsys, "sl2", "tensor", "--k", "6", "--simple", "V'(0)")
    assert code == 0
    assert "V'(2) x 1" in out and "V(6) x 1" in out

    code, out, _ = run_cli(capsys, "sl2", "q0", "--l", "8")
    assert code == 0
    assert "multiplicity: 3" in out

    code, out, _ = run_cli(capsys, "sl2", "q0", "--table", "4")
    assert code == 0
    assert "degree 3: L(6) + L(8) + L(12)" in out


def test_symalg_commands(capsys):
    code, out, _ = run_cli(capsys, "symalg", "check-invariants")
    assert code == 0
    assert "e kills C2" in out and "f kills C3" in out

    code, out, _ = run_cli(capsys, "symalg", "independence", "--k", "7")
    assert code == 0
    assert "rank: 7" in out


def test_young_matrix_emit(capsys):
    code, out, _ = run_cli(capsys, "young", "matrix", "--n", "3", "--emit", "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["entries"]["(1)"]["(2,1)"] == "-3 + 3*x"


def test_young_det(capsys):
    code, out, _ = run_cli(capsys, "young", "det", "--upto", "6")
    assert code == 0
    assert "det N_4 = 3 * (x-1)" in out


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("young", "rank", "--upto", "41"), "--upto 41"),
        (("young", "det", "--upto", "41"), "--upto 41"),
        (("young", "matrix", "--n", "41"), "--n 41"),
        (("young", "det", "--upto", "2000000"), "--upto 2000000"),
    ],
)
def test_young_inputs_above_the_limit_exit_2_before_building(capsys, monkeypatch, argv, flag):
    def refuse(*args, **kwargs):
        raise AssertionError("built a Young-lattice object for an oversized request")

    for name in ("bounded_partitions", "path_matrix", "rank_at", "build_Nn",
                 "verify_det_factorization"):
        monkeypatch.setattr(younglat, name, refuse)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert flag in err and "limit 40" in err


def test_young_limit_itself_is_accepted(capsys, monkeypatch):
    monkeypatch.setattr(younglat, "rank_at", lambda n: n)
    code, out, _ = run_cli(capsys, "young", "rank", "--upto", "40")
    assert code == 0
    assert "n=40  rank = 40: PASS" in out


def _refuse_summands(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built a summand list for an oversized request")

    monkeypatch.setattr(sl2rep, "hc_tensor", refuse)
    monkeypatch.setattr(quiver, "decompose_Q", refuse)


@pytest.mark.parametrize(
    "argv",
    [
        ("sl2", "tensor", "--k", "100001", "--simple", "V(3)"),
        ("sl2", "tensor", "--k", "100000000", "--simple", "V'(0)"),
        ("quiver", "decompose-q", "--k", "100001"),
    ],
)
def test_summand_lists_above_the_limit_exit_2_before_building(capsys, monkeypatch, argv):
    _refuse_summands(monkeypatch)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: --k {argv[3]} is above the summand-list limit {SUMMAND_MAX_K}\n"


def test_summand_limit_itself_is_accepted(capsys, monkeypatch):
    assert SUMMAND_MAX_K == 100_000
    monkeypatch.setattr(sl2rep, "hc_tensor", lambda k, s: Counter({V(k): 1}))
    monkeypatch.setattr(quiver, "decompose_Q", lambda k: Counter({V(k): 1}))
    code, out, _ = run_cli(capsys, "sl2", "tensor", "--k", "100000", "--simple", "V(3)")
    assert code == 0 and "V(100000) x 1" in out
    code, out, _ = run_cli(capsys, "quiver", "decompose-q", "--k", "100000")
    assert code == 0 and "P[V(100000)] x 1" in out


@pytest.mark.parametrize("depth", ["1001", "10000"])
def test_radical_depth_above_the_limit_exits_2_before_building(capsys, monkeypatch, depth):
    def refuse(*args, **kwargs):
        raise AssertionError("built a radical filtration for an oversized request")

    monkeypatch.setattr(quiver, "radical_filtration", refuse)
    code, out, err = run_cli(capsys, "quiver", "radical", "--top", "V(1)", "--depth", depth)
    assert code == 2
    assert out == ""
    assert err == f"error: --depth {depth} is above the radical-depth limit {RADICAL_MAX_DEPTH}\n"


def test_radical_depth_limit_itself_is_accepted(capsys, monkeypatch):
    assert RADICAL_MAX_DEPTH == 1_000
    monkeypatch.setattr(quiver, "radical_filtration", lambda top, depth: [Counter({top: 1})])
    code, out, _ = run_cli(capsys, "quiver", "radical", "--top", "V(1)", "--depth", "1000")
    assert code == 0 and "rad^0: V(1)" in out


@pytest.mark.parametrize("k", ["41", "1000"])
def test_independence_above_the_limit_exits_2_before_building(capsys, monkeypatch, k):
    def refuse(*args, **kwargs):
        raise AssertionError("built an independence matrix for an oversized request")

    monkeypatch.setattr(symalg, "independence_check", refuse)
    code, out, err = run_cli(capsys, "symalg", "independence", "--k", k)
    assert code == 2
    assert out == ""
    assert err == f"error: --k {k} is above the independence limit {INDEPENDENCE_MAX_K}\n"


def test_independence_limit_itself_is_accepted(capsys):
    assert INDEPENDENCE_MAX_K == 40
    code, out, _ = run_cli(capsys, "symalg", "independence", "--k", "40")
    assert code == 0 and "PASS  rank certificate: rank = k = 40  (rank 40)" in out


def test_unwritable_out_file_exits_2(capsys, tmp_path):
    path = tmp_path / "missing" / "r.json"
    code, out, err = run_cli(capsys, "young", "rank", "--upto", "3", "--out", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(path) in err and "Traceback" not in err
    assert not path.exists()


def test_structured_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "genfun", "series", "--k", "3", "--l", "1", "--degree", "8",
        "--format", "structured",
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == set(json.loads(Report("", {}).to_json()))
    assert payload["command"] == "genfun series"
    assert payload["params"]["k"] == 3


def test_structured_deterministic_apart_from_timing(capsys):
    args = ("sl2", "sym", "--k", "4", "--n", "6", "--format", "structured")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("wall_time_ms"), d2.pop("wall_time_ms")
    assert d1 == d2


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "sl2", "q0", "--l", "4", "--format", "structured", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["results"]["multiplicity"] == 2


def _subcommands(parser):
    """{name: parser} of the subcommands a parser dispatches to, in declaration order."""
    return next(
        (a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)), {}
    )


def _commands():
    """[(group, command, parser)] for every command, in declaration order."""
    return [
        (group, command, sub)
        for group, group_parser in _subcommands(build_parser()).items()
        for command, sub in _subcommands(group_parser).items()
    ]


def test_help_text_is_pinned(capsys, monkeypatch):
    """Every --help, top level, each group and each command, byte for byte.
    argparse wraps help to the terminal width, so the width is fixed here."""
    monkeypatch.setenv("COLUMNS", "80")
    argvs = [()]
    for group, group_parser in _subcommands(build_parser()).items():
        argvs += [(group,)] + [(group, command) for command in _subcommands(group_parser)]
    assert len(argvs) == 1 + 6 + 15
    blocks = []
    for argv in argvs:
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--help"])
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        blocks.append(f"$ galilei {' '.join((*argv, '--help'))}\n{captured.out}")
    assert "".join(blocks) == (Path(__file__).parent / "cli_help.txt").read_text()


def test_a_command_builds_the_parsers_of_its_own_group_only(capsys, monkeypatch):
    """The top level, the common flags, the six groups and the one verify
    command: 9 parsers, where the whole command line has 23."""
    built = []
    original = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    main(["verify", "all", "--quick"])
    assert "command: verify all" in capsys.readouterr().out
    assert len(built) == 9
    built.clear()
    build_parser()
    assert len(built) == 1 + 1 + 6 + 15


def test_every_handler_answers_exactly_one_command():
    defined = {
        value for name, value in vars(cli).items()
        if name.startswith("_cmd_") and inspect.isfunction(value)
    }
    commands = _commands()
    dispatched = Counter(sub.get_default("handler") for _, _, sub in commands)
    assert len(commands) == 15
    assert set(dispatched) == defined
    assert set(dispatched.values()) == {1}


def test_unknown_command_exits_nonzero():
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code != 0
    with pytest.raises(SystemExit) as exc:
        main(["young", "rank", "--bogus-flag", "3"])
    assert exc.value.code != 0


def test_exit_status_reflects_verdicts(capsys, monkeypatch):
    verdicts = []
    monkeypatch.setitem(cli.COMMANDS["quiver"][1], "blocks",
                        (lambda args, rep: rep.verdicts.extend(verdicts), []))
    for added, code, err in (([], 0, ""), ([Verdict("good", True)], 0, ""),
                             ([Verdict("bad", False)], 1, "FAILED: bad\n")):
        verdicts += added
        status, out, printed = run_cli(capsys, "quiver", "blocks")
        assert (status, printed) == (code, err) and out.startswith("command: quiver blocks\n")


def test_bad_simple_label_is_an_error(capsys):
    code, _, err = run_cli(capsys, "sl2", "tensor", "--k", "2", "--simple", "W(1)")
    assert code == 2
    assert "cannot parse" in err


def test_q0_flag_conflict(capsys):
    code, _, err = run_cli(capsys, "sl2", "q0", "--l", "2", "--table", "3")
    assert code == 2
    assert "either --l or --table" in err


def test_quick_verification_engine_shape():
    from galilei import verify

    results = verify.run_all(quick=True)
    assert [number for number, _, _ in results] == list(range(1, 10))
    for _, _, verdicts in results:
        assert verdicts
        for v in verdicts:
            assert v.line().startswith(("PASS", "FAIL"))


# Full text reports recorded before a refactor of the code behind each
# command; only the wall_time_ms line is left out.
@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ("young", "rank", "--upto", "4"),
            """\
command: young rank
params: upto=4
table:
  n= 1  rank = 1: PASS
  n= 2  rank = 2: PASS
  n= 3  rank = 3: PASS
  n= 4  rank = 4: PASS
PASS  rank of M_1 at x=1 equals 1  (rank 1)
PASS  rank of M_2 at x=2 equals 2  (rank 2)
PASS  rank of M_3 at x=3 equals 3  (rank 3)
PASS  rank of M_4 at x=4 equals 4  (rank 4)
""",
        ),
        (
            ("young", "det", "--upto", "6"),
            """\
command: young det
params: upto=6
factorizations:
  det N_2 = 1 * 1
  det N_3 = 2 * 1
  det N_4 = 3 * (x-1)
  det N_5 = -20 * (x-1)(x-2)
  det N_6 = 15 * (x-2)(x-2)(x-3)
PASS  det N_2 is a nonzero integer times linear factors with roots < 2  (det N_2 = 1 * 1)
PASS  det N_2 stays nonzero at x = 2..6
PASS  det N_3 is a nonzero integer times linear factors with roots < 3  (det N_3 = 2 * 1)
PASS  det N_3 stays nonzero at x = 3..6
PASS  det N_4 is a nonzero integer times linear factors with roots < 4  (det N_4 = 3 * (x-1))
PASS  det N_4 stays nonzero at x = 4..6
PASS  det N_5 is a nonzero integer times linear factors with roots < 5  (det N_5 = -20 * (x-1)(x-2))
PASS  det N_5 stays nonzero at x = 5..6
PASS  det N_6 is a nonzero integer times linear factors with roots < 6  (det N_6 = 15 * (x-2)(x-2)(x-3))
PASS  det N_6 stays nonzero at x = 6..6
""",
        ),
        (
            ("symalg", "check-invariants"),
            """\
command: symalg check-invariants
C2: v[0]^2 - 3*v[-2]*v[2] + 12*v[-4]*v[4]
C3: v[0]^3 - 9/2*v[-2]*v[0]*v[2] + 27/2*v[-2]^2*v[4] + 27/2*v[-4]*v[2]^2 - 36*v[-4]*v[0]*v[4]
PASS  C2 is homogeneous of degree 2 and weight 0
PASS  e kills C2
PASS  f kills C2
PASS  C3 is homogeneous of degree 3 and weight 0
PASS  e kills C3
PASS  f kills C3
PASS  product C2*C3 is invariant
""",
        ),
        (
            ("symalg", "independence", "--k", "5"),
            """\
command: symalg independence
params: k=5
rank: 5
expected: 5
PASS  rank certificate: rank = k = 5  (rank 5)
""",
        ),
        (
            ("genfun", "series", "--k", "5", "--l", "1", "--degree", "12"),
            """\
command: genfun series
params: k=5 l=1 degree=12 method=all
closed_form: (-q - 3*q^3 - 5*q^5 - 5*q^7 - 5*q^9 - 3*q^11 - q^13) / (-1 + 3*q^2 - 3*q^4 + 2*q^6 - 2*q^8 + 2*q^12 - 2*q^14 + 3*q^16 - 3*q^18 + q^20)
enum_coefficients: 0 1 0 6 0 20 0 49 0 102 0 190 0
recur_coefficients: 0 1 0 6 0 20 0 49 0 102 0 190 0
closed_coefficients: 0 1 0 6 0 20 0 49 0 102 0 190 0
PASS  recur agrees with enum
PASS  closed agrees with enum
""",
        ),
        (
            ("quiver", "decompose-q", "--k", "8"),
            """\
command: quiver decompose-q
params: k=8
decomposition:
  P[V(2)] x 1
  P[V(4)] x 1
  P[V(6)] x 1
  P[V(8)] x 1
  P[V'(0)] x 1
""",
        ),
        (
            ("quiver", "blocks"),
            "command: quiver blocks\n"
            "blocks:\n"
            "  block 1: vertices V(n) for odd n on the line ... V(11) - V(7) - V(3) - V(1)"
            " - V(5) - V(9) ...; arrows both ways between neighbours; all 2-cycles are zero\n"
            "  block 2: vertices V(2) - V(6) - V(10) - ... with a loop at V(2); all 2-cycles"
            " are zero and the loop squares to zero\n"
            "  block 3: vertices V'(0), V'(2) and V(4) - V(8) - V(12) - ...; arrows both ways"
            " in the diamond {V'(0), V'(2)} <-> V(4) and along the half-line; the two 2-cycles"
            " at V(4) through V'(0) and V'(2) are equal and nonzero, every other 2-cycle is"
            " zero, and both length-2 routes between V'(0) and V'(2) are zero\n",
        ),
        (
            ("young", "matrix", "--n", "3", "--emit"),
            """\
command: young matrix
params: n=3 emit=True
matrix:
           (3)  (2,1)     (1,1,1)
  (1)      1    -3 + 3*x  2 - 3*x + x^2
  (1,1)    0    2         -2 + x
  (1,1,1)  0    0         1
entries: {"(1)": {"(1,1,1)": "2 - 3*x + x^2", "(2,1)": "-3 + 3*x", "(3)": "1"}, \
"(1,1)": {"(1,1,1)": "-2 + x", "(2,1)": "2", "(3)": "0"}, \
"(1,1,1)": {"(1,1,1)": "1", "(2,1)": "0", "(3)": "0"}}
""",
        ),
        (
            ("genfun", "freeness", "--k", "4", "--l", "0", "--degree", "12"),
            """\
command: genfun freeness
params: k=4 l=0 degree=12
quotient_coefficients: 1 0 0 0 0 0 0 0 0 0 0 0 0
first_negative: first negative coefficient: none
""",
        ),
        (("young", "rank", "--upto", "0"), "command: young rank\nparams: upto=0\ntable: \n"),
        (("young", "det", "--upto", "1"), "command: young det\nparams: upto=1\nfactorizations: \n"),
        (
            ("sl2", "q0", "--table", "0"),
            "command: sl2 q0\nparams: table=0\ngraded_table:\n  degree 0: L(0)\n",
        ),
        (
            ("sl2", "q0", "--table", "12"),
            """\
command: sl2 q0
params: table=12
graded_table:
  degree 0: L(0)
  degree 1: L(4)
  degree 2: L(4) + L(8)
  degree 3: L(6) + L(8) + L(12)
  degree 4: L(8) + L(10) + L(12) + L(16)
  degree 5: L(10) + L(12) + L(14) + L(16) + L(20)
  degree 6: L(12) + L(14) + L(16) + L(18) + L(20) + L(24)
  degree 7: L(14) + L(16) + L(18) + L(20) + L(22) + L(24) + L(28)
  degree 8: L(16) + L(18) + L(20) + L(22) + L(24) + L(26) + L(28) + L(32)
  degree 9: L(18) + L(20) + L(22) + L(24) + L(26) + L(28) + L(30) + L(32) + L(36)
  degree 10: L(20) + L(22) + L(24) + L(26) + L(28) + L(30) + L(32) + L(34) + L(36) + L(40)
  degree 11: L(22) + L(24) + L(26) + L(28) + L(30) + L(32) + L(34) + L(36) + L(38) + L(40) + L(44)
  degree 12: L(24) + L(26) + L(28) + L(30) + L(32) + L(34) + L(36) + L(38) + L(40) + L(42) + L(44) + L(48)
""",
        ),
        (
            ("sl2", "sym", "--k", "4", "--n", "6"),
            """\
command: sl2 sym
params: k=4 n=6
decomposition:
  L(0) x 2
  L(4) x 2
  L(6) x 1
  L(8) x 3
  L(10) x 1
  L(12) x 3
  L(14) x 1
  L(16) x 2
  L(18) x 1
  L(20) x 1
  L(24) x 1
PASS  total dimension equals C(n+k, k)  (210)
""",
        ),
        (
            ("sl2", "sym", "--k", "5", "--n", "3"),
            """\
command: sl2 sym
params: k=5 n=3
decomposition:
  L(3) x 1
  L(5) x 1
  L(7) x 1
  L(9) x 1
  L(11) x 1
  L(15) x 1
PASS  total dimension equals C(n+k, k)  (56)
""",
        ),
    ],
)
def test_transcripts_are_pinned(capsys, argv, expected):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert re.sub(r"^wall_time_ms: \d+\n", "", out, flags=re.M) == expected


def test_q0_table_builds_the_weight_table_once(capsys, monkeypatch):
    original = genfun._weight_degree_table
    builds = []

    def counting(k, degree):
        before = genfun._enum_tables.get(k)
        table = original(k, degree)
        if table is not before:
            builds.append((k, degree))
        return table

    monkeypatch.setattr(genfun, "_weight_degree_table", counting)
    genfun.clear_memo_caches()
    code, out, _ = run_cli(capsys, "sl2", "q0", "--table", "30")
    assert code == 0
    assert "  degree 0: L(0)\n  degree 1: L(4)\n" in out and "  degree 30: L(60)" in out
    assert builds == [(4, 30)]


def test_recursion_route_below_k_2_is_an_error(capsys):
    code, out, err = run_cli(capsys, "genfun", "series", "--k", "1", "--l", "0", "--method", "recur")
    assert code == 2
    assert out == ""
    assert err == "error: the recursion route needs k >= 2\n"


@pytest.mark.parametrize(
    "method, names",
    [("enum", "k, l, degree"), ("recur", "l, degree"), ("closed", "degree")],
)
def test_every_series_route_refuses_a_negative_degree_by_name(capsys, method, names):
    code, out, err = run_cli(capsys, "genfun", "series", "--k", "3", "--l", "1",
                             "--degree", "-1", "--method", method)
    assert (code, out, err) == (2, "", f"error: {names} must be non-negative\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("freeness", "--k", "-1", "--l", "0"),
        ("freeness", "--k", "5", "--l", "-1"),
        ("freeness", "--k", "5", "--l", "1", "--degree", "-1"),
        ("invariants", "--k", "-1"),
        ("invariants", "--k", "5", "--degree", "-1"),
    ],
)
def test_freeness_and_invariants_refuse_a_negative_argument_by_name(capsys, argv):
    code, out, err = run_cli(capsys, "genfun", *argv)
    assert (code, out, err) == (2, "", "error: k, l, degree must be non-negative\n")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("young", "rank", "--upto", "-3"), "--upto -3"),
        (("young", "det", "--upto", "-3"), "--upto -3"),
        (("sl2", "q0", "--table", "-2"), "--table -2"),
    ],
)
def test_negative_sizes_exit_2_before_building(capsys, monkeypatch, argv, flag):
    def refuse(*args, **kwargs):
        raise AssertionError("built an object for a negative size")

    for name in ("rank_at", "verify_det_factorization"):
        monkeypatch.setattr(younglat, name, refuse)
    monkeypatch.setattr(sl2rep, "q00_degree_part", refuse)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {flag} must be non-negative\n"


def _structured_failures(out):
    return [v["name"] for v in json.loads(out)["verdicts"] if not v["passed"]]


def _verdict_named(verdicts, name):
    return next(v for v in verdicts if v.name == name)


def test_planted_structure_refusal_fails_genfun_invariants_and_criterion_4(capsys, monkeypatch):
    def planted(k, degree):
        raise genfun.StructureNotRecognizedError("planted")

    monkeypatch.setattr(genfun, "detect_invariant_structure", planted)
    code, out, _ = run_cli(capsys, "genfun", "invariants", "--k", "5")
    assert code == 1
    assert "FAIL  invariant structure recognized  (planted)" in out
    assert "structure:" not in out and "generator_degrees" not in out
    verdicts = verify.check_structure_detection(degree=20)
    assert len(verdicts) == 4
    for k, v in zip((3, 4, 5, 6), verdicts):
        assert not v.passed and v.detail.startswith(f"1 failing; first at k={k}: got planted, expected "), v.detail


def test_planted_dropped_summand_fails_sl2_sym(capsys, monkeypatch):
    original = sl2rep.sym_power_decompose

    def planted(k, n):
        decomposition = original(k, n)
        del decomposition[max(decomposition)]
        return decomposition

    monkeypatch.setattr(sl2rep, "sym_power_decompose", planted)
    code, out, err = run_cli(capsys, "sl2", "sym", "--k", "4", "--n", "3")
    assert code == 1
    # L(12) dropped: 1 + 5 + 7 + 9 = 22, not C(7, 4) = 35
    assert "FAIL  total dimension equals C(n+k, k)  (22)" in out
    assert err == "FAILED: total dimension equals C(n+k, k)\n"


def test_planted_clebsch_gordan_defect_fails_criterion_8_through_verify_all(capsys, monkeypatch):
    # L(m) x L(n) without its top summand L(m+n)
    _, out, _ = run_cli(capsys, "verify", "all", "--format", "structured")
    known = _structured_failures(out)
    original = sl2rep.clebsch_gordan

    def planted(m, n):
        return original(m, n)[:-1]

    monkeypatch.setattr(sl2rep, "clebsch_gordan", planted)
    code, out, _ = run_cli(capsys, "verify", "all", "--format", "structured")
    assert code == 1
    failing = _structured_failures(out)
    assert failing == [
        *known,
        "[criterion 8] tensor case split matches the type-multiset oracle"
        " for k <= 8, simples up to V(8)",
        "[criterion 8] Clebsch-Gordan coherence of iterated tensoring for a, b <= 4",
    ]


def _verdicts_structured(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv, "--format", "structured")
    payload = json.loads(out)
    return code, payload["results"], {v["name"]: (v["passed"], v["detail"]) for v in payload["verdicts"]}


def _changed(before, after):
    """Names of the verdicts whose pass flag or detail differs; both runs name the same verdicts."""
    assert list(before) == list(after)
    return [name for name in before if before[name] != after[name]]


def test_planted_biased_g_types_fails_criteria_8_and_9_through_verify_all(capsys, monkeypatch):
    # the primed simples lose their lowest type: V'(0) starts at L(4), V'(2) at L(6)
    _, _, before = _verdicts_structured(capsys, "verify", "all")
    original = sl2rep.g_types

    def planted(s, max_l):
        return range(s.index + 4, max_l + 1, 4) if s.primed else original(s, max_l)

    monkeypatch.setattr(sl2rep, "g_types", planted)
    code, _, after = _verdicts_structured(capsys, "verify", "all")
    assert code == 1
    flipped = [name for name in before if before[name][0] != after[name][0]]
    assert flipped == [
        "[criterion 8] tensor case split matches the type-multiset oracle"
        " for k <= 8, simples up to V(8)",
        "[criterion 9] Q(k) decomposition matches the staircase formula for k <= 12",
    ]


def _plant_psi_level_defect(monkeypatch):
    # build_psi walks level n - 2 in place of level n - 1
    source = inspect.getsource(younglat.build_psi)
    assert source.count("bounded_partitions(n - 1)") == 1
    namespace = dict(vars(younglat))
    exec(source.replace("bounded_partitions(n - 1)", "bounded_partitions(n - 2)"), namespace)
    monkeypatch.setattr(younglat, "build_psi", namespace["build_psi"])


def test_planted_psi_level_defect_fails_criterion_5_without_a_traceback(capsys, monkeypatch):
    _, _, before = _verdicts_structured(capsys, "verify", "all")
    _plant_psi_level_defect(monkeypatch)
    code, results, after = _verdicts_structured(capsys, "verify", "all")
    assert code == 1
    assert [line.split(" (")[0] for line in results["criteria"]] == [f"criterion {n}" for n in range(1, 10)]
    shape = "[criterion 5] det N_n = nonzero integer times product of (x-i), i < n, for 2 <= n <= 12"
    nonzero = "[criterion 5] det N_n is nonzero at x=m for n <= m <= 12"
    n6 = "[criterion 5] linear-factor multiset of det N_6 is {x-1, x-2, x-3}"
    assert _changed(before, after) == [shape, nonzero, n6]
    # at every level build_psi refuses its map, and each verdict names the first stray image
    failures = "11 failing; first at 2: got FAIL (psi sends () to (1), outside level 2), expected PASS"
    assert after[shape] == after[nonzero] == (False, failures)
    assert after[n6] == (False, "psi sends (4) to (4,1), outside level 6")


def test_planted_psi_level_defect_fails_young_det(capsys, monkeypatch):
    _plant_psi_level_defect(monkeypatch)
    code, out, err = run_cli(capsys, "young", "det", "--upto", "6")
    assert code == 1 and "Traceback" not in err
    assert "  psi sends (2) to (2,1), outside level 4" in out
    assert "FAIL  det N_4 is a nonzero integer times linear factors with roots < 4" \
        "  (psi sends (2) to (2,1), outside level 4)" in out
    assert "FAIL  det N_6 stays nonzero at x = 6..6  (psi sends (4) to (4,1), outside level 6)" in out


# (argv, the command and params each report prints, in print order)
_REPORT_FRAMES = [
    (("genfun", "series", "--k", "3", "--l", "2", "--degree", "5", "--method", "enum"),
     "genfun series", dict(k=3, l=2, degree=5, method="enum")),
    (("genfun", "series", "--l", "1", "--k", "2", "--degree", "4"),
     "genfun series", dict(k=2, l=1, degree=4, method="all")),
    (("genfun", "invariants", "--k", "3", "--degree", "8"),
     "genfun invariants", dict(k=3, degree=8)),
    (("genfun", "freeness", "--k", "3", "--l", "1", "--degree", "8"),
     "genfun freeness", dict(k=3, l=1, degree=8)),
    (("sl2", "sym", "--n", "3", "--k", "4"), "sl2 sym", dict(k=4, n=3)),
    (("sl2", "q0"), "sl2 q0", dict(table=8)),
    (("sl2", "q0", "--l", "4"), "sl2 q0", dict(l=4)),
    (("sl2", "q0", "--table", "2"), "sl2 q0", dict(table=2)),
    (("sl2", "tensor", "--k", "2", "--simple", " V( 3 ) "), "sl2 tensor", dict(k=2, simple="V(3)")),
    (("symalg", "check-invariants"), "symalg check-invariants", {}),
    (("symalg", "independence", "--k", "3"), "symalg independence", dict(k=3)),
    (("young", "matrix", "--n", "2"), "young matrix", dict(n=2, emit=False)),
    (("young", "matrix", "--emit", "--n", "2"), "young matrix", dict(n=2, emit=True)),
    (("young", "rank", "--upto", "2"), "young rank", dict(upto=2)),
    (("young", "det", "--upto", "3"), "young det", dict(upto=3)),
    (("quiver", "radical", "--top", " V( 5 ) ", "--depth", "2"),
     "quiver radical", dict(top="V(5)", depth=2)),
    (("quiver", "decompose-q", "--k", "4"), "quiver decompose-q", dict(k=4)),
    (("quiver", "blocks"), "quiver blocks", {}),
    (("verify", "all", "--quick"), "verify all", dict(quick=True)),
]


@pytest.mark.parametrize("argv, command, params", _REPORT_FRAMES)
def test_every_report_prints_its_command_and_params(capsys, argv, command, params):
    _, out, _ = run_cli(capsys, *argv)
    lines = out.splitlines()
    assert lines[0] == f"command: {command}"
    if params:
        assert lines[1] == "params: " + " ".join(f"{k}={v}" for k, v in params.items())
    else:
        assert not any(line.startswith("params:") for line in lines)
    _, out, _ = run_cli(capsys, *argv, "--format", "structured")
    payload = json.loads(out)
    assert (payload["command"], payload["params"]) == (command, params)


def test_planted_rank_defect_fails_young_rank_and_criterion_5(capsys, monkeypatch):
    original = younglat.rank_at
    monkeypatch.setattr(younglat, "rank_at", lambda n: original(n) - (n == 3))
    code, out, _ = run_cli(capsys, "young", "rank", "--upto", "4")
    assert code == 1
    assert "n= 3  rank = 2: FAIL" in out
    assert "FAIL  rank of M_3 at x=3 equals 3  (rank 2)" in out
    v = _verdict_named(
        verify.check_young_lattice(n_max=4), "rank of M_n at x=n equals n for 1 <= n <= 4"
    )
    assert not v.passed and v.detail == "1 failing; first at 3: got FAIL (rank 2), expected PASS"


def test_planted_C3_defect_fails_check_invariants_and_criterion_6(capsys, monkeypatch):
    original = symalg.build_C3

    def planted():
        # the coefficient of v_{-4} v_0 v_4 moved from -36 to -35
        terms = dict(original().terms)
        terms[1, 0, 1, 0, 1] += 1
        return symalg.SymElement(4, terms)

    monkeypatch.setattr(symalg, "build_C3", planted)
    code, out, _ = run_cli(capsys, "symalg", "check-invariants", "--format", "structured")
    assert code == 1
    assert _structured_failures(out) == ["e kills C3", "f kills C3", "product C2*C3 is invariant"]
    v = _verdict_named(
        verify.check_symmetric_algebra(k_max=3),
        "C2 and C3 are invariants (degree 2 and 3, weight 0, killed by e and f)",
    )
    image = "v[-2]*v[0]*v[4] + 3*v[-4]*v[2]*v[4]"
    assert not v.passed and v.detail == f"3 failing; first at e kills C3: got FAIL ({image}), expected PASS"


def test_planted_independence_defect_fails_cli_and_criterion_6(capsys, monkeypatch):
    original = symalg.independence_check

    def planted(k):
        return original(k) - (k == 5)

    monkeypatch.setattr(symalg, "independence_check", planted)
    code, out, _ = run_cli(capsys, "symalg", "independence", "--k", "5")
    assert code == 1
    assert "FAIL  rank certificate: rank = k = 5  (rank 4)" in out
    v = _verdict_named(
        verify.check_symmetric_algebra(k_max=5),
        "iterated raisings are independent for 1 <= k <= 5",
    )
    assert not v.passed and v.detail == "1 failing; first at 5: got FAIL (rank 4), expected PASS"


_INVARIANCE = "C2 and C3 are invariants (degree 2 and 3, weight 0, killed by e and f)"


# an extra v0^3 mixes degrees 2 and 3; an extra v0 v2 has degree 2 but weight 2
_FOUND = {(0, 0, 3, 0, 0): "degrees [2, 3], weights [0]", (0, 0, 1, 1, 0): "degrees [2], weights [0, 2]"}


@pytest.mark.parametrize("extra", list(_FOUND))
def test_planted_mixed_C2_fails_check_invariants_and_criterion_6(capsys, monkeypatch, extra):
    _, _, before = _verdicts_structured(capsys, "verify", "all", "--quick")
    original = symalg.build_C2
    monkeypatch.setattr(symalg, "build_C2", lambda: symalg.SymElement(4, {**original().terms, extra: 1}))
    code, out, err = run_cli(capsys, "symalg", "check-invariants", "--format", "structured")
    failing = [
        "C2 is homogeneous of degree 2 and weight 0", "e kills C2", "f kills C2",
        "product C2*C3 is invariant",
    ]
    assert (code, _structured_failures(out), err) == (1, failing, f"FAILED: {'; '.join(failing)}\n")
    code, results, after = _verdicts_structured(capsys, "verify", "all", "--quick")
    assert code == 1
    assert "criterion 6 (symmetric-algebra derivations): FAIL" in results["criteria"]
    assert _changed(before, after) == [f"[criterion 6] {_INVARIANCE}"]
    detail = f"4 failing; first at {failing[0]}: got FAIL ({_FOUND[extra]}), expected PASS"
    assert after[f"[criterion 6] {_INVARIANCE}"] == (False, detail)


def test_planted_mixed_C2_fails_its_per_item_verdicts_with_their_values(capsys, monkeypatch):
    original = symalg.build_C2
    planted = {**original().terms, (0, 0, 3, 0, 0): 1}
    monkeypatch.setattr(symalg, "build_C2", lambda: symalg.SymElement(4, planted))
    _, _, verdicts = _verdicts_structured(capsys, "symalg", "check-invariants")
    assert verdicts["C2 is homogeneous of degree 2 and weight 0"] == (False, "degrees [2, 3], weights [0]")
    assert verdicts["product C2*C3 is invariant"] == (False, (
        "e gives 9*v[0]^5*v[2] - 81/2*v[-2]*v[0]^3*v[2]^2 + 243/2*v[-2]^2*v[0]^2*v[2]*v[4]"
        " + 243/2*v[-4]*v[0]^2*v[2]^3 - 324*v[-4]*v[0]^3*v[2]*v[4]"
    ))
    assert verdicts["C3 is homogeneous of degree 3 and weight 0"] == (True, "")


def test_planted_zero_of_det_N4_fails_young_det_and_criterion_5(capsys, monkeypatch):
    # det N_4 gains the factor x - 7 while its factorization stays as it was
    original = younglat.verify_det_factorization

    def planted(n):
        d = original(n)
        return d._replace(determinant=d.determinant * Polynomial("x", (-7, 1))) if n == 4 else d

    monkeypatch.setattr(younglat, "verify_det_factorization", planted)
    code, _, verdicts = _verdicts_structured(capsys, "young", "det", "--upto", "8")
    assert code == 1
    assert [name for name, (passed, _) in verdicts.items() if not passed] == ["det N_4 stays nonzero at x = 4..8"]
    assert verdicts["det N_4 stays nonzero at x = 4..8"] == (False, "det N_4 is 0 at x = 7")
    checks = {v.name: v for v in verify.check_young_lattice(n_max=8)}
    assert checks["det N_n is nonzero at x=m for n <= m <= 8"].detail == (
        "1 failing; first at 4: got FAIL (det N_4 is 0 at x = 7), expected PASS"
    )
    assert checks["det N_n = nonzero integer times product of (x-i), i < n, for 2 <= n <= 8"].passed


def test_every_verdict_pass_flag_is_a_bool(capsys):
    for quick in (False, True):
        for _, _, verdicts in verify.run_all(quick=quick):
            assert all(type(v.passed) is bool for v in verdicts)
    # the README's commands, without the `verify all [--quick]` synopsis line
    for argv in same_output.readme_commands():
        _, out, _ = run_cli(capsys, *argv, "--format", "structured")
        # json prints true or false only for a bool
        assert all(type(v["passed"]) is bool for v in json.loads(out)["verdicts"]), argv


class _Built(Exception):
    """Raised by a monkeypatched series routine: the request passed the bound."""


def _refuse_series(monkeypatch):
    def refuse(*args, **kwargs):
        raise _Built

    for name in ("_weight_degree_table", "f_enum", "f_recur", "f_closed",
                 "invariant_series", "freeness_quotient", "detect_invariant_structure"):
        monkeypatch.setattr(genfun, name, refuse)


# (argv above the cell budget, argv at or just under it)
_SERIES_REQUESTS = [
    (("genfun", "series", "--k", "50", "--l", "0", "--degree", "2000"),
     ("genfun", "series", "--k", "1", "--l", "0", "--degree", "1999")),
    (("genfun", "series", "--k", "8", "--l", "1", "--degree", "2000", "--method", "recur"),
     ("genfun", "series", "--k", "2", "--l", "1", "--degree", "1413", "--method", "recur")),
    (("genfun", "invariants", "--k", "1", "--degree", "2000"),
     ("genfun", "invariants", "--k", "1", "--degree", "1999")),
    (("genfun", "freeness", "--k", "50", "--l", "1", "--degree", "2000"),
     ("genfun", "freeness", "--k", "1", "--l", "1", "--degree", "1999")),
    (("sl2", "sym", "--k", "50", "--n", "2000"),
     ("sl2", "sym", "--k", "1", "--n", "1999")),
    (("sl2", "q0", "--table", "997"),
     ("sl2", "q0", "--table", "996")),
    # the recursion route is charged (k + 1) // 2 tables
    (("genfun", "series", "--k", "8", "--l", "0", "--degree", "353", "--method", "recur"),
     ("genfun", "series", "--k", "8", "--l", "0", "--degree", "352", "--method", "recur")),
    (("genfun", "series", "--k", "100", "--l", "0", "--degree", "28"),
     ("genfun", "series", "--k", "100", "--l", "0", "--degree", "27")),
    # k = 0 is charged as k = 1: the quotient division is quadratic in N
    (("genfun", "freeness", "--k", "0", "--l", "0", "--degree", "2000"),
     ("genfun", "freeness", "--k", "0", "--l", "0", "--degree", "1999")),
    (("genfun", "invariants", "--k", "0", "--degree", "2000"),
     ("genfun", "invariants", "--k", "0", "--degree", "1999")),
]


@pytest.mark.parametrize("argv", [big for big, _ in _SERIES_REQUESTS])
def test_series_inputs_above_the_budget_exit_2_before_building(capsys, monkeypatch, argv):
    _refuse_series(monkeypatch)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"above the series limit {SERIES_MAX_CELLS}" in err


@pytest.mark.parametrize("argv", [at for _, at in _SERIES_REQUESTS])
def test_series_budget_itself_passes_the_bound(capsys, monkeypatch, argv):
    _refuse_series(monkeypatch)
    with pytest.raises(_Built):
        main(list(argv))


# (argv above the k or l limit, argv at it, the refusal)
_SERIES_INPUT_LIMITS = [
    (("genfun", "series", "--k", "1000", "--l", "0", "--degree", "0"),
     ("genfun", "series", "--k", "100", "--l", "0", "--degree", "0"),
     "--k 1000 is above the series limit 100"),
    (("genfun", "invariants", "--k", "101", "--degree", "0"),
     ("genfun", "invariants", "--k", "100", "--degree", "0"),
     "--k 101 is above the series limit 100"),
    (("sl2", "sym", "--k", "101", "--n", "0"),
     ("sl2", "sym", "--k", "100", "--n", "0"),
     "--k 101 is above the series limit 100"),
    (("genfun", "series", "--k", "3", "--l", "20001", "--degree", "5", "--method", "closed"),
     ("genfun", "series", "--k", "3", "--l", "20000", "--degree", "5", "--method", "closed"),
     "--l 20001 is above the series limit 20000"),
    (("genfun", "freeness", "--k", "3", "--l", "3000000", "--degree", "5"),
     ("genfun", "freeness", "--k", "3", "--l", "20000", "--degree", "5"),
     "--l 3000000 is above the series limit 20000"),
]


@pytest.mark.parametrize("big, at, refusal", _SERIES_INPUT_LIMITS)
def test_series_k_and_l_above_their_limits_exit_2_before_building(capsys, monkeypatch, big, at, refusal):
    assert (SERIES_MAX_K, SERIES_MAX_L) == (100, 20_000)
    _refuse_series(monkeypatch)
    assert run_cli(capsys, *big) == (2, "", f"error: {refusal}\n")
    with pytest.raises(_Built):
        main(list(at))


def _verify_all_structured(capsys):
    code, out, err = run_cli(capsys, "verify", "all", "--format", "structured")
    payload = json.loads(out)
    criteria = payload["results"]["criteria"]
    assert [line.split(" (")[0] for line in criteria] == [f"criterion {n}" for n in range(1, 10)]
    assert err.startswith("FAILED: ")
    failing = {v["name"]: v["detail"] for v in payload["verdicts"] if not v["passed"]}
    return code, failing


def _strip_timing(out):
    return re.sub(r"^wall_time_ms: \d+\n", "", out, flags=re.M)


def _plant_closed_k5_l0_defect(monkeypatch):
    original = genfun._closed_k5

    def planted(l):
        if l != 0:
            return original(l)
        # the k=5, l=0 transcription with its q^16 numerator coefficient 1 -> 2
        num = Polynomial("q", (1, 0, 1, 0, 6, 0, 9, 0, 12, 0, 9, 0, 6, 0, 1, 0, 2))
        return RationalFunction(num, genfun.geometric_den(2, 2, 4, 6, 8))

    monkeypatch.setattr(genfun, "_closed_k5", planted)


def test_planted_closed_form_defect_reaches_the_verdicts(capsys, monkeypatch):
    enumeration_commands = (("genfun", "invariants", "--k", "5"),
                            ("genfun", "freeness", "--k", "5", "--l", "1"))
    enumerated = [_strip_timing(run_cli(capsys, *argv)[1]) for argv in enumeration_commands]
    _plant_closed_k5_l0_defect(monkeypatch)
    code, failing = _verify_all_structured(capsys)
    assert code == 1
    series_failures = {
        name.split("]")[0] + "]": detail for name, detail in failing.items()
        if name.startswith(tuple(f"[criterion {n}]" for n in range(1, 5)))
    }
    assert series_failures == {
        "[criterion 1]": "23 failing; first at closed k=5 l=0 q^16: got 650, expected 649",
        "[criterion 2]": "17 failing; first at k=5 F_0 - F_2 cross-multiplied q^16: got -12, expected -11",
        "[criterion 3]": "30 failing; first at quotient k=5 cross-multiplied q^21: got -179, expected -178",
    }
    # the enumeration-only commands no longer consult the closed forms
    for argv, expected in zip(enumeration_commands, enumerated):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert _strip_timing(out) == expected


def test_planted_closed_form_defect_fails_genfun_series_all(capsys, monkeypatch):
    _plant_closed_k5_l0_defect(monkeypatch)
    code, out, err = run_cli(capsys, "genfun", "series", "--k", "5", "--l", "0", "--method", "all")
    assert code == 1
    assert "FAIL  closed agrees with enum  (23 failing; first at closed q^16: got 650, expected 649)\n" in out
    assert "PASS  recur agrees with enum\n" in out
    assert err == "FAILED: closed agrees with enum\n"


def test_planted_zero_divisor_fails_the_quotient_verdict(capsys, monkeypatch):
    original = genfun._closed_k5
    # F_2 = F_0 makes the divisor F_0 - F_2 of the k=5 quotient zero
    monkeypatch.setattr(genfun, "_closed_k5", lambda l: original(0 if l == 2 else l))
    code, failing = _verify_all_structured(capsys)
    assert code == 1
    quotient = "[criterion 3] quotient closed form for k=5: q^5(1+q^2)/(1-q^6+q^12)"
    assert failing[quotient] == "41 failing; first at quotient k=5 denominator is nonzero: got False, expected True"
    # F_0 - F_2 is 0, so its numerator times the target's denominator is too
    assert failing["[criterion 2] invariant series identity for k=5 (rational function and series)"] == (
        "23 failing; first at k=5 F_0 - F_2 cross-multiplied q^0: got 0, expected -1"
    )


def test_unrecognised_invariant_ring_fails_criterion_4(capsys, monkeypatch):
    original = genfun.invariant_series

    def planted(k, degree):
        series = original(k, degree)
        if k != 5:
            return series
        # the k=5 relation 1 - q^36 becomes 1 - 2q^36
        coeffs = list(series.coeffs)
        coeffs[36] -= 1
        return TruncatedSeries(coeffs)

    monkeypatch.setattr(genfun, "invariant_series", planted)
    code, failing = _verify_all_structured(capsys)
    assert code == 1
    name = ("[criterion 4] invariant structure for k=5: generators [4, 8, 12, 18], "
            "relation degree 36")
    assert failing[name] == (
        "1 failing; first at k=5: got residual is neither 1 nor 1 - q^e for k=5, "
        "expected generator degrees [4, 8, 12, 18] with one relation of degree 36"
    )
    assert not any(n.startswith("[criterion 4]") for n in failing if n != name)
