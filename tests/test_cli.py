import json
import re
from collections import Counter

import pytest

from galilei import genfun, quiver, sl2rep, symalg, verify, younglat
from galilei.cli import SERIES_MAX_CELLS, SUMMAND_MAX_K, Report, main
from galilei.exact import Polynomial, RationalFunction, TruncatedSeries
from galilei.sl2rep import V
from galilei.verify import Verdict


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


def test_structured_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "genfun", "series", "--k", "3", "--l", "1", "--degree", "8",
        "--format", "structured",
    )
    assert code == 0
    payload = json.loads(out)
    report = Report.from_dict(payload)
    assert report.to_dict() == payload
    assert report.command == "genfun series"
    assert report.params["k"] == 3


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


def test_unknown_command_exits_nonzero():
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code != 0
    with pytest.raises(SystemExit) as exc:
        main(["young", "rank", "--bogus-flag", "3"])
    assert exc.value.code != 0


def test_exit_status_reflects_verdicts():
    report = Report("demo", {}, verdicts=[Verdict("good", True)])
    assert report.all_passed
    report = Report("demo", {}, verdicts=[Verdict("good", True), Verdict("bad", False)])
    assert not report.all_passed


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
    assert not v.passed and v.detail == "failures at [3]"


def test_planted_C3_defect_fails_check_invariants_and_criterion_6(capsys, monkeypatch):
    original = symalg.build_C3

    def planted():
        # the coefficient of v_{-4} v_0 v_4 moved from -36 to -35
        g = symalg.SymElement.generator
        return original() + g(4, -4) * g(4, 0) * g(4, 4)

    monkeypatch.setattr(symalg, "build_C3", planted)
    code, out, _ = run_cli(capsys, "symalg", "check-invariants", "--format", "structured")
    assert code == 1
    failing = _structured_failures(out)
    assert "e kills C3" in failing and "C2 is homogeneous of degree 2 and weight 0" not in failing
    v = _verdict_named(
        verify.check_symmetric_algebra(k_max=3),
        "C2 and C3 are invariants (degree 2 and 3, weight 0, killed by e and f)",
    )
    assert not v.passed and v.detail == f"failures at {failing}"


def test_planted_independence_defect_fails_cli_and_criterion_6(capsys, monkeypatch):
    original = symalg.independence_check

    def planted(k):
        ok, rank = original(k)
        if k == 5:
            rank -= 1
        return rank == k, rank

    monkeypatch.setattr(symalg, "independence_check", planted)
    code, out, _ = run_cli(capsys, "symalg", "independence", "--k", "5")
    assert code == 1
    assert "FAIL  rank certificate: rank = k = 5  (rank 4)" in out
    v = _verdict_named(
        verify.check_symmetric_algebra(k_max=5),
        "iterated raisings are independent for 1 <= k <= 5",
    )
    assert not v.passed and v.detail == "failures at [5]"


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


def test_planted_closed_form_defect_reaches_the_verdicts(capsys, monkeypatch):
    enumeration_commands = (("genfun", "invariants", "--k", "5"),
                            ("genfun", "freeness", "--k", "5", "--l", "1"))
    enumerated = [_strip_timing(run_cli(capsys, *argv)[1]) for argv in enumeration_commands]
    original = genfun._closed_k5

    def planted(l):
        if l != 0:
            return original(l)
        # the k=5, l=0 transcription with its q^16 numerator coefficient 1 -> 2
        num = Polynomial("q", (1, 0, 1, 0, 6, 0, 9, 0, 12, 0, 9, 0, 6, 0, 1, 0, 2))
        return RationalFunction(num, genfun.geometric_den(2, 2, 4, 6, 8))

    monkeypatch.setattr(genfun, "_closed_k5", planted)
    code, failing = _verify_all_structured(capsys)
    assert code == 1
    series_failures = {
        name.split("]")[0] + "]": detail for name, detail in failing.items()
        if name.startswith(tuple(f"[criterion {n}]" for n in range(1, 5)))
    }
    assert series_failures == {
        "[criterion 1]": "closed k=5 l=0: q^16 is 650, enum has 649",
        "[criterion 2]": "k=5: F_0 - F_2 differs from the target rational function",
        "[criterion 3]": "quotient k=5: q^21 is -1, target has 0",
    }
    # the enumeration-only commands no longer consult the closed forms
    for argv, expected in zip(enumeration_commands, enumerated):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert _strip_timing(out) == expected


def test_unrecognised_invariant_ring_fails_criterion_4(capsys, monkeypatch):
    original = genfun.invariant_series

    def planted(k, degree):
        series = original(k, degree)
        if k != 5:
            return series
        # the k=5 relation 1 - q^36 becomes 1 - 2q^36
        coeffs = list(series.coeffs)
        coeffs[36] -= 1
        return TruncatedSeries("q", coeffs)

    monkeypatch.setattr(genfun, "invariant_series", planted)
    code, failing = _verify_all_structured(capsys)
    assert code == 1
    name = ("[criterion 4] invariant structure for k=5: generators [4, 8, 12, 18], "
            "relation degree 36")
    assert failing[name] == (
        "residual is neither 1 nor 1 - q^e for k=5, "
        "expected generator degrees [4, 8, 12, 18] with one relation of degree 36"
    )
    assert not any(n.startswith("[criterion 4]") for n in failing if n != name)
