import json

import pytest

from galilei import younglat
from galilei.cli import Report, main
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
