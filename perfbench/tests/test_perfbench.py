"""Tests of the benchmark itself: tracer coverage, exact counts, output checks.

    python3 -m pytest perfbench/tests -q

Children run exactly as in a benchmark run (fresh interpreter, galilei from
src/); nothing here wraps galilei inside the test process.
"""

import itertools
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 7


@pytest.fixture
def spawner(tmp_path):
    return run.Spawner(str(tmp_path))


def _child(spawner, workload, mode=None):
    argv = ([mode] if mode else []) + [workload.op] + workload.args
    child = spawner.run(argv, stats=True)
    assert not child.timed_out
    assert workload.check(child.status, child.stdout) == [], child.stderr[-2000:]
    return child


def test_install_leaves_no_alias_of_an_original():
    script = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); import tracer\n"
        "from galilei import exact, genfun, linalg, verify, younglat\n"
        "replaced = tracer.install(tracer.Tracer())\n"
        "wrapped = lambda f: getattr(f, '__traced_original__', None) is not None\n"
        "print(json.dumps({'left': tracer.remaining_aliases(replaced), 'count': len(replaced),\n"
        "  'samples': [wrapped(younglat.poly_det), wrapped(verify.series_expand),\n"
        "              wrapped(exact.Polynomial.__rmul__), wrapped(genfun.f_enum),\n"
        "              wrapped(verify.run_criterion), wrapped(linalg.bareiss_det)]}))\n"
    )
    out = subprocess.run([sys.executable, "-c", script, BENCH], env=run.child_env(),
                         capture_output=True, text=True, timeout=60, check=True)
    found = json.loads(out.stdout)
    assert found["left"] == []
    assert found["count"] == len(layers.TRACED) + 1
    assert all(found["samples"])


@pytest.mark.parametrize("name", layers.WORKLOADS)
def test_traced_runs_cover_every_layer_and_repeat_their_counts(spawner, name):
    workload = workloads.WORKLOADS[name](SEED)
    plain = _child(spawner, workload)
    first = _child(spawner, workload, "--trace")
    second = _child(spawner, workload, "--trace")
    assert run._comparable(first.stdout) == run._comparable(plain.stdout)
    assert run._comparable(second.stdout) == run._comparable(plain.stdout)

    calls = first.stats["trace"]["calls"]
    missing = [m for m, _t, by, _moves in layers.TRACED if name in by and not calls.get(m)]
    assert missing == []
    if name == layers.VERIFY_FULL:
        assert [calls.get(f"verify.c{n}") for n in layers.CRITERIA] == [1] * 9
    if name == layers.SERIES_SCALE:
        assert not [m for m in calls if m.split(".")[0] in ("younglat", "linalg")]
    if name == layers.YOUNG_SCALE:
        assert not [m for m in calls if m.startswith("genfun.")]

    def counts(child):
        trace = child.stats["trace"]
        edges = {(parent, span): n for parent, span, n in trace["edges"]}
        return trace["calls"], trace["sizes"], edges

    assert counts(first) == counts(second)


@pytest.mark.parametrize("name", layers.WORKLOADS)
def test_fraction_allocations_repeat(spawner, name):
    workload = workloads.WORKLOADS[name](SEED)
    counts = [_child(spawner, workload, "--count").stats["fraction_allocs"] for _ in range(2)]
    assert counts[0] == counts[1] > 0


def test_box_counts_match_brute_force_enumeration():
    for k, degree in ((1, 6), (2, 6), (3, 5), (4, 5), (5, 4)):
        weights = range(0, 2 * k + 3)
        oracle = workloads.box_counts(k, weights, degree)
        for l in weights:
            brute = [sum(1 for a in itertools.combinations_with_replacement(range(k + 1), n)
                         if sum(k - 2 * i for i in a) == l) for n in range(degree + 1)]
            assert oracle[l] == brute, (k, l)


def test_series_check_names_a_planted_coefficient():
    workload = workloads.SeriesScale(SEED)
    good = json.loads(json.dumps(workload.expected))
    assert workload.check(0, json.dumps(good)) == []
    index = next(i for i, t in enumerate(workload.tasks) if t[0] == "closed")
    good[index][40] += 1
    problems = workload.check(0, json.dumps(good))
    assert len(problems) == 1 and "q^40 coefficient" in problems[0]


def test_verify_check_counts_an_n6_flip_as_a_failure():
    workload = workloads.VerifyFull(SEED)
    assert len(workload.expected_fail) == 1 and "det N_6" in workload.expected_fail[0]
    verdicts = [{"name": n, "passed": p, "detail": ""} for n, p in workload.verdicts]
    assert workload.check(1, json.dumps({"verdicts": verdicts})) == []
    for v in verdicts:
        if not v["passed"]:
            v["passed"] = True
    assert workload.check(1, json.dumps({"verdicts": verdicts}))
    assert workload.check(0, json.dumps({"verdicts": verdicts}))


def test_young_check_rejects_a_changed_golden_entry(spawner):
    workload = workloads.YoungScale(SEED)
    output = _child(spawner, workload).stdout
    workload.det[12] = list(workload.det[12])
    workload.det[12][0] += 1
    problems = workload.check(0, output)
    assert len(problems) == 1 and problems[0].startswith("det n=12")


def _checkout(tmp_path, with_src=True):
    root = tmp_path / "checkout"
    shutil.copytree(BENCH, root / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root / "BENCHMARK.json")
    if with_src:
        shutil.copytree(os.path.join(ROOT, "src"), root / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return root


def _bench(root, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=170)


def test_planted_closed_form_coefficient_fails_the_run(tmp_path):
    root = _checkout(tmp_path)
    genfun = root / "src" / "galilei" / "genfun.py"
    text = genfun.read_text()
    planted = text.replace('num = Polynomial("q", (1, 0, 1, 3, 4, 4, 4, 3, 1, 0, 1))',
                           'num = Polynomial("q", (1, 0, 1, 3, 4, 5, 4, 3, 1, 0, 1))')
    assert planted != text
    genfun.write_text(planted)
    out = _bench(root, "--workload", "series-scale", "--seed", "3", "--seconds", "1")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1
    assert "FAILURE iteration" in out.stdout


def test_planted_golden_entry_fails_the_run(tmp_path):
    root = _checkout(tmp_path)
    golden = root / "perfbench" / "golden" / "verify_full.json"
    payload = json.loads(golden.read_text())
    payload["verdicts"][0][1] = not payload["verdicts"][0][1]
    golden.write_text(json.dumps(payload))
    out = _bench(root, "--workload", "verify-full", "--seed", "3", "--seconds", "1")
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1


def test_refuses_to_run_without_sources(tmp_path):
    out = _bench(_checkout(tmp_path, with_src=False),
                 "--workload", "verify-full", "--seed", "1", "--seconds", "1")
    assert out.returncode != 0
    assert not out.stdout.strip()


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(layers.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == [m[0] for m in layers.per_layer_metrics()]
    assert [m["unit"] for m in spec["per_layer"]] == [m[1] for m in layers.per_layer_metrics()]
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
