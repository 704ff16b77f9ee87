"""Workload inputs drawn from the seed, and the checks of every child's output.

The checks share no code with galilei: series coefficients are compared with
Gaussian-binomial box counts computed here, verdict lists and Young-lattice
determinants with golden files recorded from galilei at commit fd9de80, and
the expected invariant-ring shapes and first negative degrees are the paper's.
"""

from __future__ import annotations

import json
import os
import random

from layers import SERIES_SCALE, VERIFY_FULL, YOUNG_SCALE

HERE = os.path.dirname(os.path.abspath(__file__))

# ---------------------------------------------------------------------------
# verify-full: `galilei verify all --format structured`, no seeded input
# ---------------------------------------------------------------------------

VERIFY_ARGV = ["verify", "all", "--format", "structured"]


def _load_golden(name):
    with open(os.path.join(HERE, "golden", name)) as fh:
        return json.load(fh)


class VerifyFull:
    name = VERIFY_FULL
    op = "cli"

    def __init__(self, seed):
        golden = _load_golden("verify_full.json")
        self.verdicts = [(name, passed) for name, passed in golden["verdicts"]]
        self.expected_status = 0 if all(p for _, p in self.verdicts) else 1
        self.expected_fail = [name for name, passed in self.verdicts if not passed]
        self.args = list(VERIFY_ARGV)

    def check(self, status, stdout):
        if status != self.expected_status:
            return [f"exit status {status}, expected {self.expected_status}"]
        got = [(v["name"], v["passed"]) for v in json.loads(stdout)["verdicts"]]
        if len(got) != len(self.verdicts):
            return [f"{len(got)} verdicts, golden has {len(self.verdicts)}"]
        return [f"verdict {name!r}: passed={passed}, golden {want}"
                for (name, passed), (want_name, want) in zip(got, self.verdicts)
                if (name, passed) != (want_name, want)]


# ---------------------------------------------------------------------------
# series-scale: genfun and exact series past the acceptance sizes
# ---------------------------------------------------------------------------

# Largest degree first: a memo table built for N = 240 could serve the smaller
# N of the same k, so a change that shares tables across degrees shows here.
SERIES_SIZES = (240, 120, 60)
FIXED_K = (5, 6)
FREENESS_L = {5: 1, 6: 2}
# The paper's values: first negative quotient coefficient, and the invariant
# ring's generator degrees with its one relation degree.
FIRST_NEGATIVE = {5: 23, 6: 18}
STRUCTURE = {5: ((4, 8, 12, 18), 36), 6: ((2, 4, 6, 10, 15), 30)}
# f_recur costs 1-4 s a call at N = 240, and its cost swings with l.
FIXED_RECUR_MAX_DEGREE = 120
# One seeded pair per size class.  The enumeration's time and memory depend on
# k and N, not l, so the seed must not pick k where tables are large: at
# N = 240 the seeded k is 5 or 6 (tables the fixed tasks built), below it 7 or
# 8, past the closed forms.  The recursion takes seeded pairs at N = 60 only.
SEEDED_K = {240: (5, 6), 120: (7, 8), 60: (7, 8)}
SEEDED_RECUR_MAX_DEGREE = 60


def series_tasks(seed):
    rng = random.Random(seed)
    tasks = []
    for degree in SERIES_SIZES:
        for k in FIXED_K:
            tasks.append(["enum", k, 0, degree])
            if degree <= FIXED_RECUR_MAX_DEGREE:
                tasks.append(["recur", k, 0, degree])
            tasks.append(["closed", k, 0, degree])
            tasks.append(["freeness", k, FREENESS_L[k], degree])
            tasks.append(["detect", k, 0, degree])
        k = rng.choice(SEEDED_K[degree])
        l = rng.randint(0, 2 * k + 2)
        tasks.append(["enum", k, l, degree])
        if degree <= SEEDED_RECUR_MAX_DEGREE:
            tasks.append(["recur", k, l, degree])
    return tasks


def box_counts(k, weights, degree):
    """{l: [q^n coefficient of F_l^(k) for n <= degree]} for each l in weights.

    The coefficient counts the partitions of (nk - l)/2 that fit in an n x k
    box, read off the Gaussian binomials
    [n+k, k]_q = [n-1+k, k]_q (1 - q^(n+k)) / (1 - q^n).
    """
    out = {l: [1 if l == 0 else 0] for l in weights}
    poly = [1]
    for n in range(1, degree + 1):
        top = n * k
        poly = poly + [0] * (top + 1 - len(poly))
        for i in range(top, n + k - 1, -1):
            poly[i] -= poly[i - n - k]
        for i in range(n, top + 1):
            poly[i] += poly[i - n]
        for l, coeffs in out.items():
            twice = top - l
            coeffs.append(poly[twice // 2] if twice >= 0 and twice % 2 == 0 else 0)
    return out


def _series_div(num, den):
    out = []
    for i, c in enumerate(num):
        out.append(c - sum(den[j] * out[i - j] for j in range(1, i + 1)))
    return out


def _geometric_product(generators, relation, degree):
    out = [1] + [0] * degree
    for d in generators:
        for i in range(d, degree + 1):
            out[i] += out[i - d]
    for i in range(degree, relation - 1, -1):
        out[i] -= out[i - relation]
    return out


def _first_difference(got, want):
    if len(got) != len(want):
        return f"{len(got)} coefficients, expected {len(want)}"
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            return f"q^{i} coefficient {g}, expected {w}"
    return None


class SeriesScale:
    name = SERIES_SCALE
    op = "series"

    def __init__(self, seed):
        self.tasks = series_tasks(seed)
        self.args = [json.dumps(self.tasks)]
        weights = {}
        for route, k, l, _degree in self.tasks:
            weights.setdefault(k, set()).update((0, 2, l, l + 2))
        counts = {k: box_counts(k, ls, max(SERIES_SIZES)) for k, ls in weights.items()}

        def oracle(k, l, degree):
            return counts[k][l][: degree + 1]

        self.expected = []
        for route, k, l, degree in self.tasks:
            if route in ("enum", "recur", "closed"):
                self.expected.append(oracle(k, l, degree))
            elif route == "freeness":
                invariants = [a - b for a, b in zip(oracle(k, 0, degree), oracle(k, 2, degree))]
                top = [a - b for a, b in zip(oracle(k, l, degree), oracle(k, l + 2, degree))]
                quotient = _series_div(top, invariants)
                negative = next(i for i, c in enumerate(quotient) if c < 0)
                if negative != FIRST_NEGATIVE[k]:
                    raise AssertionError(f"box-count quotient for k={k} turns negative at {negative}")
                self.expected.append({"coeffs": quotient, "first_negative": negative})
            else:
                generators, relation = STRUCTURE[k]
                invariants = [a - b for a, b in zip(oracle(k, 0, degree), oracle(k, 2, degree))]
                if _geometric_product(generators, relation, degree) != invariants:
                    raise AssertionError(f"paper's structure for k={k} misses the box counts")
                self.expected.append({"generators": list(generators), "relation": relation})

    def check(self, status, stdout):
        if status != 0:
            return [f"exit status {status}"]
        results = json.loads(stdout)
        if len(results) != len(self.tasks):
            return [f"{len(results)} results for {len(self.tasks)} tasks"]
        problems = []
        for (route, k, l, degree), got, want in zip(self.tasks, results, self.expected):
            label = f"{route} k={k} l={l} N={degree}"
            if route == "freeness":
                diff = _first_difference(got["coeffs"], want["coeffs"])
                if diff is None and got["first_negative"] != want["first_negative"]:
                    diff = f"first negative {got['first_negative']}, expected {want['first_negative']}"
            elif route == "detect":
                diff = None if got == want else f"structure {got}, expected {want}"
            else:
                diff = _first_difference(got, want)
            if diff is not None:
                problems.append(f"{label}: {diff}")
        return problems


# ---------------------------------------------------------------------------
# young-scale: Young-lattice certificates past the acceptance size n = 12
# ---------------------------------------------------------------------------

YOUNG_FIXED = (12, 14, 16)
# rank_at(n) builds M_n with path_matrix, and verify_det_factorization(n)
# builds N_n with build_Nn (and dominance_extension), so two calls per n run
# all four.  det N_15 costs twenty times det N_10, so a seeded determinant
# would let the seed, not the code, set the iteration time: seeded n get the
# rank certificate only.
YOUNG_FIXED_OPS = ("rank_at", "det")
YOUNG_SEEDED_RANGE = (10, 15)
YOUNG_SEEDED_COUNT = 1
YOUNG_SEEDED_OPS = ("rank_at",)


def young_tasks(seed):
    rng = random.Random(seed)
    tasks = [[op, n] for n in YOUNG_FIXED for op in YOUNG_FIXED_OPS]
    for _ in range(YOUNG_SEEDED_COUNT):
        n = rng.randint(*YOUNG_SEEDED_RANGE)
        tasks.extend([op, n] for op in YOUNG_SEEDED_OPS)
    return tasks


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class YoungScale:
    name = YOUNG_SCALE
    op = "young"

    def __init__(self, seed):
        self.tasks = young_tasks(seed)
        self.args = [json.dumps(self.tasks)]
        golden = _load_golden("young.json")
        self.det = {int(n): d for n, d in golden["det"].items()}

    def _check_one(self, op, n, got):
        if op == "rank_at":
            if got != n:
                return f"rank {got}, expected {n}"
        else:
            if not got["fully_factored"]:
                return "determinant is not an integer times linear factors"
            if got["integer_factor"] == 0 or any(r >= n for r in got["roots"]):
                return f"integer factor {got['integer_factor']}, roots {got['roots']}"
            product = [got["integer_factor"]]
            for r in got["roots"]:
                product = _poly_mul(product, [-r, 1])
            if product != got["det"]:
                return "integer factor times the linear factors is not the determinant"
            diff = _first_difference(got["det"], self.det[n])
            if diff is not None:
                return f"det differs from golden: {diff}"
        return None

    def check(self, status, stdout):
        if status != 0:
            return [f"exit status {status}"]
        results = json.loads(stdout)
        if len(results) != len(self.tasks):
            return [f"{len(results)} results for {len(self.tasks)} tasks"]
        problems = []
        for (op, n), got in zip(self.tasks, results):
            diff = self._check_one(op, n, got)
            if diff is not None:
                problems.append(f"{op} n={n}: {diff}")
        return problems


WORKLOADS = {w.name: w for w in (VerifyFull, SeriesScale, YoungScale)}
