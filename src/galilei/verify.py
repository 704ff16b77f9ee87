"""The full verification suite: every headline claim as a named check.

This module is the one place that defines the verdicts of the checked
claims.  Each criterion function returns a list of Verdict objects;
``run_all`` runs all of them.  The checks recompute everything from scratch
through the public module APIs, pairing each computed object either with
frozen reference data (printed matrices, tabulated multiplicities) or with an
independent second computation route (enumeration vs recursion vs closed
form, path counting vs branch pictures).

The per-item certificates behind criteria 1, 4, 5 and 6 are small functions
(``route_verdict``, ``structure_verdict``, ``rank_verdict``,
``det_verdicts``, ``invariance_verdicts``, ``independence_verdict``).  The
criteria aggregate them, and the command line's ``genfun series --method
all``, ``genfun invariants``, ``young rank``, ``young det``, ``symalg
check-invariants`` and ``symalg independence`` report them as they are, so
both surfaces share one predicate per claim.  ``dimension_verdict`` is the
verdict of ``sl2 sym``.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations_with_replacement
from math import comb
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from . import genfun, quiver, sl2rep, symalg, younglat
from .exact import PoleAtOriginError, Polynomial, RationalFunction, series_expand
from .sl2rep import V, Vp
from .younglat import partition


class Verdict(NamedTuple):
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        suffix = f"  ({self.detail})" if self.detail else ""
        return f"{tag}  {self.name}{suffix}"


def _verdict(name: str, passed: bool, detail: str = "") -> Verdict:
    return Verdict(name, bool(passed), detail)


def _failures(name: str, bad: list) -> Verdict:
    """Pass when nothing failed; a failure lists what did."""
    return _verdict(name, not bad, f"failures at {bad}" if bad else "")


def _every(name: str, items: Dict) -> Verdict:
    """Pass when every per-item verdict does; a failure lists the failing keys."""
    return _failures(name, [key for key, v in items.items() if not v.passed])


# ---------------------------------------------------------------------------
# Criterion 1: triple agreement of the three series routes
# ---------------------------------------------------------------------------

def _series_mismatch(label: str, got, ref, ref_name: str = "enum") -> str:
    """Name the first coefficient where a series differs from the reference."""
    for i, (a, b) in enumerate(zip(got.coeffs, ref.coeffs)):
        if a != b:
            return f"{label}: q^{i} is {a}, {ref_name} has {b}"
    return f"{label}: truncation {got.truncation}, {ref_name} has {ref.truncation}"


def route_verdict(label: str, series, enum) -> Verdict:
    """A series route equals the enumeration; a failure names the first mismatch."""
    ok = series == enum
    return _verdict(f"{label} agrees with enum", ok, "" if ok else _series_mismatch(label, series, enum))


def check_triple_agreement(degree: int = 60, k_max: int = 6, l_max: int = 12) -> List[Verdict]:
    verdicts = []
    for k in range(k_max + 1):
        mismatches = []
        for l in range(l_max + 1):
            enum = genfun.f_enum(k, l, degree)
            routes = []
            if k >= 2:
                routes.append(("recur", genfun.f_recur(k, l, degree)))
            if genfun.has_closed_form(k, l):
                routes.append(("closed", series_expand(genfun.f_closed(k, l), degree)))
            for route, series in routes:
                v = route_verdict(f"{route} k={k} l={l}", series, enum)
                if not v.passed:
                    mismatches.append(v.detail)
        verdicts.append(
            _verdict(
                f"series routes agree for k={k}, l<={l_max}, degree<={degree}",
                not mismatches,
                "; ".join(mismatches),
            )
        )
    return verdicts


# ---------------------------------------------------------------------------
# Criterion 2: invariant-series closed identities
# ---------------------------------------------------------------------------

def _invariant_targets() -> Dict[int, RationalFunction]:
    one = Polynomial.one("q")
    q = Polynomial.monomial
    return {
        3: RationalFunction(one, genfun.geometric_den(4)),
        4: RationalFunction(one, genfun.geometric_den(2, 3)),
        5: RationalFunction(one - q("q", 36), genfun.geometric_den(4, 8, 12, 18)),
        6: RationalFunction(one - q("q", 30), genfun.geometric_den(2, 4, 6, 10, 15)),
    }


def _closed_difference(k: int, l: int) -> Tuple[Polynomial, Polynomial]:
    """F_l - F_{l+2} from the closed forms, as an unreduced numerator and denominator."""
    a, b = genfun.f_closed(k, l), genfun.f_closed(k, l + 2)
    return a.num * b.den - b.num * a.den, a.den * b.den


def _equals(num: Polynomial, den: Polynomial, target: RationalFunction) -> bool:
    """num/den equals target, by cross-multiplying; a zero den never does."""
    return not den.is_zero and num * target.den == target.num * den


def check_closed_identities(degree: int = 60) -> List[Verdict]:
    verdicts = []
    for k, target in _invariant_targets().items():
        mismatches = []
        if not _equals(*_closed_difference(k, 0), target):
            mismatches.append(f"k={k}: F_0 - F_2 differs from the target rational function")
        series, expected = genfun.invariant_series(k, degree), series_expand(target, degree)
        if series != expected:
            mismatches.append(_series_mismatch(f"invariant series k={k}", series, expected, "target"))
        verdicts.append(
            _verdict(
                f"invariant series identity for k={k} (rational function and series)",
                not mismatches,
                "; ".join(mismatches),
            )
        )
    return verdicts


# ---------------------------------------------------------------------------
# Criterion 3: negativity detection and the two quotient closed forms
# ---------------------------------------------------------------------------

def _quotient_verdict(k: int, l: int, shown: str, target: RationalFunction, degree: int) -> Verdict:
    """(F_l - F_{l+2}) / (F_0 - F_2) from the closed forms equals the target."""
    num, den = _closed_difference(k, l)
    div_num, div_den = _closed_difference(k, 0)
    num, den = num * div_den, den * div_num
    name = f"quotient closed form for k={k}: {shown}"
    if _equals(num, den, target):
        return _verdict(name, True)
    if den.is_zero:
        return _verdict(name, False, f"quotient k={k}: the divisor F_0 - F_2 is zero")
    try:
        got = series_expand(RationalFunction(num, den), degree)
    except PoleAtOriginError:
        return _verdict(name, False, f"quotient k={k}: a pole at q=0, the target has none")
    expected = series_expand(target, degree)
    return _verdict(name, False, _series_mismatch(f"quotient k={k}", got, expected, "target"))


def check_negativity(degree: int = 60) -> List[Verdict]:
    verdicts = []
    for k, l, expected in ((5, 1, 23), (6, 2, 18)):
        _, neg = genfun.freeness_quotient(k, l, degree)
        verdicts.append(
            _verdict(
                f"first negative coefficient of quotient k={k}, l={l} at degree {expected}",
                neg == expected,
                f"got {neg}",
            )
        )
    target5 = RationalFunction(
        Polynomial("q", (1, 0, 1)).shift(5),
        Polynomial("q", (1, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0, 0, 1)),
    )
    verdicts.append(_quotient_verdict(5, 1, "q^5(1+q^2)/(1-q^6+q^12)", target5, degree))
    target6 = RationalFunction(
        Polynomial("q", (1, 1, 1)).shift(3),
        Polynomial("q", (1, 1, 0, -1, -1, -1, 0, 1, 1)),
    )
    verdicts.append(
        _quotient_verdict(6, 2, "q^3(1+q+q^2)/(1+q-q^3-q^4-q^5+q^7+q^8)", target6, degree)
    )
    return verdicts


# ---------------------------------------------------------------------------
# Criterion 4: invariant-ring structure detection
# ---------------------------------------------------------------------------

_EXPECTED_STRUCTURE = {
    3: ((4,), None),
    4: ((2, 3), None),
    5: ((4, 8, 12, 18), 36),
    6: ((2, 4, 6, 10, 15), 30),
}


def structure_verdict(k: int, degree: int) -> Tuple[Optional[genfun.InvariantStructure], Verdict]:
    """The detector reads a structure off the invariant series; a refusal FAILs with its reason."""
    name = "invariant structure recognized"
    try:
        structure = genfun.detect_invariant_structure(k, degree)
    except genfun.StructureNotRecognizedError as exc:
        return None, _verdict(name, False, str(exc))
    return structure, _verdict(name, True)


def check_structure_detection(degree: int = 60) -> List[Verdict]:
    verdicts = []
    for k, (gens, rel) in _EXPECTED_STRUCTURE.items():
        expected = genfun.InvariantStructure(gens, rel)
        st, recognized = structure_verdict(k, degree)
        got = recognized.detail if st is None else f"got {st.describe()}"
        verdicts.append(
            _verdict(
                f"invariant structure for k={k}: generators {list(gens)}"
                + (f", relation degree {rel}" if rel else ", free"),
                st == expected,
                "" if st == expected else f"{got}, expected {expected.describe()}",
            )
        )
    return verdicts


# ---------------------------------------------------------------------------
# Criterion 5: Young-lattice matrices, ranks and determinants
# ---------------------------------------------------------------------------

def _x() -> Polynomial:
    return Polynomial.variable("x")


def _printed_m_matrices() -> Dict[int, Tuple[List, List, List[List[Polynomial]]]]:
    x = _x()
    c = lambda v: Polynomial.constant("x", v)
    zero = Polynomial.zero("x")
    one = Polynomial.one("x")
    m2 = (
        [partition(2), partition(1, 1)],
        [[one, x - c(1)], [zero, one]],
    )
    m3 = (
        [partition(3), partition(2, 1), partition(1, 1, 1)],
        [
            [one, (x - c(1)) * 3, (x - c(1)) * (x - c(2))],
            [zero, c(2), x - c(2)],
            [zero, zero, one],
        ],
    )
    m4 = (
        [partition(4), partition(3, 1), partition(2, 2), partition(2, 1, 1), partition(1, 1, 1, 1)],
        [
            [one, (x - c(1)) * 4, (x - c(1)) * 3, (x - c(1)) * (x - c(2)) * 6, (x - c(1)) * (x - c(2)) * (x - c(3))],
            [zero, c(2), c(2), (x - c(2)) * 5, (x - c(2)) * (x - c(3))],
            [zero, zero, zero, c(3), x - c(3)],
            [zero, zero, zero, zero, one],
        ],
    )
    m1 = ([partition(1)], [[one]])
    return {
        1: (m1[0], [younglat.column(1)], m1[1]),
        2: (m2[0], [younglat.column(k) for k in (1, 2)], m2[1]),
        3: (m3[0], [younglat.column(k) for k in (1, 2, 3)], m3[1]),
        4: (m4[0], [younglat.column(k) for k in (1, 2, 3, 4)], m4[1]),
    }


def rank_verdict(n: int, rank: int) -> Verdict:
    """The rank of M_n at x = n, as computed by ``younglat.rank_at``, is n."""
    return _verdict(f"rank of M_{n} at x={n} equals {n}", rank == n, f"rank {rank}")


def det_verdicts(d: younglat.DetFactorization, upto: int) -> List[Verdict]:
    """det N_n factors as integer * prod (x - i), i < n, and stays nonzero at x = n..upto."""
    n = d.n
    return [
        _verdict(
            f"det N_{n} is a nonzero integer times linear factors with roots < {n}",
            d.integer_factor != 0 and d.fully_factored and all(r < n for r in d.roots),
            d.describe(),
        ),
        _verdict(
            f"det N_{n} stays nonzero at x = {n}..{upto}",
            all(d.determinant(m) != 0 for m in range(n, upto + 1)),
        ),
    ]


def check_young_lattice(n_max: int = 12) -> List[Verdict]:
    verdicts = []
    for n, (cols, rows, entries) in sorted(_printed_m_matrices().items()):
        m = younglat.path_matrix(n)
        ok = m.cols == cols and m.rows == rows and m.entries == entries
        verdicts.append(_verdict(f"M_{n} matches the reference matrix entry-for-entry", ok))

    ranks = {n: rank_verdict(n, younglat.rank_at(n)) for n in range(1, n_max + 1)}
    verdicts.append(_every(f"rank of M_n at x=n equals n for 1 <= n <= {n_max}", ranks))

    factorizations = {n: younglat.verify_det_factorization(n) for n in range(2, n_max + 1)}
    dets = {n: det_verdicts(d, n_max) for n, d in factorizations.items()}
    verdicts.append(
        _every(
            f"det N_n = nonzero integer times product of (x-i), i < n, for 2 <= n <= {n_max}",
            {n: shape for n, (shape, _) in dets.items()},
        )
    )
    verdicts.append(
        _every(
            f"det N_n is nonzero at x=m for n <= m <= {n_max}",
            {n: nonzero for n, (_, nonzero) in dets.items()},
        )
    )

    # Known discrepancy: the reference display for N_6 misprints two entries;
    # the labeling rules (which reproduce M_1..M_4 above exactly, and the
    # worked 10x10 block whose determinant has roots {5,6,7,8}) give the
    # factor multiset {2,2,3}.  The required multiset is asserted as stated.
    d6 = factorizations.get(6) or younglat.verify_det_factorization(6)
    verdicts.append(
        _verdict(
            "linear-factor multiset of det N_6 is {x-1, x-2, x-3}",
            sorted(d6.roots) == [1, 2, 3],
            f"computed multiset {sorted(d6.roots)}, integer factor {d6.integer_factor}",
        )
    )
    return verdicts


# ---------------------------------------------------------------------------
# Criterion 6: symmetric-algebra derivations and independence
# ---------------------------------------------------------------------------

def _monomials_up_to(n: int, max_degree: int):
    for degree in range(max_degree + 1):
        for combo in combinations_with_replacement(range(n + 1), degree):
            exps = [0] * (n + 1)
            for i in combo:
                exps[i] += 1
            yield tuple(exps)


def invariance_verdicts(c2: symalg.SymElement, c3: symalg.SymElement) -> List[Verdict]:
    """C2 and C3 have degree 2 and 3 and weight 0, e and f kill each, and C2*C3 is invariant."""
    verdicts = []
    for name, element, degree in (("C2", c2, 2), ("C3", c3, 3)):
        verdicts.append(
            _verdict(
                f"{name} is homogeneous of degree {degree} and weight 0",
                element.homogeneous_degree() == degree and element.weight() == 0,
            )
        )
        for op in ("e", "f"):
            image = symalg.adjoint_action(op, element)
            verdicts.append(
                _verdict(f"{op} kills {name}", image.is_zero, "" if image.is_zero else str(image))
            )
    verdicts.append(_verdict("product C2*C3 is invariant", symalg.is_invariant(c2 * c3)))
    return verdicts


def independence_verdict(k: int, rank: int) -> Verdict:
    """The k iterated raisings are independent: ``independence_check`` found rank k."""
    return _verdict(f"rank certificate: rank = k = {k}", rank == k, f"rank {rank}")


def check_symmetric_algebra(k_max: int = 12) -> List[Verdict]:
    verdicts = []
    act = symalg.adjoint_action
    bad = []
    for exps in _monomials_up_to(4, 4):
        m = symalg.SymElement(4, {exps: 1})
        if act("e", act("f", m)) - act("f", act("e", m)) != act("h", m):
            bad.append((exps, "[e,f]"))
        if act("h", act("e", m)) - act("e", act("h", m)) != act("e", m).scale(2):
            bad.append((exps, "[h,e]"))
        if act("h", act("f", m)) - act("f", act("h", m)) != act("f", m).scale(-2):
            bad.append((exps, "[h,f]"))
    verdicts.append(
        _verdict(
            "derivations satisfy the sl2 relations on all monomials of degree <= 4",
            not bad,
            f"{len(bad)} failures" if bad else "",
        )
    )

    invariance = invariance_verdicts(symalg.build_C2(), symalg.build_C3())
    verdicts.append(
        _failures(
            "C2 and C3 are invariants (degree 2 and 3, weight 0, killed by e and f)",
            [v.name for v in invariance if not v.passed],
        )
    )

    ranks = {k: symalg.independence_check(k) for k in range(1, k_max + 1)}
    verdicts.append(
        _every(
            f"iterated raisings are independent for 1 <= k <= {k_max}",
            {k: independence_verdict(k, rank) for k, rank in ranks.items()},
        )
    )
    verdicts.append(
        _failures(
            "independence ranks agree with the path-matrix ranks",
            [k for k, rank in ranks.items() if rank != younglat.rank_at(k)],
        )
    )
    return verdicts


# ---------------------------------------------------------------------------
# Criterion 7: multiplicities of the reduced universal module
# ---------------------------------------------------------------------------

_Q00_TABLE = {
    0: {0: 1},
    1: {4: 1},
    2: {4: 1, 8: 1},
    3: {6: 1, 8: 1, 12: 1},
    4: {8: 1, 10: 1, 12: 1, 16: 1},
}


def dimension_verdict(k: int, n: int, decomposition: Dict[int, int]) -> Verdict:
    """The summands L(l) x m of Sym^n(L(k)) add up to its dimension C(n+k, k)."""
    total = sum((l + 1) * m for l, m in decomposition.items())
    return _verdict("total dimension equals C(n+k, k)", total == comb(n + k, k), f"{total}")


def check_multiplicities(l_max: int = 40, degree_max: int = 20, verma_max: int = 30) -> List[Verdict]:
    verdicts = []
    graded = {k: sl2rep.q00_degree_part(k) for k in range(degree_max + 1)}
    bad = []
    for l in range(l_max + 1):
        column_sum = sum(graded[k].get(l, 0) for k in graded)
        if column_sum != sl2rep.q0_multiplicity(l):
            bad.append(l)
    verdicts.append(
        _failures(f"closed multiplicity formula matches graded column sums for l <= {l_max}", bad)
    )
    table_ok = all(dict(graded[k]) == row for k, row in _Q00_TABLE.items())
    verdicts.append(
        _verdict("graded pieces of Q(0) for degrees <= 4 match the reference table", table_ok)
    )

    def pbw_count(k: int) -> int:
        # monomials in three generators of weights -2, -2, -4 with weight -2k
        return sum(
            1
            for a in range(k + 1)
            for b in range(k + 1 - a)
            if (k - a - b) % 2 == 0 and k - a - b >= 0
        )

    bad = [k for k in range(verma_max + 1) if sl2rep.verma_weight_dim(k) != pbw_count(k)]
    verdicts.append(
        _failures(
            f"Verma weight-space dimensions match the monomial count for k <= {verma_max}",
            bad,
        )
    )
    return verdicts


# ---------------------------------------------------------------------------
# Criterion 8: tensor calculus
# ---------------------------------------------------------------------------

def check_tensor_calculus(k_max: int = 8, n_max: int = 8) -> List[Verdict]:
    verdicts = []
    simples = [Vp(0), Vp(2)] + [V(n) for n in range(1, n_max + 1)]

    # independent route: a decomposition is pinned down by its type multiset,
    # which must equal L(k) tensored against the types of the input simple
    type_bound = 2 * (k_max + n_max) + 8
    bad = []
    for k in range(k_max + 1):
        for s in simples:
            result = sl2rep.hc_tensor(k, s)
            got: Counter = Counter()
            for t, mult in result.items():
                for l, c in sl2rep.g_types(t, type_bound).items():
                    got[l] += mult * c
            expected: Counter = Counter()
            for l0, c0 in sl2rep.g_types(s, type_bound + k).items():
                for l, c in sl2rep.clebsch_gordan(k, l0).items():
                    if l <= type_bound:
                        expected[l] += c0 * c
            if got != expected:
                bad.append((k, str(s)))
    verdicts.append(
        _failures(
            f"tensor case split matches the type-multiset oracle for k <= {k_max}, simples up to V({n_max})",
            bad[:4],
        )
    )

    printed = [
        (0, V(3), Counter({V(3): 1})),
        (6, Vp(0), Counter({Vp(2): 1, V(2): 1, V(4): 1, V(6): 1})),
        (4, Vp(2), Counter({Vp(2): 1, V(2): 1, V(4): 1})),
        (3, Vp(0), Counter({V(1): 1, V(3): 1})),
        (3, V(3), Counter({Vp(0): 1, Vp(2): 1, V(2): 1, V(4): 1, V(6): 1})),
        (2, V(5), Counter({V(3): 1, V(5): 1, V(7): 1})),
        (5, V(3), Counter({Vp(0): 1, Vp(2): 1, V(2): 2, V(4): 1, V(6): 1, V(8): 1})),
        (4, V(1), Counter({V(1): 2, V(3): 2, V(5): 1})),
    ]
    bad = [(k, str(s)) for k, s, want in printed if sl2rep.hc_tensor(k, s) != want]
    verdicts.append(
        _failures("representative decompositions from each branch of the case split", bad)
    )

    bad = []
    for a in range(5):
        for b in range(5):
            for s in simples:
                lhs = sl2rep.hc_tensor_multiset(a, sl2rep.hc_tensor(b, s))
                rhs: Counter = Counter()
                for j, mult in sl2rep.clebsch_gordan(a, b).items():
                    for t, m in sl2rep.hc_tensor(j, s).items():
                        rhs[t] += mult * m
                if lhs != rhs:
                    bad.append((a, b, str(s)))
    verdicts.append(
        _failures("Clebsch-Gordan coherence of iterated tensoring for a, b <= 4", bad[:4])
    )
    return verdicts


# ---------------------------------------------------------------------------
# Criterion 9: quivers and radical filtrations
# ---------------------------------------------------------------------------

def check_quivers(depth: int = 8, k_max: int = 12) -> List[Verdict]:
    verdicts = []
    ok = True
    for top in (Vp(0), Vp(2)):
        f = quiver.radical_filtration(top, depth)
        for l in range(1, depth + 1):
            ok = ok and f[l] == Counter({V(4 * l): 1})
    verdicts.append(
        _verdict(f"both primed projectives are uniserial with layers V(4l), depth <= {depth}", ok)
    )

    loewy = {
        1: Counter({V(3): 1, V(5): 1}),
        2: Counter({V(2): 1, V(6): 1}),
        3: Counter({V(1): 1, V(7): 1}),
        4: Counter({Vp(0): 1, Vp(2): 1, V(8): 1}),
        5: Counter({V(1): 1, V(9): 1}),
    }
    bad = [k for k, want in loewy.items() if quiver.radical_filtration(V(k), 1)[1] != want]
    verdicts.append(
        _failures("first radical layers of P(1)..P(5) match the reference diagrams", bad)
    )

    bad = []
    for top in [Vp(0), Vp(2)] + [V(k) for k in range(1, k_max + 1)]:
        if quiver.radical_filtration(top, depth) != quiver.expected_filtration(top, depth):
            bad.append(str(top))
    verdicts.append(
        _failures(
            f"path-counted filtrations match the branch picture to depth {depth} "
            f"(all four endings covered)",
            bad,
        )
    )

    bad = []
    for k in range(k_max + 1):
        expect: Counter = Counter()
        for s in [Vp(0), Vp(2)] + [V(n) for n in range(1, k + 1)]:
            mult = sl2rep.g_types(s, k).get(k, 0)
            if mult:
                expect[s] += mult
        if quiver.decompose_Q(k) != expect:
            bad.append(k)
    verdicts.append(
        _failures(f"Q(k) decomposition matches the staircase formula for k <= {k_max}", bad)
    )

    identities = [
        (1, Vp(0), Counter({V(1): 1})),
        (1, V(1), Counter({Vp(0): 1, Vp(2): 1, V(2): 1})),
        (2, V(1), Counter({V(1): 2, V(3): 1})),
    ]
    bad = [
        (k, str(top))
        for k, top, want in identities
        if sl2rep.hc_tensor(k, top) != want
    ]
    verdicts.append(_failures("tensor identities L(1)xP'(0), L(1)xP(1), L(2)xP(1)", bad))
    return verdicts


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

CriterionFn = Callable[..., List[Verdict]]

#: number -> (title, check, the smaller sizes it runs at with --quick)
CRITERIA: Dict[int, Tuple[str, CriterionFn, dict]] = {
    1: ("triple agreement of series routes", check_triple_agreement, dict(degree=30, l_max=8)),
    2: ("closed-form invariant series identities", check_closed_identities, dict(degree=40)),
    3: ("negativity detection", check_negativity, dict(degree=40)),
    4: ("invariant structure detection", check_structure_detection, dict(degree=45)),
    5: ("restricted Young lattice", check_young_lattice, dict(n_max=9)),
    6: ("symmetric-algebra derivations", check_symmetric_algebra, dict(k_max=9)),
    7: ("multiplicity bookkeeping", check_multiplicities, dict(l_max=24, degree_max=12, verma_max=12)),
    8: ("tensor calculus", check_tensor_calculus, dict(k_max=6, n_max=6)),
    9: ("quivers and radical filtrations", check_quivers, dict(depth=6, k_max=9)),
}


def run_criterion(number: int, quick: bool = False) -> List[Verdict]:
    _, fn, quick_sizes = CRITERIA[number]
    return fn(**quick_sizes) if quick else fn()


def run_all(quick: bool = False) -> List[Tuple[int, str, List[Verdict]]]:
    return [
        (number, title, run_criterion(number, quick=quick))
        for number, (title, _, _) in CRITERIA.items()
    ]
