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
criteria aggregate them (criterion 1 the rows of ``route_verdict``), and the
command line's ``genfun series --method all``, ``genfun invariants``,
``young rank``, ``young det``, ``symalg check-invariants`` and ``symalg
independence`` report them as they are, so both surfaces share one predicate
per claim.  ``dimension_verdict`` is the verdict of ``sl2 sym``.  A
verdict's ``passed`` is a plain ``bool`` read off the values it compares, so
a malformed value is a FAIL, not an error.  Each aggregate of criteria 1-9 is
one ``_compare`` over (key, got, expected) rows, whose FAIL gives the failure
count, the first failing key and both of its values; ``_every`` rolls
per-item verdicts up the same way, an item's value being PASS, or FAIL with
its detail.  Criteria 1-3 compare series and polynomials through
``_coefficient_rows``, which builds no row when the two sides are equal.
The exceptions word their own detail: criterion 3's first-negative verdicts
and the per-item ``rank_verdict``, ``independence_verdict`` and
``dimension_verdict`` print their value on PASS too, and criterion 5's N_6
multiset verdict names its known discrepancy.
"""

from __future__ import annotations

from collections import Counter
from itertools import product, zip_longest
from math import comb
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

from . import genfun, quiver, sl2rep, symalg, younglat
from .exact import Polynomial, RationalFunction, TruncatedSeries, series_expand, sharing
from .sl2rep import SimpleHC, V, Vp
from .younglat import partition


class Verdict(NamedTuple):
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        suffix = f"  ({self.detail})" if self.detail else ""
        return f"{tag}  {self.name}{suffix}"


def _compare(name: str, rows: Iterable[Tuple[object, object, object]]) -> Verdict:
    """Pass when every (key, got, expected) row has got == expected; a failure
    gives the number of failing rows, then the first one's key and both of its
    values.  Only that row is formatted."""
    failing = [row for row in rows if row[1] != row[2]]
    if not failing:
        return Verdict(name, True)
    key, got, expected = failing[0]
    return Verdict(name, False, f"{len(failing)} failing; first at {key}: got {got}, expected {expected}")


def _every(name: str, items: Dict) -> Verdict:
    """Pass when every per-item verdict does; an item's value is PASS, or FAIL with its detail."""
    return _compare(name, ((k, "PASS" if v.passed else f"FAIL ({v.detail})", "PASS") for k, v in items.items()))


def _coefficient_rows(label: str, got, expected) -> List[Tuple[str, object, object]]:
    """No rows when two series, or two polynomials, are equal, so a passing check
    builds nothing past the ``==``; else a series' truncation row, then a row
    ``LABEL q^i`` per coefficient (a polynomial's up to the larger degree)."""
    if got == expected:
        return []
    if isinstance(got, TruncatedSeries):
        rows = [(f"{label} truncation", got.truncation, expected.truncation)]
        pairs = zip(got.coeffs, expected.coeffs)
    else:
        rows, pairs = [], zip_longest(got.coeffs, expected.coeffs, fillvalue=0)
    return rows + [(f"{label} q^{i}", a, b) for i, (a, b) in enumerate(pairs)]


# ---------------------------------------------------------------------------
# Criterion 1: triple agreement of the three series routes
# ---------------------------------------------------------------------------

def route_verdict(label: str, series, enum) -> Verdict:
    """A series route equals the enumeration, coefficient by coefficient."""
    return _compare(f"{label} agrees with enum", _coefficient_rows(label, series, enum))


def check_triple_agreement(degree: int = 60, k_max: int = 6, l_max: int = 12) -> List[Verdict]:
    def rows(k):
        for l in range(l_max + 1):
            enum = genfun.f_enum(k, l, degree)
            for route in genfun.series_routes(k, l):
                series = (genfun.f_recur(k, l, degree) if route == "recur"
                          else series_expand(genfun.f_closed(k, l), degree))
                yield from _coefficient_rows(f"{route} k={k} l={l}", series, enum)

    return [
        _compare(f"series routes agree for k={k}, l<={l_max}, degree<={degree}", rows(k))
        for k in range(k_max + 1)
    ]


# ---------------------------------------------------------------------------
# Criterion 2: invariant-series closed identities
# ---------------------------------------------------------------------------

#: k -> (generator degrees, relation degree or None) of the invariant ring of Sym(L(k))
_INVARIANT_RINGS = {
    3: ((4,), None),
    4: ((2, 3), None),
    5: ((4, 8, 12, 18), 36),
    6: ((2, 4, 6, 10, 15), 30),
}


def _invariant_targets() -> Dict[int, RationalFunction]:
    """The Hilbert series (1 - q^e) / prod (1 - q^d) of each ring in ``_INVARIANT_RINGS``."""
    return {
        k: RationalFunction(
            genfun.geometric_den(rel) if rel else Polynomial("q", (1,)), genfun.geometric_den(*gens)
        )
        for k, (gens, rel) in _INVARIANT_RINGS.items()
    }


def _closed_difference(k: int, l: int) -> Tuple[Polynomial, Polynomial]:
    """F_l - F_{l+2} from the closed forms, as an unreduced numerator and denominator."""
    a, b = genfun.f_closed(k, l), genfun.f_closed(k, l + 2)
    return a.num * b.den - b.num * a.den, a.den * b.den


def _identity_rows(label: str, num: Polynomial, den: Polynomial, target: RationalFunction) -> List[Tuple]:
    """Rows for num/den == target: den is nonzero, and num * target.den (got)
    equals target.num * den (expected)."""
    return [(f"{label} denominator is nonzero", bool(den), True)] + _coefficient_rows(
        f"{label} cross-multiplied", num * target.den, target.num * den
    )


def check_closed_identities(degree: int = 60) -> List[Verdict]:
    return [
        _compare(
            f"invariant series identity for k={k} (rational function and series)",
            _coefficient_rows(
                f"invariant series k={k}", genfun.invariant_series(k, degree), series_expand(target, degree)
            )
            + _identity_rows(f"k={k} F_0 - F_2", *_closed_difference(k, 0), target),
        )
        for k, target in _invariant_targets().items()
    ]


# ---------------------------------------------------------------------------
# Criterion 3: negativity detection and the two quotient closed forms
# ---------------------------------------------------------------------------

#: k -> (l, the degree of the first negative coefficient of (F_l - F_{l+2}) / (F_0 - F_2),
#: and that quotient's closed form: as shown, its numerator's and its denominator's coefficients)
_QUOTIENTS = {
    5: (1, 23, "q^5(1+q^2)/(1-q^6+q^12)", (0, 0, 0, 0, 0, 1, 0, 1), (1, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0, 0, 1)),
    6: (2, 18, "q^3(1+q+q^2)/(1+q-q^3-q^4-q^5+q^7+q^8)", (0, 0, 0, 1, 1, 1), (1, 1, 0, -1, -1, -1, 0, 1, 1)),
}


def check_negativity(degree: int = 60) -> List[Verdict]:
    verdicts = []
    for k, (l, first, *_) in _QUOTIENTS.items():
        _, neg = genfun.freeness_quotient(k, l, degree)
        name = f"first negative coefficient of quotient k={k}, l={l} at degree {first}"
        verdicts.append(Verdict(name, neg == first, f"got {neg}"))
    for k, (l, _, shown, num, den) in _QUOTIENTS.items():
        # the quotient from the closed forms, (a/b) / (c/d) = ad / bc
        (a, b), (c, d) = _closed_difference(k, l), _closed_difference(k, 0)
        target = RationalFunction(Polynomial("q", num), Polynomial("q", den))
        rows = _identity_rows(f"quotient k={k}", a * d, b * c, target)
        verdicts.append(_compare(f"quotient closed form for k={k}: {shown}", rows))
    return verdicts


# ---------------------------------------------------------------------------
# Criterion 4: invariant-ring structure detection
# ---------------------------------------------------------------------------

def structure_verdict(k: int, degree: int) -> Tuple[Optional[genfun.InvariantStructure], Verdict]:
    """The detector reads a structure off the invariant series; a refusal FAILs with its reason."""
    name = "invariant structure recognized"
    try:
        structure = genfun.detect_invariant_structure(k, degree)
    except genfun.StructureNotRecognizedError as exc:
        return None, Verdict(name, False, str(exc))
    return structure, Verdict(name, True)


def check_structure_detection(degree: int = 60) -> List[Verdict]:
    verdicts = []
    for k, (gens, rel) in _INVARIANT_RINGS.items():
        st, recognized = structure_verdict(k, degree)
        found = recognized.detail if st is None else st.describe()
        shape = f", relation degree {rel}" if rel else ", free"
        name = f"invariant structure for k={k}: generators {list(gens)}{shape}"
        verdicts.append(_compare(name, [(f"k={k}", found, genfun.InvariantStructure(gens, rel).describe())]))
    return verdicts


# ---------------------------------------------------------------------------
# Criterion 5: Young-lattice matrices, ranks and determinants
# ---------------------------------------------------------------------------

def _printed_m_matrices() -> Dict[int, Tuple[List, List[List[Polynomial]]]]:
    """n -> (columns, entries) of the reference M_n; its rows are (1^1)..(1^n)."""
    x = Polynomial("x", (0, 1))
    c = lambda v: Polynomial("x", (v,))
    zero, one = c(0), c(1)
    return {
        1: ([partition(1)], [[one]]),
        2: ([partition(2), partition(1, 1)], [[one, x - c(1)], [zero, one]]),
        3: (
            [partition(3), partition(2, 1), partition(1, 1, 1)],
            [
                [one, (x - c(1)) * 3, (x - c(1)) * (x - c(2))],
                [zero, c(2), x - c(2)],
                [zero, zero, one],
            ],
        ),
        4: (
            [partition(4), partition(3, 1), partition(2, 2), partition(2, 1, 1), partition(1, 1, 1, 1)],
            [
                [one, (x - c(1)) * 4, (x - c(1)) * 3, (x - c(1)) * (x - c(2)) * 6, (x - c(1)) * (x - c(2)) * (x - c(3))],
                [zero, c(2), c(2), (x - c(2)) * 5, (x - c(2)) * (x - c(3))],
                [zero, zero, zero, c(3), x - c(3)],
                [zero, zero, zero, zero, one],
            ],
        ),
    }


def rank_verdict(n: int, rank: int) -> Verdict:
    """The rank of M_n at x = n, as computed by ``younglat.rank_at``, is n."""
    return Verdict(f"rank of M_{n} at x={n} equals {n}", rank == n, f"rank {rank}")


def det_verdicts(n: int, upto: int) -> Tuple[Optional[younglat.DetFactorization], List[Verdict]]:
    """det N_n factors as integer * prod (x - i), i < n, and stays nonzero at x = n..upto.

    A psi that ``build_psi`` refuses fails both verdicts, with its error as
    their detail, and leaves no factorization.
    """
    shape = f"det N_{n} is a nonzero integer times linear factors with roots < {n}"
    nonzero = f"det N_{n} stays nonzero at x = {n}..{upto}"
    try:
        d = younglat.verify_det_factorization(n)
    except younglat.PsiError as error:
        return None, [Verdict(shape, False, str(error)), Verdict(nonzero, False, str(error))]
    zero = next((m for m in range(n, upto + 1) if d.determinant(m) == 0), None)
    return d, [
        Verdict(shape, d.fully_factored and all(r < n for r in d.roots), d.describe()),
        Verdict(nonzero, zero is None, "" if zero is None else f"det N_{n} is 0 at x = {zero}"),
    ]


def check_young_lattice(n_max: int = 12) -> List[Verdict]:
    verdicts = []
    for n, (cols, entries) in sorted(_printed_m_matrices().items()):
        m = younglat.path_matrix(n)
        labels = [younglat.column(j) for j in range(1, n + 1)]
        # one row per entry, so a failure prints entries as ``young matrix`` does;
        # the shape rows keep it as strict as comparing whole matrices
        rows = [("columns", m.cols, cols), ("rows", m.rows, labels), ("row count", len(m.entries), len(entries))]
        for label, got, want in zip(labels, m.entries, entries):
            rows.append((f"row {label} length", len(got), len(want)))
            rows += [(f"row {label}, column {col}", a, b) for col, a, b in zip(cols, got, want)]
        verdicts.append(_compare(f"M_{n} matches the reference matrix entry-for-entry", rows))

    ranks = {n: rank_verdict(n, younglat.rank_at(n)) for n in range(1, n_max + 1)}
    verdicts.append(_every(f"rank of M_n at x=n equals n for 1 <= n <= {n_max}", ranks))

    dets = {n: det_verdicts(n, n_max) for n in range(2, n_max + 1)}
    verdicts.append(
        _every(
            f"det N_n = nonzero integer times product of (x-i), i < n, for 2 <= n <= {n_max}",
            {n: shape for n, (_, (shape, _)) in dets.items()},
        )
    )
    verdicts.append(
        _every(
            f"det N_n is nonzero at x=m for n <= m <= {n_max}",
            {n: nonzero for n, (_, (_, nonzero)) in dets.items()},
        )
    )

    # Known discrepancy: the reference display for N_6 misprints two entries;
    # the labeling rules (which reproduce M_1..M_4 above exactly, and the
    # worked 10x10 block whose determinant has roots {5,6,7,8}) give the
    # factor multiset {2,2,3}.  The required multiset is asserted as stated.
    d6, (shape6, _) = dets.get(6) or det_verdicts(6, n_max)
    verdicts.append(
        Verdict(
            "linear-factor multiset of det N_6 is {x-1, x-2, x-3}",
            d6 is not None and sorted(d6.roots) == [1, 2, 3],
            shape6.detail if d6 is None
            else f"computed multiset {sorted(d6.roots)}, integer factor {d6.integer_factor}",
        )
    )
    return verdicts


# ---------------------------------------------------------------------------
# Criterion 6: symmetric-algebra derivations and independence
# ---------------------------------------------------------------------------

def invariance_verdicts(c2: symalg.SymElement, c3: symalg.SymElement) -> List[Verdict]:
    """C2 and C3 have degree 2 and 3 and weight 0, e and f kill each, and C2*C3 is invariant;
    a failure names the degrees and weights found, or the first nonzero image."""
    verdicts = []
    for name, element, degree in (("C2", c2, 2), ("C3", c3, 3)):
        degrees = {sum(e) for e in element.terms}
        weights = {element.monomial_weight(e) for e in element.terms}
        ok = degrees == {degree} and weights == {0}
        found = "" if ok else f"degrees {sorted(degrees)}, weights {sorted(weights)}"
        verdicts.append(Verdict(f"{name} is homogeneous of degree {degree} and weight 0", ok, found))
        for op in ("e", "f"):
            image = symalg.adjoint_action(op, element)
            verdicts.append(Verdict(f"{op} kills {name}", not image, str(image) if image else ""))
    c2c3 = c2 * c3
    ok = symalg.is_invariant(c2c3)
    image = "" if ok else next(f"{op} gives {i}" for op in "ef" if (i := symalg.adjoint_action(op, c2c3)))
    verdicts.append(Verdict("product C2*C3 is invariant", ok, image))
    return verdicts


def independence_verdict(k: int, rank: int) -> Verdict:
    """The k iterated raisings are independent: ``independence_check`` found rank k."""
    return Verdict(f"rank certificate: rank = k = {k}", rank == k, f"rank {rank}")


def check_symmetric_algebra(k_max: int = 12) -> List[Verdict]:
    act = symalg.adjoint_action

    def relation_rows():
        # every monomial of degree <= 4 in the five basis vectors of L(4), by its exponents
        for exps in filter(lambda e: sum(e) <= 4, product(range(5), repeat=5)):
            m = symalg.SymElement(4, {exps: 1})
            e, f, h = act("e", m), act("f", m), act("h", m)
            # [e,f] = h, [h,e] = 2e and [h,f] = -2f, each as got == expected
            yield (exps, "[e,f]"), act("e", f) - act("f", e), h
            yield (exps, "[h,e]"), act("h", e) - act("e", h) - e, e
            yield (exps, "[h,f]"), act("f", h) - act("h", f) - f, f

    relations = _compare(
        "derivations satisfy the sl2 relations on all monomials of degree <= 4", relation_rows()
    )
    invariance = invariance_verdicts(symalg.build_C2(), symalg.build_C3())
    ranks = {k: symalg.independence_check(k) for k in range(1, k_max + 1)}
    return [
        relations,
        _every(
            "C2 and C3 are invariants (degree 2 and 3, weight 0, killed by e and f)",
            {v.name: v for v in invariance},
        ),
        _every(
            f"iterated raisings are independent for 1 <= k <= {k_max}",
            {k: independence_verdict(k, rank) for k, rank in ranks.items()},
        ),
        _compare(
            "independence ranks agree with the path-matrix ranks",
            ((k, rank, younglat.rank_at(k)) for k, rank in ranks.items()),
        ),
    ]


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
    return Verdict("total dimension equals C(n+k, k)", total == comb(n + k, k), f"{total}")


def check_multiplicities(l_max: int = 40, degree_max: int = 20, verma_max: int = 30) -> List[Verdict]:
    graded = {k: sl2rep.q00_degree_part(k) for k in range(degree_max + 1)}

    def pbw_count(k: int) -> int:
        # monomials in three generators of weights -2, -2, -4 with weight -2k
        return sum(1 for a in range(k + 1) for b in range(k + 1 - a) if (k - a - b) % 2 == 0)

    return [
        _compare(
            f"closed multiplicity formula matches graded column sums for l <= {l_max}",
            ((l, sl2rep.q0_multiplicity(l), sum(part.get(l, 0) for part in graded.values()))
             for l in range(l_max + 1)),
        ),
        _compare(
            "graded pieces of Q(0) for degrees <= 4 match the reference table",
            ((k, dict(graded[k]), row) for k, row in _Q00_TABLE.items()),
        ),
        _compare(
            f"Verma weight-space dimensions match the monomial count for k <= {verma_max}",
            ((k, sl2rep.verma_weight_dim(k), pbw_count(k)) for k in range(verma_max + 1)),
        ),
    ]


# ---------------------------------------------------------------------------
# Criterion 8: tensor calculus
# ---------------------------------------------------------------------------

def check_tensor_calculus(k_max: int = 8, n_max: int = 8) -> List[Verdict]:
    simples = [Vp(0), Vp(2)] + [V(n) for n in range(1, n_max + 1)]

    # independent route: a decomposition is pinned down by its type multiset,
    # which must equal L(k) tensored against the types of the input simple
    type_bound = 2 * (k_max + n_max) + 8
    types: Dict[SimpleHC, range] = {}  # each summand's types, once per label

    def type_rows():
        for k, s in product(range(k_max + 1), simples):
            got = [0] * (type_bound + 1)
            for t, mult in sl2rep.hc_tensor(k, s).items():
                if t not in types:
                    types[t] = sl2rep.g_types(t, type_bound)
                for l in types[t]:
                    got[l] += mult
            expected = [0] * (type_bound + 1)
            for l0 in sl2rep.g_types(s, type_bound + k):
                for l in sl2rep.clebsch_gordan(k, l0):
                    if l <= type_bound:
                        expected[l] += 1
            yield (k, s), got, expected

    # the 8 cover each case of the paper's statement: primed with k odd, k = 0
    # and k = 2 (mod 4); k < n, k = n, and k > n with k - n even and odd
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

    def coherence_rows():
        for a, b, s in product(range(5), range(5), simples):
            lhs = sl2rep.hc_tensor_multiset(a, sl2rep.hc_tensor(b, s))
            rhs = {}
            for j in sl2rep.clebsch_gordan(a, b):
                for t, m in sl2rep.hc_tensor(j, s).items():
                    rhs[t] = rhs.get(t, 0) + m
            yield (a, b, s), dict(lhs), rhs

    return [
        _compare(
            f"tensor case split matches the type-multiset oracle for k <= {k_max}, simples up to V({n_max})",
            type_rows(),
        ),
        _compare(
            "representative decompositions from each branch of the case split",
            (((k, s), sl2rep.hc_tensor(k, s), want) for k, s, want in printed),
        ),
        _compare("Clebsch-Gordan coherence of iterated tensoring for a, b <= 4", coherence_rows()),
    ]


# ---------------------------------------------------------------------------
# Criterion 9: quivers and radical filtrations
# ---------------------------------------------------------------------------

def check_quivers(depth: int = 8, k_max: int = 12) -> List[Verdict]:
    tops = [Vp(0), Vp(2)] + [V(k) for k in range(1, k_max + 1)]
    primed = {top: quiver.radical_filtration(top, depth) for top in tops[:2]}
    loewy = {
        1: Counter({V(3): 1, V(5): 1}),
        2: Counter({V(2): 1, V(6): 1}),
        3: Counter({V(1): 1, V(7): 1}),
        4: Counter({Vp(0): 1, Vp(2): 1, V(8): 1}),
        5: Counter({V(1): 1, V(9): 1}),
    }
    identities = [
        (1, Vp(0), Counter({V(1): 1})),
        (1, V(1), Counter({Vp(0): 1, Vp(2): 1, V(2): 1})),
        (2, V(1), Counter({V(1): 2, V(3): 1})),
    ]
    return [
        _compare(
            f"both primed projectives are uniserial with layers V(4l), depth <= {depth}",
            (((top, l), layers[l], Counter({V(4 * l): 1}))
             for top, layers in primed.items() for l in range(1, depth + 1)),
        ),
        _compare(
            "first radical layers of P(1)..P(5) match the reference diagrams",
            ((k, quiver.radical_filtration(V(k), 1)[1], want) for k, want in loewy.items()),
        ),
        _compare(
            f"path-counted filtrations match the branch picture to depth {depth} "
            f"(all four endings covered)",
            ((top, quiver.radical_filtration(top, depth), quiver.expected_filtration(top, depth))
             for top in tops),
        ),
        _compare(
            f"Q(k) decomposition matches the staircase formula for k <= {k_max}",
            # against the tops V'(0), V'(2), V(1)..V(k) that have L(k) among their types
            ((k, quiver.decompose_Q(k), Counter(s for s in tops[:k + 2] if k in sl2rep.g_types(s, k)))
             for k in range(k_max + 1)),
        ),
        _compare(
            "tensor identities L(1)xP'(0), L(1)xP(1), L(2)xP(1)",
            (((k, top), sl2rep.hc_tensor(k, top), want) for k, top, want in identities),
        ),
    ]


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
    """Every criterion in order, as (number, title, verdicts).

    The run is one ``sharing()`` block, so it computes each closed form, rank
    and tensor decomposition once, however many criteria read it; the memo is
    dropped when the run ends.
    """
    with sharing():
        return [
            (number, title, run_criterion(number, quick=quick))
            for number, (title, _, _) in CRITERIA.items()
        ]
