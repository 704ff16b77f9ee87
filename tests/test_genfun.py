import re
from collections import Counter
from math import comb

import pytest

from galilei import genfun, verify
from galilei.exact import Polynomial, RationalFunction, TruncatedSeries, series_expand


def closed_difference(k, l):
    """F_l - F_{l+2} from the closed forms, as an unreduced (numerator, denominator)."""
    a, b = genfun.f_closed(k, l), genfun.f_closed(k, l + 2)
    return a.num * b.den - b.num * a.den, a.den * b.den


def diophantine_solutions(k, l, max_degree):
    """Yield all (a_0, ..., a_k) with weighted sum l and total degree <= N.

    Iterates over (a_1, ..., a_k) and solves for a_0 from the weight
    constraint, pruning partial assignments whose degree budget cannot reach
    the target weight: a small-scale oracle for ``f_enum``, which does the
    same count by dynamic programming.
    """
    if k == 0:
        if l == 0:
            for a0 in range(max_degree + 1):
                yield (a0,)
        return

    weights = [k - 2 * i for i in range(k + 1)]

    def rec(i, degree, weight, tail):
        if i > k:
            rest = l - weight
            if rest % k == 0 and rest >= 0:
                a0 = rest // k
                if degree + a0 <= max_degree:
                    yield (a0, *tail)
            return
        budget = max_degree - degree
        # a_0 contributes weight k per unit; items i..k contribute in
        # [-k, weights[i]] per unit.  Prune if l is out of reach.
        if weight - k * budget > l or weight + k * budget < l:
            return
        for a in range(budget + 1):
            yield from rec(i + 1, degree + a, weight + weights[i] * a, tail + [a])

    yield from rec(1, 0, 0, [])


def test_stream_satisfies_constraints():
    for k, l, n in [(1, 3, 7), (3, 2, 6), (4, 0, 5)]:
        seen = set()
        for tup in diophantine_solutions(k, l, n):
            assert len(tup) == k + 1
            assert all(a >= 0 for a in tup)
            assert sum((k - 2 * i) * a for i, a in enumerate(tup)) == l
            assert sum(tup) <= n
            assert tup not in seen
            seen.add(tup)
        assert seen


def test_enum_counts_match_stream():
    n_max = 8
    for k in range(0, 6):
        for l in range(0, 2 * k + 2):
            counts = Counter(sum(t) for t in diophantine_solutions(k, l, n_max))
            expected = [counts.get(m, 0) for m in range(n_max + 1)]
            # the largest degree first, then smaller ones served by the same table
            genfun.clear_memo_caches()
            for n in (n_max, 3, 0):
                assert list(genfun.f_enum(k, l, n).coeffs) == expected[: n + 1], (k, l, n)


@pytest.mark.parametrize("k", [0, 1, 5, 7])
def test_enum_table_order_independent(k):
    small, large = 3, 40
    weights = range(0, 2 * k + 3)
    genfun.clear_memo_caches()
    small_first = [genfun.f_enum(k, l, small) for l in weights]
    small_first_large = [genfun.f_enum(k, l, large) for l in weights]
    genfun.clear_memo_caches()
    large_first_large = [genfun.f_enum(k, l, large) for l in weights]
    large_first = [genfun.f_enum(k, l, small) for l in weights]
    assert small_first == large_first
    assert small_first_large == large_first_large
    assert [s.coeffs[: small + 1] for s in large_first_large] == [s.coeffs for s in large_first]


@pytest.mark.parametrize("k", [2, 5, 7])
def test_recur_memo_order_independent(k):
    # the memo keeps one level table, for one k, with the degree it was built
    # to: a table built to degree 3 must never serve degree 40
    small, large = 3, 40
    weights = range(0, 2 * k + 3)
    genfun.clear_memo_caches()
    small_first = [genfun.f_recur(k, l, small) for l in weights]
    small_first_large = [genfun.f_recur(k, l, large) for l in weights]
    genfun.clear_memo_caches()
    large_first_large = [genfun.f_recur(k, l, large) for l in weights]
    large_first = [genfun.f_recur(k, l, small) for l in weights]
    assert small_first == large_first
    assert small_first_large == large_first_large
    assert [s.coeffs[: small + 1] for s in large_first_large] == [s.coeffs for s in large_first]


def test_recur_memo_keeps_one_table():
    genfun.clear_memo_caches()
    genfun.f_recur(7, 3, 40)
    table = genfun._recur_tables[7]
    # a smaller degree of the same k reads that table; another k replaces it
    genfun.f_recur(7, 5, 12)
    assert genfun._recur_tables == {7: table}
    genfun.f_recur(5, 3, 12)
    assert list(genfun._recur_tables) == [5]
    genfun.clear_memo_caches()
    assert not genfun._recur_tables


def test_recur_matches_enum_to_k_12_cold_and_warm():
    # every k <= 12 at the smallest degrees and at 60, for l <= 2k + 2 and at
    # the edge l = kN, kN + 1; k is interleaved, so consecutive requests need
    # different field widths
    requests = []
    for degree in (0, 1, 2, 3, 60):
        weights = {k: list(range(2 * k + 3)) + [k * degree, k * degree + 1] for k in range(2, 13)}
        for i in range(max(map(len, weights.values()))):
            requests += [(k, ls[i], degree) for k, ls in weights.items() if i < len(ls)]
    enum = {r: genfun.f_enum(*r) for r in requests}
    for r in requests:
        genfun.clear_memo_caches()
        assert genfun.f_recur(*r) == enum[r], r
    for r in requests:
        assert genfun.f_recur(*r) == enum[r], r


def _check_weight_rows(k, degree):
    genfun.clear_memo_caches()
    # the largest degree first: every row is read from the table built to ``degree``
    for n in range(degree, -1, -1):
        row = genfun.weight_row(k, n)
        # one entry per weight -kn, -kn + 2, ..., kn
        assert len(row) == k * n + 1, (k, n)
        # every monomial of degree n counted once: dim Sym^n L(k)
        assert sum(row) == comb(n + k, k), (k, n)
        # the weights of Sym^n L(k) are symmetric about 0
        assert row == row[::-1], (k, n)


def test_enum_table_rows_against_binomial_oracle():
    degree = 20
    for k in range(1, 7):
        _check_weight_rows(k, degree)
        for l in range(0, 2 * k + 3):
            coeffs = genfun.f_enum(k, l, degree).coeffs
            assert all(coeffs[n] == 0 for n in range(degree + 1) if (l + k * n) % 2), (k, l)
    # counts past 64 bits: the widest fields of the table, against the recursion
    k, degree = 32, 45
    _check_weight_rows(k, degree)
    assert max(genfun.weight_row(k, degree)).bit_length() > 64
    for l in (0, 2):
        assert genfun.f_enum(k, l, degree) == genfun.f_recur(k, l, degree), l


def test_weight_row_unpacks_fields_of_every_width():
    # fields of 1 to 8 bytes are copied into machine words, wider ones read
    # one by one: both against int.from_bytes on the packed row
    k, widths = 16, set()
    for degree in (1, 3, 6, 12, 20, 31, 47, 69, 101):
        genfun.clear_memo_caches()
        w, rows = genfun._weight_degree_table(k, degree)
        size = w // 8
        widths.add(size)
        for n in (degree, degree - 1, degree // 2):
            data = rows[n].to_bytes((k * n + 1) * size, "little")
            expected = [int.from_bytes(data[i:i + size], "little") for i in range(0, len(data), size)]
            assert genfun.weight_row(k, n) == expected, (degree, n)
    genfun.clear_memo_caches()
    assert widths == set(range(1, 10))


def test_planted_narrow_field_width_fails_the_row_oracle(monkeypatch):
    # fields one byte narrower than C(degree + k, k) needs: at k = 32, degree
    # 45 the largest counts (65 bits) carry into the next field
    genfun.clear_memo_caches()
    width, recur = genfun._recur_width(32, 45), [genfun.f_recur(32, l, 45) for l in (0, 2, 32)]
    monkeypatch.setattr(genfun, "comb", lambda n, k: comb(n, k) >> 8)
    with pytest.raises(AssertionError):
        _check_weight_rows(32, 45)
    # the recursion derives its width from its own bound: the plant leaves it be
    genfun.clear_memo_caches()
    assert genfun._recur_width(32, 45) == width
    assert [genfun.f_recur(32, l, 45) for l in (0, 2, 32)] == recur
    genfun.clear_memo_caches()


def test_planted_narrow_recursion_width_fails_criterion_1(monkeypatch):
    # the bound C(N+k+1, k+1) is loose (32 bits at k = 6, degree 60, where the
    # largest F_l coefficient has 20), so one byte less still holds every
    # count; half the width, in whole bytes, carries fields into the next
    original = genfun._recur_width
    monkeypatch.setattr(genfun, "_recur_width", lambda k, degree: 8 * max(1, original(k, degree) // 16))
    genfun.clear_memo_caches()
    try:
        verdicts = verify.check_triple_agreement()
    finally:
        genfun.clear_memo_caches()
    # at k = 2 every count fits in 8 bits; every k >= 3 fails, naming a coefficient
    assert [v.passed for v in verdicts] == [True] * 3 + [False] * 4
    for k, v in enumerate(verdicts[3:], start=3):
        assert re.match(rf"recur k={k} l=\d+: q\^\d+ is \d+, enum has \d+(; |$)", v.detail), v.detail


def test_sym_weight_dim_edge_cases():
    brute = Counter()
    for combo in diophantine_solutions(3, 3, 4):
        brute[sum(combo)] += 1
    # negative weights read the cell of |l|
    for n in range(0, 6):
        for l in range(-3 * n, 3 * n + 1):
            assert genfun.sym_weight_dim(3, n, l) == genfun.sym_weight_dim(3, n, -l), (n, l)
    assert [genfun.sym_weight_dim(3, n, -3) for n in range(5)] == [brute[n] for n in range(5)]
    # l + kn odd: no monomial has that weight
    assert genfun.sym_weight_dim(3, 2, 1) == 0
    assert genfun.sym_weight_dim(4, 5, -7) == 0
    # |l| > kn lies outside the weights of Sym^n
    assert genfun.sym_weight_dim(3, 2, 8) == genfun.sym_weight_dim(3, 2, -8) == 0
    assert genfun.sym_weight_dim(5, 0, 2) == 0
    assert genfun.sym_weight_dim(3, 2, 6) == 1
    # Sym^n(L(0)) is one-dimensional of weight 0, and no table is built for it
    genfun.clear_memo_caches()
    assert [genfun.sym_weight_dim(0, n, 0) for n in range(6)] == [1] * 6
    assert [genfun.sym_weight_dim(0, n, l) for n in range(6) for l in (-2, 1, 2)] == [0] * 18
    assert 0 not in genfun._enum_tables
    with pytest.raises(ValueError):
        genfun.sym_weight_dim(3, -1, 0)


def test_cold_f_enum_builds_the_table_once(monkeypatch):
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
    genfun.f_enum(5, 0, 240)
    assert builds == [(5, 240)]
    # a smaller degree, and every single cell below it, reuse that table
    genfun.f_enum(5, 7, 100)
    genfun.sym_weight_dim(5, 240, -3)
    assert builds == [(5, 240)]


def test_enum_examples():
    assert [int(c) for c in genfun.f_enum(1, 3, 7).coeffs] == [0, 0, 0, 1, 0, 1, 0, 1]
    assert not any(genfun.f_enum(2, 1, 10).coeffs)
    # weight-0 series of the 5-dimensional module starts 1, 1, 3, 5, 8
    assert [int(c) for c in genfun.f_enum(4, 0, 8).coeffs][:5] == [1, 1, 3, 5, 8]
    assert series_expand(genfun.f_closed(4, 0), 8) == genfun.f_enum(4, 0, 8)


def test_recursion_examples():
    assert [int(c) for c in genfun.f_recur(2, 0, 6).coeffs] == [1, 1, 2, 2, 3, 3, 4]
    assert genfun.f_recur(3, 0, 12) == series_expand(genfun.f_closed(3, 0), 12)
    assert genfun.f_recur(5, 0, 20) == series_expand(genfun.f_closed(5, 0), 20)
    with pytest.raises(ValueError):
        genfun.f_recur(1, 0, 5)


def test_planted_closed_form_defect_fails_criterion_1(monkeypatch):
    original = genfun._closed_k5

    def planted(l):
        if l != 0:
            return original(l)
        # the k=5, l=0 transcription with its q^8 numerator coefficient 12 -> 13
        num = Polynomial("q", (1, 0, 1, 0, 6, 0, 9, 0, 13, 0, 9, 0, 6, 0, 1, 0, 1))
        return RationalFunction(num, genfun.geometric_den(2, 2, 4, 6, 8))

    monkeypatch.setattr(genfun, "_closed_k5", planted)
    verdicts = verify.check_triple_agreement(degree=30, k_max=5, l_max=3)
    assert [v.passed for v in verdicts] == [True] * 5 + [False]
    enum = genfun.f_enum(5, 0, 30).coeffs[8]
    assert verdicts[5].detail == f"closed k=5 l=0: q^8 is {enum + 1}, enum has {enum}"


def test_planted_recursion_defect_fails_criterion_1(monkeypatch):
    original = genfun._recur_ground

    def late(k, degree, w):
        # every ground series one degree late, and so every level above it
        return [series << w for series in original(k, degree, w)]

    monkeypatch.setattr(genfun, "_recur_ground", late)
    genfun.clear_memo_caches()
    try:
        verdicts = verify.check_triple_agreement(degree=30, k_max=5, l_max=3)
    finally:
        genfun.clear_memo_caches()
    # k = 0, 1 have no recursion route; every k >= 2 fails
    assert [v.passed for v in verdicts] == [True] * 2 + [False] * 4
    assert verdicts[2].detail.startswith("recur k=2 l=0: q^0 is 0, enum has 1; ")
    assert verdicts[5].detail.startswith("recur k=5 l=0: q^0 is 0, enum has 1; ")


def test_planted_quotient_defects_name_the_first_coefficient(monkeypatch):
    k5, k6 = genfun._closed_k5, genfun._closed_k6

    def planted5(l):
        if l != 3:
            return k5(l)
        # the k=5, l=3 transcription with its q^5 numerator coefficient 4 -> 5
        num = Polynomial("q", (1, 0, 3, 0, 5, 0, 7, 0, 4, 0, 3, 0, 1)).shift(1)
        return RationalFunction(num, genfun.geometric_den(2, 2, 2, 6, 8))

    def planted6(l):
        if l != 4:
            return k6(l)
        # the k=6, l=4 transcription with its q^1 numerator coefficient 1 -> 2
        num = Polynomial("q", (2, 2, 2, 4, 4, 4, 2, 2, 1)).shift(1)
        return RationalFunction(num, genfun.geometric_den(1, 2, 2, 3, 4, 5))

    monkeypatch.setattr(genfun, "_closed_k5", planted5)
    monkeypatch.setattr(genfun, "_closed_k6", planted6)
    verdicts = verify.check_negativity(degree=40)
    # F_3 grows by q^5 + ..., so the quotient loses q^5 (target: q^5 + q^7 + ...)
    assert [v.passed for v in verdicts] == [True, True, False, False]
    assert verdicts[2].detail == "quotient k=5: q^5 is 0, target has 1"
    # F_4 grows by q + ..., so the quotient gains -q (target starts at q^3)
    assert verdicts[3].detail == "quotient k=6: q^1 is -1, target has 0"


def test_planted_pole_fails_the_quotient_verdict(monkeypatch):
    original = genfun._closed_k5

    def planted(l):
        if l != 0:
            return original(l)
        # F_0 = F_2 + q^6 F_0: the divisor F_0 - F_2 starts at q^6, past the
        # q^5 of F_1 - F_3, so the quotient has a pole at q = 0
        f0, f2 = original(0), original(2)
        return RationalFunction(f2.num * f0.den + f0.num.shift(6) * f2.den, f0.den * f2.den)

    monkeypatch.setattr(genfun, "_closed_k5", planted)
    verdicts = verify.check_negativity(degree=40)
    assert [v.passed for v in verdicts] == [True, True, False, True]
    assert verdicts[2].detail == "quotient k=5: a pole at q=0, the target has none"


def test_planted_structure_defect_names_the_expected_shape(monkeypatch):
    original = genfun.detect_invariant_structure

    def planted(k, degree):
        # the k=5 relation in degree 36 dropped
        found = original(k, degree)
        return genfun.InvariantStructure(found.generator_degrees, None) if k == 5 else found

    monkeypatch.setattr(genfun, "detect_invariant_structure", planted)
    verdicts = verify.check_structure_detection(degree=60)
    assert [v.passed for v in verdicts] == [True, True, False, True]
    assert verdicts[2].detail == (
        "got polynomial algebra, generator degrees [4, 8, 12, 18], "
        "expected generator degrees [4, 8, 12, 18] with one relation of degree 36"
    )


def test_planted_invariant_target_defect_names_coefficient(monkeypatch):
    original = verify._invariant_targets

    def planted():
        targets = original()
        # the k=5 relation in degree 36 moved to degree 38
        one = Polynomial.one("q")
        targets[5] = RationalFunction(
            one - Polynomial.monomial("q", 38), genfun.geometric_den(4, 8, 12, 18)
        )
        return targets

    monkeypatch.setattr(verify, "_invariant_targets", planted)
    verdicts = verify.check_closed_identities(degree=60)
    assert [v.passed for v in verdicts] == [True, True, False, True]
    got = genfun.invariant_series(5, 60).coeffs[36]
    assert f"invariant series k=5: q^36 is {got}, target has {got + 1}" in verdicts[2].detail


def test_triple_agreement_small():
    for k in range(0, 7):
        for l in range(0, 9):
            enum = genfun.f_enum(k, l, 30)
            if k >= 2:
                assert genfun.f_recur(k, l, 30) == enum, (k, l)
            if genfun.has_closed_form(k, l):
                assert series_expand(genfun.f_closed(k, l), 30) == enum, (k, l)


def test_closed_form_expansion_matches_sympy_series():
    # sympy's own power-series arithmetic over QQ inverts the denominator,
    # sharing no code with exact.series_expand
    pytest.importorskip("sympy")
    from sympy import QQ, ring
    from sympy.polys.ring_series import rs_mul, rs_series_inversion

    R, q = ring("q", QQ)
    as_ring = lambda p: sum((QQ(c.numerator, c.denominator) * q**i for i, c in enumerate(p.coeffs)), R(0))
    checked = 0
    for k in range(7):
        for l in range(13):
            if not genfun.has_closed_form(k, l):
                continue
            rf = genfun.f_closed(k, l)
            oracle = rs_mul(as_ring(rf.num), rs_series_inversion(as_ring(rf.den), q, 41), q, 41)
            expected = [oracle.get((i,), QQ(0)) for i in range(41)]
            got = series_expand(rf, 40).coeffs
            assert [QQ(c.numerator, c.denominator) for c in got] == expected, (k, l)
            checked += 1
    assert checked == 73


def test_closed_form_support():
    assert genfun.f_closed(4, 5).num.is_zero
    assert genfun.f_closed(2, 3).num.is_zero
    # f_closed refuses exactly where has_closed_form says no, naming k and l
    for k in range(9):
        for l in range(21):
            if genfun.has_closed_form(k, l):
                genfun.f_closed(k, l)
                continue
            with pytest.raises(genfun.NoClosedFormError) as exc:
                genfun.f_closed(k, l)
            assert str(exc.value) == f"no closed form for k={k}, l={l}"


def test_closed_form_k3_l2_branch():
    # l = 2 (mod 3) branch: q^((l+4)/3) (2 + q^2 - q^((2l+2)/3)) over
    # (1-q^2)^2 (1-q^4)
    got = genfun.f_closed(3, 2)
    num = Polynomial("q", (2, 0, 1)) - Polynomial.monomial("q", 2)
    num = num.shift(2)
    expected = RationalFunction(num, genfun.geometric_den(2, 2, 4))
    assert got == expected


def test_invariant_series_identities():
    one = Polynomial.one("q")
    mono = Polynomial.monomial
    targets = {
        3: RationalFunction(one, genfun.geometric_den(4)),
        4: RationalFunction(one, genfun.geometric_den(2, 3)),
        5: RationalFunction(one - mono("q", 36), genfun.geometric_den(4, 8, 12, 18)),
        6: RationalFunction(one - mono("q", 30), genfun.geometric_den(2, 4, 6, 10, 15)),
    }
    for k, target in targets.items():
        num, den = closed_difference(k, 0)
        assert num * target.den == target.num * den
        assert genfun.invariant_series(k, 45) == series_expand(target, 45)


def test_freeness_quotient():
    series, neg = genfun.freeness_quotient(4, 8, 20)
    assert neg is None
    assert [int(c) for c in series.coeffs[:6]] == [0, 0, 1, 1, 1, 0]
    _, neg = genfun.freeness_quotient(5, 1, 30)
    assert neg == 23
    _, neg = genfun.freeness_quotient(6, 2, 30)
    assert neg == 18


def test_quotient_closed_forms():
    # (F_l - F_{l+2}) / (F_0 - F_2) = (n_l d_0) / (d_l n_0) for F_l - F_{l+2} = n_l / d_l
    targets = {
        (5, 1): (Polynomial("q", (1, 0, 1)).shift(5),
                 Polynomial("q", (1, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0, 0, 1))),
        (6, 2): (Polynomial("q", (1, 1, 1)).shift(3),
                 Polynomial("q", (1, 1, 0, -1, -1, -1, 0, 1, 1))),
    }
    for (k, l), (target_num, target_den) in targets.items():
        (n_l, d_l), (n_0, d_0) = closed_difference(k, l), closed_difference(k, 0)
        assert not n_0.is_zero
        assert n_l * d_0 * target_den == target_num * d_l * n_0


def test_structure_detection():
    expected = {
        0: ((1,), None),
        1: ((), None),
        2: ((2,), None),
        3: ((4,), None),
        4: ((2, 3), None),
        5: ((4, 8, 12, 18), 36),
        6: ((2, 4, 6, 10, 15), 30),
    }
    for k, (gens, rel) in expected.items():
        st = genfun.detect_invariant_structure(k, 60)
        assert st.generator_degrees == gens
        assert st.relation_degree == rel
        assert genfun.reconstruct_structure_series(st, 60) == genfun.invariant_series(k, 60)


def test_invariant_structures_compare_by_value():
    # criterion 4 compares each detected structure with its expected one by ==
    found = genfun.detect_invariant_structure(5, 60)
    assert found == genfun.InvariantStructure((4, 8, 12, 18), 36)
    assert found != genfun.InvariantStructure((4, 8, 12, 18), None)
    assert found != genfun.InvariantStructure((4, 8, 12), 36)
    assert genfun.detect_invariant_structure(4, 60) == genfun.InvariantStructure((2, 3), None)
    assert len({found, genfun.InvariantStructure((4, 8, 12, 18), 36)}) == 1


def test_structure_detection_rejects_garbage():
    # a series that is not of the recognized shape: residual 1 - q^2 - q^3
    fake = TruncatedSeries([1, 0, -1, -1] + [0] * 20)

    class _Fake:
        pass

    # feed through the internal greedy loop by monkeypatching invariant_series
    import galilei.genfun as gf

    original = gf.invariant_series
    gf.invariant_series = lambda k, degree: TruncatedSeries(fake.coeffs[: degree + 1])
    try:
        with pytest.raises(genfun.StructureNotRecognizedError):
            genfun.detect_invariant_structure(99, 20)
    finally:
        gf.invariant_series = original


def test_telescoping_and_total_dimension():
    n_max = 14
    # peeling is valid: F_l - F_{l+2} is coefficientwise non-negative
    for k in (4, 5):
        for l in range(0, 10):
            diff = genfun.f_enum(k, l, n_max) - genfun.f_enum(k, l + 2, n_max)
            assert diff.first_negative() is None
    # telescoping reconstructs F_{l0} (either parity) once the tail vanishes
    for k, l0 in ((4, 0), (5, 0), (5, 1)):
        total = genfun.f_enum(k, 0, n_max) - genfun.f_enum(k, 0, n_max)
        l = l0
        while l <= k * n_max:
            total = total + (genfun.f_enum(k, l, n_max) - genfun.f_enum(k, l + 2, n_max))
            l += 2
        assert total == genfun.f_enum(k, l0, n_max)
    # counting every weight recovers the full symmetric-power dimension
    for k in range(0, 7):
        for n in range(0, 9):
            total_dim = genfun.f_enum(k, 0, n).coeffs[n]
            for l in range(1, k * n + 1):
                total_dim += 2 * genfun.f_enum(k, l, n).coeffs[n]
            assert total_dim == comb(n + k, k), (k, n)

