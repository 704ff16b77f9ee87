import contextlib
import io
import random
import sys
from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galilei import cli, exact, genfun
from galilei.exact import (
    PoleAtOriginError,
    Polynomial,
    RationalFunction,
    TruncatedSeries,
    polynomial_gcd,
    series_expand,
)
from galilei.symalg import SymElement


def q(*coeffs):
    return Polynomial("q", coeffs)


def test_rational_arithmetic_matches_cross_multiplication():
    # independent big-integer check of Fraction arithmetic
    rng = random.Random(20240)
    for _ in range(300):
        a, b = rng.randint(-10**9, 10**9), rng.randint(1, 10**9)
        c, d = rng.randint(-10**9, 10**9), rng.randint(1, 10**9)
        x, y = Fraction(a, b), Fraction(c, d)
        s = x + y
        assert s.numerator * (b * d) == (a * d + c * b) * s.denominator
        p = x * y
        assert p.numerator * (b * d) == (a * c) * p.denominator
        assert x.denominator > 0 and gcd(x.numerator, x.denominator) == 1


def test_polynomial_canonical_form():
    assert q(1, 2, 0, 0).coeffs == (1, 2)
    assert q().degree == -1
    assert not q()
    assert not q(0, 0)
    assert q(3).degree == 0
    assert (q(1, 1) * q(1, -1)) == q(1, 0, -1)


def test_polynomial_divmod_and_gcd():
    a = q(1, 0, -1)  # 1 - q^2
    b = q(1, -1)  # 1 - q
    quot, rem = divmod(a, b)
    assert not rem and quot == q(1, 1)
    g = polynomial_gcd(q(-1, 0, 0, 0, 1), q(1, 0, -1))  # q^4-1 vs 1-q^2
    assert g == q(-1, 0, 1)
    # gcd of coprime polynomials is 1
    assert polynomial_gcd(q(1, 1), q(1, 0, 1)) == q(1)
    # the gcd is primitive with a positive lead, whatever the inputs' content and sign
    assert polynomial_gcd(q(6, 0, -6), q(-4, -4)) == q(1, 1)
    assert polynomial_gcd(q(), q(4, -2)) == q(-2, 1)
    assert polynomial_gcd(q(-6), q()) == q(1)
    assert polynomial_gcd(q(), q()) == q()


def _to_sympy(sympy, p):
    coeffs = [sympy.Rational(str(c)) for c in reversed(p.coeffs)] or [0]
    return sympy.Poly(coeffs, sympy.Symbol("q"), domain=sympy.QQ)


def _sympy_primitive_gcd(sympy, a, b):
    """sympy's gcd over the rationals, made monic, then scaled by the lcm of
    its denominators: the primitive gcd with a positive lead."""
    g = _to_sympy(sympy, a).gcd(_to_sympy(sympy, b))
    if not g:
        return q()
    coeffs = [Fraction(str(c)) for c in reversed(g.monic().all_coeffs())]
    scale = lcm(*(c.denominator for c in coeffs))
    return q(*(c * scale for c in coeffs))


def test_polynomial_gcd_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2023)

    def poly(max_degree, size=9):
        return q(*[rng.randint(-size, size) for _ in range(rng.randint(0, max_degree + 1))])

    cases = [(q(), q()), (q(), q(3)), (q(-4), q()), (q(6), q(-4)), (q(), q(2, -4, 6)),
             (q(2, -4, 6), q(-3)), (q(0, 0, -6), q(0, 4))]
    for _ in range(150):
        common = poly(3)
        # non-unit leading coefficients of either sign
        common = common + q(*[0] * (common.degree + 1), rng.choice((-6, -2, 3, 5)))
        a, b = poly(4) * common, poly(4) * common
        cases += [(a, b), (b, a), (a, common), (poly(6, 40), poly(5, 40))]
    # content and a negative lead on both sides
    cases += [(q(-2, 0, 3) * q(6, 6), q(2, 0, -3) * q(-4, 2))]
    for a, b in cases:
        assert polynomial_gcd(a, b) == _sympy_primitive_gcd(sympy, a, b), (a, b)
    assert polynomial_gcd(q(-2, 0, 3) * q(6, 6), q(2, 0, -3) * q(-4, 2)) == q(-2, 0, 3)


def test_polynomial_divmod_property():
    rng = random.Random(31)
    for _ in range(80):
        a = q(*[rng.randint(-5, 5) for _ in range(rng.randint(0, 7))])
        b = q(*[rng.randint(-5, 5) for _ in range(rng.randint(1, 4))])
        if not b:
            continue
        quot, rem = divmod(a, b)
        assert quot * b + rem == a
        assert rem.degree < b.degree


def _ints_where_integral(p):
    """No float anywhere, and every integral coefficient held as an int."""
    return all(
        type(c) is int or (type(c) is Fraction and c.denominator != 1)
        for c in p.coeffs
    )


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from(["int", "fraction"]))
def test_polynomial_ring_laws_and_divmod(data, kind):
    coeff = _ints if kind == "int" else st.one_of(_ints, _fractions)
    a, b, c = (data.draw(st.lists(coeff, max_size=6).map(lambda cs: q(*cs))) for _ in range(3))
    assert a + b == b + a and a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert not (a - a) and a + (-a) == q()
    results = [a + b, a * b, a - c, a * (b + c)]
    if b:
        quot, rem = divmod(a, b)
        assert quot * b + rem == a
        assert rem.degree < b.degree
        results += [quot, rem]
    for p in (a, b, c, *results):
        assert _ints_where_integral(p)
        assert _ints_where_integral(q(p(3), p(Fraction(1, 2))))
    if kind == "int":
        assert all(type(p(t)) is int for p in (a, b, a * b) for t in range(-3, 4))


def test_polynomial_divisions_stay_exact():
    # a bare / on two ints would give floats; every division is exact
    quot, rem = divmod(q(1, 0, 1), q(0, 2))
    assert quot == q(0, Fraction(1, 2)) and rem == q(1)
    assert (q(4, 6) * Fraction(1, 2)).coeffs == (2, 3)
    # a rational function is an integer pair: content and sign move, no Fraction appears
    rf = RationalFunction(q(1), q(1, 3))
    assert rf.num.coeffs == (1,) and rf.den.coeffs == (1, 3)
    rf = RationalFunction(q(2, 4), q(-2, 2))
    assert rf.num.coeffs == (1, 2) and rf.den.coeffs == (-1, 1)
    assert RationalFunction(q(-6), q(0, 0, -4)) == RationalFunction(q(3), q(0, 0, 2))
    assert RationalFunction(q(), q(4, -6, -2)).den == q(1)
    for num, den in ((q(Fraction(1, 2)), q(1, 1)), (q(1), q(1, Fraction(1, 3))),
                     (q(Fraction(1, 2), Fraction(1, 2)), q(1, 1)), (q(), q(Fraction(1, 2), 1))):
        with pytest.raises(TypeError):
            RationalFunction(num, den)


def test_variable_mismatch_rejected():
    with pytest.raises(ValueError):
        q(1) + Polynomial("x", (1,))


def test_polynomial_never_equals_a_scalar():
    # equality is between polynomials only; a scalar is not coerced
    assert (Polynomial("x", (0,)) == 0) is False
    assert (0 == Polynomial("x")) is False
    assert Polynomial("x", (3,)) != Fraction(3)


def test_rational_function_canonical_idempotent():
    rng = random.Random(7)
    for _ in range(60):
        num = q(*[rng.randint(-4, 4) for _ in range(rng.randint(1, 5))])
        den = q(*[rng.randint(-4, 4) for _ in range(rng.randint(1, 5))])
        if not den:
            continue
        rf = RationalFunction(num, den)
        again = RationalFunction(rf.num, rf.den)
        assert rf == again
        assert rf.den.coeffs[-1] > 0 and gcd(*rf.num.coeffs, *rf.den.coeffs) == 1
        assert rf.den == q(1) or rf.num
        assert polynomial_gcd(rf.num, rf.den) == q(1)


def test_series_expand_geometric():
    rf = RationalFunction(q(1), q(1, -1))
    assert series_expand(rf, 4).coeffs == (1, 1, 1, 1, 1)


def test_series_expand_period_four():
    rf = RationalFunction(q(1), q(1, 0, 0, 0, -1))
    assert [int(c) for c in series_expand(rf, 9).coeffs] == [1, 0, 0, 0, 1, 0, 0, 0, 1, 0]


def test_series_expand_rejects_pole_at_origin():
    with pytest.raises(PoleAtOriginError):
        series_expand(RationalFunction(q(1), q(0, 1)), 5)


def test_series_multiplicativity():
    rng = random.Random(99)
    for _ in range(40):
        def rand_rf():
            num = q(*[rng.randint(-3, 3) for _ in range(rng.randint(1, 4))])
            den = q(rng.choice([1, -1]), *[rng.randint(-3, 3) for _ in range(rng.randint(0, 3))])
            return RationalFunction(num, den)
        a, b = rand_rf(), rand_rf()
        product = RationalFunction(a.num * b.num, a.den * b.den)
        assert product.num * a.den * b.den == a.num * b.num * product.den
        n = 12
        assert series_expand(product, n) == series_expand(a, n) * series_expand(b, n)


def test_series_division_and_truncation_rules():
    a = TruncatedSeries([1, 2, 3, 4, 5])
    b = TruncatedSeries([1, 1, 1])
    # product truncates to the shorter operand
    assert (a * b).truncation == 2
    quotient = a / b
    assert quotient * b == TruncatedSeries(a.coeffs[:3])
    with pytest.raises(PoleAtOriginError):
        a / TruncatedSeries([0, 1, 1, 1, 1])


def _schoolbook_div(a, b):
    """a / b to the shorter truncation, every term summed: q_i = b_0 (a_i - sum_j b_j q_(i-j))."""
    out = []
    for i in range(min(len(a), len(b))):
        out.append(b[0] * (a[i] - sum(b[j] * out[i - j] for j in range(1, i + 1))))
    return out


def _random_series(rng, size, density, c0=None):
    coeffs = [rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(size)]
    if c0 is not None:
        coeffs[0] = c0
    return coeffs


def test_series_division_matches_the_schoolbook_oracle():
    # the division sums over the quotient's nonzero terms while they are fewer
    # than the divisor's, then over the divisor's; the cases cover quotients
    # that reach the divisor's term count (a switch mid-series) and quotients
    # that never do, sparse and dense divisors, zero numerators, unequal
    # truncations and both unit constant terms
    rng = random.Random(39)
    switched = never = 0
    for case in range(400):
        c0 = (1, -1)[case % 2]
        den_density = (0.05, 0.3, 1.0)[case % 3]
        top_size, den_size = rng.randint(1, 60), rng.randint(1, 60)
        den = _random_series(rng, den_size, den_density, c0)
        if case % 5 == 0:
            top = [0] * top_size
        elif case % 5 == 1:
            # a sparse quotient times the divisor, so the quotient stays sparse
            quotient = _random_series(rng, top_size, 0.05)
            top = [sum(quotient[j] * den[i - j] for j in range(i + 1) if i - j < den_size)
                   for i in range(top_size)]
        else:
            top = _random_series(rng, top_size, rng.random())
        expected = _schoolbook_div(top, den)
        got = TruncatedSeries(top) / TruncatedSeries(den)
        assert got.coeffs == tuple(expected), (case, top, den)
        terms = sum(1 for c in den[1 : len(expected)] if c)
        if sum(1 for c in expected if c) > terms > 0:
            switched += 1
        else:
            never += 1
    assert switched > 50 and never > 50, (switched, never)


_ints = st.integers(-50, 50)
_fractions = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))


@st.composite
def _series_pair(draw):
    """(a, b) of one truncation; b's constant term is a unit, 1 or -1."""
    n = draw(st.integers(0, 12))
    a = draw(st.lists(_ints, min_size=n + 1, max_size=n + 1))
    b = [draw(st.sampled_from([1, -1]))] + draw(st.lists(_ints, min_size=n, max_size=n))
    return TruncatedSeries(a), TruncatedSeries(b)


@settings(max_examples=150, deadline=None)
@given(_series_pair(), _ints.filter(lambda c: c not in (-1, 0, 1)))
def test_series_product_divides_back_integers(pair, non_unit):
    a, b = pair
    quotient = (a * b) / b
    assert quotient == a
    assert all(type(c) is int for c in quotient.coeffs)
    # any other nonzero constant term is refused, and named
    divisor = TruncatedSeries((non_unit,) + b.coeffs[1:])
    with pytest.raises(ArithmeticError, match=f"constant term {non_unit}, not 1 or -1"):
        a / divisor


@settings(max_examples=150, deadline=None)
@given(st.lists(_fractions, max_size=6).map(lambda cs: q(*cs)),
       st.lists(_fractions, min_size=1, max_size=4).map(lambda cs: q(*cs)))
def test_polynomial_product_divides_back_fractions(a, b):
    # divmod over the rationals stays, although series and rational functions are integer
    if b:
        assert divmod(a * b, b) == (a, q())


_any_poly = st.lists(_ints, max_size=5).map(lambda cs: q(*cs))
_nonzero_head = st.builds(lambda c0, rest: q(c0, *rest), _ints.filter(bool), st.lists(_ints, max_size=4))
_unit_head = st.builds(lambda c0, rest: q(c0, *rest), st.sampled_from([1, -1]), st.lists(_ints, max_size=4))


@settings(max_examples=200, deadline=None)
@given(_any_poly, _unit_head, _nonzero_head)
def test_rational_function_canonical_form_by_cross_multiplication(p, r, common):
    """RationalFunction(p, r) against the fraction p/r it was built from.

    n/d == p/r exactly when n*r == d*p, so the canonical form, reduced by the
    primitive gcd and the joint content, is compared with the unreduced pair.
    Building it from p*c and r*c, where c may carry content and any sign,
    must reduce to the same form.  r has constant term 1 or -1, so both sides
    also expand as integer series.
    """
    rf = RationalFunction(p, r)
    assert rf.num * r == rf.den * p
    assert rf.den.coeffs[-1] > 0 and gcd(*rf.num.coeffs, *rf.den.coeffs) == 1
    assert RationalFunction(p * common, r * common) == rf
    expected = TruncatedSeries.from_polynomial(p, 20) / TruncatedSeries.from_polynomial(r, 20)
    assert series_expand(rf, 20) == expected


def test_series_coefficients_are_ints_where_integral():
    # every coefficient is an int as given; a Fraction, even an integral one, is refused
    for coeffs in ([Fraction(2), 3], [1, Fraction(1, 2)], [1, 2.0]):
        with pytest.raises(TypeError):
            TruncatedSeries(coeffs)
    with pytest.raises(TypeError):
        TruncatedSeries.from_polynomial(q(1, Fraction(1, 2)), 3)
    expanded = series_expand(RationalFunction(q(1), q(1, -1)), 4)
    assert all(type(c) is int for c in expanded.coeffs)
    # a constant term other than +-1 is not a unit of Z[[q]]: no Fraction fallback
    with pytest.raises(ArithmeticError, match="constant term 2, not 1 or -1"):
        TruncatedSeries([1, 0, 0]) / TruncatedSeries([2, 0, 0])
    with pytest.raises(ArithmeticError, match="constant term -3, not 1 or -1"):
        series_expand(RationalFunction(q(1), q(-3, 1)), 4)


def test_first_negative_coefficient():
    assert TruncatedSeries([1, 1, 1]).first_negative() is None
    # q^5 (1+q^2) / (1 - q^6 + q^12): sign first turns at degree 23
    rf = RationalFunction(
        q(0, 0, 0, 0, 0, 1, 0, 1),
        q(1, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0, 0, 1),
    )
    series = series_expand(rf, 30)
    assert series.first_negative() == 23
    assert series.coeffs[23] < 0
    # q^3 (1+q+q^2) / (1 + q - q^3 - q^4 - q^5 + q^7 + q^8): turns at 18
    rf = RationalFunction(q(0, 0, 0, 1, 1, 1), q(1, 1, 0, -1, -1, -1, 0, 1, 1))
    assert series_expand(rf, 30).first_negative() == 18


def _random_scalar(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return 0
    if kind == 1:
        return rng.choice((1, -1))
    if kind == 2:
        return rng.randint(-30, 30)
    return Fraction(rng.randint(-30, 30), rng.randint(1, 12))


def test_printed_sums_parse_back_to_their_coefficients():
    # sympy reads each printed string (^ as **, each v[w] a symbol) and must
    # find exactly the coefficients of the printed value
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2107)
    for _ in range(300):
        var = rng.choice("qx")
        p = Polynomial(var, [_random_scalar(rng) for _ in range(rng.randint(0, 7))])
        parsed = sympy.Poly(sympy.sympify(str(p).replace("^", "**")), sympy.Symbol(var))
        got = [Fraction(str(c)) for c in reversed(parsed.all_coeffs())]
        assert got == (list(p.coeffs) or [0]), str(p)

        n = rng.randint(0, 5)
        names = {f"v[{2 * i - n}]": sympy.Symbol(f"v{i}") for i in range(n + 1)}
        terms = {
            tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(n + 1)): _random_scalar(rng)
            for _ in range(rng.randint(0, 6))
        }
        element = SymElement(n, terms)
        text = str(element).replace("^", "**")
        for name, symbol in names.items():
            text = text.replace(name, symbol.name)
        parsed = sympy.Poly(sympy.sympify(text), *names.values())
        got = {m: Fraction(str(c)) for m, c in parsed.terms() if c != 0}
        assert got == element.terms, str(element)


@pytest.mark.parametrize(
    "value, text",
    [
        (Polynomial("x", ()), "0"),
        (Polynomial("x", (0, -1)), "-x"),
        (Polynomial("q", (-3,)), "-3"),
        (Polynomial("q", (1, 0, -1)), "1 - q^2"),
        (Polynomial("x", (Fraction(-5, 2), -1, 1)), "-5/2 - x + x^2"),
        (SymElement(4), "0"),
        (SymElement(4, {(0,) * 5: -3}), "-3"),
        (SymElement(2, {(0, 0, 0): 1, (1, 0, 1): -1}), "1 - v[-2]*v[2]"),
        (
            SymElement(4, {(0, 0, 3, 0, 0): 1, (0, 1, 1, 1, 0): Fraction(-9, 2), (0, 2, 0, 0, 1): 7}),
            "v[0]^3 - 9/2*v[-2]*v[0]*v[2] + 7*v[-2]^2*v[4]",
        ),
    ],
)
def test_printed_sum_edge_cases(value, text):
    assert str(value) == text


def _fraction_origins(run):
    """Counter of the innermost package function, as "module.qualname", under
    each Fraction construction while ``run()`` runs.

    ``Fraction.__new__`` and, where Python has it, ``_from_coprime_ints`` are
    patched as perfbench's tracer patches them; a construction inside
    ``fractions`` itself, such as the result of Fraction arithmetic, counts
    for the package frame that called into it.
    """
    package = str(Path(exact.__file__).parent)
    origins = Counter()

    def record():
        frame = sys._getframe(2)
        while frame is not None and not frame.f_code.co_filename.startswith(package):
            frame = frame.f_back
        code = frame and frame.f_code
        origins[code and f"{Path(code.co_filename).stem}.{getattr(code, 'co_qualname', code.co_name)}"] += 1

    original_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        record()
        return original_new(cls, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Fraction, "__new__", staticmethod(counting_new))
        coprime = vars(Fraction).get("_from_coprime_ints")
        if coprime is not None:  # Python >= 3.12 builds results without __new__
            def counting_coprime(cls, numerator, denominator):
                record()
                return coprime.__func__(cls, numerator, denominator)

            patch.setattr(Fraction, "_from_coprime_ints", classmethod(counting_coprime))
        run()
    return origins


def _series_traffic():
    """``verify all --quick``, the 73 closed forms expanded to degree 60, and
    the freeness quotients at k = 5 and 6."""
    genfun.clear_memo_caches()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        cli.main(["verify", "all", "--quick"])
    forms = [(k, l) for k in range(7) for l in range(13) if genfun.has_closed_form(k, l)]
    assert len(forms) == 73
    for k, l in forms:
        series_expand(genfun.f_closed(k, l), 60)
    for k in (5, 6):
        for l in range(13):
            genfun.freeness_quotient(k, l, 60)


def _unexpected(origins):
    """The origins other than polynomial division over Q and ``symalg``'s C3 arithmetic."""
    return sorted(o for o in origins if o != "exact.Polynomial.__divmod__" and not o.startswith("symalg."))


def test_fractions_come_only_from_divmod_and_symalg():
    origins = _fraction_origins(_series_traffic)
    # the recorder sees both kinds that stay
    assert origins["exact.Polynomial.__divmod__"] > 0 and origins["symalg.build_C3"] > 0
    assert _unexpected(origins) == []


def test_fraction_origin_guard_sees_a_planted_scaling(monkeypatch):
    original = RationalFunction.__init__

    def planted(self, num, den):
        # the monic rule's Fraction(1, lead) scaling, back in; the values stay integral
        original(self, num, den)
        lead = Fraction(1, self.den.coeffs[-1])
        self.num, self.den = self.num * lead, self.den * lead

    monkeypatch.setattr(RationalFunction, "__init__", planted)
    unexpected = _unexpected(_fraction_origins(_series_traffic))
    assert {"genfun._closed_k5", "genfun.f_closed"} <= set(unexpected)
