import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    assert q().is_zero
    assert q(0, 0).is_zero
    assert q(3).degree == 0
    assert (q(1, 1) * q(1, -1)) == q(1, 0, -1)


def test_polynomial_divmod_and_gcd():
    a = q(1, 0, -1)  # 1 - q^2
    b = q(1, -1)  # 1 - q
    quot, rem = divmod(a, b)
    assert rem.is_zero and quot == q(1, 1)
    g = polynomial_gcd(q(-1, 0, 0, 0, 1), q(1, 0, -1))  # q^4-1 vs 1-q^2
    assert g == q(-1, 0, 1).monic()
    # gcd of coprime polynomials is 1
    assert polynomial_gcd(q(1, 1), q(1, 0, 1)) == q(1)


def _to_sympy(sympy, p):
    coeffs = [sympy.Rational(str(c)) for c in reversed(p.coeffs)] or [0]
    return sympy.Poly(coeffs, sympy.Symbol("q"), domain=sympy.QQ)


def _sympy_monic_gcd(sympy, a, b):
    g = _to_sympy(sympy, a).gcd(_to_sympy(sympy, b))
    g = g if g.is_zero else g.monic()
    return q(*(Fraction(str(c)) for c in reversed(g.all_coeffs())))


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
    # a Fraction coefficient takes the Euclid over the rationals
    half = q(Fraction(1, 2), 0, Fraction(-3, 4))
    cases += [(half * q(1, 1), q(-2, 0, 3) * q(2, -1)), (q(1, 1), half)]
    for a, b in cases:
        assert polynomial_gcd(a, b) == _sympy_monic_gcd(sympy, a, b), (a, b)
    assert polynomial_gcd(half * q(1, 1), q(-2, 0, 3) * q(2, -1)) == q(Fraction(-2, 3), 0, 1)


def test_polynomial_divmod_property():
    rng = random.Random(31)
    for _ in range(80):
        a = q(*[rng.randint(-5, 5) for _ in range(rng.randint(0, 7))])
        b = q(*[rng.randint(-5, 5) for _ in range(rng.randint(1, 4))])
        if b.is_zero:
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
    assert (a - a).is_zero and a + (-a) == q()
    results = [a + b, a * b, a - c, a * (b + c)]
    if not b.is_zero:
        quot, rem = divmod(a, b)
        assert quot * b + rem == a
        assert rem.degree < b.degree
        results += [quot, rem, b.monic()]
    for p in (a, b, c, *results):
        assert _ints_where_integral(p)
        assert _ints_where_integral(q(p(3), p(Fraction(1, 2))))
    if kind == "int":
        assert all(type(p(t)) is int for p in (a, b, a * b) for t in range(-3, 4))


def test_polynomial_divisions_stay_exact():
    # a bare / on two ints would give floats; every division is exact
    quot, rem = divmod(q(1, 0, 1), q(0, 2))
    assert quot == q(0, Fraction(1, 2)) and rem == q(1)
    assert q(3, 6).monic().coeffs == (Fraction(1, 2), 1)
    assert q(4, 6).scale(Fraction(1, 2)).coeffs == (2, 3)
    rf = RationalFunction(q(1), q(1, 3))
    assert rf.num.coeffs == (Fraction(1, 3),) and rf.den.coeffs == (Fraction(1, 3), 1)
    assert [type(c) for c in RationalFunction(q(2, 4), q(-2, 2)).num.coeffs] == [int, int]


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
        if den.is_zero:
            continue
        rf = RationalFunction(num, den)
        again = RationalFunction(rf.num, rf.den)
        assert rf == again
        assert rf.den.coeffs[-1] == 1 or rf.num.is_zero
        assert polynomial_gcd(rf.num, rf.den).degree <= 0


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
            den = q(rng.choice([1, 2, -1]), *[rng.randint(-3, 3) for _ in range(rng.randint(0, 3))])
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


_ints = st.integers(-50, 50)
_fractions = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))


@st.composite
def _series_pair(draw, coeff):
    """(a, b) of one truncation; b's constant term includes -1 and 2."""
    n = draw(st.integers(0, 12))
    a = draw(st.lists(coeff, min_size=n + 1, max_size=n + 1))
    c0 = draw(st.one_of(st.sampled_from([1, -1, 2]), coeff.filter(bool)))
    b = [c0] + draw(st.lists(coeff, min_size=n, max_size=n))
    return TruncatedSeries(a), TruncatedSeries(b)


@settings(max_examples=150, deadline=None)
@given(_series_pair(_ints))
def test_series_product_divides_back_integers(pair):
    a, b = pair
    quotient = (a * b) / b
    assert quotient == a
    if b.coeffs[0] in (1, -1):
        assert all(type(c) is int for c in quotient.coeffs)


@settings(max_examples=150, deadline=None)
@given(_series_pair(_fractions))
def test_series_product_divides_back_fractions(pair):
    a, b = pair
    assert (a * b) / b == a


_any_poly = st.lists(_ints, max_size=5).map(lambda cs: q(*cs))
_unit_head = st.builds(lambda c0, rest: q(c0, *rest), _ints.filter(bool), st.lists(_ints, max_size=4))


@settings(max_examples=200, deadline=None)
@given(_any_poly, _unit_head, _unit_head)
def test_rational_function_canonical_form_by_cross_multiplication(p, r, common):
    """RationalFunction(p, r) against the fraction p/r it was built from.

    n/d == p/r exactly when n*r == d*p, so the canonical form, reduced by the
    gcd over the rationals, is compared with the unreduced pair.  Building it
    from p*c and r*c must reduce to the same form.  r has a nonzero constant
    term, so both sides also expand as series.
    """
    rf = RationalFunction(p, r)
    assert rf.num * r == rf.den * p
    assert RationalFunction(p * common, r * common) == rf
    expected = TruncatedSeries.from_polynomial(p, 20) / TruncatedSeries.from_polynomial(r, 20)
    assert series_expand(rf, 20) == expected


def test_series_coefficients_are_ints_where_integral():
    series = TruncatedSeries([Fraction(2), 3, Fraction(1, 2)])
    assert [type(c) for c in series.coeffs] == [int, int, Fraction]
    expanded = series_expand(RationalFunction(q(1), q(1, -1)), 4)
    assert all(type(c) is int for c in expanded.coeffs)
    # a constant term other than +-1 falls back to exact Fractions
    halves = TruncatedSeries([1, 0, 0]) / TruncatedSeries([2, 0, 0])
    assert halves.coeffs == (Fraction(1, 2), 0, 0)


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
