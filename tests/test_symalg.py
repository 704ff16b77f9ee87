import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given
from hypothesis import strategies as st

from galilei import symalg, verify, younglat
from galilei.symalg import SymElement, adjoint_action as act


def _basis(n, i):
    """The basis vector of weight -n + 2i in Sym(L(n)), as a degree-1 element."""
    return SymElement(n, {tuple(int(j == i) for j in range(n + 1)): 1})


def _const(c):
    """The constant c of Sym(L(4)); a product with it scales an element by c."""
    return SymElement(4, {(0,) * 5: c})


def _sum(*elements):
    """The sum of elements of one Sym(L(n)), added term by term."""
    terms = {}
    for p in elements:
        for exps, c in p.terms.items():
            terms[exps] = terms.get(exps, 0) + c
    return SymElement(elements[0].n, terms)


def _degrees_and_weights(p):
    """The sets of degrees and of h-weights of p's monomials."""
    return {sum(e) for e in p.terms}, {p.monomial_weight(e) for e in p.terms}


def monomials_up_to(n, max_degree):
    for degree in range(max_degree + 1):
        for combo in combinations_with_replacement(range(n + 1), degree):
            exps = [0] * (n + 1)
            for i in combo:
                exps[i] += 1
            yield tuple(exps)


def weight_component_monomials(n, degree, weight):
    """All exponent tuples in Sym(L(n)) of the given degree and weight."""
    out = []

    def rec(i, left, w, acc):
        if i == n:
            # final slot has weight n
            if w == left * n and left >= 0:
                out.append(tuple(acc + [left]))
            return
        for e in range(left + 1):
            rec(i + 1, left - e, w - e * (-n + 2 * i), acc + [e])

    rec(0, degree, weight, [])
    return sorted(out)


def test_basis_action_examples():
    vm4, vm2, v0, v2, v4 = (_basis(4, i) for i in range(5))
    assert not act("e", v4)
    assert act("e", vm4) == vm2
    assert act("e", vm2) == SymElement(4, {(0, 0, 1, 0, 0): 2})
    assert act("f", v4) == v2
    assert not act("f", vm4)
    assert not act("h", vm2 * v2)
    assert act("h", v2 * v2) == SymElement(4, {(0, 0, 0, 2, 0): 4})


def test_sl2_relations_on_monomials():
    for exps in monomials_up_to(4, 4):
        m = SymElement(4, {exps: Fraction(1)})
        assert act("e", act("f", m)) - act("f", act("e", m)) == act("h", m)
        e, f = act("e", m), act("f", m)
        # [h,e] = 2e and [h,f] = -2f
        assert act("h", e) - act("e", act("h", m)) - e == e
        assert act("f", act("h", m)) - act("h", f) - f == f


def test_sl2_relations_other_ambient():
    # the action is defined for any ambient simple module
    for n in (2, 3, 5):
        for exps in monomials_up_to(n, 2):
            m = SymElement(n, {exps: Fraction(1)})
            assert act("e", act("f", m)) - act("f", act("e", m)) == act("h", m)


def test_leibniz_rule():
    rng = random.Random(4242)

    def random_element():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            exps = tuple(rng.randint(0, 2) for _ in range(5))
            terms[exps] = Fraction(rng.randint(-3, 3))
        return SymElement(4, terms)

    for generator in ("e", "f", "h"):
        for _ in range(25):
            p, q = random_element(), random_element()
            lhs = act(generator, p * q)
            rhs = _sum(act(generator, p) * q, p * act(generator, q))
            assert lhs == rhs


def test_degree_and_weight_shifts():
    for exps in monomials_up_to(4, 3):
        m = SymElement(4, {exps: Fraction(1)})
        (degree,), (weight,) = _degrees_and_weights(m)
        raised = act("e", m)
        if raised:
            assert _degrees_and_weights(raised) == ({degree}, {weight + 2})


def test_invariants():
    c2, c3 = symalg.build_C2(), symalg.build_C3()
    assert _degrees_and_weights(c2) == ({2}, {0})
    assert _degrees_and_weights(c3) == ({3}, {0})
    assert not act("e", c2) and not act("f", c2)
    assert not act("e", c3) and not act("f", c3)
    assert symalg.is_invariant(c2 * c3)
    assert symalg.is_invariant(SymElement(4, {(0,) * 5: 1}))
    assert not symalg.is_invariant(_basis(4, 2))


def test_invariant_tables_match_products_of_basis_vectors():
    """The term tables of C2 and C3 against their construction as sums of
    scaled products of basis vectors, coefficient types included."""
    vm4, vm2, v0, v2, v4 = (_basis(4, i) for i in range(5))
    c2 = _sum(v0 * v0, _const(-3) * vm2 * v2, _const(12) * vm4 * v4)
    c3 = _sum(
        v0 * v0 * v0,
        _const(Fraction(-9, 2)) * vm2 * v0 * v2,
        _const(Fraction(27, 2)) * vm2 * vm2 * v4,
        _const(Fraction(27, 2)) * vm4 * v2 * v2,
        _const(-36) * vm4 * v0 * v4,
    )

    def typed(element):
        return {exps: (c, type(c)) for exps, c in element.terms.items()}

    assert typed(symalg.build_C2()) == typed(c2) == {
        (0, 0, 2, 0, 0): (1, int),
        (0, 1, 0, 1, 0): (-3, int),
        (1, 0, 0, 0, 1): (12, int),
    }
    assert typed(symalg.build_C3()) == typed(c3) == {
        (0, 0, 3, 0, 0): (1, int),
        (0, 1, 1, 1, 0): (Fraction(-9, 2), Fraction),
        (0, 2, 0, 0, 1): (Fraction(27, 2), Fraction),
        (1, 0, 0, 2, 0): (Fraction(27, 2), Fraction),
        (1, 0, 1, 0, 1): (-36, int),
    }


def test_independence_small_cases():
    assert symalg.independence_check(1) == 1
    vectors = symalg.independence_vectors(2)
    v_m4, v_m2, v_0 = (_basis(4, i) for i in range(3))
    assert vectors[0] == v_m2 * v_m2
    # e(v_{-4} v_{-2}) = v_{-2}^2 + 2 v_{-4} v_0
    assert vectors[1] == _sum(v_m2 * v_m2, SymElement(4, {(1, 0, 1, 0, 0): 2}))


def _failing_invariance_items():
    return [v.name for v in verify.invariance_verdicts(symalg.build_C2(), symalg.build_C3()) if not v.passed]


def test_planted_lowering_defect_fails_the_sl2_relations_and_invariance(monkeypatch):
    original = symalg._lower_coefficient
    monkeypatch.setattr(
        symalg, "_lower_coefficient", lambda n, weight: original(n, weight) + (weight == 2)
    )
    verdicts = {v.name: v for v in verify.check_symmetric_algebra(k_max=5)}
    relations = verdicts["derivations satisfy the sl2 relations on all monomials of degree <= 4"]
    assert not relations.passed
    assert relations.detail == "80 failing; first at ((0, 0, 0, 1, 0), '[e,f]'): got 5*v[2], expected 2*v[2]"
    invariance = verdicts["C2 and C3 are invariants (degree 2 and 3, weight 0, killed by e and f)"]
    assert not invariance.passed
    assert invariance.detail == "3 failing; first at f kills C2: got FAIL (-3*v[-2]*v[0]), expected PASS"
    assert _failing_invariance_items() == ["f kills C2", "f kills C3", "product C2*C3 is invariant"]
    # f never enters the raisings, so both independence verdicts still pass
    assert verdicts["iterated raisings are independent for 1 <= k <= 5"].passed
    assert verdicts["independence ranks agree with the path-matrix ranks"].passed


def test_planted_raising_defect_fails_the_sl2_relations_and_invariance(monkeypatch):
    # adjoint_action reads its steps from the module's coefficient functions
    # on every call, so a defect planted after import still shows
    original = symalg._raise_coefficient
    monkeypatch.setattr(
        symalg, "_raise_coefficient", lambda n, weight: original(n, weight) + (weight == 0)
    )
    verdicts = {v.name: v for v in verify.check_symmetric_algebra(k_max=5)}
    relations = verdicts["derivations satisfy the sl2 relations on all monomials of degree <= 4"]
    assert not relations.passed
    assert relations.detail == "80 failing; first at ((0, 0, 0, 1, 0), '[e,f]'): got 4*v[2], expected 2*v[2]"
    invariance = verdicts["C2 and C3 are invariants (degree 2 and 3, weight 0, killed by e and f)"]
    assert invariance.detail == "3 failing; first at e kills C2: got FAIL (2*v[0]*v[2]), expected PASS"
    assert _failing_invariance_items() == ["e kills C2", "e kills C3", "product C2*C3 is invariant"]
    # a nonzero raising coefficient only rescales coordinates, so the ranks hold
    assert verdicts["iterated raisings are independent for 1 <= k <= 5"].passed


def test_criterion_6_applies_nine_actions_per_relation_monomial(monkeypatch):
    # e, f and h of each monomial once, then the six images of the three
    # commutators; the raisings apply e i times to the i-th start monomial
    phase = ["relations"]
    calls = []
    original = symalg.adjoint_action

    def counting(generator, p):
        calls.append(phase[0])
        return original(generator, p)

    def entering(name, fn):
        def wrapped(*args):
            phase[0] = name
            return fn(*args)
        return wrapped

    monkeypatch.setattr(symalg, "adjoint_action", counting)
    invariance, independence = verify.invariance_verdicts, symalg.independence_check
    monkeypatch.setattr(verify, "invariance_verdicts", entering("invariance", invariance))
    monkeypatch.setattr(symalg, "independence_check", entering("raisings", independence))
    k_max = 5
    assert all(v.passed for v in verify.check_symmetric_algebra(k_max=k_max))
    monomials = len(list(monomials_up_to(4, 4)))
    assert monomials == 126
    assert calls.count("relations") == 9 * monomials
    assert calls.count("invariance") == 6
    assert calls.count("raisings") == sum(k * (k - 1) // 2 for k in range(1, k_max + 1))


def test_independence_vectors_match_the_power_chain_construction():
    v_m4, v_m2 = _basis(4, 0), _basis(4, 1)
    for k in range(1, 13):
        for i, got in enumerate(symalg.independence_vectors(k)):
            p = SymElement(4, {(0,) * 5: 1})
            for factor in [v_m4] * i + [v_m2] * (k - i):
                p = p * factor
            for _ in range(i):
                p = act("e", p)
            assert got.terms == p.terms, (k, i)


def test_independence_range_and_rank_agreement():
    for k in range(1, 13):
        rank = symalg.independence_check(k)
        assert rank == k
        assert rank == younglat.rank_at(k)


def test_independence_vectors_live_in_one_component():
    for k in (3, 5, 8):
        for p in symalg.independence_vectors(k):
            assert _degrees_and_weights(p) == ({k}, {-2 * k})


def test_weight_component_enumeration():
    # cross-check the monomial enumeration against the counting series
    from galilei import genfun

    for k, n, l in [(4, 3, -6), (4, 5, -10), (2, 4, 0)]:
        monos = weight_component_monomials(k, n, l)
        assert len(monos) == int(genfun.f_enum(k, abs(l), n).coeffs[n])
        assert len(set(monos)) == len(monos)


_ints = st.integers(-6, 6)
_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


def _elements(coeff):
    exps = st.tuples(*[st.integers(0, 2)] * 5)
    return st.dictionaries(exps, coeff, max_size=3).map(lambda t: SymElement(4, t))


def _assert_exact_coefficients(p):
    for c in p.terms.values():
        assert type(c) is int or (isinstance(c, Fraction) and c.denominator != 1), c


@given(st.data(), st.sampled_from(["int", "fraction"]))
def test_sym_element_arithmetic_keeps_ints(data, kind):
    coeff = _ints if kind == "int" else st.one_of(_ints, _fractions)
    p, q = data.draw(_elements(coeff)), data.draw(_elements(coeff))
    c = data.draw(coeff)
    results = [p - q, p * q, _const(c) * p]
    for generator in ("e", "f", "h"):
        lhs = act(generator, p * q)
        assert lhs == _sum(act(generator, p) * q, p * act(generator, q))
        results.append(lhs)
    for r in results:
        _assert_exact_coefficients(r)
        if kind == "int":
            assert all(type(v) is int for v in r.terms.values())


def test_float_and_string_scalars_are_rejected():
    with pytest.raises(TypeError):
        SymElement(4, {(1, 0, 0, 0, 0): 0.1})
    with pytest.raises(TypeError):
        _const("1/3")
    with pytest.raises(TypeError):
        _const(0.5)
