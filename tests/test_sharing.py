"""Run-scoped sharing: ``exact.shared`` memoises only inside ``sharing()``,
one ``verify all`` computes each shared value once and leaves no memo
behind, and no consumer changes a value it was handed."""

import sys
from collections import Counter

import pytest

from galilei import exact, genfun, sl2rep, verify, younglat
from galilei.exact import Polynomial, RationalFunction, shared, sharing

SHARED = (genfun.f_closed, younglat.rank_at, sl2rep.hc_tensor)


def _counted():
    computed = Counter()

    @shared
    def square(n):
        computed[n] += 1
        return n * n

    return square, computed


def test_outside_sharing_every_call_recomputes():
    square, computed = _counted()
    assert [square(3), square(3), square(4)] == [9, 9, 16]
    assert computed == {3: 2, 4: 1}
    assert genfun.f_closed(5, 1) is not genfun.f_closed(5, 1)
    assert exact._memo is None


def test_inside_sharing_each_argument_is_computed_once():
    square, computed = _counted()
    with sharing():
        assert [square(3), square(3), square(4), square(3)] == [9, 9, 16, 9]
        assert genfun.f_closed(5, 1) is genfun.f_closed(5, 1)
    assert computed == {3: 1, 4: 1}
    square(3)
    assert computed == {3: 2, 4: 1}


def test_a_nested_block_reuses_the_outer_memo():
    square, computed = _counted()
    with sharing():
        closed = genfun.f_closed(6, 2)
        square(5)
        with sharing():
            assert genfun.f_closed(6, 2) is closed
            square(5)
            square(6)
        # the inner block's end leaves the outer memo as it was
        assert genfun.f_closed(6, 2) is closed
        square(6)
    assert computed == {5: 1, 6: 1}
    assert exact._memo is None


def test_an_error_is_not_memoised_and_the_block_still_ends():
    with pytest.raises(genfun.NoClosedFormError):
        with sharing():
            with pytest.raises(genfun.NoClosedFormError):
                genfun.f_closed(7, 0)
            assert all(fn is not genfun.f_closed.__wrapped__ for fn, _ in exact._memo)
            genfun.f_closed(7, 0)
    assert exact._memo is None


def test_verify_all_leaves_no_memo_and_a_later_plant_still_fails_criterion_1(monkeypatch):
    clean = verify.run_all(quick=True)
    assert exact._memo is None
    original = genfun._closed_k5

    def planted(l):
        if l != 0:
            return original(l)
        # the k=5, l=0 transcription with its q^16 numerator coefficient 1 -> 2
        num = Polynomial("q", (1, 0, 1, 0, 6, 0, 9, 0, 12, 0, 9, 0, 6, 0, 1, 0, 2))
        return RationalFunction(num, genfun.geometric_den(2, 2, 4, 6, 8))

    monkeypatch.setattr(genfun, "_closed_k5", planted)
    c1 = verify.run_criterion(1, quick=True)
    assert [v.passed for v in c1] == [k != 5 for k in range(7)]
    assert c1[5].detail == "8 failing; first at closed k=5 l=0 q^16: got 650, expected 649"
    # a second run shares nothing with the first, so it sees the plant too
    (number, _, again), *_ = verify.run_all(quick=True)
    assert number == 1 and again == c1
    assert clean[0][2] != c1


def test_one_run_computes_each_shared_value_once():
    names = {fn.__wrapped__.__code__: fn.__name__ for fn in SHARED}
    computed = Counter()

    def hook(frame, event, arg):
        code = frame.f_code
        if event == "call" and code in names:
            computed[names[code], tuple(frame.f_locals[a] for a in code.co_varnames[: code.co_argcount])] += 1

    sys.setprofile(hook)
    try:
        verify.run_all(quick=True)
    finally:
        sys.setprofile(None)
    assert set(computed.values()) == {1}
    # verify all --quick reads the 53 closed forms with l <= 8, the ranks for
    # n <= 9 and 93 tensor decompositions
    assert Counter(name for name, _ in computed) == {"f_closed": 53, "rank_at": 9, "hc_tensor": 93}


def test_every_value_a_run_shared_equals_a_fresh_call():
    with sharing():
        verify.run_all(quick=True)
        stored = dict(exact._memo)
    assert {fn for fn, _ in stored} == {fn.__wrapped__ for fn in SHARED}
    for (fn, args), value in stored.items():
        assert fn(*args) == value, (fn.__name__, args)
