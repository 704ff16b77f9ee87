from collections import Counter

import pytest

from galilei import quiver, sl2rep, verify
from galilei.cli import RADICAL_MAX_DEPTH
from galilei.sl2rep import V, Vp, hc_tensor


def composition_multiset(filtration):
    total = Counter()
    for layer in filtration:
        total.update(layer)
    return total


def all_simples(max_index):
    return [Vp(0), Vp(2)] + [V(n) for n in range(1, max_index + 1)]


def block_of(s):
    """Block number: 1 for odd V(n), 2 for n = 2 (mod 4), 3 for the diamond."""
    if s.primed:
        return 3
    if s.index % 2 == 1:
        return 1
    return 2 if s.index % 4 == 2 else 3


def test_block_assignment():
    assert block_of(V(7)) == 1
    assert block_of(V(1)) == 1
    assert block_of(V(2)) == 2
    assert block_of(V(10)) == 2
    assert block_of(V(4)) == 3
    assert block_of(Vp(0)) == 3
    assert block_of(Vp(2)) == 3


def test_ext_dimensions():
    # dim Ext^1(s, t) is 1 exactly when the quiver has an arrow s -> t
    assert V(5) in quiver.arrows_from(V(1))
    assert V(2) in quiver.arrows_from(V(2))
    assert V(7) not in quiver.arrows_from(V(1))
    assert V(3) in quiver.arrows_from(V(1))
    assert V(7) in quiver.arrows_from(V(3))
    assert V(4) in quiver.arrows_from(Vp(0))
    assert Vp(2) in quiver.arrows_from(V(4))
    assert Vp(2) not in quiver.arrows_from(Vp(0))
    assert V(8) in quiver.arrows_from(V(4))
    assert V(4) not in quiver.arrows_from(V(2))  # different blocks
    assert V(6) not in quiver.arrows_from(V(6))  # no loop away from V(2)


def _case_split_arrows(s):
    """Arrows out of s by the paper's per-block case split, as the package
    stated it before the reflection rule: the oracle that the rule reproduces."""
    if s.primed:
        return [V(4)]
    n = s.index
    if n % 2 == 1:
        targets = []
        if n - 4 >= 1:
            targets.append(V(n - 4))
        if n == 1:
            targets.append(V(3))
        if n == 3:
            targets.append(V(1))
        targets.append(V(n + 4))
        return sorted(targets)
    if n % 4 == 2:
        if n == 2:
            return [V(2), V(6)]  # loop, then along the half-line
        return [V(n - 4), V(n + 4)]
    if n == 4:
        return [Vp(0), Vp(2), V(8)]
    return [V(n - 4), V(n + 4)]


def test_reflection_rule_matches_the_case_split():
    for s in all_simples(400):
        assert quiver.arrows_from(s) == _case_split_arrows(s), str(s)


def test_planted_unreflected_arrow_fails_criterion_9(monkeypatch):
    # V(n) -> V(max(n - 4, 1)) in place of V(|n - 4|): V(1) loses its arrow
    # to V(3) and V(2) its loop, and both point to V(1) instead
    names = ["first radical layers of P(1)..P(5)", "path-counted filtrations match the branch picture"]

    def passed():
        return [v.passed for v in verify.check_quivers() if any(v.name.startswith(n) for n in names)]

    assert passed() == [True, True] and all(v.passed for v in verify.check_quivers())
    original = quiver.arrows_from

    def planted(s):
        if s.primed or s == V(4):
            return original(s)
        return [V(max(s.index - 4, 1)), V(s.index + 4)]

    monkeypatch.setattr(quiver, "arrows_from", planted)
    assert passed() == [False, False]
    assert sum(not v.passed for v in verify.check_quivers()) == 2


def test_arrows_are_symmetric_between_distinct_vertices():
    for s in all_simples(24):
        for t in all_simples(24):
            if s != t:
                assert (t in quiver.arrows_from(s)) == (s in quiver.arrows_from(t))


def test_arrows_stay_in_block():
    for s in all_simples(20):
        for t in quiver.arrows_from(s):
            assert block_of(t) == block_of(s)


def test_primed_projectives_uniserial():
    for top in (Vp(0), Vp(2)):
        filtration = quiver.radical_filtration(top, 10)
        assert filtration[0] == Counter({top: 1})
        for l in range(1, 11):
            assert filtration[l] == Counter({V(4 * l): 1})


def test_printed_filtration_examples():
    f = quiver.radical_filtration(Vp(0), 3)
    assert f == [
        Counter({Vp(0): 1}),
        Counter({V(4): 1}),
        Counter({V(8): 1}),
        Counter({V(12): 1}),
    ]
    f = quiver.radical_filtration(V(4), 1)
    assert f[1] == Counter({Vp(0): 1, Vp(2): 1, V(8): 1})
    f = quiver.radical_filtration(V(2), 2)
    assert f == [
        Counter({V(2): 1}),
        Counter({V(2): 1, V(6): 1}),
        Counter({V(6): 1, V(10): 1}),
    ]


def test_first_layers():
    expected = {
        1: Counter({V(3): 1, V(5): 1}),
        2: Counter({V(2): 1, V(6): 1}),
        3: Counter({V(1): 1, V(7): 1}),
        4: Counter({Vp(0): 1, Vp(2): 1, V(8): 1}),
    }
    for k, want in expected.items():
        assert quiver.radical_filtration(V(k), 1)[1] == want
    for k in range(5, 14):
        want = Counter({V(k - 4): 1, V(k + 4): 1})
        assert quiver.radical_filtration(V(k), 1)[1] == want


def test_branch_endings_to_depth_forty_and_at_the_depth_limit():
    # the four endings, depending on the top index mod 4
    for top in all_simples(24):
        assert quiver.radical_filtration(top, 40) == quiver.expected_filtration(top, 40), str(top)
    for top in (Vp(0), V(1), V(4), V(1001)):
        computed = quiver.radical_filtration(top, RADICAL_MAX_DEPTH)
        assert computed == quiver.expected_filtration(top, RADICAL_MAX_DEPTH), str(top)


def test_planted_arrow_defect_fails_criterion_9(monkeypatch):
    name = "path-counted filtrations match the branch picture"
    assert all(v.passed for v in verify.check_quivers() if v.name.startswith(name))
    original = quiver.arrows_from

    def planted(s):
        targets = original(s)
        return [t for t in targets if t != V(8)] if s == V(4) else targets

    monkeypatch.setattr(quiver, "arrows_from", planted)
    verdicts = [v for v in verify.check_quivers() if v.name.startswith(name)]
    assert len(verdicts) == 1 and not verdicts[0].passed
    # the first top whose paths pass through V(4) -> V(8) is V'(0)
    got = [Counter({Vp(0): 1}), Counter({V(4): 1})] + [Counter()] * 7
    expected = [Counter({Vp(0): 1})] + [Counter({V(4 * l): 1}) for l in range(1, 9)]
    assert verdicts[0].detail == f"5 failing; first at V'(0): got {got}, expected {expected}"
    # the primed projectives lose every layer from the second on, 7 each
    uniserial = next(v for v in verify.check_quivers() if v.name.startswith("both primed projectives"))
    assert uniserial.detail == "14 failing; first at (V'(0), 2): got Counter(), expected Counter({V(8): 1})"


def test_planted_unidentified_two_cycles_fail_criterion_9(monkeypatch):
    # the rule before the identification: both 2-cycles at V(4) through a
    # primed vertex survive, so the layers below V(4) double
    name = "path-counted filtrations match the branch picture"

    def both_cycles_survive(u, v, w):
        if u == w:
            return w == V(4) and v.primed
        return not (u.primed and w.primed and v == V(4))

    monkeypatch.setattr(quiver, "_triple_survives", both_cycles_survive)
    verdicts = [v for v in verify.check_quivers() if v.name.startswith(name)]
    assert len(verdicts) == 1 and not verdicts[0].passed
    # V(4), V(8) and V(12) fail; below layer 1 of P(4) every left-branch simple comes twice
    top = [Counter({V(4): 1}), Counter({Vp(0): 1, Vp(2): 1, V(8): 1})]
    got = top + [Counter({V(4 * l - 4): 2, V(4 * l + 4): 1}) for l in range(2, 9)]
    expected = top + [Counter({V(4 * l - 4): 1, V(4 * l + 4): 1}) for l in range(2, 9)]
    assert verdicts[0].detail == f"3 failing; first at V(4): got {got}, expected {expected}"


def test_composition_multisets():
    # odd projectives: every odd simple exactly once
    total = composition_multiset(quiver.radical_filtration(V(5), 24))
    for n in (1, 3, 5, 9, 13):
        assert total[V(n)] == 1
    # P(2 mod 4): doubled even simples
    total = composition_multiset(quiver.radical_filtration(V(2), 20))
    assert total[V(2)] == 2 and total[V(6)] == 2 and total[V(10)] == 2
    # P(0 mod 4): both primed once, doubled V(4m)
    total = composition_multiset(quiver.radical_filtration(V(8), 24))
    assert total[Vp(0)] == 1 and total[Vp(2)] == 1
    assert total[V(4)] == 2 and total[V(8)] == 2 and total[V(12)] == 2


def test_g_type_bookkeeping_of_q0():
    depth = 10
    filtration = quiver.radical_filtration(Vp(0), depth)
    for l in range(0, 4 * depth + 1):
        total = 0
        for layer in filtration:
            for s, mult in layer.items():
                if l in sl2rep.g_types(s, l):
                    total += mult
        assert total == sl2rep.q0_multiplicity(l), l


def test_decompose_q():
    assert quiver.decompose_Q(0) == Counter({Vp(0): 1})
    assert quiver.decompose_Q(5) == Counter({V(1): 1, V(3): 1, V(5): 1})
    assert quiver.decompose_Q(6) == Counter({Vp(2): 1, V(2): 1, V(4): 1, V(6): 1})
    assert quiver.decompose_Q(8) == Counter(
        {Vp(0): 1, V(2): 1, V(4): 1, V(6): 1, V(8): 1}
    )
    # multiplicity of the projective with top W is the multiplicity of L(k)
    # among the types of W
    for k in range(0, 13):
        expected = Counter()
        for s in all_simples(k):
            if k in sl2rep.g_types(s, k):
                expected[s] += 1
        assert quiver.decompose_Q(k) == expected, k


def test_tensor_projective_identities():
    assert hc_tensor(1, Vp(0)) == Counter({V(1): 1})
    assert hc_tensor(1, V(1)) == Counter({Vp(0): 1, Vp(2): 1, V(2): 1})
    assert hc_tensor(2, V(1)) == Counter({V(1): 2, V(3): 1})
    # the odd ladder: L(2) x P(2k+1) = P(2k-1) + P(2k+1) + P(2k+3)
    for k in range(1, 6):
        got = hc_tensor(2, V(2 * k + 1))
        assert got == Counter({V(2 * k - 1): 1, V(2 * k + 1): 1, V(2 * k + 3): 1})
    # L(1) x P(k) = P(k-1) + P(k+1) for k >= 2
    for k in range(2, 8):
        got = hc_tensor(1, V(k))
        low = Counter({V(k - 1): 1}) if k - 1 >= 1 else Counter()
        assert got == low + Counter({V(k + 1): 1})


def test_radical_filtration_rejects_negative_depth():
    with pytest.raises(ValueError):
        quiver.radical_filtration(V(1), -1)
