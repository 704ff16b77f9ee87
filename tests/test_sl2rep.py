import random
import sys
from collections import Counter
from itertools import combinations_with_replacement
from math import comb

import pytest

from galilei import genfun, sl2rep, verify
from galilei.exact import TruncatedSeries, sharing
from galilei.sl2rep import SimpleHC, V, Vp


def brute_sym_weight_dims(k, n):
    """Count degree-n monomials in the weight vectors of L(k) by weight."""
    weights = [k - 2 * i for i in range(k + 1)]
    counts = Counter()
    for combo in combinations_with_replacement(weights, n):
        counts[sum(combo)] += 1
    return counts


def peel(weight_counts):
    """Highest-weight peeling: multiplicity of L(l) is dim_l - dim_{l+2}."""
    out = {}
    top = max(weight_counts, default=0)
    for l in range(top, -1, -1):
        m = weight_counts.get(l, 0) - weight_counts.get(l + 2, 0)
        if m:
            out[l] = m
    return out


def test_simple_labels():
    assert str(Vp(0)) == "V'(0)" and str(V(3)) == "V(3)"
    assert SimpleHC.parse("V'(2)") == Vp(2)
    assert SimpleHC.parse("V(10)") == V(10)
    with pytest.raises(ValueError):
        Vp(1)
    with pytest.raises(ValueError):
        V(0)
    with pytest.raises(ValueError):
        SimpleHC.parse("W(3)")


#: sorted() of every label up to V(12), as recorded from the dataclass labels
LABEL_ORDER = ["V(1)", "V(2)", "V(3)", "V(4)", "V(5)", "V(6)", "V(7)", "V(8)", "V(9)",
               "V(10)", "V(11)", "V(12)", "V'(0)", "V'(2)"]


def test_simple_label_value_semantics():
    labels = [Vp(0), Vp(2)] + [V(n) for n in range(1, 13)]
    copies = [SimpleHC(s.primed, s.index) for s in labels]
    assert copies == labels and V(2) != Vp(2) and V(3) != V(4)
    assert len(set(labels + copies)) == len(labels)
    names = {s: str(s) for s in labels}
    assert [names[s] for s in copies] == [str(s) for s in labels] and V(13) not in names
    assert [str(s) for s in sorted(random.Random(12).sample(copies, len(copies)))] == LABEL_ORDER
    assert [str(Vp(0)), str(Vp(2)), str(V(12))] == ["V'(0)", "V'(2)", "V(12)"]
    for primed, index in ((True, 1), (False, 0)):
        with pytest.raises(ValueError):
            SimpleHC(primed, index)


def test_clebsch_gordan():
    assert list(sl2rep.clebsch_gordan(0, 7)) == [7]
    assert list(sl2rep.clebsch_gordan(1, 1)) == [0, 2]
    # weight-count oracle for (4, 4): multiply characters and peel
    weights = Counter()
    for a in range(-4, 5, 2):
        for b in range(-4, 5, 2):
            weights[a + b] += 1
    assert peel(weights) == dict.fromkeys(sl2rep.clebsch_gordan(4, 4), 1)
    assert list(sl2rep.clebsch_gordan(4, 4)) == [0, 2, 4, 6, 8]


def test_sym_power_decompose_against_brute_force():
    for k in range(0, 6):
        for n in range(0, 7):
            brute = peel(brute_sym_weight_dims(k, n))
            assert dict(sl2rep.sym_power_decompose(k, n)) == brute, (k, n)


def _half_table_mismatches(max_k=5, max_n=5):
    """(reader, k, n) for every reader of the halved weight table that
    disagrees with the monomial count at k <= max_k, n <= max_n."""
    bad = []
    for k in range(max_k + 1):
        genfun.clear_memo_caches()
        enum = {l: genfun.f_enum(k, l, max_n).coeffs for l in range(k * max_n + 3)}
        for n in range(max_n + 1):
            counts, kn = brute_sym_weight_dims(k, n), k * n
            # field j of a row is weight kn mod 2 + 2j: weight 1, not 0, for odd kn
            if genfun.weight_row(k, n) != [counts[kn % 2 + 2 * j] for j in range(kn // 2 + 1)]:
                bad.append(("weight_row", k, n))
            weights = range(-kn - 3, kn + 4)
            if [genfun.sym_weight_dim(k, n, l) for l in weights] != [counts[l] for l in weights]:
                bad.append(("sym_weight_dim", k, n))
            if [enum[l][n] for l in enum] != [counts[l] for l in enum]:
                bad.append(("f_enum", k, n))
            if dict(sl2rep.sym_power_decompose(k, n)) != peel(counts):
                bad.append(("sym_power_decompose", k, n))
    return bad


def test_half_table_readers_against_monomial_counts():
    assert _half_table_mismatches() == []


def test_planted_off_by_one_field_shift_fails_the_monomial_count(monkeypatch):
    # every odd-kn row starts one field low, at weight -1, as if the table
    # kept its fields from kn // 2 up; each weight moves up one field, and the
    # row keeps kn // 2 + 1 fields
    original = genfun._weight_degree_table

    def shifted(k, degree):
        w, rows = original(k, degree)
        return w, [((row << w) | (row & ((1 << w) - 1))) & ((1 << (k * n // 2 + 1) * w) - 1)
                   if k * n % 2 else row for n, row in enumerate(rows)]

    monkeypatch.setattr(genfun, "_weight_degree_table", shifted)
    bad = _half_table_mismatches()
    assert bad and all(k * n % 2 for _, k, n in bad), bad
    assert {reader for reader, _, _ in bad} == {"weight_row", "sym_weight_dim", "f_enum", "sym_power_decompose"}
    genfun.clear_memo_caches()


def test_sym_power_examples():
    assert sl2rep.sym_power_decompose(4, 1) == Counter({4: 1})
    assert sl2rep.sym_power_decompose(4, 2) == Counter({0: 1, 4: 1, 8: 1})
    assert sl2rep.sym_power_decompose(4, 3) == Counter({0: 1, 4: 1, 6: 1, 8: 1, 12: 1})


def test_dimension_bookkeeping():
    for k in range(0, 7):
        for n in range(0, 13):
            total = sum((l + 1) * m for l, m in sl2rep.sym_power_decompose(k, n).items())
            assert total == comb(n + k, k)


def test_weight_symmetry():
    for k in range(0, 6):
        for n in range(0, 8):
            for l in range(0, k * n + 1):
                assert genfun.sym_weight_dim(k, n, l) == genfun.sym_weight_dim(k, n, -l)


def test_sym_decompose_matches_generating_functions():
    for k in range(0, 6):
        for n in range(0, 9):
            decomposition = sl2rep.sym_power_decompose(k, n)
            for l in range(0, k * n + 3):
                diff = genfun.f_enum(k, l, n).coeffs[n] - genfun.f_enum(k, l + 2, n).coeffs[n]
                assert decomposition.get(l, 0) == diff, (k, n, l)


def test_verma_weight_dims():
    assert [sl2rep.verma_weight_dim(k) for k in range(5)] == [1, 2, 4, 6, 9]

    def pbw(k):
        # monomials in generators of weights -2, -2, -4 reaching depth 2k
        return sum(
            1
            for a in range(k + 1)
            for b in range(k + 1 - a)
            if (k - a - b) % 2 == 0
        )

    for k in range(0, 31):
        assert sl2rep.verma_weight_dim(k) == pbw(k)


def test_q0_multiplicity():
    assert sl2rep.q0_multiplicity(0) == 1
    assert sl2rep.q0_multiplicity(2) == 0
    assert sl2rep.q0_multiplicity(8) == 3
    assert sl2rep.q0_multiplicity(7) == 0
    assert sl2rep.q0_multiplicity(12) == 4
    assert sl2rep.q0_multiplicity(14) == 3


def test_q00_degree_parts():
    table = {
        0: {0: 1},
        1: {4: 1},
        2: {4: 1, 8: 1},
        3: {6: 1, 8: 1, 12: 1},
        4: {8: 1, 10: 1, 12: 1, 16: 1},
    }
    for k, row in table.items():
        assert dict(sl2rep.q00_degree_part(k)) == row
    # general row: L(2k), L(2k+2), ..., L(4k-4), L(4k) with L(4k-2) absent
    for k in range(2, 12):
        row = sl2rep.q00_degree_part(k)
        assert row[2 * k] == 1 and row[4 * k] == 1
        assert row.get(4 * k - 2, 0) == 0
        assert all(row[l] == 1 for l in range(2 * k, 4 * k - 3, 2))


def test_q00_degree_parts_against_binomial_dimensions():
    # dim Sym^n(L(4)) = C(n+4, 4), zero for negative n; the degree-k piece of
    # Q(0) has dimension dim Sym^k - dim Sym^(k-2) - dim Sym^(k-3) + dim Sym^(k-5)
    def sym_dim(n):
        return comb(n + 4, 4) if n >= 0 else 0

    for k in range(0, 61):
        part = sl2rep.q00_degree_part(k)
        expected = sym_dim(k) - sym_dim(k - 2) - sym_dim(k - 3) + sym_dim(k - 5)
        assert sum((l + 1) * m for l, m in part.items()) == expected, k
        assert all(2 * k <= l <= 4 * k for l in part), k
        assert all(m > 0 for m in part.values()), k


def test_q00_degree_parts_build_and_multiply_no_series(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a weight-space dimension went through a series")

    monkeypatch.setattr(genfun, "f_enum", refuse)
    monkeypatch.setattr(TruncatedSeries, "__mul__", refuse)
    for k in range(0, 13):
        sl2rep.q00_degree_part(k)
    assert sl2rep.sym_power_decompose(4, 6)[8] == 3


def test_q00_degree_part_unpacks_at_most_four_rows(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a weight-space dimension was read one field at a time")

    monkeypatch.setattr(genfun, "sym_weight_dim", refuse)
    original = sl2rep.weight_row
    unpacked = []

    def counting(k, n):
        unpacked.append((k, n))
        return original(k, n)

    monkeypatch.setattr(sl2rep, "weight_row", counting)
    for k in (0, 2, 4, 5, 60):
        unpacked.clear()
        sl2rep.q00_degree_part(k)
        assert unpacked == [(4, n) for n in (k, k - 2, k - 3, k - 5) if n >= 0], k


def test_q00_degree_part_is_the_signed_sum_of_decompositions():
    # the parts peel one summed row; decomposing each power apart must agree
    for k in range(0, 41):
        expected = Counter()
        for n, sign in ((k, 1), (k - 2, -1), (k - 3, -1), (k - 5, 1)):
            if n >= 0:
                for l, mult in sl2rep.sym_power_decompose(4, n).items():
                    expected[l] += sign * mult
        assert dict(sl2rep.q00_degree_part(k)) == {l: m for l, m in expected.items() if m}, k


def test_q0_column_sums():
    for l in range(0, 41):
        column = sum(sl2rep.q00_degree_part(k).get(l, 0) for k in range(0, 21))
        assert column == sl2rep.q0_multiplicity(l)


_C7 = [
    "closed multiplicity formula matches graded column sums for l <= 12",
    "graded pieces of Q(0) for degrees <= 4 match the reference table",
    "Verma weight-space dimensions match the monomial count for k <= 30",
]


def _criterion_7_under(monkeypatch, name, planted):
    """Criterion 7's verdicts, by position in ``_C7``, with ``sl2rep.<name>`` replaced."""
    monkeypatch.setattr(sl2rep, name, planted(getattr(sl2rep, name)))
    verdicts = verify.check_multiplicities(l_max=12)
    assert [v.name for v in verdicts] == _C7
    return verdicts


def test_planted_q0_multiplicity_fails_the_column_sums_only(monkeypatch):
    column, table, verma = _criterion_7_under(
        monkeypatch, "q0_multiplicity", lambda original: lambda l: original(l) + (l == 8)
    )
    assert column == (_C7[0], False, "1 failing; first at 8: got 4, expected 3")
    assert table.passed and verma.passed


def test_planted_q00_degree_part_fails_the_reference_table_only(monkeypatch):
    # L(16) twice in degree 4; the column sums stop at l = 12, so only the table sees it
    def planted(original):
        def part(k):
            out = Counter(original(k))
            if k == 4:
                out[16] += 1
            return out
        return part

    column, table, verma = _criterion_7_under(monkeypatch, "q00_degree_part", planted)
    assert table == (_C7[1], False, (
        "1 failing; first at 4: got {16: 2, 12: 1, 10: 1, 8: 1}, expected {8: 1, 10: 1, 12: 1, 16: 1}"
    ))
    assert column.passed and verma.passed


def test_planted_verma_weight_dim_fails_the_monomial_count_only(monkeypatch):
    column, table, verma = _criterion_7_under(
        monkeypatch, "verma_weight_dim", lambda original: lambda k: original(k) + (k == 7)
    )
    assert verma == (_C7[2], False, "1 failing; first at 7: got 21, expected 20")
    assert column.passed and table.passed


def _case_split_tensor(k, s):
    """L(k) (x) s by the paper's case split, as the package stated it before
    the reflection rule: the oracle that the rule reproduces."""
    out = Counter()
    if s.primed:
        if k % 2 == 1:
            out.update(V(j) for j in range(1, k + 1, 2))
        else:
            if k % 4 == 0:
                out[s] += 1
            else:
                out[Vp(2 if s.index == 0 else 0)] += 1
            out.update(V(j) for j in range(2, k + 1, 2))
        return out

    n = s.index
    if k < n:
        out.update(V(j) for j in range(n - k, n + k + 1, 2))
    elif k == n:
        out[Vp(0)] += 1
        out[Vp(2)] += 1
        out.update(V(j) for j in range(2, 2 * n + 1, 2))
    else:
        if (k - n) % 2 == 0:
            out[Vp(0)] += 1
            out[Vp(2)] += 1
            doubled = range(2, k - n + 1, 2)
        else:
            doubled = range(1, k - n + 1, 2)
        for j in doubled:
            out[V(j)] += 2
        out.update(V(j) for j in range(k - n + 2, k + n + 1, 2))
    return out


def test_reflection_rule_matches_the_case_split():
    for k in range(61):
        for s in [Vp(0), Vp(2)] + [V(n) for n in range(1, 61)]:
            assert sl2rep.hc_tensor(k, s) == _case_split_tensor(k, s), (k, str(s))


def test_planted_dropped_j0_pair_fails_criteria_8_and_9(monkeypatch):
    # L(k) (x) V(n) without the pair V'(0) + V'(2) that j = 0 stands for
    def passed():
        assert verify.check_quivers()[-1].name.startswith("tensor identities")
        return [v.passed for v in verify.check_tensor_calculus() + verify.check_quivers()]

    assert passed() == [True] * 8
    original = sl2rep.hc_tensor

    def planted(k, s):
        out = original(k, s)
        if not s.primed:
            del out[Vp(0)], out[Vp(2)]
        return out

    monkeypatch.setattr(sl2rep, "hc_tensor", planted)
    # apart from its tensor identities, criterion 9 tensors only with V'(0)
    assert passed() == [False] * 3 + [True] * 4 + [False]


def test_hc_tensor_printed_cases():
    assert sl2rep.hc_tensor(0, V(3)) == Counter({V(3): 1})
    assert sl2rep.hc_tensor(6, Vp(0)) == Counter({Vp(2): 1, V(2): 1, V(4): 1, V(6): 1})
    assert sl2rep.hc_tensor(4, Vp(0)) == Counter({Vp(0): 1, V(2): 1, V(4): 1})
    assert sl2rep.hc_tensor(4, Vp(2)) == Counter({Vp(2): 1, V(2): 1, V(4): 1})
    assert sl2rep.hc_tensor(6, Vp(2)) == Counter({Vp(0): 1, V(2): 1, V(4): 1, V(6): 1})
    assert sl2rep.hc_tensor(3, Vp(0)) == Counter({V(1): 1, V(3): 1})
    assert sl2rep.hc_tensor(2, V(5)) == Counter({V(3): 1, V(5): 1, V(7): 1})
    assert sl2rep.hc_tensor(3, V(3)) == Counter(
        {Vp(0): 1, Vp(2): 1, V(2): 1, V(4): 1, V(6): 1}
    )
    # k > n with k-n odd: doubled odd string then single steps up to k+n
    assert sl2rep.hc_tensor(4, V(1)) == Counter({V(1): 2, V(3): 2, V(5): 1})
    # k > n with k-n even: both primed plus doubled even string
    assert sl2rep.hc_tensor(5, V(3)) == Counter(
        {Vp(0): 1, Vp(2): 1, V(2): 2, V(4): 1, V(6): 1, V(8): 1}
    )
    assert sl2rep.hc_tensor(2, V(1)) == Counter({V(1): 2, V(3): 1})
    assert sl2rep.hc_tensor(1, V(1)) == Counter({Vp(0): 1, Vp(2): 1, V(2): 1})
    assert sl2rep.hc_tensor(1, Vp(0)) == Counter({V(1): 1})


def all_simples(max_index):
    return [Vp(0), Vp(2)] + [V(n) for n in range(1, max_index + 1)]


def test_hc_tensor_type_multiset_oracle():
    bound = 40
    for k in range(0, 9):
        for s in all_simples(8):
            got = Counter()
            for t, mult in sl2rep.hc_tensor(k, s).items():
                for l in sl2rep.g_types(t, bound):
                    got[l] += mult
            expected = Counter()
            for l0 in sl2rep.g_types(s, bound + k):
                for l in sl2rep.clebsch_gordan(k, l0):
                    if l <= bound:
                        expected[l] += 1
            assert got == expected, (k, str(s))


def test_planted_tensor_branch_defect_fails_criterion_8(monkeypatch):
    name = "tensor case split matches the type-multiset oracle"
    assert all(v.passed for v in verify.check_tensor_calculus() if v.name.startswith(name))
    original = sl2rep.hc_tensor

    def planted(k, s):
        out = original(k, s)
        if not s.primed and k == s.index:
            out = out - Counter({Vp(2): 1})
        return out

    monkeypatch.setattr(sl2rep, "hc_tensor", planted)
    verdicts = [v for v in verify.check_tensor_calculus() if v.name.startswith(name)]
    assert len(verdicts) == 1 and not verdicts[0].passed
    # L(1) x V(1) loses V'(2), whose types L(2), L(6), L(10), ... then count 1, not 2
    got, expected = [1, 0] + [1, 0, 2, 0] * 9 + [1, 0, 2], [1, 0] + [2, 0] * 19 + [2]
    assert verdicts[0].detail == f"8 failing; first at (1, V(1)): got {got}, expected {expected}"


def test_planted_single_summands_fail_the_type_oracle(monkeypatch):
    # for k > n the summands V(j) with j <= k - n come twice; taking them once
    # must fail the list-indexed type oracle, which names the first pair
    original = sl2rep.hc_tensor

    def planted(k, s):
        out = original(k, s)
        if not s.primed and k > s.index:
            out = Counter(dict.fromkeys(out, 1))
        return out

    monkeypatch.setattr(sl2rep, "hc_tensor", planted)
    oracle = verify.check_tensor_calculus()[0]
    assert oracle.name.startswith("tensor case split matches the type-multiset oracle")
    assert not oracle.passed
    got, expected = [0, 1] + [0, 2] * 19 + [0], [0, 2] + [0, 3] * 19 + [0]
    assert oracle.detail == f"28 failing; first at (2, V(1)): got {got}, expected {expected}"


def test_planted_multiset_defect_fails_coherence(monkeypatch):
    # hc_tensor_multiset that forgets the multiplicities of its input
    original = sl2rep.hc_tensor_multiset
    monkeypatch.setattr(sl2rep, "hc_tensor_multiset",
                        lambda k, multiset: original(k, Counter(dict.fromkeys(multiset, 1))))
    coherence = verify.check_tensor_calculus()[2]
    assert coherence.name.startswith("Clebsch-Gordan coherence")
    assert not coherence.passed
    assert coherence.detail == (
        "30 failing; first at (0, 2, V(1)): got {V(1): 1, V(3): 1}, expected {V(1): 2, V(3): 1}"
    )


def test_criterion_8_inside_sharing_computes_each_decomposition_once():
    body = sl2rep.hc_tensor.__wrapped__.__code__
    computed = Counter()

    def hook(frame, event, arg):
        if event == "call" and frame.f_code is body:
            computed[frame.f_locals["k"], frame.f_locals["s"]] += 1

    k_max = n_max = 8
    sys.setprofile(hook)
    try:
        with sharing():
            verdicts = verify.check_tensor_calculus(k_max, n_max)
    finally:
        sys.setprofile(None)
    assert all(v.passed for v in verdicts)
    assert set(computed.values()) == {1}
    # every (k, s) of the type oracle; the printed cases and the coherence
    # loop's j <= 8 read the same values, and the iterated tensoring adds
    # L(a) (x) t, a <= 4, for the summands t of each decomposition it expands
    oracle = {(k, s) for k in range(k_max + 1) for s in all_simples(n_max)}
    assert oracle <= set(computed)
    assert all(k <= 4 for k, _ in set(computed) - oracle)


def test_hc_tensor_coherence():
    for a in range(0, 5):
        for b in range(0, 5):
            for s in all_simples(8):
                lhs = sl2rep.hc_tensor_multiset(a, sl2rep.hc_tensor(b, s))
                rhs = Counter()
                for j in sl2rep.clebsch_gordan(a, b):
                    for t, m in sl2rep.hc_tensor(j, s).items():
                        rhs[t] += m
                assert lhs == rhs, (a, b, str(s))
