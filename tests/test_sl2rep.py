import random
from collections import Counter
from itertools import combinations_with_replacement
from math import comb

import pytest

from galilei import genfun, sl2rep, verify
from galilei.exact import TruncatedSeries
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
    assert sl2rep.clebsch_gordan(0, 7) == Counter({7: 1})
    assert sl2rep.clebsch_gordan(1, 1) == Counter({0: 1, 2: 1})
    # weight-count oracle for (4, 4): multiply characters and peel
    weights = Counter()
    for a in range(-4, 5, 2):
        for b in range(-4, 5, 2):
            weights[a + b] += 1
    assert peel(weights) == dict(sl2rep.clebsch_gordan(4, 4))
    assert sl2rep.clebsch_gordan(4, 4) == Counter({0: 1, 2: 1, 4: 1, 6: 1, 8: 1})


def test_sym_power_decompose_against_brute_force():
    for k in range(0, 6):
        for n in range(0, 7):
            brute = peel(brute_sym_weight_dims(k, n))
            assert dict(sl2rep.sym_power_decompose(k, n)) == brute, (k, n)


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


def test_q0_column_sums():
    for l in range(0, 41):
        column = sum(sl2rep.q00_degree_part(k).get(l, 0) for k in range(0, 21))
        assert column == sl2rep.q0_multiplicity(l)


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
                for l, c in sl2rep.g_types(t, bound).items():
                    got[l] += mult * c
            expected = Counter()
            for l0, c0 in sl2rep.g_types(s, bound + k).items():
                for l, c in sl2rep.clebsch_gordan(k, l0).items():
                    if l <= bound:
                        expected[l] += c0 * c
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
    assert "(1, 'V(1)')" in verdicts[0].detail


def test_hc_tensor_coherence():
    for a in range(0, 5):
        for b in range(0, 5):
            for s in all_simples(8):
                lhs = sl2rep.hc_tensor_multiset(a, sl2rep.hc_tensor(b, s))
                rhs = Counter()
                for j, mult in sl2rep.clebsch_gordan(a, b).items():
                    for t, m in sl2rep.hc_tensor(j, s).items():
                        rhs[t] += mult * m
                assert lhs == rhs, (a, b, str(s))
