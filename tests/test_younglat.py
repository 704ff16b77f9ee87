import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galilei import linalg, verify
from galilei import younglat as yl
from galilei.cli import YOUNG_MAX_N
from galilei.exact import Polynomial
from galilei.linalg import (
    _newton_interpolate,
    bareiss_det,
    bareiss_rank,
    poly_det,
)
from galilei.younglat import column, partition


def rational_rank(matrix):
    """Rank of a matrix of Fractions: clear denominators per row, then Bareiss."""
    cleared = []
    for row in matrix:
        row = [Fraction(x) for x in row]
        denom = lcm(*(c.denominator for c in row)) if row else 1
        cleared.append([int(c * denom) for c in row])
    return bareiss_rank(cleared)


def poly_bareiss_det(matrix):
    """Bareiss determinant directly over the polynomial ring: the reference for poly_det.

    Slower than interpolation but wholly independent of it; interior divisions
    are exact polynomial divisions.
    """
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    var = matrix[0][0].var
    m = [list(row) for row in matrix]
    sign = 1
    prev = Polynomial(var, (1,))
    for k in range(n - 1):
        if not m[k][k]:
            pivot = next((i for i in range(k + 1, n) if m[i][k]), None)
            if pivot is None:
                return Polynomial(var)
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]).exact_div(prev)
            m[i][k] = Polynomial(var)
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det


def contains(big, small):
    """Whether the diagram of ``small`` fits inside that of ``big``."""
    if len(small) > len(big):
        return False
    return all(s >= o for s, o in zip(big, small))


def dominates(big, small):
    """Dominance order: the partial sums of ``big`` are >= those of ``small``."""
    if sum(big) != sum(small):
        raise ValueError("dominance compares partitions of the same size")
    acc_b = acc_s = 0
    for i in range(max(len(big), len(small))):
        acc_b += big[i] if i < len(big) else 0
        acc_s += small[i] if i < len(small) else 0
        if acc_b < acc_s:
            return False
    return True


def count_partitions(n):
    return len(yl.bounded_partitions(n))


def x_minus(c):
    return Polynomial("x", (-c, 1))


def const(c):
    return Polynomial("x", (c,))


def test_bareiss_basics():
    assert bareiss_rank([[1, 2], [2, 4]]) == 1
    assert bareiss_rank([[1, 2], [3, 4]]) == 2
    assert bareiss_det([[1, 2], [3, 4]]) == -2
    assert bareiss_det([[2, 0, 1], [1, 1, 0], [0, 3, 1]]) == 5
    assert rational_rank([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3), Fraction(2)]]) == 1
    assert rational_rank([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3), Fraction(1)]]) == 2


def test_bareiss_rejects_non_integers():
    # int(x) would truncate these to 0 and report rank 0 / det 0
    with pytest.raises(TypeError):
        bareiss_det([[Fraction(1, 2)]])
    with pytest.raises(TypeError):
        bareiss_rank([[Fraction(1, 2), Fraction(1, 3)]])


def _low_rank(rng, rows, cols, rank):
    """A rows x cols int matrix of rank at most ``rank``, as a product."""
    a = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(rows)]
    b = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rank)]
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def test_bareiss_matches_sympy_on_random_int_matrices():
    # rank and det share one elimination; sympy shares none of it
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2107)
    cases = []
    for _ in range(40):
        n, rows, cols = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        square = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        zero_pivot = [row[:] for row in square]
        zero_pivot[0][0] = 0  # a row swap, or a skipped column, is forced
        cases += [
            square,
            zero_pivot,
            _low_rank(rng, n, n, rng.randint(0, n - 1)),
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)],
            _low_rank(rng, rows, cols, rng.randint(0, min(rows, cols))),
        ]
    singular = swapped = non_square = 0
    for m in cases:
        oracle = sympy.Matrix(m)
        assert bareiss_rank(m) == oracle.rank(), m
        if len(m) != len(m[0]):
            non_square += 1
            continue
        det = bareiss_det(m)
        assert det == oracle.det(), m
        singular += det == 0
        swapped += det != 0 and m[0][0] == 0
    # the seed covers each case: 35 singular, 30 swapped, 90 non-square
    assert singular >= 30 and swapped >= 20 and non_square >= 60


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-10**6, 10**6), max_size=10), st.integers(0, 4))
def test_newton_interpolation_round_trip(coeffs, extra_nodes):
    p = Polynomial("x", coeffs)
    values = [p(t) for t in range(max(p.degree, 0) + 1 + extra_nodes)]
    got = _newton_interpolate("x", values)
    assert got == p
    assert all(type(c) is int for c in got.coeffs)


def test_newton_interpolation_rejects_non_integer_coefficients():
    # x(x-1)/2 is integer-valued, but its coefficients are not integers
    with pytest.raises(ArithmeticError):
        _newton_interpolate("x", [t * (t - 1) // 2 for t in range(5)])


# Entries for random determinant checks: mostly zero, constant or linear.
_coeff = st.integers(-4, 4)
_entry = st.one_of(
    st.just(()),
    st.just(()),
    st.tuples(_coeff),
    st.tuples(_coeff, _coeff),
    st.lists(_coeff, max_size=3),
).map(lambda cs: Polynomial("x", cs))


@st.composite
def _square_poly_matrices(draw):
    n = draw(st.integers(1, 6))
    return [[draw(_entry) for _ in range(n)] for _ in range(n)]


@settings(max_examples=100, deadline=None)
@given(_square_poly_matrices())
def test_poly_det_matches_ring_elimination_on_random_matrices(matrix):
    assert poly_det(matrix) == poly_bareiss_det(matrix)


def _permutation_sign(perm):
    sign, seen = 1, set()
    for start in range(len(perm)):
        length, i = 0, start
        while i not in seen:
            seen.add(i)
            i = perm[i]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


def _core_sizes(monkeypatch, matrix):
    """poly_det of matrix, and the sizes of the integer matrices it evaluated."""
    sizes = []
    original = linalg.bareiss_det

    def recording(m):
        sizes.append(len(m))
        return original(m)

    monkeypatch.setattr(linalg, "bareiss_det", recording)
    return poly_det(matrix), sizes


@pytest.mark.parametrize(
    "row_perm, col_perm",
    [
        ((0, 1, 2, 3), (0, 1, 2, 3)),  # even, even
        ((1, 0, 2, 3), (0, 1, 2, 3)),  # odd, even
        ((0, 1, 2, 3), (3, 0, 1, 2)),  # even, odd
        ((1, 2, 0, 3), (1, 0, 3, 2)),  # even, even
        ((2, 0, 1, 3), (0, 1, 3, 2)),  # even, odd
        ((3, 2, 1, 0), (1, 0, 2, 3)),  # even, odd
        ((1, 0, 2, 3), (0, 2, 1, 3)),  # odd, odd
    ],
)
def test_poly_det_peels_permuted_triangular_matrices(monkeypatch, row_perm, col_perm):
    n = len(row_perm)
    triangular = [
        [x_minus(i) if i == j else const(i + 2 * j + 1) if j < i else const(0) for j in range(n)]
        for i in range(n)
    ]
    matrix = [[triangular[row_perm[i]][col_perm[j]] for j in range(n)] for i in range(n)]
    diagonal = Polynomial("x", (1,))
    for i in range(n):
        diagonal = diagonal * x_minus(i)
    expected = diagonal * (_permutation_sign(row_perm) * _permutation_sign(col_perm))
    det, sizes = _core_sizes(monkeypatch, matrix)
    assert det == expected
    assert det == poly_bareiss_det(matrix)
    assert sizes == [0]  # peeled to an empty core: one node, det 1


def test_poly_det_peels_N16_without_a_polynomial_product(monkeypatch):
    # N_16 peels to a small core: the peeled factor is an int coefficient
    # list, so the only products are the interpolation's Horner steps
    entries = yl.build_Nn(16).entries
    expected = poly_bareiss_det(entries)
    outside, inside = [], [False]
    original_mul, original_interpolate = Polynomial.__mul__, linalg._newton_interpolate

    def counting_mul(self, other):
        if not inside[0]:
            outside.append(other)
        return original_mul(self, other)

    def interpolating(var, values):
        inside[0] = True
        try:
            return original_interpolate(var, values)
        finally:
            inside[0] = False

    monkeypatch.setattr(Polynomial, "__mul__", counting_mul)
    monkeypatch.setattr(Polynomial, "__rmul__", counting_mul)
    monkeypatch.setattr(linalg, "_newton_interpolate", interpolating)
    assert poly_det(entries) == expected
    assert outside == []
    # positive control: a product outside the interpolation is counted
    entries[0][0] * entries[0][0]
    assert outside


def test_poly_det_rejects_non_square():
    with pytest.raises(ValueError):
        poly_det([[const(1), const(0), const(2)], [const(0), const(1), const(0)]])
    with pytest.raises(ValueError):
        poly_det([[const(1), const(0)], [const(1)]])


def test_poly_det_zero_row_and_zero_column():
    rows = [
        [x_minus(1), const(2), const(3)],
        [const(0), const(0), const(0)],
        [const(4), x_minus(5), const(6)],
    ]
    columns = [list(col) for col in zip(*rows)]
    for matrix in (rows, columns):
        assert not poly_det(matrix)
        assert not poly_bareiss_det(matrix)


def test_poly_det_routes_agree(monkeypatch):
    # no row or column has a single nonzero entry: nothing is peeled
    matrix = [
        [x_minus(1), const(2), const(0)],
        [const(1), x_minus(3), const(4)],
        [const(0), const(5), x_minus(2)],
    ]
    det, sizes = _core_sizes(monkeypatch, matrix)
    assert det == poly_bareiss_det(matrix)
    # degree bound 3: four nodes, each a full 3x3 determinant
    assert sizes == [3, 3, 3, 3]


def test_partition_invariants():
    with pytest.raises(ValueError):
        partition(1, 2)
    with pytest.raises(ValueError):
        partition(0)
    assert sum(partition(3, 1)) == 4
    assert partition(2, 2, 1).count(2) == 2


#: sorted(bounded_partitions(8)), as recorded from the dataclass partitions
PARTITION_ORDER_8 = [
    "(1,1,1,1,1,1,1,1)", "(2,1,1,1,1,1,1)", "(2,2,1,1,1,1)", "(2,2,2,1,1)", "(2,2,2,2)",
    "(3,1,1,1,1,1)", "(3,2,1,1,1)", "(3,2,2,1)", "(3,3,1,1)", "(3,3,2)",
    "(4,1,1,1,1)", "(4,2,1,1)", "(4,2,2)", "(4,3,1)", "(4,4)",
]


def test_partition_value_semantics():
    level = list(yl.bounded_partitions(8))
    copies = [yl.Partition(tuple(p)) for p in level]
    assert copies == level and partition(4, 4) != partition(4, 3, 1)
    assert len(set(level + copies)) == len(level)
    position = {p: i for i, p in enumerate(level)}
    assert [position[p] for p in copies] == list(range(len(level)))
    assert partition(4, 4, 1) not in position
    # a raw parts tuple finds its partition's position
    assert [yl._positions(8)[tuple(p)] for p in level] == list(range(len(level)))
    assert [str(p) for p in sorted(random.Random(8).sample(copies, len(copies)))] == PARTITION_ORDER_8
    assert [str(partition(3, 1, 1)), str(yl.Partition(()))] == ["(3,1,1)", "()"]
    for parts in ((1, 2), (0,)):
        with pytest.raises(ValueError):
            yl.Partition(parts)
    assert contains(partition(3, 2, 1), partition(2, 2))
    assert not contains(partition(3, 2, 1), partition(4))


def test_dominance():
    assert dominates(partition(3), partition(2, 1))
    assert dominates(partition(2, 1), partition(1, 1, 1))
    assert not dominates(partition(2, 2, 2), partition(3, 1, 1, 1))
    assert not dominates(partition(3, 1, 1, 1), partition(2, 2, 2))


def test_bounded_partition_counts():
    # independent count: partitions of n into parts <= 4 by a textbook DP
    def count(n):
        table = [1] + [0] * n
        for part in range(1, 5):
            for total in range(part, n + 1):
                table[total] += table[total - part]
        return table[n]

    for n in range(1, 16):
        assert count_partitions(n) == count(n)
        assert len(set(yl.bounded_partitions(n))) == count_partitions(n)
        assert all(p[0] <= 4 for p in yl.bounded_partitions(n))
    # bounded_partitions returns them in the order it builds them, which must be decreasing lex
    for n in range(41):
        level = yl.bounded_partitions(n)
        assert list(level) == sorted(set(level), reverse=True), n


def _edge_targets(p):
    """{printed target: (slope, constant)} for the edges out of p."""
    level = yl.bounded_partitions(sum(p) + 1)
    return {str(level[j]): (slope, constant) for j, slope, constant in yl.edges_from(p)}


def test_edges_from_examples():
    # a label is (slope, constant): x - c is (1, -c), a count m is (0, m)
    [(j, slope, constant)] = yl.edges_from(partition())
    assert yl.bounded_partitions(1)[j] == partition(1) and (slope, constant) == (1, 0)

    assert _edge_targets(partition(2)) == {"(3)": (0, 1), "(2,1)": (1, -1)}
    assert _edge_targets(partition(2, 2)) == {"(3,2)": (0, 2), "(2,2,1)": (1, -2)}
    assert _edge_targets(partition(3, 1, 1)) == {"(4,1,1)": (0, 1), "(3,2,1)": (0, 2), "(3,1,1,1)": (1, -3)}
    assert all(type(v) is int for _j, *label in yl.edges_from(partition(3, 1, 1)) for v in label)

    # largest part capped at 4
    assert set(_edge_targets(partition(4, 1))) == {"(4,2)", "(4,1,1)"}


def test_edges_from_targets_are_the_level_objects():
    # each edge names a distinct position of the next level, holding a cover
    # of p, and carries the label rule's (slope, constant)
    for size in range(13):
        level = yl.bounded_partitions(size + 1)
        for p in yl.bounded_partitions(size):
            edges = yl.edges_from(p)
            positions = [j for j, _s, _c in edges]
            assert len(set(positions)) == len(positions), p
            for j in positions:
                assert 0 <= j < len(level) and contains(level[j], p), (p, j)
            expected = {cover: label for cover, label in _covers(p)}
            assert {level[j]: _label(s, c) for j, s, c in edges} == expected, p


def _label(slope, constant):
    return Polynomial("x", (constant, slope))


def _covers(parts):
    """(cover, label) for each partition one node above ``parts``, parts <= 4,
    with the label rule of the module docstring."""
    for row in range(len(parts) + 1):
        grown = list(parts) + [0]
        grown[row] += 1
        grown = tuple(v for v in grown if v)
        if list(grown) == sorted(grown, reverse=True) and grown[0] <= 4:
            col = grown[row]
            yield grown, x_minus(len(parts)) if col == 1 else const(parts.count(col - 1))


def _chain_sums(parts, n, weight, sums):
    """Add the label product of every saturated chain from ``parts`` up to
    size n into ``sums``, keyed by the part tuple where the chain ends."""
    if sum(parts) == n:
        sums[parts] = sums.get(parts, const(0)) + weight
        return
    for cover, label in _covers(parts):
        _chain_sums(cover, n, weight * label, sums)


def test_path_matrix_matches_an_independent_chain_enumeration():
    # every chain is walked on its own, with no level table and no edge memo
    for n in range(1, 9):
        symbolic = yl.path_matrix(n)
        assert symbolic.rows == [(1,) * k for k in range(1, n + 1)]
        expected = []
        for k in range(1, n + 1):
            sums = {}
            _chain_sums((1,) * k, n, const(1), sums)
            if k == 1:  # every partition of n lies above (1)
                assert set(sums) == set(symbolic.cols)
            expected.append([sums.get(c, const(0)) for c in symbolic.cols])
        assert symbolic.entries == expected, n
        for a in (0, 1, n, n + 5):
            assert yl.path_matrix(n, at=a).entries == [[e(a) for e in row] for row in expected], (n, a)


def test_path_matrices_match_reference():
    m2 = yl.path_matrix(2)
    assert m2.cols == [partition(2), partition(1, 1)]
    assert m2.entries == [
        [const(1), x_minus(1)],
        [const(0), const(1)],
    ]

    m3 = yl.path_matrix(3)
    assert m3.cols == [partition(3), partition(2, 1), partition(1, 1, 1)]
    assert m3.entries == [
        [const(1), x_minus(1) * 3, x_minus(1) * x_minus(2)],
        [const(0), const(2), x_minus(2)],
        [const(0), const(0), const(1)],
    ]

    m4 = yl.path_matrix(4)
    assert m4.cols == [
        partition(4),
        partition(3, 1),
        partition(2, 2),
        partition(2, 1, 1),
        partition(1, 1, 1, 1),
    ]
    assert m4.entries == [
        [const(1), x_minus(1) * 4, x_minus(1) * 3, x_minus(1) * x_minus(2) * 6,
         x_minus(1) * x_minus(2) * x_minus(3)],
        [const(0), const(2), const(2), x_minus(2) * 5, x_minus(2) * x_minus(3)],
        [const(0), const(0), const(0), const(3), x_minus(3)],
        [const(0), const(0), const(0), const(0), const(1)],
    ]


def test_rank_at_full_range():
    for n in range(1, 13):
        assert yl.rank_at(n) == n


def _in_the_tail(p):
    """Parts <= 2, or a single part 3 and the rest <= 2."""
    return max(p) <= 2 or (p[0] == 3 and p[1:2] != (3,))


def test_path_matrix_at_a_point_evaluates_the_polynomial_matrix():
    for n in range(1, 13):
        symbolic = yl.path_matrix(n)
        minor = yl.path_matrix(n, minor=True)
        # the restricted DP is the full matrix on its last n columns, which are
        # the n partitions with parts <= 2 or a single 3
        assert minor.rows == symbolic.rows
        assert minor.cols == symbolic.cols[-n:] == [c for c in symbolic.cols if _in_the_tail(c)]
        assert len(minor.cols) == n
        assert minor.entries == [row[-n:] for row in symbolic.entries], n
        for m in (0, 1, n, n + 5):
            evaluated = yl.path_matrix(n, at=m)
            assert (evaluated.rows, evaluated.cols) == (symbolic.rows, symbolic.cols)
            assert evaluated.entries == [[e(m) for e in row] for row in symbolic.entries], (n, m)
            assert yl.path_matrix(n, at=m, minor=True).entries == [row[-n:] for row in evaluated.entries], (n, m)


def test_the_minor_alone_has_full_rank_up_to_the_cli_limit():
    # rank_at never needs the whole matrix on the sizes the command line accepts
    for n in range(1, YOUNG_MAX_N + 1):
        assert bareiss_rank(yl.path_matrix(n, at=n, minor=True).entries) == n, n


def _counting_bareiss_rank(monkeypatch):
    calls = []

    def counting(matrix):
        calls.append(len(matrix[0]))
        return bareiss_rank(matrix)

    monkeypatch.setattr(yl, "bareiss_rank", counting)
    return calls


def _planted_path_matrix(monkeypatch, plant):
    """path_matrix with ``plant(n, minor, entries)`` applied to every result."""
    original = yl.path_matrix

    def planted(n, at=None, minor=False):
        m = original(n, at, minor)
        return m._replace(entries=plant(n, minor, [list(row) for row in m.entries]))

    monkeypatch.setattr(yl, "path_matrix", planted)


def test_planted_singular_minor_falls_back_to_the_whole_matrix(monkeypatch):
    # a zero last column makes the minor singular; the whole M_7(7) is left
    # as it is, of rank 7, so the second elimination restores the rank
    def plant(n, minor, entries):
        if minor:
            for row in entries:
                row[-1] = 0
        return entries

    _planted_path_matrix(monkeypatch, plant)
    calls = _counting_bareiss_rank(monkeypatch)
    assert yl.rank_at(7) == 7
    assert calls == [7, len(yl.bounded_partitions(7))]


def test_planted_deficient_matrix_lowers_the_rank_and_fails_criterion_5(monkeypatch):
    # a zero last row makes the minor and M_5(5) itself both rank 4
    def plant(n, minor, entries):
        if n == 5:
            entries[-1] = [0] * len(entries[-1])
        return entries

    _planted_path_matrix(monkeypatch, plant)
    calls = _counting_bareiss_rank(monkeypatch)
    assert yl.rank_at(5) == 4
    assert calls == [5, len(yl.bounded_partitions(5))]
    assert verify.rank_verdict(5, yl.rank_at(5)).detail == "rank 4"
    failing = {v.name: v.detail for v in verify.check_young_lattice(n_max=6) if not v.passed}
    assert failing["rank of M_n at x=n equals n for 1 <= n <= 6"] == (
        "1 failing; first at 5: got FAIL (rank 4), expected PASS"
    )


def test_rank_at_builds_no_polynomial_products_and_each_edge_once(monkeypatch):
    built = []
    original_init = Polynomial.__init__

    def counting_init(self, var, coeffs=()):
        built.append(coeffs)
        original_init(self, var, coeffs)

    monkeypatch.setattr(Polynomial, "__init__", counting_init)
    eliminated = _counting_bareiss_rank(monkeypatch)
    yl.edges_from.cache_clear()
    try:
        assert yl.rank_at(12) == 12
        # the nonsingular 12 x 12 minor is the only matrix eliminated
        assert eliminated == [12]
        # labels, weights and edges are all ints: not one polynomial is built
        assert built == []
        # the DP on the minor leaves the last m partitions of each level
        # m = 1..11, so each one's edges were built, once: one memo miss per
        # partition, 1 + 2 + ... + 11 of them
        assert yl.edges_from.cache_info().misses == sum(range(1, 12)) == 66
        # positive control: the polynomial route is counted
        yl.path_matrix(3)
        assert built
    finally:
        yl.edges_from.cache_clear()


def test_column_span_recursion():
    # deleting the full-column row/column of M_n leaves columns inside the
    # span of M_{n-1}, at a generic rational evaluation point
    x = Fraction(1, 7)
    for n in range(2, 11):
        previous = yl.path_matrix(n - 1)
        current = yl.path_matrix(n)
        prev_rows = [[e(x) for e in row] for row in previous.entries]
        keep = [j for j, c in enumerate(current.cols) if c != column(n)]
        stacked = [
            prev_rows[i] + [current.entries[i][j](x) for j in keep]
            for i in range(n - 1)
        ]
        assert rational_rank(stacked) == rational_rank(prev_rows)


def test_psi_structure():
    for n in range(2, 13):
        psi = yl.build_psi(n)
        assert len(set(psi.values())) == len(psi)
        assert column(n) not in psi.values()
        for source, image in psi.items():
            assert sum(image) == n
            if source != column(n - 1):
                assert contains(image, source)
    assert yl.special_partition(6) == partition(2, 2, 2)
    assert yl.special_partition(11) == partition(3, 2, 2, 2, 2)
    assert yl.special_partition(2) == partition(2)
    assert yl.special_partition(3) == partition(3)


def test_N6_matches_rule_application():
    # frozen by hand from the edge-label rules; note the published display of
    # this matrix misprints the (3,2,1) row and the (4,1,1)/(4,1) entry
    n6 = yl.build_Nn(6)
    assert n6.rows == [
        partition(2, 1, 1, 1, 1),
        partition(2, 2, 1, 1),
        partition(2, 2, 2),
        partition(3, 1, 1, 1),
        partition(3, 2, 1),
        partition(4, 1, 1),
    ]
    assert n6.cols == [
        partition(1, 1, 1, 1, 1),
        partition(2, 1, 1, 1),
        partition(2, 2, 1),
        partition(3, 1, 1),
        partition(3, 2),
        partition(4, 1),
    ]
    z = const(0)
    assert n6.entries == [
        [const(5), x_minus(4), z, z, z, z],
        [z, const(3), x_minus(3), z, z, z],
        [z, z, const(1), z, z, z],
        [z, const(1), z, x_minus(3), z, z],
        [z, z, const(2), const(2), x_minus(2), z],
        [z, z, z, const(1), z, x_minus(2)],
    ]


def test_Nn_orders_are_dominance_linear_extensions():
    # smallest first: a partition strictly dominating another comes after it
    for n in range(2, 17):
        matrix = yl.build_Nn(n)
        for order in (matrix.rows, matrix.cols):
            for i, later in enumerate(order):
                for earlier in order[:i]:
                    assert not (earlier != later and dominates(earlier, later)), (n, earlier, later)


def test_planted_edge_label_defect_fails_criterion_5(monkeypatch):
    clean = {v.name for v in verify.check_young_lattice(n_max=6) if not v.passed}
    original = yl.edges_from

    def planted(p, *args, **kwargs):
        edges = original(p, *args, **kwargs)
        if p == partition(2):
            # the edge (2) -> (3) is labelled by one part equal to 2, i.e. (0, 1)
            three = yl._positions(3)[3,]
            edges = [(j, 0, 2) if j == three else (j, s, c) for j, s, c in edges]
        return edges

    clean_at_3 = yl.path_matrix(3, at=3).entries
    monkeypatch.setattr(yl, "edges_from", planted)
    failing = {v.name: v.detail for v in verify.check_young_lattice(n_max=6) if not v.passed}
    assert "M_3 matches the reference matrix entry-for-entry" in failing.keys() - clean
    # the detail gives the one differing entry with both its weights, printed
    # as ``young matrix`` prints them: 2 in place of 1
    assert failing["M_3 matches the reference matrix entry-for-entry"] == (
        "1 failing; first at row (1), column (3): got 2, expected 1"
    )
    # the integer route reads the same label rule, through the same memo
    assert yl.path_matrix(3, at=3).entries != clean_at_3


def test_planted_position_swap_fails_criterion_5(monkeypatch):
    # edges are built with the swapped map once the memo is cleared: the edges
    # into (3) and (2,1) name each other's positions, so their weights land in
    # each other's places
    clean = {v.name for v in verify.check_young_lattice(n_max=6) if not v.passed}
    clean_at_3 = yl.path_matrix(3, at=3).entries
    original = yl._positions

    def swapped(m):
        positions = dict(original(m))
        if m == 3:
            positions[3,], positions[2, 1] = positions[2, 1], positions[3,]
        return positions

    monkeypatch.setattr(yl, "_positions", swapped)
    yl.edges_from.cache_clear()
    try:
        failing = {v.name for v in verify.check_young_lattice(n_max=6) if not v.passed}
        planted_at_3 = yl.path_matrix(3, at=3).entries
    finally:
        yl.edges_from.cache_clear()  # drop any edge built through the swapped map
    # no swap within one level changes rank_at(n), so the rank verdict stays
    # PASS; the reference matrices are what catch a misrouted DP
    assert "M_3 matches the reference matrix entry-for-entry" in failing - clean
    assert planted_at_3 != clean_at_3


@pytest.mark.parametrize("reshape, detail", [
    (lambda entries: [entries[0][:-1]] + entries[1:], "row (1) length: got 2, expected 3"),
    (lambda entries: entries + [entries[-1]], "row count: got 4, expected 3"),
])
def test_planted_matrix_shape_defect_fails_criterion_5(monkeypatch, reshape, detail):
    # entries are compared one by one, so a short row or an extra row fails
    # only through the shape rows
    original = yl.path_matrix

    def planted(n, *args, **kwargs):
        m = original(n, *args, **kwargs)
        return m._replace(entries=reshape(m.entries)) if n == 3 else m

    monkeypatch.setattr(yl, "path_matrix", planted)
    failing = {v.name: v.detail for v in verify.check_young_lattice(n_max=4) if not v.passed}
    assert failing["M_3 matches the reference matrix entry-for-entry"] == f"1 failing; first at {detail}"


def _to_sympy(sympy, x, p):
    return sum((sympy.Integer(c) * x**i for i, c in enumerate(p.coeffs)), sympy.Integer(0))


def _sympy_matrix(sympy, x, entries):
    return sympy.Matrix([[_to_sympy(sympy, x, e) for e in row] for row in entries])


def test_det_matches_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for n in range(2, 11):
        entries = yl.build_Nn(n).entries
        oracle = _sympy_matrix(sympy, x, entries).det()
        assert sympy.expand(oracle - _to_sympy(sympy, x, poly_det(entries))) == 0, n
        if n == 6:
            assert sympy.factor(oracle) == 15 * (x - 2) ** 2 * (x - 3)


def test_rank_at_matches_sympy_oracle():
    # sympy substitutes x = n into the polynomial M_n and takes the rank itself,
    # sharing neither the integer path DP nor Bareiss elimination
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for n in range(1, 11):
        oracle = _sympy_matrix(sympy, x, yl.path_matrix(n).entries).subs(x, n)
        assert oracle.rank() == yl.rank_at(n) == n


def test_even_special_row_single_one():
    for n in range(2, 13, 2):
        matrix = yl.build_Nn(n)
        row = matrix.entries[matrix.rows.index(yl.special_partition(n))]
        nonzero = [e for e in row if e]
        assert len(nonzero) == 1 and nonzero[0] == const(1)


def test_det_factorizations_small():
    expected = {
        2: (1, []),
        3: (2, []),
        4: (3, [1]),
        5: (20, [1, 2]),
        6: (15, [2, 2, 3]),
    }
    for n, (content, roots) in expected.items():
        d = yl.verify_det_factorization(n)
        assert d.fully_factored
        assert abs(d.integer_factor) == content, n
        assert sorted(d.roots) == roots, n


def test_det_factorizations_structural():
    # pinned regression values for the larger sizes (the n <= 6 cases above
    # were derived by hand; these are recorded outputs, cross-checked against
    # the independent elimination route below)
    pinned = {
        7: (210, [2, 2, 3, 3, 4]),
        8: (105, [2, 3, 3, 3, 4, 4, 5]),
        9: (2520, [2, 3, 3, 3, 4, 4, 4, 5, 5, 6]),
        10: (945, [3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 6, 6, 7]),
        11: (34650, [3, 3, 4, 4, 4, 4, 4, 5, 5, 5, 5, 6, 6, 6, 7, 7, 8]),
        12: (10395, [3, 4, 4, 4, 4, 5, 5, 5, 5, 5, 5, 6, 6, 6, 6, 7, 7, 7, 8, 8, 9]),
    }
    for n in range(2, 13):
        d = yl.verify_det_factorization(n)
        assert all(v.passed for v in verify.det_verdicts(n, 12)[1]), n
        if n in pinned:
            content, roots = pinned[n]
            assert abs(d.integer_factor) == content, n
            assert sorted(d.roots) == roots, n
        # peeling plus interpolation and ring elimination agree
        assert d.determinant == poly_bareiss_det(yl.build_Nn(n).entries)


def test_det_factorizations_past_the_acceptance_sizes():
    # criterion 5 certifies n <= 12; the same shape holds further up
    for n in range(13, 21):
        d = yl.verify_det_factorization(n)
        assert d.fully_factored, n
        assert d.integer_factor != 0, n
        assert all(r < n for r in d.roots), n


def test_odd_case_reduced_block_roots():
    # rows and columns of the dominated block for n = 11; its determinant
    # carries exactly the roots 5, 6, 7, 8
    n11 = yl.build_Nn(11)

    def in_block(p):
        return p[0] <= 3 and all(v <= 2 for v in p[1:])

    cols = [j for j, c in enumerate(n11.cols) if in_block(c)]
    psi = yl.build_psi(11)
    rows = [n11.rows.index(psi[n11.cols[j]]) for j in cols]
    sub = [[n11.entries[i][j] for j in cols] for i in rows]
    det = poly_det(sub)
    residue, roots = det, []
    for i in range(0, 12):
        factor = x_minus(i)
        while residue.degree > 0 and residue(i) == 0:
            residue = residue.exact_div(factor)
            roots.append(i)
    assert sorted(roots) == [5, 6, 7, 8]
    assert residue.degree == 0 and residue.coeffs[0] != 0
    # rows of the block carry zeros in the complementary columns
    complement = [j for j in range(len(n11.cols)) if j not in cols]
    assert not any(n11.entries[i][j] for i in rows for j in complement)
