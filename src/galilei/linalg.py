"""Exact linear algebra: fraction-free elimination and polynomial determinants.

Rank and determinant come from one fraction-free (Bareiss) elimination over
arbitrary-precision integers, whose interior divisions are exact: the rank
is its number of pivots, the determinant its signed last pivot at full
rank.  A non-integer entry is an error, never truncated.

Determinants of matrices with integer-coefficient polynomial entries are
found in two steps.  First every column with at most one nonzero entry is
peeled off by Laplace expansion, which is exact for any matrix and leaves a
smaller core (empty for a triangular matrix up to row and column order);
the peeled entries are multiplied as int coefficient lists, and no
polynomial is built until the result.  Rows are not peeled: every peel of
the Young-lattice matrices N_n is a column.  The core's determinant is then
recovered by evaluating at the integer nodes 0..D and Newton-interpolating,
which keeps every step in the integers: each divided difference on
consecutive integer nodes is an integer, and every division is checked to
be exact.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .exact import Polynomial


def _eliminate(matrix: Sequence[Sequence[int]]) -> Tuple[int, int, int]:
    """Fraction-free (Bareiss) elimination of a copy of an integer matrix.

    Returns the rank, the sign of the row swaps and the last pivot, which at
    full rank is the determinant up to that sign.  A column with no pivot is
    skipped; every interior division is exact; a non-int entry is a TypeError.
    """
    m = [list(row) for row in matrix]
    if any(type(x) is not int for row in m for x in row):
        raise TypeError("Bareiss elimination needs int entries")
    n_rows, n_cols = len(m), len(m[0]) if m else 0
    sign, prev, r = 1, 1, 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            sign = -sign
        top = m[r]
        for row in m[r + 1 :]:
            for j in range(c + 1, n_cols):
                row[j] = (row[j] * top[c] - row[c] * top[j]) // prev
            row[c] = 0
        prev = top[c]
        r += 1
        if r == n_rows:
            break
    return r, sign, prev


def bareiss_rank(matrix: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix via fraction-free Gaussian elimination."""
    return _eliminate(matrix)[0]


def bareiss_det(matrix: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix, fraction-free; 0 below full rank."""
    if any(len(row) != len(matrix) for row in matrix):
        raise ValueError("determinant of a non-square matrix")
    rank, sign, last = _eliminate(matrix)
    return sign * last if rank == len(matrix) else 0


def poly_det(matrix: Sequence[Sequence[Polynomial]]) -> Polynomial:
    """Exact determinant of a square matrix of integer-coefficient polynomials.

    First peels: while some column has at most one nonzero entry,
    Laplace-expands along it.  An empty column makes the determinant zero;
    a single entry goes into a running factor, an int coefficient list
    and a sign, with a sign flip when its current (row + column) position
    is odd, and its row and column leave the matrix.  Rows are not peeled,
    as no peel of N_2..N_40 is a row: a matrix whose only singletons are
    rows is exact too, from a larger core.  What remains is the core
    (possibly 0x0), evaluated at the integer nodes 0..D
    (D = the sum of its row maxima of degree) and Newton-interpolated; an
    integer polynomial takes an int at an int node, so the evaluations are
    plain integer determinants.  The one polynomial built is the result.
    """
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    if any(len(row) != n for row in matrix):
        raise ValueError("determinant of a non-square matrix")
    var = matrix[0][0].var
    row_nz = [{j for j, e in enumerate(row) if e.coeffs} for row in matrix]
    col_nz = [set() for _ in range(n)]
    for i, row in enumerate(row_nz):
        for j in row:
            col_nz[j].add(i)
    rows, cols = list(range(n)), list(range(n))
    factor, sign = [1], 1
    pending = list(range(n))
    while pending:
        j = pending.pop()
        if col_nz[j] is None or len(col_nz[j]) > 1:
            continue
        if not col_nz[j]:
            return Polynomial(var)
        (i,) = col_nz[j]
        factor = _times(factor, matrix[i][j].coeffs)
        if (rows.index(i) + cols.index(j)) % 2:
            sign = -sign
        rows.remove(i)
        cols.remove(j)
        # row i leaves: every column it meets loses an entry, j its last
        for jj in row_nz[i]:
            col_nz[jj].discard(i)
            pending.append(jj)
        col_nz[j] = None
    core = [[matrix[i][j] for j in cols] for i in rows]
    bound = sum(max((e.degree for e in row), default=0) for row in core)
    values = [bareiss_det([[entry(t) for entry in row] for row in core]) for t in range(bound + 1)]
    core_det = _newton_interpolate(var, values)
    return Polynomial(var, [sign * c for c in _times(factor, core_det.coeffs)])


def _times(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """The coefficient list of the product of two polynomials, from theirs.
    ``a`` is nonempty; an empty ``b`` (the zero polynomial) gives zeros."""
    out = [0] * (len(a) + len(b) - 1)
    for j, y in enumerate(b):
        out[j : j + len(a)] = [o + x * y for o, x in zip(out[j:], a)]
    return out


def _newton_interpolate(var: str, values: Sequence[int]) -> Polynomial:
    """The integer-coefficient polynomial taking values[t] at t = 0..D.

    On consecutive integer nodes the j-th divided difference is
    Delta^j f / j!, an integer whenever f has integer coefficients; a
    division that leaves a remainder raises ArithmeticError.
    """
    diffs = list(values)
    for j in range(1, len(diffs)):
        for i in range(len(diffs) - 1, j - 1, -1):
            q, r = divmod(diffs[i] - diffs[i - 1], j)
            if r:
                raise ArithmeticError("values do not come from an integer-coefficient polynomial")
            diffs[i] = q
    # Horner over the Newton basis x(x-1)...(x-t+1)
    x = Polynomial(var, (0, 1))
    result = Polynomial(var)
    for t in range(len(diffs) - 1, -1, -1):
        result = result * (x - t) + diffs[t]
    return result
