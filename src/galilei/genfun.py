"""Weight generating functions for symmetric powers of simple sl2-modules.

For the (k+1)-dimensional simple module with weight basis of weights
k, k-2, ..., -k, let F_l^(k)(q) be the series whose q^n coefficient is the
dimension of the l-weight space of the n-th symmetric power.  Equivalently,
that coefficient counts non-negative integer tuples (a_0, ..., a_k) with

    k*a_0 + (k-2)*a_1 + ... + (-k)*a_k = l   and   a_0 + ... + a_k = n.

This module computes F_l^(k) by three independent routes:

* ``f_enum``   -- exact lattice-point counting (the oracle),
* ``f_recur``  -- a recursion reducing k to k-2, grounded at k in {0, 1},
* ``f_closed`` -- transcribed closed-form rational functions (k <= 4 for all
                  l, k=5 for l <= 3, k=6 for l in {0,2,4,6}).

The recursion evaluates one level at a time by running sums over packed
series, and its memo holds one table only: the level below k, which later
calls with the same k and no larger degree reuse.

On top of these sit the invariant Hilbert series F_0 - F_2, the freeness
quotient (F_l - F_{l+2})/(F_0 - F_2) whose negative coefficients certify
non-freeness, and a greedy detector for the generators/relation shape of the
invariant ring.  A single weight-space dimension is one field of the
lattice-count table, read by ``sym_weight_dim`` without building a series;
``weight_row`` unpacks a whole row of it.
"""

from __future__ import annotations

import math
import sys
from math import comb
from typing import Dict, List, NamedTuple, Optional, Tuple

from .exact import Polynomial, RationalFunction, TruncatedSeries

#: Default truncation degree; every claim checked here manifests by degree 36.
DEFAULT_TRUNCATION = 60


class NoClosedFormError(ValueError):
    """Raised for (k, l) pairs with no transcribed closed form."""


class StructureNotRecognizedError(RuntimeError):
    """The invariant series matched neither a free nor a one-relation shape."""


def _qpow(n: int) -> Polynomial:
    return Polynomial.monomial("q", n)


def geometric_den(*degrees: int) -> Polynomial:
    """Product of (1 - q^d) over the given degrees."""
    out = Polynomial.one("q")
    for d in degrees:
        out = out * (Polynomial.one("q") - _qpow(d))
    return out


# ---------------------------------------------------------------------------
# f_enum: dynamic-programming lattice-point count
# ---------------------------------------------------------------------------

#: k -> (w, rows), the packed table built by ``_weight_degree_table``.
_enum_tables: Dict[int, Tuple[int, List[int]]] = {}


def _weight_degree_table(k: int, degree: int) -> Tuple[int, List[int]]:
    """Weight counts of monomials of every degree n <= ``degree``, for k >= 1.

    Every degree-n monomial has weight congruent to k*n mod 2, so only those
    weights are stored: row n is one int holding k*n + 1 fields of w bits,
    field c counting the degree-n monomials of weight 2c - k*n.  No cell
    exceeds C(n + k, k), the number of degree-n monomials, so with w at least
    its bit length no field carries into the next; w is a whole number of
    bytes for ``weight_row``.  One table is kept per k: it serves every
    smaller degree, and a larger degree drops it before rebuilding.
    """
    entry = _enum_tables.get(k)
    if entry is not None and len(entry[1]) > degree:
        return entry
    _enum_tables.pop(k, None)
    w = 8 * ((comb(degree + k, k).bit_length() + 7) // 8)
    rows = [1] + [0] * degree
    # Adding one factor of weight k - 2i moves a count from field c of row
    # n - 1 to field c + k - i of row n (the row offset grows by k/2).
    for i in range(k + 1):
        shift = (k - i) * w
        for n in range(1, degree + 1):
            rows[n] += rows[n - 1] << shift
    entry = _enum_tables[k] = (w, rows)
    return entry


def sym_weight_dim(k: int, n: int, l: int) -> int:
    """Dimension of the l-weight space of Sym^n(L(k)): one table field.

    Weights are symmetric about 0, lie in [-kn, kn] and have the parity of kn;
    Sym^n(L(0)) is the trivial module and needs no table.
    """
    if k < 0 or n < 0:
        raise ValueError("k, n must be non-negative")
    l = abs(l)
    if l > k * n or (l + k * n) % 2:
        return 0
    if k == 0:
        return 1
    w, rows = _weight_degree_table(k, n)
    return (rows[n] >> ((l + k * n) // 2 * w)) & ((1 << w) - 1)


def weight_row(k: int, n: int) -> List[int]:
    """dim Sym^n(L(k))_(2c - kn) for c = 0..kn: one table row, unpacked once."""
    if k < 0 or n < 0:
        raise ValueError("k, n must be non-negative")
    if k == 0:
        return [1]
    w, rows = _weight_degree_table(k, n)
    size, count = w // 8, k * n + 1
    data = rows[n].to_bytes(count * size, "little")
    if size > 8 or sys.byteorder != "little":
        return [int.from_bytes(data[i:i + size], "little") for i in range(0, len(data), size)]
    # widen every field to 8 bytes, one strided copy per byte, and read them as machine words
    wide = bytearray(8 * count)
    for b in range(size):
        wide[b::8] = data[b::size]
    return memoryview(wide).cast("Q").tolist()


def f_enum(k: int, l: int, degree: int = DEFAULT_TRUNCATION) -> TruncatedSeries:
    """F_l^(k) to the given degree by exact counting: the cells sym_weight_dim(k, n, l).

    The table is fetched once, to the full degree, and field (l + kn) / 2 of
    each row is read in place; rows with l > kn or l + kn odd hold no such
    weight.  Sym^n(L(0)) is trivial, and l > k * degree needs no table.
    """
    if k < 0 or l < 0 or degree < 0:
        raise ValueError("k, l, degree must be non-negative")
    if not k or l > k * degree:
        return TruncatedSeries([int(l == 0)] * (degree + 1))
    w, rows = _weight_degree_table(k, degree)
    mask = (1 << w) - 1
    return TruncatedSeries([
        (rows[n] >> ((l + k * n) // 2 * w)) & mask if l <= k * n and (l + k * n) % 2 == 0 else 0
        for n in range(degree + 1)
    ])


# ---------------------------------------------------------------------------
# f_recur: the k -> k-2 recursion
# ---------------------------------------------------------------------------
#
# Splitting the top and bottom weights k and -k off L(k) leaves L(k-2), so
#
#     F_l^(k) = (1 - q^2)^-1 sum_d q^|d| F^(k-2)_|l - kd|.
#
# The sum commutes with multiplying every F^(k-2)_b by one series, so the
# factors (1 - q^2)^-1 of the levels g+2, ..., k all move onto the ground
# g = k mod 2: level j holds X_b = F_b^(j) / (1 - q^2)^((k-j)/2) for
# b = 0..jN (F_b^(j) vanishes to degree N past jN), and level k is F^(k).
# Each X_b is packed into one int of N + 1 fields of w bits, field n holding
# its q^n coefficient.

#: k -> (degree, w, level k - 2): the one table a later call reuses, for the
#: same k and any degree up to ``degree``; any other call replaces it.
_recur_tables: Dict[int, Tuple[int, int, List[int]]] = {}


def _recur_width(k: int, degree: int) -> int:
    """Field width in bits, a whole number of bytes, for L(k) to ``degree``.

    A field of level j counts monomials of one weight and weighted degree
    n <= N in the j + 1 variables of L(j) and (k-j)/2 more of degree 2, and a
    running sum is a partial sum of such a field; so every field is a
    non-negative count of at most C(N+k+1, k+1), the monomials of degree
    <= N in k + 1 variables, and none carries into the next.  The recursion
    reads ``math.comb``, no name it shares with f_enum.
    """
    return 8 * ((math.comb(degree + k + 1, k + 1).bit_length() + 7) // 8)


def _recur_ground(k: int, degree: int, w: int) -> List[int]:
    """Level g = k mod 2, carrying all the factors (1 - q^2)^-1 of the levels.

    F^(0) is 1/(1 - q) at b = 0 only and F_b^(1) is q^b/(1 - q^2), so X_0 is
    1/(1 - q) for even k and X_b is q^b for odd k, times (1 - q^2)^-((k+1)//2),
    each factor applied as (1 + q^2)(1 + q^4)(1 + q^8)...
    """
    mask = (1 << (degree + 1) * w) - 1
    series = mask // ((1 << w) - 1) if k % 2 == 0 else 1
    for _ in range((k + 1) // 2):
        step = 2
        while step <= degree:
            series = (series + (series << step * w)) & mask
            step *= 2
    if k % 2 == 0:
        return [series]
    return [(series << b * w) & mask for b in range(degree + 1)]


def _recur_level(j: int, below: List[int], degree: int, w: int) -> List[int]:
    """Level j from level j - 2 (Y): X_x = sum_d q^|d| Y_|x - jd| for x <= jN.

    Along each residue class mod j, A(x) = Y_x + q A(x - j) sums the terms
    d >= 0 and C(x) = Y_x + q C(x + j) the terms d <= 0, so X_x = A(x) +
    q C(x + j), and A(-y) = C(y) seeds A.  Y vanishes to degree N past
    (j-2)N, and so does C.
    """
    mask = (1 << (degree + 1) * w) - 1
    size = j * degree + 1
    y = below + [0] * (size - len(below))
    # out[x] holds C(x) until X_x replaces it; the walk up a class reads
    # C(x + j) one step before replacing it
    out = [0] * (size + j)
    for x in range(len(below) - 1, 0, -1):
        out[x] = (y[x] + (out[x + j] << w)) & mask
    for r, a in zip(range(size), out[j:0:-1]):
        for x in range(r, size, j):
            a = (y[x] + (a << w)) & mask
            out[x] = (a + (out[x + j] << w)) & mask
    del out[size:]
    return out


def f_recur(k: int, l: int, degree: int = DEFAULT_TRUNCATION) -> TruncatedSeries:
    """F_l^(k) via the weight-splitting recursion; requires k >= 2."""
    if k < 2:
        raise ValueError("the recursion route needs k >= 2")
    if l < 0 or degree < 0:
        raise ValueError("l, degree must be non-negative")
    if l > k * degree:
        return TruncatedSeries([0] * (degree + 1))
    entry = _recur_tables.get(k)
    if entry is None or entry[0] < degree:
        _recur_tables.clear()
        w = _recur_width(k, degree)
        level = _recur_ground(k, degree, w)
        for j in range(k % 2 + 2, k - 1, 2):
            level = _recur_level(j, level, degree, w)
        entry = _recur_tables[k] = (degree, w, level)
    _, w, below = entry
    mask = (1 << (degree + 1) * w) - 1
    top = len(below) - 1
    acc = 0
    # Horner in q along the residue class of l: q^t carries Y_|l - kt| and,
    # for t > 0, Y_(l + kt); past t = (l + top)/k both vanish
    for t in range(min(degree, (l + top) // k), -1, -1):
        low, high = abs(l - k * t), l + k * t
        term = (below[low] if low <= top else 0) + (below[high] if t and high <= top else 0)
        acc = (term + (acc << w)) & mask
    size = w // 8
    data = acc.to_bytes((degree + 1) * size, "little")
    coeffs = [int.from_bytes(data[i:i + size], "little") for i in range(0, len(data), size)]
    return TruncatedSeries(coeffs)


# ---------------------------------------------------------------------------
# f_closed: transcribed closed forms
# ---------------------------------------------------------------------------

def _closed_k3(l: int) -> RationalFunction:
    one = Polynomial.one("q")
    den = geometric_den(2, 2, 4)
    r = l % 3
    if r == 0:
        num = (one + _qpow(2) + _qpow(4) - _qpow(2 * l // 3 + 2)).shift(l // 3)
    elif r == 1:
        num = (one + _qpow(2).scale(2) - _qpow((2 * l + 4) // 3)).shift((l + 2) // 3)
    else:
        num = (Polynomial.constant("q", 2) + _qpow(2) - _qpow((2 * l + 2) // 3)).shift((l + 4) // 3)
    return RationalFunction(num, den)


def _closed_k4(l: int) -> RationalFunction:
    if l % 2 == 1:
        return RationalFunction(Polynomial.zero("q"))
    one = Polynomial.one("q")
    den = geometric_den(1, 1, 2, 3)
    if l % 4 == 0:
        num = (one + _qpow(2) - _qpow(l // 4 + 1)).shift(l // 4)
    else:
        # inner exponent (l-2)/4 + 1 = (l+2)/4; forced by F_0 - F_2 and the
        # enumeration oracle (for l=2 the numerator collapses to q).
        m = (l + 2) // 4
        num = (one + _qpow(1) - _qpow(m)).shift(m)
    return RationalFunction(num, den)


def _closed_k5(l: int) -> RationalFunction:
    if l == 0:
        num = Polynomial("q", (1, 0, 1, 0, 6, 0, 9, 0, 12, 0, 9, 0, 6, 0, 1, 0, 1))
        return RationalFunction(num, geometric_den(2, 2, 4, 6, 8))
    if l == 1:
        num = Polynomial("q", (1, 0, 3, 0, 5, 0, 5, 0, 5, 0, 3, 0, 1)).shift(1)
        return RationalFunction(num, geometric_den(2, 2, 2, 6, 8))
    if l == 2:
        num = Polynomial("q", (3, 0, 5, 0, 7, 0, 5, 0, 3)).shift(2)
        return RationalFunction(num, geometric_den(2, 2, 4, 4, 6))
    # l == 3
    num = Polynomial("q", (1, 0, 3, 0, 4, 0, 7, 0, 4, 0, 3, 0, 1)).shift(1)
    return RationalFunction(num, geometric_den(2, 2, 2, 6, 8))


def _closed_k6(l: int) -> RationalFunction:
    if l == 0:
        num = Polynomial("q", (1, 0, 1, 3, 4, 4, 4, 3, 1, 0, 1))
        return RationalFunction(num, geometric_den(1, 2, 2, 3, 4, 5))
    if l == 2:
        num = Polynomial("q", (1, 2, 2, 1, 2, 2, 1)).shift(1)
        return RationalFunction(num, geometric_den(1, 2, 2, 2, 3, 5))
    if l == 4:
        num = Polynomial("q", (1, 2, 2, 4, 4, 4, 2, 2, 1)).shift(1)
        return RationalFunction(num, geometric_den(1, 2, 2, 3, 4, 5))
    # l == 6
    num = Polynomial("q", (1, 1, 2, 3, 2, 1, 1)).shift(1)
    return RationalFunction(num, geometric_den(1, 2, 2, 2, 3, 5))


def f_closed(k: int, l: int) -> RationalFunction:
    """The closed-form F_l^(k) as a canonical rational function.

    Supported exactly where has_closed_form(k, l) holds; anything else
    raises NoClosedFormError rather than guessing.
    """
    if k < 0 or l < 0:
        raise ValueError("k, l must be non-negative")
    if not has_closed_form(k, l):
        raise NoClosedFormError(f"no closed form for k={k}, l={l}")
    if k == 0:
        if l == 0:
            return RationalFunction(Polynomial.one("q"), geometric_den(1))
        return RationalFunction(Polynomial.zero("q"))
    if k == 1:
        return RationalFunction(_qpow(l), geometric_den(2))
    if k == 2:
        if l % 2 == 1:
            return RationalFunction(Polynomial.zero("q"))
        return RationalFunction(_qpow(l // 2), geometric_den(1, 2))
    if k == 3:
        return _closed_k3(l)
    if k == 4:
        return _closed_k4(l)
    if k == 5:
        return _closed_k5(l)
    return _closed_k6(l)


def has_closed_form(k: int, l: int) -> bool:
    """The transcribed closed forms: k <= 4 (all l), k = 5 (l <= 3), k = 6 (l in {0, 2, 4, 6})."""
    if k <= 4:
        return True
    if k == 5:
        return l <= 3
    if k == 6:
        return l in (0, 2, 4, 6)
    return False


# ---------------------------------------------------------------------------
# Invariant series, freeness quotient, structure detection
# ---------------------------------------------------------------------------

def invariant_series(k: int, degree: int = DEFAULT_TRUNCATION) -> TruncatedSeries:
    """Hilbert series F_0 - F_2 of the invariant ring, to the given degree, by enumeration."""
    return f_enum(k, 0, degree) - f_enum(k, 2, degree)


def freeness_quotient(
    k: int, l: int, degree: int = DEFAULT_TRUNCATION
) -> Tuple[TruncatedSeries, Optional[int]]:
    """(F_l - F_{l+2})/(F_0 - F_2) plus its first negative degree, if any.

    A negative coefficient certifies that the symmetric algebra is not free
    over its invariants.
    """
    numerator = f_enum(k, l, degree) - f_enum(k, l + 2, degree)
    quotient = numerator / invariant_series(k, degree)
    return quotient, quotient.first_negative()


class InvariantStructure(NamedTuple):
    """Generator degrees of the invariant ring, plus one relation degree if any.

    ``relation_degree is None`` means the series matched a free polynomial
    algebra on the listed generator degrees.
    """

    generator_degrees: Tuple[int, ...]
    relation_degree: Optional[int]

    def describe(self) -> str:
        gens = ", ".join(map(str, self.generator_degrees)) or "none"
        if self.relation_degree is None:
            return f"polynomial algebra, generator degrees [{gens}]"
        return (
            f"generator degrees [{gens}] with one relation of degree "
            f"{self.relation_degree}"
        )


def detect_invariant_structure(
    k: int, degree: int = DEFAULT_TRUNCATION
) -> InvariantStructure:
    """Greedily factor the invariant Hilbert series as prod 1/(1-q^d) [* (1-q^e)].

    Repeatedly divides out 1/(1-q^d) for the smallest degree d with a positive
    coefficient; the residual must end up as 1 (free) or 1 - q^e (single
    relation of degree e).  The reconstruction is verified against the input
    series before returning; anything else raises StructureNotRecognizedError,
    and so do more than ``degree`` generators.

    The structure is read off the series up to ``degree`` only, so it holds
    only up to that degree: for k = 5 the relation is in degree 36, and to
    degree 20 the ring looks free.
    """
    series = invariant_series(k, degree)
    residual = list(series.coeffs)
    if residual[0] != 1:
        raise StructureNotRecognizedError("constant term is not 1")
    generators: List[int] = []
    while True:
        d = next((i for i in range(1, degree + 1) if residual[i] > 0), None)
        if d is None:
            break
        # d never decreases and each pass lowers residual[d] by 1, so the loop
        # ends; the cap only bounds its time
        if len(generators) > degree:
            raise StructureNotRecognizedError(
                f"more than {degree} generators to degree {degree} for k={k}"
            )
        generators.append(d)
        # multiply the residual by (1 - q^d)
        for i in range(degree, d - 1, -1):
            residual[i] -= residual[i - d]
    negatives = [i for i in range(1, degree + 1) if residual[i] != 0]
    if not negatives:
        structure = InvariantStructure(tuple(generators), None)
    elif len(negatives) == 1 and residual[negatives[0]] == -1:
        structure = InvariantStructure(tuple(generators), negatives[0])
    else:
        raise StructureNotRecognizedError(
            f"residual is neither 1 nor 1 - q^e for k={k}"
        )

    if reconstruct_structure_series(structure, degree) != series:
        raise StructureNotRecognizedError(
            f"reconstruction mismatch for k={k}: {structure}"
        )
    return structure


def reconstruct_structure_series(
    structure: InvariantStructure, degree: int
) -> TruncatedSeries:
    """Expand prod 1/(1-q^d) (times (1-q^e) for a relation) to the degree."""
    out = TruncatedSeries([1] + [0] * degree)
    for d in structure.generator_degrees:
        geom = TruncatedSeries([1 if n % d == 0 else 0 for n in range(degree + 1)])
        out = out * geom
    if structure.relation_degree is not None:
        rel = Polynomial.one("q") - _qpow(structure.relation_degree)
        out = out * TruncatedSeries.from_polynomial(rel, degree)
    return out


def clear_memo_caches() -> None:
    """Drop in-process memo tables (mainly for tests)."""
    _enum_tables.clear()
    _recur_tables.clear()
