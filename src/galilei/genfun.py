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

On top of these sit the invariant Hilbert series F_0 - F_2, the freeness
quotient (F_l - F_{l+2})/(F_0 - F_2) whose negative coefficients certify
non-freeness, and a greedy detector for the generators/relation shape of the
invariant ring.  A single weight-space dimension is one cell of the
lattice-count table, read by ``sym_weight_dim`` without building a series.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import add
from typing import Dict, List, Optional, Tuple

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

_enum_tables: Dict[int, List[List[int]]] = {}


def _weight_degree_table(k: int, degree: int) -> List[List[int]]:
    """Weight counts of monomials of every degree n <= ``degree``, for k >= 1.

    Every degree-n monomial has weight congruent to k*n mod 2, so only those
    weights are stored: row n has width k*n + 1 and column c counts the
    degree-n monomials of weight 2c - k*n (``sym_weight_dim`` reads one
    cell).  One table is kept per k: it serves every smaller degree and is
    rebuilt only when a larger degree is asked for.
    """
    table = _enum_tables.get(k)
    if table is not None and len(table) > degree:
        return table
    table = [[0] * (k * n + 1) for n in range(degree + 1)]
    table[0][0] = 1
    # Adding one factor of weight k - 2i moves a count from column c of row
    # n - 1 to column c + k - i of row n (the row offset grows by k/2).
    for i in range(k + 1):
        s = k - i
        for n in range(1, degree + 1):
            prev, cur = table[n - 1], table[n]
            end = s + len(prev)
            cur[s:end] = map(add, cur[s:end], prev)
    _enum_tables[k] = table
    return table


def sym_weight_dim(k: int, n: int, l: int) -> int:
    """Dimension of the l-weight space of Sym^n(L(k)): one table cell.

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
    return _weight_degree_table(k, n)[n][(l + k * n) // 2]


def f_enum(k: int, l: int, degree: int = DEFAULT_TRUNCATION) -> TruncatedSeries:
    """F_l^(k) to the given degree by exact counting: the cells sym_weight_dim(k, n, l)."""
    if k < 0 or l < 0 or degree < 0:
        raise ValueError("k, l, degree must be non-negative")
    if k and l <= k * degree:
        # build once, to the full degree: reading n upward would rebuild at every n
        _weight_degree_table(k, degree)
    return TruncatedSeries("q", [sym_weight_dim(k, n, l) for n in range(degree + 1)])


# ---------------------------------------------------------------------------
# f_recur: the k -> k-2 recursion
# ---------------------------------------------------------------------------

#: (k, b) -> (built, head): the stride-2 prefix sums P of F_b^(k) to degree
#: ``built``, kept as head = (z, P[z:]) with z the index of the first nonzero
#: entry, or head = None when F_b^(k) is zero to that degree.  An entry serves
#: every degree up to ``built``; a larger degree rebuilds it.
_recur_prefixes: Dict[Tuple[int, int], Tuple[int, Optional[Tuple[int, List[int]]]]] = {}


def _ground_coeffs(k: int, l: int, degree: int) -> List[int]:
    """Closed-form series for k in {0, 1} grounding the recursion."""
    if k == 0:
        return [1 if l == 0 else 0] * (degree + 1)
    # k == 1: q^l / (1 - q^2)
    return [1 if n >= l and (n - l) % 2 == 0 else 0 for n in range(degree + 1)]


def _stride2_prefix(k: int, b: int, degree: int) -> Optional[Tuple[int, List[int]]]:
    """(z, P[z:]) for P[r] = F[r] + F[r-2] + ... and F = F_b^(k) to at least
    ``degree``, z the first index where F is nonzero; None when F is zero.

    Computed once per (k, b) and shared by every recursion step that adds a
    shifted copy of it; the leading zeros of P are never stored or added.
    """
    entry = _recur_prefixes.get((k, b))
    if entry is not None and entry[0] >= degree:
        return entry[1]
    coeffs = _ground_coeffs(k, b, degree) if k <= 1 else _recur_coeffs(k, b, degree)
    z = next((r for r, c in enumerate(coeffs) if c), None)
    head = None
    if z is not None:
        tail = coeffs[z:]
        for r in range(2, len(tail)):
            tail[r] += tail[r - 2]
        head = (z, tail)
    _recur_prefixes[k, b] = (degree, head)
    return head


def _recur_coeffs(k: int, l: int, degree: int) -> List[int]:
    out = [0] * (degree + 1)
    # F_b^(k-2) vanishes up to the degree once b > top, and a shift by
    # q^|d| with |d| > degree is truncated away, so d is bounded on both ends.
    top = (k - 2) * degree
    # First sum: k*a + b - k*c = l with b >= 0; d = a - c and b = l - k*d.
    first = range(max(-degree, -((top - l) // k)), min(l // k, degree) + 1)
    # Second sum: k*a - b - k*c = l + 1 with b >= 0, contributing F_{b+1},
    # whose index is k*d - l; d starts at ceil((l+1)/k).
    second = range(-((-(l + 1)) // k), min((l + top) // k, degree) + 1)
    terms = chain(((l - k * d, d) for d in first), ((k * d - l, d) for d in second))
    for b, d in terms:
        # add sum over s = |d|, |d|+2, ... of q^s * F^(k-2)_b, from its first
        # nonzero coefficient on
        head = _stride2_prefix(k - 2, b, degree)
        if head is not None:
            z, tail = head
            start = abs(d) + z
            if start <= degree:
                out[start:] = map(add, out[start:], tail)
    return out


def f_recur(k: int, l: int, degree: int = DEFAULT_TRUNCATION) -> TruncatedSeries:
    """F_l^(k) via the weight-splitting recursion; requires k >= 2."""
    if k < 2:
        raise ValueError("the recursion needs k >= 2")
    if l < 0 or degree < 0:
        raise ValueError("l, degree must be non-negative")
    return TruncatedSeries("q", _recur_coeffs(k, l, degree))


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
    if l == 3:
        num = Polynomial("q", (1, 0, 3, 0, 4, 0, 7, 0, 4, 0, 3, 0, 1)).shift(1)
        return RationalFunction(num, geometric_den(2, 2, 2, 6, 8))
    raise NoClosedFormError(f"no closed form for k=5, l={l}")


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
    if l == 6:
        num = Polynomial("q", (1, 1, 2, 3, 2, 1, 1)).shift(1)
        return RationalFunction(num, geometric_den(1, 2, 2, 2, 3, 5))
    raise NoClosedFormError(f"no closed form for k=6, l={l}")


def f_closed(k: int, l: int) -> RationalFunction:
    """The closed-form F_l^(k) as a canonical rational function.

    Supported: k <= 4 (all l), k = 5 (l <= 3), k = 6 (l in {0, 2, 4, 6}).
    Anything else raises NoClosedFormError rather than guessing.
    """
    if k < 0 or l < 0:
        raise ValueError("k, l must be non-negative")
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
    if k == 6:
        return _closed_k6(l)
    raise NoClosedFormError(f"no closed form for k={k}")


def has_closed_form(k: int, l: int) -> bool:
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


@dataclass(frozen=True)
class InvariantStructure:
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
    series before returning; anything else raises StructureNotRecognizedError.
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
        if len(generators) > degree:
            raise StructureNotRecognizedError("generator extraction did not terminate")
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
    out = TruncatedSeries("q", [1] + [0] * degree)
    for d in structure.generator_degrees:
        geom = TruncatedSeries(
            "q", [1 if n % d == 0 else 0 for n in range(degree + 1)]
        )
        out = out * geom
    if structure.relation_degree is not None:
        rel = Polynomial.one("q") - _qpow(structure.relation_degree)
        out = out * TruncatedSeries.from_polynomial(rel, degree)
    return out


def clear_memo_caches() -> None:
    """Drop in-process memo tables (mainly for tests)."""
    _enum_tables.clear()
    _recur_prefixes.clear()
