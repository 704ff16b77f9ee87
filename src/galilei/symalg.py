"""The symmetric algebra on a simple sl2-module, with the adjoint action.

Elements of Sym(L(n)) are multivariate polynomials in the weight basis
v_{-n}, v_{-n+2}, ..., v_n.  The generators e, f, h of sl2 act by
derivations extending their action on the basis:

    e . v_j = (n+j+2)/2 * v_{j+2}   (0 on the top vector),
    f . v_j = (n-j+2)/2 * v_{j-2}   (0 on the bottom vector),
    h . v_j = j * v_j.

Every weight of L(n) has the parity of n, so these coefficients are
integers.  The e-coefficients are the fixed convention; the f-coefficients are
forced by the sl2 relations and certified by the commutator property tests.
An element normalises its own coefficients: an int when integral, a
Fraction otherwise; as for ``exact``'s polynomials its truth value is its one
zero test.  An element is built from its term table alone, the
invariants C2 and C3 of Sym(L(4)) included; a check reads the degrees and
weights of an element's monomials off its terms (``monomial_weight``), so a
mixed element is a failed check, not an error.

``SymElement(n, terms)`` checks outside input: exponent tuples of length
n + 1 with non-negative int entries, and exact coefficients.  The results of
the action, ``-`` and ``*`` come from checked elements, so they go through
``SymElement._derived``, which checks nothing again; the action's steps are
memoised by ``_steps``, keyed on the coefficient function, n and the
direction.

The independence certificate is stated in the rescaled basis
w_j = c_j * v_j, with c_j the product of the raising coefficients below j.
There e steps along the chain with coefficient 1, and its action on
monomials reproduces the edge labels of the restricted Young lattice.  The
raised elements start from w_{-4} = v_{-4} and w_{-2} = v_{-2}, so they are
the same elements in either basis; only their coordinates differ, the one of
each monomial by a nonzero product of the c_j.  Rescaling coordinates keeps
the rank, so the v-basis rank computed here is the w-basis rank.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from operator import mul
from typing import Callable, Dict, List, Tuple

from .exact import ScalarLike, _signed_sum
from .linalg import bareiss_rank

Exponents = Tuple[int, ...]


class SymElement:
    """Element of Sym(L(n)) over the v basis.

    ``terms`` maps exponent tuples to nonzero coefficients, each an ``int``
    when it is integral and a ``Fraction`` otherwise (anything else is a
    ``TypeError``); position i of an exponent tuple refers to the basis vector
    of weight -n + 2i (lowest weight first).
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Dict[Exponents, ScalarLike] = None):
        if n < 0:
            raise ValueError("ambient highest weight must be non-negative")
        self.n = n
        clean: Dict[Exponents, ScalarLike] = {}
        for exps, coeff in (terms or {}).items():
            if len(exps) != n + 1:
                raise ValueError("exponent tuple has wrong length")
            if not all(type(e) is int and e >= 0 for e in exps):
                raise ValueError(f"exponents must be non-negative ints, got {exps!r}")
            if type(coeff) is not int:
                if not isinstance(coeff, (int, Fraction)):
                    raise TypeError(f"not an exact scalar: {coeff!r}")
                coeff = int(coeff) if coeff.denominator == 1 else coeff
            if coeff != 0:
                clean[tuple(exps)] = coeff
        self.terms = clean

    @classmethod
    def _derived(cls, n: int, terms: Dict[Exponents, ScalarLike]) -> "SymElement":
        """The element with these terms, computed from checked elements, so keys
        and coefficients are not re-checked; zeros are dropped and integral
        Fractions become ints.  Takes ownership of ``terms``."""
        self = object.__new__(cls)
        self.n = n
        for c in terms.values():
            if not c or type(c) is not int:
                terms = {exps: c if type(c) is int or c.denominator != 1 else c.numerator
                         for exps, c in terms.items() if c}
                break
        self.terms = terms
        return self

    # -- structure -----------------------------------------------------------

    def _compatible(self, other: "SymElement"):
        if self.n != other.n:
            raise ValueError("ambient module mismatch")

    def __bool__(self):
        return bool(self.terms)

    def __sub__(self, other: "SymElement") -> "SymElement":
        self._compatible(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            out[exps] = out.get(exps, 0) - c
        return SymElement._derived(self.n, out)

    def __mul__(self, other: "SymElement") -> "SymElement":
        self._compatible(other)
        out: Dict[Exponents, ScalarLike] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return SymElement._derived(self.n, out)

    def __eq__(self, other):
        if not isinstance(other, SymElement):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def monomial_weight(self, exps: Exponents) -> int:
        return sum(map(mul, exps, range(-self.n, self.n + 1, 2)))

    def __str__(self):
        names = [f"v[{2 * i - self.n}]" for i in range(self.n + 1)]
        return _signed_sum(
            (coeff, "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(names, exps) if e))
            for exps, coeff in sorted(self.terms.items())  # lowest basis first
        )

    def __repr__(self):
        return f"<SymElement n={self.n} {self}>"


def _raise_coefficient(n: int, weight: int) -> int:
    """Coefficient of the weight+2 vector in e . (weight vector); 0 at the top."""
    if weight >= n:
        return 0
    return (n + weight + 2) // 2


def _lower_coefficient(n: int, weight: int) -> int:
    """Coefficient of the weight-2 vector in f . (weight vector); 0 at the bottom."""
    if weight <= -n:
        return 0
    return (n - weight + 2) // 2


@functools.cache
def _steps(coefficient: Callable, n: int, shift: int) -> Tuple[Tuple[int, int, int], ...]:
    """The nonzero (i, i + shift, coefficient) steps of e (shift 1) or f
    (shift -1) on Sym(L(n))."""
    return tuple((i, i + shift, c) for i in range(n + 1) if (c := coefficient(n, 2 * i - n)))


def adjoint_action(generator: str, p: SymElement) -> SymElement:
    """Apply e, f or h to an element, extending the basis action by Leibniz.

    e and f move one unit of exponent from position i to i + 1 or i - 1,
    scaled by the basis coefficient at weight -n + 2i.  Those nonzero
    (i, i +- 1, coefficient) steps are built once per key of ``_steps``; the
    coefficient function in the key is the one the module holds at the call,
    so a coefficient replaced after import gets a table of its own.
    """
    if generator not in ("e", "f", "h"):
        raise ValueError("generator must be one of 'e', 'f', 'h'")
    n = p.n
    out: Dict[Exponents, ScalarLike] = {}
    if generator == "h":
        for exps, coeff in p.terms.items():
            weight = p.monomial_weight(exps)
            if weight:
                out[exps] = coeff * weight
        return SymElement._derived(n, out)
    steps = _steps(_raise_coefficient, n, 1) if generator == "e" else _steps(_lower_coefficient, n, -1)
    for exps, coeff in p.terms.items():
        for i, j, step in steps:
            e = exps[i]
            if e:
                new = list(exps)
                new[i] = e - 1
                new[j] += 1
                key = tuple(new)
                out[key] = out.get(key, 0) + coeff * e * step
    return SymElement._derived(n, out)


def is_invariant(p: SymElement) -> bool:
    """True iff both the raising and lowering derivations annihilate p."""
    return not adjoint_action("e", p) and not adjoint_action("f", p)


# ---------------------------------------------------------------------------
# The two invariants of Sym(L(4))
# ---------------------------------------------------------------------------

def build_C2() -> SymElement:
    """The degree-2 invariant v0^2 - 3 v_{-2} v_2 + 12 v_{-4} v_4, as a term
    table over the exponents of (v_{-4}, v_{-2}, v_0, v_2, v_4)."""
    return SymElement(4, {(0, 0, 2, 0, 0): 1, (0, 1, 0, 1, 0): -3, (1, 0, 0, 0, 1): 12})


def build_C3() -> SymElement:
    """The degree-3 invariant v0^3 - 9/2 v_{-2} v0 v_2 + 27/2 v_{-2}^2 v_4
    + 27/2 v_{-4} v_2^2 - 36 v_{-4} v0 v_4, as a term table over the exponents
    of (v_{-4}, v_{-2}, v_0, v_2, v_4)."""
    return SymElement(4, {
        (0, 0, 3, 0, 0): 1,
        (0, 1, 1, 1, 0): Fraction(-9, 2),
        (0, 2, 0, 0, 1): Fraction(27, 2),
        (1, 0, 0, 2, 0): Fraction(27, 2),
        (1, 0, 1, 0, 1): -36,
    })


# ---------------------------------------------------------------------------
# Linear independence of iterated raisings
# ---------------------------------------------------------------------------

def independence_vectors(k: int) -> List[SymElement]:
    """The elements e^i . (v_{-4}^i v_{-2}^{k-i}) for i = 0..k-1, in Sym(L(4))."""
    if k < 1:
        raise ValueError("k must be at least 1")
    vectors = []
    for i in range(k):
        p = SymElement(4, {(i, k - i, 0, 0, 0): 1})
        for _ in range(i):
            p = adjoint_action("e", p)
        vectors.append(p)
    return vectors


def independence_check(k: int) -> int:
    """Rank of the k iterated raisings; they are independent when it is k.

    All k elements live in the degree-k, weight -2k component; their
    integer coefficient vectors over the monomial basis of that component are
    assembled into a matrix whose rank Bareiss elimination returns.
    """
    vectors = independence_vectors(k)
    monomials = sorted({m for p in vectors for m in p.terms})
    matrix = [[p.terms.get(m, 0) for m in monomials] for p in vectors]
    return bareiss_rank(matrix)

