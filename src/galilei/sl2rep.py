"""Finite-dimensional sl2 combinatorics and the Harish-Chandra simple calculus.

Finite-dimensional simples are identified with their highest weight: L(k) has
dimension k+1 and weights k, k-2, ..., -k.  The infinite-dimensional simples
of the fixed-central-character category are opaque labels V'(0), V'(2) and
V(n) for n >= 1; what the code knows about them is their multiplicity-free
list of finite-dimensional types

    V'(0): L(0), L(4), L(8), ...      V'(2): L(2), L(6), L(10), ...
    V(n):  L(n), L(n+2), L(n+4), ...

and the explicit case split for tensoring with L(k).
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Counter as CounterT, NamedTuple

from .genfun import weight_row


class _SimpleHCFields(NamedTuple):
    primed: bool
    index: int


class SimpleHC(_SimpleHCFields):
    """Label of a simple module in the fixed-central-character category.

    ``primed`` distinguishes the two special modules V'(0), V'(2) (whose
    index is 0 or 2) from the generic family V(n), n >= 1.  A label is the
    tuple (primed, index): equality, hashing and order are the tuple's.
    """

    __slots__ = ()

    def __new__(cls, primed: bool, index: int):
        if primed and index not in (0, 2):
            raise ValueError("primed labels exist only for indices 0 and 2")
        if not primed and index < 1:
            raise ValueError("V(n) requires n >= 1")
        return tuple.__new__(cls, (primed, index))

    def __str__(self):
        return f"V'({self.index})" if self.primed else f"V({self.index})"

    @classmethod
    def parse(cls, text: str) -> "SimpleHC":
        m = re.fullmatch(r"V(')?\(\s*(\d+)\s*\)", text.strip())
        if not m:
            raise ValueError(f"cannot parse simple label {text!r}")
        return cls(m.group(1) is not None, int(m.group(2)))


def Vp(index: int) -> SimpleHC:
    return SimpleHC(True, index)


def V(n: int) -> SimpleHC:
    return SimpleHC(False, n)


#: Multisets of simple labels (or of highest weights) are plain Counters.
HCMultiset = CounterT[SimpleHC]


# ---------------------------------------------------------------------------
# Finite-dimensional combinatorics
# ---------------------------------------------------------------------------

def clebsch_gordan(m: int, n: int) -> CounterT[int]:
    """L(m) (x) L(n) = L(m+n) + L(m+n-2) + ... + L(|m-n|), multiplicity one."""
    if m < 0 or n < 0:
        raise ValueError("highest weights must be non-negative")
    return Counter(range(abs(m - n), m + n + 1, 2))


def sym_power_decompose(k: int, n: int) -> CounterT[int]:
    """Multiplicities of each L(l) in the n-th symmetric power of L(k).

    Obtained by peeling the weight character: the multiplicity of L(l) is
    dim Sym^n(L(k))_l - dim Sym^n(L(k))_{l+2}, read from one weight row
    whose entry c is the dimension of weight 2c - kn.
    """
    if k < 0 or n < 0:
        raise ValueError("k, n must be non-negative")
    top = k * n
    row = weight_row(k, n) + [0]
    out: CounterT[int] = Counter()
    for c in range(top, (top - 1) // 2, -1):
        mult = row[c] - row[c + 1]
        if mult:
            out[2 * c - top] = mult
    return out


# ---------------------------------------------------------------------------
# Highest-weight module bookkeeping
# ---------------------------------------------------------------------------

def verma_weight_dim(k: int) -> int:
    """Dimension of the weight space 2k below the top of a Verma module.

    Counts monomials in the three negative generators (weights -2, -2, -4),
    which closes to (k^2+4k+4)/4 for even k and (k^2+4k+3)/4 for odd k.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if k % 2 == 0:
        return (k * k + 4 * k + 4) // 4
    return (k * k + 4 * k + 3) // 4


# ---------------------------------------------------------------------------
# The universal module Q(0): multiplicities and graded pieces
# ---------------------------------------------------------------------------

def q0_multiplicity(l: int) -> int:
    """Total multiplicity of L(l) in the reduced universal module Q(0).

    l/4 + 1 for l = 0 (mod 4), (l-2)/4 for l = 2 (mod 4), zero for odd l.
    """
    if l < 0:
        raise ValueError("l must be non-negative")
    if l % 2 == 1:
        return 0
    if l % 4 == 0:
        return l // 4 + 1
    return (l - 2) // 4


def q00_degree_part(k: int) -> CounterT[int]:
    """Multiset of L(l)'s in the degree-k graded piece of Q(0).

    Sym(L(4)) is Q(0) tensored with the free algebra on its invariants of
    degrees 2 and 3, so the piece is the signed sum, not a series product,
    Sym^k - Sym^(k-2) - Sym^(k-3) + Sym^(k-5) of decomposed symmetric powers
    of L(4); only nonzero multiplicities are kept.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    out: CounterT[int] = Counter()
    for n, sign in ((k, 1), (k - 2, -1), (k - 3, -1), (k - 5, 1)):
        if n >= 0:
            for l, mult in sym_power_decompose(4, n).items():
                out[l] += sign * mult
    return Counter({l: mult for l, mult in out.items() if mult})


# ---------------------------------------------------------------------------
# Harish-Chandra simples: g-types and tensor calculus
# ---------------------------------------------------------------------------

def g_types(s: SimpleHC, max_l: int) -> CounterT[int]:
    """Multiplicity-free finite-dimensional types of s, up to weight max_l."""
    if s.primed:
        start, step = s.index, 4
    else:
        start, step = s.index, 2
    return Counter(range(start, max_l + 1, step))


def hc_tensor(k: int, s: SimpleHC) -> HCMultiset:
    """Decomposition of L(k) (x) s into simples, by the explicit case split."""
    if k < 0:
        raise ValueError("k must be non-negative")
    out: HCMultiset = Counter()
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
        # k > n; k = n is handled above, so the doubled range is non-empty.
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


def hc_tensor_multiset(k: int, multiset: HCMultiset) -> HCMultiset:
    """Extend hc_tensor additively to a multiset of simples."""
    out: HCMultiset = Counter()
    for s, mult in multiset.items():
        for t, m in hc_tensor(k, s).items():
            out[t] += mult * m
    return out
