"""Finite-dimensional sl2 combinatorics and the Harish-Chandra simple calculus.

Finite-dimensional simples are identified with their highest weight: L(k) has
dimension k+1 and weights k, k-2, ..., -k.  The infinite-dimensional simples
of the fixed-central-character category are opaque labels V'(0), V'(2) and
V(n) for n >= 1; what the code knows about them is their multiplicity-free
list of finite-dimensional types, an evenly spaced range of highest weights

    V'(0): L(0), L(4), L(8), ...      V'(2): L(2), L(6), L(10), ...
    V(n):  L(n), L(n+2), L(n+4), ...

and one reflection rule for tensoring with L(k), stated at ``hc_tensor``:
Clebsch-Gordan's range of indices, with the indices below 0 reflected.
``V`` and ``Vp`` intern their labels: each returns one ``SimpleHC`` per
index, validated on its first call; an invalid index raises on every call
and is never cached.
"""

from __future__ import annotations

import functools
import re
from collections import Counter
from operator import add, sub
from typing import Counter as CounterT, List, NamedTuple

from .exact import shared
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

    def __repr__(self):
        return f"V'({self.index})" if self.primed else f"V({self.index})"

    @classmethod
    def parse(cls, text: str) -> "SimpleHC":
        m = re.fullmatch(r"V(')?\(\s*(\d+)\s*\)", text.strip())
        if not m:
            raise ValueError(f"cannot parse simple label {text!r}")
        return (Vp if m.group(1) else V)(int(m.group(2)))


@functools.cache
def Vp(index: int) -> SimpleHC:
    return SimpleHC(True, index)


@functools.cache
def V(n: int) -> SimpleHC:
    return SimpleHC(False, n)


#: Multisets of simple labels are Counters, and so are the peeled characters;
#: a multiplicity-free list of highest weights (``clebsch_gordan``,
#: ``g_types``) is a range.
HCMultiset = CounterT[SimpleHC]


# ---------------------------------------------------------------------------
# Finite-dimensional combinatorics
# ---------------------------------------------------------------------------

def clebsch_gordan(m: int, n: int) -> range:
    """L(m) (x) L(n) = L(|m-n|) + L(|m-n|+2) + ... + L(m+n), each once: the
    range of the summands' highest weights, lowest first."""
    if m < 0 or n < 0:
        raise ValueError("highest weights must be non-negative")
    return range(abs(m - n), m + n + 1, 2)


def sym_power_decompose(k: int, n: int) -> CounterT[int]:
    """Multiplicities of each L(l) in the n-th symmetric power of L(k).

    Obtained by peeling the weight character: the multiplicity of L(l) is
    dim Sym^n(L(k))_l - dim Sym^n(L(k))_{l+2}, read from the dominant half of
    one weight row, whose entry j is the dimension of weight kn mod 2 + 2j.
    """
    if k < 0 or n < 0:
        raise ValueError("k, n must be non-negative")
    return _peel(weight_row(k, n), k * n % 2)


def _peel(row: List[int], low: int) -> CounterT[int]:
    """Nonzero multiplicities of each L(l), highest l first, in a character
    given by its dominant half: field j of ``row`` has weight low + 2j >= 0,
    which fixes the character since weight -l has the dimension of weight l."""
    row = row + [0]
    out: CounterT[int] = Counter()
    for j in range(len(row) - 2, -1, -1):
        mult = row[j] - row[j + 1]
        if mult:
            out[low + 2 * j] = mult
    return out


# ---------------------------------------------------------------------------
# Highest-weight module bookkeeping
# ---------------------------------------------------------------------------

def verma_weight_dim(k: int) -> int:
    """Dimension of the weight space 2k below the top of a Verma module.

    Counts monomials in the three negative generators (weights -2, -2, -4):
    floor((k+2)^2 / 4), which is (k+2)^2/4 for even k and ((k+2)^2 - 1)/4 for
    odd k.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    return (k + 2) ** 2 // 4


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
    Sym^k - Sym^(k-2) - Sym^(k-3) + Sym^(k-5) of symmetric powers of L(4).
    The dominant halves of their weight rows, field j of weight 2j in every
    row, are summed with these signs and the sum is peeled once; only
    nonzero multiplicities are kept.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    total = weight_row(4, k)
    for n, op in ((k - 2, sub), (k - 3, sub), (k - 5, add)):
        if n >= 0:
            row = weight_row(4, n)
            total[:len(row)] = map(op, total[:len(row)], row)
    return _peel(total, 0)


# ---------------------------------------------------------------------------
# Harish-Chandra simples: g-types and tensor calculus
# ---------------------------------------------------------------------------

def g_types(s: SimpleHC, max_l: int) -> range:
    """The finite-dimensional types of s up to weight max_l, each once: the
    range of their highest weights, from s's index in steps of 4 for the
    primed simples and of 2 for V(n)."""
    return range(s.index, max_l + 1, 4 if s.primed else 2)


@shared
def hc_tensor(k: int, s: SimpleHC) -> HCMultiset:
    """Decomposition of L(k) (x) s into simples, by one reflection rule.

    L(k) (x) V(n) has V(|j|) for each j = n - k, n - k + 2, ..., n + k:
    ``clebsch_gordan``'s range, with a j below 0 reflected, not dropped, and
    j = 0 standing for V'(0) + V'(2).  L(k) (x) V'(s) is half of the n = 0
    case: V(j) for j = 1..k of k's parity, and V'((s + k) mod 4) for even k.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    out: HCMultiset = Counter()
    if s.primed:
        if k % 2 == 0:
            out[Vp((s.index + k) % 4)] += 1
        out.update(V(j) for j in range(2 - k % 2, k + 1, 2))
        return out
    n = s.index
    if k >= n and (k - n) % 2 == 0:
        out.update((Vp(0), Vp(2)))
    out.update(V(abs(j)) for j in range(n - k, n + k + 1, 2) if j)
    return out


def hc_tensor_multiset(k: int, multiset: HCMultiset) -> HCMultiset:
    """Extend hc_tensor additively to a multiset of simples."""
    out = {}
    for s, mult in multiset.items():
        for t, m in hc_tensor(k, s).items():
            out[t] = out.get(t, 0) + mult * m
    return Counter(out)
