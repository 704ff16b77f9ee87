"""The Young lattice restricted to partitions with largest part at most 4.

Vertices are partitions with first part <= 4; there is an edge from a
partition to each partition covering it (one node added).  Edges carry
linear labels in the variable x:

* adding a node in the first column (a new part equal to 1): label x - c,
  where c is the number of parts of the source partition;
* adding a node in column m > 1: label equal to the number of parts of the
  source partition that are equal to m - 1.

A label is stored as two ints, its slope and its constant: (1, -c) for a
first-column node and (0, count) for any other.

From these labels the module builds the path-weight matrices M_n (rows
indexed by the columns (1^k), columns by partitions of n), the injection psi
of level n-1 into level n, and the square matrices N_n whose determinants
factor into integer constants times linear factors x - i with i < n.  The
headline fact checked downstream: M_n evaluated at x = n has full rank n.
``rank_at`` certifies it on the square minor of M_n(n) on its last n
columns, the partitions of n with parts <= 2 or a single part 3.  These are
the last m positions of every level m, and the tails are closed under
predecessors (removing a node keeps that shape), so every path into the
minor stays inside them and the DP run on the tails alone yields the minor.

A partition is the tuple of its parts.  Level m of the lattice is
``bounded_partitions(m)``, and an edge names its target by the target's
position in the next level, so ``path_matrix`` runs one loop over positions,
for the polynomial M_n and for its values at an integer point alike.  At a
point the loop multiplies ints by slope * point + constant and builds no
polynomial; only the polynomial M_n and ``build_Nn`` turn the (slope,
constant) pairs into ``Polynomial`` labels.
"""

from __future__ import annotations

from functools import lru_cache
from operator import lt
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from .exact import Polynomial, shared
from .linalg import bareiss_rank, poly_det

MAX_PART = 4
Weight = Union[Polynomial, int]


class Partition(tuple):
    """Weakly decreasing tuple of positive parts.

    Equality, hashing and order are the tuple's, so the raw parts tuple finds
    a partition wherever the partition is a key.
    """

    __slots__ = ()

    def __new__(cls, parts: Tuple[int, ...]):
        if parts and min(parts) <= 0:
            raise ValueError("parts must be positive")
        if any(map(lt, parts, parts[1:])):
            raise ValueError("parts must be weakly decreasing")
        return tuple.__new__(cls, parts)

    def __str__(self):
        return "(" + ",".join(map(str, self)) + ")"


def partition(*parts: int) -> Partition:
    return Partition(tuple(parts))


def column(k: int) -> Partition:
    """The single-column partition (1^k)."""
    return Partition((1,) * k)


@lru_cache(maxsize=None)
def bounded_partitions(n: int) -> Tuple[Partition, ...]:
    """Partitions of n with parts <= MAX_PART, in decreasing lex order: for
    each first part p, largest first, p followed by each partition of n - p
    (in its own order) whose parts are at most p."""
    if n == 0:
        return (Partition(()),)
    return tuple(
        Partition((p,) + rest)
        for p in range(min(MAX_PART, n), 0, -1)
        for rest in bounded_partitions(n - p)
        if not rest or rest[0] <= p
    )


@lru_cache(maxsize=None)
def _positions(n: int) -> Dict[Partition, int]:
    """Position of each partition of n in bounded_partitions(n)."""
    return {p: i for i, p in enumerate(bounded_partitions(n))}


@lru_cache(maxsize=None)
def edges_from(p: Partition) -> Tuple[Tuple[int, int, int], ...]:
    """All labeled edges out of p (one per addable node, parts <= MAX_PART),
    each as (target position in ``bounded_partitions(sum(p) + 1)``, slope,
    constant): the edge's label is slope * x + constant.

    No partition and no polynomial is built here: a target is looked up by
    its raw parts.  Memoised: each partition's edges are built once per
    process, and every caller shares the same tuple.
    """
    positions = _positions(sum(p) + 1)
    edges: List[Tuple[int, int, int]] = []
    for row in range(len(p) + 1):
        if row == len(p):
            new_value = 1
        else:
            if row > 0 and p[row - 1] == p[row]:
                continue  # not addable: would break monotonicity
            new_value = p[row] + 1
        if new_value > MAX_PART:
            continue
        slope, constant = (1, -len(p)) if new_value == 1 else (0, p.count(new_value - 1))
        edges.append((positions[p[:row] + (new_value,) + p[row + 1 :]], slope, constant))
    return tuple(edges)


def _label(slope: int, constant: int) -> Polynomial:
    """The label slope * x + constant as a polynomial."""
    return Polynomial("x", (constant, slope))


class PathMatrix(NamedTuple):
    """Matrix of path weights with explicit row/column indices."""

    rows: List[Partition]
    cols: List[Partition]
    entries: List[List[Weight]]

    def __repr__(self):
        return f"PathMatrix(rows={self.rows!r}, cols={self.cols!r})"


def path_matrix(n: int, at: Optional[int] = None, minor: bool = False) -> PathMatrix:
    """M_n: rows (1^k) for k = 1..n, columns the partitions of n (parts <= 4).

    Level m is ``bounded_partitions(m)``, and a partition is addressed by its
    position there.  The out-edges of each partition of levels 1..n-1 are
    listed once as (target position, label).  Row (1^k) is the last position
    of level k; one loop pushes its path weights level by level up to level
    n, whose positions are the columns.  Weights are polynomials in x, or
    with ``at`` the ints they take at x = at: the same loop then runs on the
    int labels slope * at + constant, and no polynomial is built.

    With ``minor`` each level m keeps only its last m positions and the
    edges out of them, which yields the square minor of M_n on its last n
    columns (see ``rank_at`` for why the tails hold every path into it).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    levels = [bounded_partitions(m) for m in range(n + 1)]
    start = [len(level) - m if minor else 0 for m, level in enumerate(levels)]
    levels = [level[s:] for s, level in zip(start, levels)]
    out_edges: Dict[int, List[List[Tuple[int, Weight]]]] = {}
    for m in range(1, n):
        first = start[m + 1]
        out_edges[m] = [
            [(j - first, _label(s, c) if at is None else s * at + c)
             for j, s, c in edges_from(p) if j >= first]
            for p in levels[m]
        ]
    zero, one = (Polynomial("x"), Polynomial("x", (1,))) if at is None else (0, 1)
    entries = []
    for k in range(1, n + 1):
        weights: List[Optional[Weight]] = [None] * len(levels[k])
        weights[-1] = one
        for m in range(k, n):
            nxt: List[Optional[Weight]] = [None] * len(levels[m + 1])
            for weight, edges in zip(weights, out_edges[m]):
                if not weight:  # None, or a zero weight
                    continue
                for j, label in edges:
                    term = weight * label
                    acc = nxt[j]
                    nxt[j] = term if acc is None else acc + term
            weights = nxt
        entries.append([zero if w is None else w for w in weights])
    return PathMatrix([level[-1] for level in levels[1:]], list(levels[n]), entries)


@shared
def rank_at(n: int) -> int:
    """Rank of M_n at x = n over the exact integers, from the int path DP.

    M_n has n rows, so a nonsingular n x n minor certifies rank n.  The minor
    used is the one on the last n columns: in decreasing lex order these are
    the partitions of n with parts <= 2 or a single part 3, and level m holds
    floor(m/2) + 1 + floor((m-3)/2) + 1 = m of them, at its end.  Removing a
    node keeps a partition of that shape, and every partition on a path is
    contained in the path's end, so every path into the minor stays in the
    last m positions of each level m: ``path_matrix(n, at=n, minor=True)``
    computes it exactly.  Should the minor be singular, the rank is that of
    the whole matrix.
    """
    if bareiss_rank(path_matrix(n, at=n, minor=True).entries) == n:
        return n
    return bareiss_rank(path_matrix(n, at=n).entries)


# ---------------------------------------------------------------------------
# The injection psi and the square matrices N_n
# ---------------------------------------------------------------------------

def special_partition(n: int) -> Partition:
    """Image of the column (1^{n-1}): (2^{n/2}) for even n, (3, 2^{(n-3)/2}) odd."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if n % 2 == 0:
        return Partition((2,) * (n // 2))
    return Partition((3,) + (2,) * ((n - 3) // 2))


class PsiError(RuntimeError):
    """``build_psi`` built a map that is not an injection of level n-1 into
    level n minus (1^n)."""


def build_psi(n: int) -> Dict[Partition, Partition]:
    """Injection of level n-1 into level n: append a part 1, except that the
    full column (1^{n-1}) maps to the special partition.

    The map is checked: every image is a partition of n, no two agree and
    none is (1^n).  Otherwise it raises ``PsiError``, which names the first
    partition sent outside level n when there is one.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    psi: Dict[Partition, Partition] = {}
    full = column(n - 1)
    for p in bounded_partitions(n - 1):
        if p == full:
            psi[p] = special_partition(n)
        else:
            psi[p] = Partition(p + (1,))
    for p, image in psi.items():
        if sum(image) != n:
            raise PsiError(f"psi sends {p} to {image}, outside level {n}")
    images = set(psi.values())
    if len(images) != len(psi) or column(n) in images:
        raise PsiError(f"psi is not an injection into level {n} minus (1^{n})")
    return psi


def dominance_extension(items: Sequence[Partition]) -> List[Partition]:
    """A linear extension of dominance order, smallest first.

    Lexicographic order on part tuples refines dominance: if lam dominates
    mu and lam != mu, the partial sums agree up to the first index where the
    parts differ, so lam's part there is the larger one.  A sort is therefore
    enough.
    """
    return sorted(items)


def build_Nn(n: int) -> PathMatrix:
    """The square matrix N_n of single-edge labels.

    Rows are indexed by the psi-images of level n-1, columns by level n-1,
    both in a dominance linear extension; the (psi(mu), nu) entry is the
    label of the edge nu -> psi(mu), zero when there is none.
    """
    psi = build_psi(n)
    cols = dominance_extension(list(psi.keys()))
    rows = dominance_extension(list(psi.values()))
    positions = _positions(n)
    row_index = {positions[r]: i for i, r in enumerate(rows)}
    zero = Polynomial("x")
    entries = [[zero] * len(cols) for _ in rows]
    for j, c in enumerate(cols):
        for target, slope, constant in edges_from(c):
            i = row_index.get(target)
            if i is not None:
                entries[i][j] = _label(slope, constant)
    return PathMatrix(rows, cols, entries)


class DetFactorization(NamedTuple):
    """Exact determinant of N_n split as integer * product of (x - root)."""

    n: int
    determinant: Polynomial
    integer_factor: int
    roots: Tuple[int, ...]

    @property
    def fully_factored(self) -> bool:
        """Whether the residue after extraction is a constant: a zero
        determinant and a non-constant residue both store integer factor 0."""
        return self.integer_factor != 0

    def describe(self) -> str:
        if not self.determinant:
            return "determinant is zero (structural failure)"
        factors = "".join(f"(x-{r})" for r in self.roots) or "1"
        status = "" if self.fully_factored else "  [nonlinear residue!]"
        return f"det N_{self.n} = {self.integer_factor} * {factors}{status}"


def verify_det_factorization(n: int) -> DetFactorization:
    """Compute det N_n exactly and factor out every linear factor x - i.

    Integer roots are searched in 0..2n, comfortably past any label
    constant.  ``fully_factored`` reports whether the residue after
    extraction is a constant, which is the shape the rank argument needs.
    """
    matrix = build_Nn(n)
    det = poly_det(matrix.entries)
    if not det:
        return DetFactorization(n, det, 0, ())
    roots: List[int] = []
    residue = det
    for i in range(2 * n + 1):
        factor = Polynomial("x", (-i, 1))
        while residue.degree > 0 and residue(i) == 0:
            residue = residue.exact_div(factor)
            roots.append(i)
    integer_factor = residue.coeffs[0] if residue.degree == 0 else 0
    return DetFactorization(n, det, integer_factor, tuple(sorted(roots)))
