"""The Young lattice restricted to partitions with largest part at most 4.

Vertices are partitions with first part <= 4; there is an edge from a
partition to each partition covering it (one node added).  Edges carry
polynomial labels in the variable x:

* adding a node in the first column (a new part equal to 1): label x - c,
  where c is the number of parts of the source partition;
* adding a node in column m > 1: label equal to the number of parts of the
  source partition that are equal to m - 1.

From these labels the module builds the path-weight matrices M_n (rows
indexed by the columns (1^k), columns by partitions of n), the injection psi
of level n-1 into level n, and the square matrices N_n whose determinants
factor into integer constants times linear factors x - i with i < n.  The
headline fact checked downstream: M_n evaluated at x = n has full rank n.

Level m of the lattice is ``bounded_partitions(m)``: its objects are the only
partitions built for those shapes, and edge targets point at them.
``path_matrix`` addresses each partition by its position in its level and
runs one loop over positions, for the polynomial M_n and for its values at
an integer point alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .exact import Polynomial
from .linalg import bareiss_rank, poly_det

MAX_PART = 4
Weight = Union[Polynomial, int]


@dataclass(frozen=True, order=True)
class Partition:
    """Weakly decreasing tuple of positive parts."""

    parts: Tuple[int, ...]

    def __post_init__(self):
        if any(p <= 0 for p in self.parts):
            raise ValueError("parts must be positive")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise ValueError("parts must be weakly decreasing")

    @property
    def size(self) -> int:
        return sum(self.parts)

    def count_part(self, value: int) -> int:
        return sum(1 for p in self.parts if p == value)

    def __str__(self):
        if not self.parts:
            return "()"
        return "(" + ",".join(map(str, self.parts)) + ")"


def partition(*parts: int) -> Partition:
    return Partition(tuple(parts))


def column(k: int) -> Partition:
    """The single-column partition (1^k)."""
    return Partition((1,) * k)


@lru_cache(maxsize=None)
def bounded_partitions(n: int) -> Tuple[Partition, ...]:
    """All partitions of n with parts <= MAX_PART, in decreasing lex order."""
    out: List[Tuple[int, ...]] = []

    def rec(remaining: int, cap: int, acc: Tuple[int, ...]):
        if remaining == 0:
            out.append(acc)
            return
        for p in range(min(cap, remaining), 0, -1):
            rec(remaining - p, p, acc + (p,))

    rec(n, MAX_PART, ())
    out.sort(reverse=True)
    return tuple(Partition(p) for p in out)


@dataclass(frozen=True)
class LabeledEdge:
    target: Partition
    label: Polynomial


@lru_cache(maxsize=None)
def _positions(n: int) -> Dict[Tuple[int, ...], int]:
    """Position of each partition of n, keyed by its parts, in bounded_partitions(n)."""
    return {p.parts: i for i, p in enumerate(bounded_partitions(n))}


@lru_cache(maxsize=None)
def edges_from(p: Partition) -> Tuple[LabeledEdge, ...]:
    """All labeled edges out of p (one per addable node, parts <= MAX_PART).

    Each target is the object held in ``bounded_partitions(p.size + 1)``, so
    no partition is built here.  Memoised: each partition's edges are built
    once per process, and every caller shares the same tuple and the same
    label polynomials, which are never mutated.
    """
    parts = p.parts
    level, positions = bounded_partitions(p.size + 1), _positions(p.size + 1)
    edges: List[LabeledEdge] = []
    for row in range(len(parts) + 1):
        if row == len(parts):
            new_value = 1
        else:
            if row > 0 and parts[row - 1] == parts[row]:
                continue  # not addable: would break monotonicity
            new_value = parts[row] + 1
        if new_value > MAX_PART:
            continue
        target = level[positions[parts[:row] + (new_value,) + parts[row + 1 :]]]
        if new_value == 1:
            label = Polynomial("x", (-len(parts), 1))
        else:
            label = Polynomial.constant("x", p.count_part(new_value - 1))
        edges.append(LabeledEdge(target, label))
    return tuple(edges)


@dataclass
class PathMatrix:
    """Matrix of path weights with explicit row/column indices."""

    rows: List[Partition]
    cols: List[Partition]
    entries: List[List[Weight]] = field(repr=False)


def path_matrix(n: int, at: Optional[int] = None) -> PathMatrix:
    """M_n: rows (1^k) for k = 1..n, columns the partitions of n (parts <= 4).

    Level m is ``bounded_partitions(m)``, and a partition is addressed by its
    position there.  The out-edges of each partition of levels 1..n-1 are
    listed once as (target position, label).  Row (1^k) is the last position
    of level k; one loop pushes its path weights level by level up to level
    n, whose positions are the columns.  Weights are polynomials in x, or
    with ``at`` the ints they take at x = at: the same loop then runs on
    labels evaluated there, and no polynomial is multiplied.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    levels = [bounded_partitions(m) for m in range(n + 1)]
    out_edges: Dict[int, List[List[Tuple[int, Weight]]]] = {}
    for m in range(1, n):
        positions = _positions(m + 1)
        out_edges[m] = [
            [(positions[e.target.parts], e.label if at is None else e.label(at))
             for e in edges_from(p)]
            for p in levels[m]
        ]
    zero, one = (Polynomial.zero("x"), Polynomial.one("x")) if at is None else (0, 1)
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


def rank_at(n: int) -> int:
    """Rank of M_n at x = n over the exact integers, from the int path DP."""
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


def build_psi(n: int) -> Dict[Partition, Partition]:
    """Injection of level n-1 into level n: append a part 1, except that the
    full column (1^{n-1}) maps to the special partition."""
    if n < 2:
        raise ValueError("n must be at least 2")
    psi: Dict[Partition, Partition] = {}
    for p in bounded_partitions(n - 1):
        if p == column(n - 1):
            psi[p] = special_partition(n)
        else:
            psi[p] = Partition(tuple(sorted(p.parts + (1,), reverse=True)))
    images = set(psi.values())
    if len(images) != len(psi) or column(n) in images:
        raise AssertionError("psi is not an injection into level n minus (1^n)")
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
    row_index = {r: i for i, r in enumerate(rows)}
    zero = Polynomial.zero("x")
    entries = [[zero] * len(cols) for _ in rows]
    for j, c in enumerate(cols):
        for edge in edges_from(c):
            i = row_index.get(edge.target)
            if i is not None:
                entries[i][j] = edge.label
    return PathMatrix(rows, cols, entries)


@dataclass(frozen=True)
class DetFactorization:
    """Exact determinant of N_n split as integer * product of (x - root)."""

    n: int
    determinant: Polynomial
    integer_factor: int
    roots: Tuple[int, ...]
    fully_factored: bool

    def describe(self) -> str:
        if self.determinant.is_zero:
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
    if det.is_zero:
        return DetFactorization(n, det, 0, (), False)
    roots: List[int] = []
    residue = det
    for i in range(2 * n + 1):
        factor = Polynomial("x", (-i, 1))
        while residue.degree > 0 and residue(i) == 0:
            residue = residue.exact_div(factor)
            roots.append(i)
    fully = residue.degree == 0
    integer_factor = residue.coefficient(0) if fully else 0
    return DetFactorization(n, det, integer_factor, tuple(sorted(roots)), fully)
