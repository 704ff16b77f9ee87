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

    @property
    def length(self) -> int:
        return len(self.parts)

    def count_part(self, value: int) -> int:
        return sum(1 for p in self.parts if p == value)

    def dominates(self, other: "Partition") -> bool:
        """Dominance order: partial sums of self are >= those of other."""
        if self.size != other.size:
            raise ValueError("dominance compares partitions of the same size")
        acc_s = acc_o = 0
        for i in range(max(self.length, other.length)):
            acc_s += self.parts[i] if i < self.length else 0
            acc_o += other.parts[i] if i < other.length else 0
            if acc_s < acc_o:
                return False
        return True

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
    source: Partition
    target: Partition
    label: Polynomial


@lru_cache(maxsize=None)
def edges_from(p: Partition) -> Tuple[LabeledEdge, ...]:
    """All labeled edges out of p (one per addable node, parts <= MAX_PART).

    Memoised: each partition's edges are built once per process, and every
    caller shares the same tuple and the same label polynomials, which are
    never mutated.
    """
    x = Polynomial.variable("x")
    edges: List[LabeledEdge] = []
    parts = p.parts
    for row in range(len(parts) + 1):
        if row == len(parts):
            new_value = 1
        else:
            if row > 0 and parts[row - 1] == parts[row]:
                continue  # not addable: would break monotonicity
            new_value = parts[row] + 1
        if new_value > MAX_PART:
            continue
        target = Partition(parts[:row] + (new_value,) + parts[row + 1 :])
        if new_value == 1:
            label = x - Polynomial.constant("x", p.length)
        else:
            label = Polynomial.constant("x", p.count_part(new_value - 1))
        edges.append(LabeledEdge(p, target, label))
    return tuple(edges)


@dataclass
class PathMatrix:
    """Matrix of path weights with explicit row/column indices."""

    rows: List[Partition]
    cols: List[Partition]
    entries: List[List[Weight]] = field(repr=False)


def _path_weights_from(
    start: Partition, level: int, at: Optional[int], labels: Dict[Partition, List[Weight]]
) -> Dict[Partition, Weight]:
    """Sum of edge-label products over all paths from start to each partition
    of the given size, accumulated level by level: polynomials in x, or ints
    with every label evaluated at x = at.

    ``labels`` memoises each partition's edge labels, so a label is evaluated
    once per partition however many paths pass through it.
    """
    one = Polynomial.one("x") if at is None else 1
    current: Dict[Partition, Weight] = {start: one}
    for _ in range(level - start.size):
        nxt: Dict[Partition, Weight] = {}
        for p, weight in current.items():
            edges = edges_from(p)
            values = labels.get(p)
            if values is None:
                values = labels[p] = [e.label if at is None else e.label(at) for e in edges]
            for edge, label in zip(edges, values):
                acc = nxt.get(edge.target)
                term = weight * label
                nxt[edge.target] = term if acc is None else acc + term
        current = nxt
    return current


def path_matrix(n: int, at: Optional[int] = None) -> PathMatrix:
    """M_n: rows (1^k) for k = 1..n, columns the partitions of n (parts <= 4).

    Entries are polynomials in x; with ``at`` they are the ints those
    polynomials take at x = at, computed without building any polynomial.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    cols = list(bounded_partitions(n))
    rows = [column(k) for k in range(1, n + 1)]
    zero = Polynomial.zero("x") if at is None else 0
    labels: Dict[Partition, List[Weight]] = {}
    entries = []
    for row in rows:
        weights = _path_weights_from(row, n, at, labels)
        entries.append([weights.get(c, zero) for c in cols])
    return PathMatrix(rows, cols, entries)


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

    @property
    def integer_factor_nonzero(self) -> bool:
        return self.integer_factor != 0

    @property
    def all_roots_below_n(self) -> bool:
        return self.fully_factored and all(r < self.n for r in self.roots)

    def nonzero_at(self, m: int) -> bool:
        return self.determinant(m) != 0

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
