"""Exact computations around symmetric powers of simple sl2-modules.

The package verifies, in exact integer and rational arithmetic, the
combinatorial backbone of the category of locally sl2-finite modules over the
semidirect products sl2 |x L(k): weight generating functions and invariant
Hilbert series, the degree-2/degree-3 invariants of Sym(L(4)) under the
derivation action, rank certificates on the Young lattice restricted to
parts <= 4, and the block quivers with the radical filtrations of their
projectives.
"""

from .exact import (
    Polynomial,
    RationalFunction,
    TruncatedSeries,
    PoleAtOriginError,
    polynomial_gcd,
    series_expand,
)
from .genfun import (
    DEFAULT_TRUNCATION,
    InvariantStructure,
    NoClosedFormError,
    StructureNotRecognizedError,
    detect_invariant_structure,
    f_closed,
    f_enum,
    f_recur,
    freeness_quotient,
    invariant_series,
)
from .sl2rep import (
    SimpleHC,
    V,
    Vp,
    clebsch_gordan,
    g_types,
    hc_tensor,
    q0_multiplicity,
    q00_degree_part,
    sym_power_decompose,
    verma_weight_dim,
)
from .symalg import (
    SymElement,
    adjoint_action,
    build_C2,
    build_C3,
    independence_check,
    is_invariant,
)
from .younglat import (
    Partition,
    build_Nn,
    build_psi,
    edges_from,
    partition,
    path_matrix,
    rank_at,
    verify_det_factorization,
)
from .quiver import (
    decompose_Q,
    radical_filtration,
)

__version__ = "0.1.0"
