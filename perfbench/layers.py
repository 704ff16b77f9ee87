"""The layers the traced run measures, and what each one should move.

Every entry names one public galilei function or method that the tracer
wraps.  ``metric`` is the prefix of its per-layer metrics (``<metric>.self_s``
and ``<metric>.calls``), ``target`` is where it lives (``module:attr`` or
``module:Class.attr``), ``exercised_by`` lists the workloads on which it must
record at least one span, and ``moves`` names the end-to-end metric a change
to it should move, and on which workload.
"""

VERIFY_FULL = "verify-full"
SERIES_SCALE = "series-scale"
YOUNG_SCALE = "young-scale"
WORKLOADS = (VERIFY_FULL, SERIES_SCALE, YOUNG_SCALE)

_ALL = (VERIFY_FULL, SERIES_SCALE, YOUNG_SCALE)
_SERIES = (VERIFY_FULL, SERIES_SCALE)
_YOUNG = (VERIFY_FULL, YOUNG_SCALE)
_VERIFY = (VERIFY_FULL,)

_EXACT_SERIES = "wall_s on series-scale and verify-full"
_EXACT_YOUNG = "wall_s on young-scale and verify-full"
_GENFUN = "wall_s, peak_rss_mb on series-scale; wall_s on verify-full (c1-c4); not young-scale"
_YOUNGLAT = "wall_s on young-scale; wall_s on verify-full (c5, c6); not series-scale"
_VERIFY_ONLY = "wall_s on verify-full only (c6-c9)"

# (metric prefix, target, exercised_by, moves)
TRACED = (
    ("exact.Polynomial.mul", "galilei.exact:Polynomial.__mul__", _ALL, _EXACT_YOUNG),
    ("exact.Polynomial.call", "galilei.exact:Polynomial.__call__", _YOUNG, _EXACT_YOUNG),
    ("exact.Polynomial.divmod", "galilei.exact:Polynomial.__divmod__", _ALL, _EXACT_SERIES),
    ("exact.polynomial_gcd", "galilei.exact:polynomial_gcd", _SERIES, _EXACT_SERIES),
    ("exact.RationalFunction.init", "galilei.exact:RationalFunction.__init__", _SERIES, _EXACT_SERIES),
    ("exact.TruncatedSeries.mul", "galilei.exact:TruncatedSeries.__mul__", _SERIES, _EXACT_SERIES),
    ("exact.TruncatedSeries.truediv", "galilei.exact:TruncatedSeries.__truediv__", _SERIES, _EXACT_SERIES),
    ("exact.series_expand", "galilei.exact:series_expand", _SERIES, _EXACT_SERIES),
    ("genfun.f_enum", "galilei.genfun:f_enum", _SERIES, _GENFUN),
    ("genfun.f_recur", "galilei.genfun:f_recur", _SERIES, _GENFUN),
    ("genfun.f_closed", "galilei.genfun:f_closed", _SERIES, _GENFUN),
    ("genfun.invariant_series", "galilei.genfun:invariant_series", _SERIES, _GENFUN),
    ("genfun.freeness_quotient", "galilei.genfun:freeness_quotient", _SERIES, _GENFUN),
    ("genfun.detect_invariant_structure", "galilei.genfun:detect_invariant_structure", _SERIES, _GENFUN),
    ("linalg.bareiss_det", "galilei.linalg:bareiss_det", _YOUNG, _YOUNGLAT),
    ("linalg.bareiss_rank", "galilei.linalg:bareiss_rank", _YOUNG, _YOUNGLAT),
    ("linalg.poly_det", "galilei.linalg:poly_det", _YOUNG, _YOUNGLAT),
    ("younglat.path_matrix", "galilei.younglat:path_matrix", _YOUNG, _YOUNGLAT),
    ("younglat.rank_at", "galilei.younglat:rank_at", _YOUNG, _YOUNGLAT),
    ("younglat.build_Nn", "galilei.younglat:build_Nn", _YOUNG, _YOUNGLAT),
    ("younglat.dominance_extension", "galilei.younglat:dominance_extension", _YOUNG, _YOUNGLAT),
    ("younglat.verify_det_factorization", "galilei.younglat:verify_det_factorization", _YOUNG, _YOUNGLAT),
    ("younglat.edges_from", "galilei.younglat:edges_from", _YOUNG, _YOUNGLAT),
    ("symalg.adjoint_action", "galilei.symalg:adjoint_action", _VERIFY, _VERIFY_ONLY),
    ("symalg.independence_check", "galilei.symalg:independence_check", _VERIFY, _VERIFY_ONLY),
    ("symalg.is_invariant", "galilei.symalg:is_invariant", _VERIFY, _VERIFY_ONLY),
    ("sl2rep.hc_tensor", "galilei.sl2rep:hc_tensor", _VERIFY, _VERIFY_ONLY),
    ("sl2rep.q00_degree_part", "galilei.sl2rep:q00_degree_part", _VERIFY, _VERIFY_ONLY),
    ("sl2rep.g_types", "galilei.sl2rep:g_types", _VERIFY, _VERIFY_ONLY),
    ("quiver.radical_filtration", "galilei.quiver:radical_filtration", _VERIFY, _VERIFY_ONLY),
    ("quiver.expected_filtration", "galilei.quiver:expected_filtration", _VERIFY, _VERIFY_ONLY),
    ("quiver.decompose_Q", "galilei.quiver:decompose_Q", _VERIFY, _VERIFY_ONLY),
)

#: ``verify.run_criterion(n)`` is traced as one span per criterion, named
#: ``verify.c<n>``; its metric is the inclusive duration ``verify.c<n>.s``.
CRITERION_TARGET = "galilei.verify:run_criterion"
CRITERIA = tuple(range(1, 10))

# Sizes of what was certified, taken from a wrapped call's arguments or result:
# metric -> (traced metric prefix, how to read the size).
SIZES = {
    "younglat.Nn.dim_sum": ("younglat.build_Nn", "result_rows"),
    "exact.series_expand.degree_sum": ("exact.series_expand", "arg_1"),
    "genfun.f_enum.degree_sum": ("genfun.f_enum", "result_truncation"),
    "genfun.f_recur.degree_sum": ("genfun.f_recur", "result_truncation"),
}

# Counts read from parent -> child span edges: metric -> (parent, child).
EDGES = {
    # every interpolation node is one integer determinant inside poly_det
    "linalg.poly_det.nodes": ("linalg.poly_det", "linalg.bareiss_det"),
}

#: Taken in a separate counting child, never in a timed one.
FRACTION_ALLOCS = "exact.fraction_allocs"

# Other per-layer metrics: (name, unit, better, moves).
DERIVED = (
    ("cli.overhead_s", "s", "lower",
     "wall_s on verify-full: wall - setup_s - sum of verify.cN.s (argparse, report, JSON); "
     "0 on the other workloads, which run no CLI"),
    ("trace.wall_s", "s", "lower", "median traced wall seconds per iteration"),
    ("trace.untraced_wall_s", "s", "lower", "median untraced wall seconds, same run"),
    ("trace.overhead_ratio", "ratio", "lower", "trace.wall_s / trace.untraced_wall_s"),
)


def per_layer_metrics():
    """Every per-layer metric as (name, unit, better, moves), in report order."""
    out = []
    for metric, _target, _by, moves in TRACED:
        out.append((f"{metric}.self_s", "s", "lower", moves))
        out.append((f"{metric}.calls", "count", "lower", moves))
    for n in CRITERIA:
        out.append((f"verify.c{n}.s", "s", "lower", "wall_s on verify-full"))
    moves_by_metric = {m: moves for m, _t, _b, moves in TRACED}
    for name, (metric, _how) in SIZES.items():
        out.append((name, "count", "higher", moves_by_metric[metric]))
    for name, (parent, _child) in EDGES.items():
        out.append((name, "count", "lower", moves_by_metric[parent]))
    out.append((FRACTION_ALLOCS, "count", "lower", "wall_s on every workload that uses exact"))
    out.extend(DERIVED)
    return out
