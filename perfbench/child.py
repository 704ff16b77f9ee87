"""One benchmark iteration in a fresh interpreter.

    python3 child.py STATS [--trace | --count] OP [ARGS...]

OP is ``cli`` (ARGS go to ``galilei.cli.main``, the console script's entry
point), ``series`` or ``young`` (ARGS is one JSON list of tasks; the results
go to stdout as one JSON list).  The exit status is the operation's.  STATS
receives a JSON object with the process's own peak RSS (``VmHWM``; the
``ru_maxrss`` a parent sees also counts the parent's own pages, which the
child shared until exec) and, with ``--trace``, the tracer's summary or, with
``--count``, the number of Fraction constructions during OP.
"""

import json
import sys


def _num(c):
    return int(c) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _coeffs(series):
    return [_num(c) for c in series.coeffs]


def run_series(tasks):
    from galilei import exact, genfun

    out = []
    for route, k, l, degree in tasks:
        if route == "enum":
            out.append(_coeffs(genfun.f_enum(k, l, degree)))
        elif route == "recur":
            out.append(_coeffs(genfun.f_recur(k, l, degree)))
        elif route == "closed":
            out.append(_coeffs(exact.series_expand(genfun.f_closed(k, l), degree)))
        elif route == "freeness":
            quotient, negative = genfun.freeness_quotient(k, l, degree)
            out.append({"coeffs": _coeffs(quotient), "first_negative": negative})
        elif route == "detect":
            found = genfun.detect_invariant_structure(k, degree)
            out.append({"generators": list(found.generator_degrees),
                        "relation": found.relation_degree})
        else:
            raise ValueError(f"unknown series route {route!r}")
    return out


def run_young(tasks):
    from galilei import younglat

    out = []
    for op, n in tasks:
        if op == "rank_at":
            out.append(younglat.rank_at(n))
        elif op == "det":
            d = younglat.verify_det_factorization(n)
            out.append({"det": [_num(c) for c in d.determinant.coeffs],
                        "integer_factor": d.integer_factor, "roots": list(d.roots),
                        "fully_factored": d.fully_factored})
        else:
            raise ValueError(f"unknown young op {op!r}")
    return out


def _vm_hwm_kb():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main(argv):
    stats_path, argv = argv[0], argv[1:]
    mode = argv.pop(0) if argv[0] in ("--trace", "--count") else None
    op, args = argv[0], argv[1:]
    stats = {}
    if mode is not None:
        import galilei.cli  # noqa: F401  every module, before anything is wrapped
        import tracer
        if mode == "--trace":
            recorder = tracer.Tracer()
            tracer.install(recorder)
        else:
            recorder = tracer.FractionCounter()
            recorder.install()
    if op == "cli":
        from galilei.cli import main as cli_main
        status = cli_main(args)
    else:
        runner = {"series": run_series, "young": run_young}[op]
        sys.stdout.write(json.dumps(runner(json.loads(args[0]))))
        status = 0
    if mode == "--trace":
        stats["trace"] = recorder.summary()
    elif mode == "--count":
        stats["fraction_allocs"] = recorder.count
    stats["vm_hwm_kb"] = _vm_hwm_kb()
    with open(stats_path, "w") as fh:
        json.dump(stats, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
