"""Span recorder that wraps galilei functions from outside the package.

``install(tracer)`` replaces each traced function or method with a wrapper
that records one span per call: name, duration, and the span that caused it.
Modules bind imported names (``younglat.poly_det``, ``verify.series_expand``,
``Polynomial.__rmul__ = __mul__``), so every alias of an original in the
globals and class dictionaries of every ``galilei.*`` module is replaced too.
Spans are folded into per-name totals in memory as they close: call count,
inclusive time, self time (duration minus the time its child spans cover),
parent -> child call counts, and certificate sizes.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from fractions import Fraction
from functools import wraps
from time import perf_counter_ns

import layers


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_ns = Counter()
        self.total_ns = Counter()
        self.edges = Counter()
        self.sizes = Counter()
        self.top_ns = 0
        self._stack = []  # one [name, child_ns] frame per open span

    def wrap(self, name, fn, size=None):
        """Wrap fn; name is a string or a function of the call's arguments."""
        stack, calls, self_ns, total_ns, edges = (
            self._stack, self.calls, self.self_ns, self.total_ns, self.edges)
        fixed = isinstance(name, str)

        @wraps(fn)
        def traced(*args, **kwargs):
            span = name if fixed else name(*args, **kwargs)
            edges[(stack[-1][0] if stack else None, span)] += 1
            frame = [span, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter_ns() - start
                stack.pop()
                calls[span] += 1
                total_ns[span] += duration
                self_ns[span] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                else:
                    self.top_ns += duration
            if size is not None:
                self.sizes[size[0]] += size[1](args, result)
            return result

        traced.__traced_original__ = fn
        return traced

    def summary(self):
        return {
            "calls": dict(self.calls),
            "self_ns": dict(self.self_ns),
            "total_ns": dict(self.total_ns),
            "edges": [[p, c, n] for (p, c), n in self.edges.items()],
            "sizes": dict(self.sizes),
            "top_ns": self.top_ns,
        }


_SIZE_READERS = {
    "result_rows": lambda args, result: len(result.rows),
    "result_truncation": lambda args, result: result.truncation,
    "arg_1": lambda args, result: args[1],
}


def _resolve(target):
    module_name, attr = target.split(":")
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def _namespaces():
    """Module globals and the dictionaries of classes defined in galilei."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "galilei" or name.startswith("galilei."))]
    for module in modules:
        yield module, vars(module)
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__.startswith("galilei"):
                yield value, vars(value)


def install(tracer):
    """Wrap every traced function and replace all of its aliases.

    Returns {original: wrapper}.  Imports every galilei module first, so that
    no module imported later can bind an unwrapped original.
    """
    import galilei.cli  # noqa: F401  (binds series_expand, verify, ...)

    size_of = {}
    for name, (metric, how) in layers.SIZES.items():
        size_of[metric] = (name, _SIZE_READERS[how])
    replacements = {}
    for metric, target, _by, _moves in layers.TRACED:
        owner, leaf = _resolve(target)
        original = vars(owner)[leaf]
        replacements[original] = tracer.wrap(metric, original, size_of.get(metric))
    owner, leaf = _resolve(layers.CRITERION_TARGET)
    original = vars(owner)[leaf]
    replacements[original] = tracer.wrap(
        lambda number, *a, **k: f"verify.c{number}", original)

    by_id = {id(original): wrapper for original, wrapper in replacements.items()}
    for owner, namespace in list(_namespaces()):
        for attr, value in list(namespace.items()):
            wrapper = by_id.get(id(value))
            if wrapper is not None:
                setattr(owner, attr, wrapper)
    return replacements


def remaining_aliases(replacements):
    """(owner, attribute) pairs that still bind an unwrapped original."""
    originals = {id(fn) for fn in replacements}
    return [(getattr(owner, "__name__", owner), attr)
            for owner, namespace in _namespaces()
            for attr, value in namespace.items() if id(value) in originals]


class FractionCounter:
    """Counts Fraction constructions while installed."""

    def __init__(self):
        self.count = 0

    def install(self):
        original_new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            self.count += 1
            return original_new(cls, *args, **kwargs)

        Fraction.__new__ = staticmethod(counting_new)
        coprime = vars(Fraction).get("_from_coprime_ints")
        if coprime is not None:  # Python >= 3.12 builds results without __new__
            original_coprime = coprime.__func__

            def counting_coprime(cls, numerator, denominator):
                self.count += 1
                return original_coprime(cls, numerator, denominator)

            Fraction._from_coprime_ints = classmethod(counting_coprime)
