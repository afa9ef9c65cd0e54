"""Outside-in layer tracing: wrappers around public functions of holomaplab
that record spans (name, start, end, parent, task) in memory.

A function is reached through every module that binds its name: the module
that defines it, every module that did ``from .x import name`` and the
package namespace.  ``install`` replaces each of those bindings, so calls
made through any of them are seen, including ``mapkit.jacobian`` calling
mapkit's own ``jacobian_batch``.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

# (module, function) pairs wrapped in a traced run; the span name is
# "<module>.<function>" with the leading underscore of _sampling dropped.
TARGETS = (
    ("mapkit", "jacobian_batch"),
    ("mapkit", "evaluate_batch"),
    ("mapkit", "parse"),
    ("algebra", "singular_values_batch"),
    ("algebra", "singular_values"),
    ("algebra", "invert"),
    ("_sampling", "shell_points"),
    ("_sampling", "interior_points"),
    ("_sampling", "coordinate_ascent"),
    ("conditioning", "sup_kappa"),
    ("conditioning", "refined_sup"),
    ("renorm", "lambda_functional"),
    ("renorm", "bz_step"),
    ("landau", "inscribed_lower_bound"),
    ("landau", "solve_membership"),
    ("counterexamples", "certify_no_ball"),
    ("counterexamples", "harris_witness"),
    ("counterexamples", "duren_rudin_witness"),
    ("cli", "run"),
)

# jacobian_batch buckets by batch size N
SMALL_MAX = 256


def span_name(module: str, func: str) -> str:
    return f"{module.lstrip('_')}.{func}"


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    task: str
    work: int = 0  # points, matrices, objective calls or shells
    failed: int = 0  # inscribed_lower_bound: shells that failed to certify
    certified: bool = False  # solve_membership: returned a certificate
    salvage: bool = False  # solve_membership: retry of a failed shell direction


def _record_work(span, args, kwargs, result, objective_calls):
    """Fill in the work done by one call, read from its arguments or result."""
    name = span.name
    if name in ("mapkit.jacobian_batch", "mapkit.evaluate_batch"):
        span.work = len(args[1])
    elif name == "algebra.singular_values_batch":
        span.work = int(np.prod(np.shape(args[0])[:-2]))
    elif name == "sampling.coordinate_ascent":
        span.work = objective_calls
    elif name == "landau.inscribed_lower_bound":
        span.work = len(result.shell_history)
        span.failed = sum(1 for _, ok in result.shell_history if not ok)
    elif name == "landau.solve_membership":
        span.certified = type(result).__name__ == "MembershipCertificate"
        # the shell salvage passes already-certified neighbours; the
        # centre call of inscribed_lower_bound passes none
        known = kwargs.get("known", args[4] if len(args) > 4 else ())
        span.salvage = len(known) > 0


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    task: str = ""
    _stack: list = field(default_factory=list)
    _patched: list = field(default_factory=list)
    bindings: dict = field(default_factory=dict)

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counter = [0]
            if name == "sampling.coordinate_ascent":
                objective = args[0]

                def counted(x):
                    counter[0] += 1
                    return objective(x)

                args = (counted,) + args[1:]
            parent = stack[-1] if stack else -1
            idx = len(spans)
            span = Span(name, 0.0, 0.0, parent, self.task)
            spans.append(span)
            stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            _record_work(span, args, kwargs, result, counter[0])
            return result

        return traced

    def install(self):
        """Replace every binding of each target in the loaded holomaplab modules."""
        import holomaplab  # noqa: F401  (loads every submodule)

        modules = [m for key, m in sys.modules.items()
                   if key == "holomaplab" or key.startswith("holomaplab.")]
        for module, func in TARGETS:
            original = getattr(sys.modules[f"holomaplab.{module}"], func)
            name = span_name(module, func)
            wrapper = self.wrap(name, original)
            count = 0
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))
                        count += 1
            self.bindings[name] = count

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def write(self, path):
        """Write the spans as gzip'd JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "task": s.task, "work": s.work,
                }) + "\n")


def layer_metrics(spans, rounds: int) -> dict:
    """Per-layer metrics per traced round: calls, work counts, total time and
    self time (span time not covered by child spans)."""
    child_time = defaultdict(float)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    agg = defaultdict(float)
    for i, s in enumerate(spans):
        dur = s.end - s.start
        key = s.name
        if key == "mapkit.jacobian_batch":
            key += ".n1" if s.work == 1 else ".small" if s.work <= SMALL_MAX else ".large"
        agg[key + ".calls"] += 1
        agg[key + ".s"] += dur
        agg[key + ".self_s"] += dur - child_time[i]
        agg[key + ".work"] += s.work
        agg[key + ".failed"] += s.failed
        agg[key + ".certified"] += s.certified
        if s.salvage:
            agg["landau.salvage.attempts"] += 1
            agg["landau.salvage.ok"] += s.certified
    return {k: v / rounds for k, v in agg.items()}
