"""Per-layer tracing from outside the package.

``Tracer.install`` wraps the public functions of the ``search``,
``homogeneity``, ``galois`` and ``classify`` modules in every ``polyhom``
module that binds them, and ``uninstall`` puts the originals back; the
package source is never touched. Each wrapped call is a span whose parent is
the innermost wrapped call still open, or the benchmark operation itself.
A span's self time is its duration minus the durations of its child spans.
Counts are read from the return values at the same boundaries.

Spans are folded into per-operation totals as they close, so memory stays
bounded however many calls an operation makes.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = {
    "search": ("solve", "enumerate_solutions", "check_is_homomorphism"),
    "homogeneity": ("decide_ph", "find_nu_polymorphism", "extendable",
                    "is_partial_polymorphism", "is_k_ph"),
    "galois": ("qf_type_closure", "gamma_closure", "enumerate_polymorphisms",
               "invariant_relations", "cross_check_inv_pol",
               "check_finite_polylocal"),
    "classify": ("classify_graph", "graph_star_witness"),
}
FUNCTIONS = ["%s.%s" % (mod, fn) for mod, fns in LAYERS.items()
             for fn in fns]

# counters read from return values: (name, unit, better)
COUNTERS = [
    ("search.solve.nodes", "count", "lower"),
    ("search.solve.vars", "count", "lower"),
    ("search.solve.nodes_per_s", "1/s", "higher"),
    ("search.solve.unsat", "count", "lower"),
    ("search.solve.exhausted", "count", "lower"),
    ("search.enumerate_solutions.solutions", "count", "lower"),
    ("homogeneity.extendable.route_projection", "count", "higher"),
    ("homogeneity.extendable.route_closure", "count", "lower"),
    ("homogeneity.extendable.route_csp", "count", "higher"),
    ("homogeneity.extendable.route_rejected", "count", "higher"),
    ("homogeneity.extendable.route_closure_s", "s", "lower"),
    ("homogeneity.extendable.route_csp_s", "s", "lower"),
    ("homogeneity.extendable.closure_tried", "count", "lower"),
    ("homogeneity.extendable.closure_hit_ratio", "ratio", "higher"),
    ("homogeneity.decide_ph.tau_checked", "count", "lower"),
    ("homogeneity.decide_ph.candidates", "count", "lower"),
    ("homogeneity.decide_ph.cache_hits", "count", "higher"),
    ("homogeneity.decide_ph.cache_hit_ratio", "ratio", "higher"),
    ("homogeneity.is_k_ph.steps", "count", "lower"),
    ("galois.qf_type_closure.candidates", "count", "lower"),
]
# ratios are not divided by the number of rounds
RATIOS = {
    "search.solve.nodes_per_s": ("search.solve.nodes",
                                 "search.solve.total_s"),
    "homogeneity.extendable.closure_hit_ratio": (
        "homogeneity.extendable.route_closure",
        "homogeneity.extendable.closure_tried"),
    "homogeneity.decide_ph.cache_hit_ratio": (
        "homogeneity.decide_ph.cache_hits",
        "homogeneity.decide_ph.candidates"),
}


def per_layer_metrics():
    """Every per-layer metric as (name, unit, better)."""
    out = []
    for fn in FUNCTIONS:
        out += [(fn + ".calls", "count", "lower"),
                (fn + ".total_s", "s", "lower"),
                (fn + ".self_s", "s", "lower")]
    return out + COUNTERS


def _observe_solve(acc, out, seconds):
    acc["search.solve.nodes"] += out.nodes
    acc["search.solve.vars"] += out.nvars
    acc["search.solve.unsat"] += out.unsat
    acc["search.solve.exhausted"] += out.exhausted


def _observe_enumerate(acc, out, seconds):
    acc["search.enumerate_solutions.solutions"] += len(out[0])


def _observe_extendable(acc, out, seconds):
    key = "homogeneity.extendable."
    route = out.detail.get("route")
    acc[key + "route_" + route] += 1
    if route in ("closure", "csp"):
        acc[key + "route_%s_s" % route] += seconds
    # the closure search leaves its stats in the detail whenever it ran
    acc[key + "closure_tried"] += "closure_size" in out.detail


def _observe_decide(acc, out, seconds):
    stats = (out.certificate or {}).get("stats") if out.status == "PH" else None
    for name in ("tau_checked", "candidates", "cache_hits"):
        acc["homogeneity.decide_ph." + name] += (stats or {}).get(name, 0)


def _observe_kph(acc, out, seconds):
    acc["homogeneity.is_k_ph.steps"] += out.detail.get("steps", 0)


def _observe_qf(acc, out, seconds):
    acc["galois.qf_type_closure.candidates"] += len(out)


OBSERVERS = {
    "search.solve": _observe_solve,
    "search.enumerate_solutions": _observe_enumerate,
    "homogeneity.extendable": _observe_extendable,
    "homogeneity.decide_ph": _observe_decide,
    "homogeneity.is_k_ph": _observe_kph,
    "galois.qf_type_closure": _observe_qf,
}


class Tracer:
    """Spans and counters of the wrapped functions, per operation."""

    def __init__(self):
        self.stack = []  # child seconds of each open span
        self.current = defaultdict(float)
        self.ops = []  # (label, seconds, {metric: value})
        self.patched = []  # (module, attribute, original)

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "polyhom" or name.startswith("polyhom.")]
        for key in FUNCTIONS:
            mod, fn = key.split(".")
            original = getattr(importlib.import_module("polyhom." + mod), fn)
            wrapper = self._wrap(key, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self.patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self.patched):
            setattr(module, attr, original)
        self.patched = []

    def _wrap(self, key, fn):
        observe = OBSERVERS.get(key)
        acc = self.current
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                seconds = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += seconds
                acc[key + ".calls"] += 1
                acc[key + ".total_s"] += seconds
                acc[key + ".self_s"] += seconds - frame[0]
            if observe is not None:
                observe(acc, out, seconds)
            return out

        return wrapper

    def end_op(self, label, seconds):
        """Close the current operation and start the next one."""
        self.ops.append((label, seconds, dict(self.current)))
        self.current.clear()

    def metrics(self, rounds):
        """Per-layer metrics per round of the run."""
        totals = defaultdict(float)
        for _, _, values in self.ops:
            for name, value in values.items():
                totals[name] += value
        out = {}
        for name, unit, _ in per_layer_metrics():
            if name in RATIOS:
                num, den = RATIOS[name]
                value = totals[num] / totals[den] if totals[den] else 0.0
            else:
                value = totals[name] / rounds
            out[name] = {"value": value, "unit": unit}
        return out
