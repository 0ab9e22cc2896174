"""Span tracer that wraps the public functions of each ``invarcheck`` module.

The program carries no instrumentation of its own, so the benchmark patches
every binding of each traced function: the defining module and every
module that imported the name (``checkers.solve_inequality_lp`` and
``solvers.solve_inequality_lp`` are separate bindings; ``sample_boundary``
reads ``sets.membership`` as a global; ``_cone_violation`` imports
``phase_one_feasibility`` at call time, which reads the patched module
attribute). The compiled field closure returned by
``build_expression_system`` is wrapped as ``expressions.field``.

A span's self time is its duration minus the durations of its direct child
spans. Counters derived from arguments and return values are collected by
per-function hooks.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np

PACKAGE = "invarcheck"
LAYERS = {
    "cli": ("main", "load_problem"),
    "checkers": ("check", "check_hpoly_linear", "check_orthant_linear", "check_vpolytope",
                 "check_vcone", "check_ellipsoid_linear", "check_lorenz_linear",
                 "check_nonlinear_sampled"),
    "solvers": ("simplex_standard", "solve_inequality_lp", "lp_feasible",
                "phase_one_feasibility", "qp_nearest"),
    "numerics": ("sym_eig", "gen_eig_max_witness", "minimize_scalar_convex",
                 "cholesky_lower", "solve_linear"),
    "sets": ("sample_boundary", "membership", "outside_violation_batch"),
    "tangent": ("tangent_cone_at", "cone_contains"),
    "dynamics": ("falsify",),
    "expressions": ("build_expression_system",),
}
FIELD = "expressions.field"
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns) + (FIELD,)

DERIVED = (
    ("solvers.simplex_standard.cells", "count", "lower"),
    ("solvers.simplex_standard.us_per_call", "us", "lower"),
    ("solvers.simplex_standard.infeasible", "count", "lower"),
    ("solvers.simplex_standard.unbounded", "count", "lower"),
    ("checkers.check_hpoly_linear.box_resolves", "fraction", "lower"),
    ("numerics.sym_eig.us_per_call", "us", "lower"),
    ("numerics.sym_eig.dim_mean", "n", "lower"),
    ("numerics.eta_search.evals", "count", "lower"),
    ("sets.sample_boundary.points", "count", "lower"),
    ("sets.sample_boundary.distinct_ratio", "fraction", "higher"),
    ("sets.membership.boundary_ratio", "fraction", "higher"),
    ("dynamics.falsify.start_steps_per_s", "1/s", "higher"),
    ("expressions.field.columns", "count", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
)


def metric_specs():
    """(name, unit, better) of every per-layer metric, in output order."""
    out = []
    for span in SPAN_NAMES:
        out += [(f"{span}.calls", "count", "lower"), (f"{span}.total_s", "s", "lower"),
                (f"{span}.self_s", "s", "lower")]
    return out + list(DERIVED)


class Tracer:
    """Install with ``install()``; every wrapped call then adds to ``stats``
    (name -> [calls, total seconds, self seconds]) and ``counters``."""

    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        self.counters = dict.fromkeys(
            ("cells", "lp_infeasible", "lp_unbounded", "facet_lps", "box_resolves", "eig_dims",
             "eta_evals", "points", "distinct", "rejection_tests", "rejection_accepted",
             "start_steps", "columns"), 0)
        self._stack = []
        self._patched = []  # (module, attribute, original)
        self._falsify_sig = None

    # -- installation ---------------------------------------------------

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def install(self):
        modules = self._modules()
        hooks = {
            "solvers.simplex_standard": self._on_simplex,
            "solvers.solve_inequality_lp": self._on_inequality_lp,
            "numerics.sym_eig": self._on_sym_eig,
            "sets.sample_boundary": self._on_sample_boundary,
            "sets.membership": self._on_membership,
            "dynamics.falsify": self._on_falsify,
            "expressions.build_expression_system": self._on_build_expression,
        }
        for mod_name, fns in LAYERS.items():
            home = sys.modules[f"{PACKAGE}.{mod_name}"]
            for fn_name in fns:
                orig = getattr(home, fn_name)
                name = f"{mod_name}.{fn_name}"
                if name == "dynamics.falsify":
                    self._falsify_sig = inspect.signature(orig)
                wrapper = self.wrap(name, orig, hooks.get(name))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, orig))
        return self

    def uninstall(self):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def wrap(self, name, fn, hook=None):
        stats = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    # -- hooks -----------------------------------------------------------

    def _parent(self):
        return self._stack[-1][0] if self._stack else None

    def _on_simplex(self, args, kwargs, result):
        rows, cols = np.shape(args[1] if len(args) > 1 else kwargs["a_eq"])
        self.counters["cells"] += rows * cols
        if result[0] == "infeasible":
            self.counters["lp_infeasible"] += 1
        elif result[0] == "unbounded":
            self.counters["lp_unbounded"] += 1

    def _on_inequality_lp(self, args, kwargs, result):
        if self._parent() != "checkers.check_hpoly_linear":
            return
        if kwargs.get("box") is not None:
            self.counters["box_resolves"] += 1
        elif kwargs.get("a_eq") is not None:
            self.counters["facet_lps"] += 1

    def _on_sym_eig(self, args, kwargs, result):
        self.counters["eig_dims"] += int(result.eigenvalues.shape[0])
        if any(frame[0] == "numerics.minimize_scalar_convex" for frame in self._stack):
            self.counters["eta_evals"] += 1

    def _on_sample_boundary(self, args, kwargs, result):
        self.counters["points"] += len(result)
        self.counters["distinct"] += len({bp.point.tobytes() for bp in result})

    def _on_membership(self, args, kwargs, result):
        if self._parent() == "sets.sample_boundary":
            self.counters["rejection_tests"] += 1
            if result.name == "BOUNDARY":
                self.counters["rejection_accepted"] += 1

    def _on_falsify(self, args, kwargs, result):
        bound = self._falsify_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        starts = int(a["n_starts"]) + len(a["extra_starts"] or ())
        self.counters["start_steps"] += starts * max(1, int(round(a["horizon"] / a["step"])))

    def _on_build_expression(self, args, kwargs, result):
        result.func = self.wrap(FIELD, result.func, self._on_field)

    def _on_field(self, args, kwargs, result):
        shape = np.shape(args[1] if len(args) > 1 else kwargs["x"])
        self.counters["columns"] += shape[1] if len(shape) > 1 else 1

    # -- report ----------------------------------------------------------

    def metrics(self, overhead_frac):
        """Every per-layer metric as {name: (value, unit)}."""
        out = {}
        for name, (calls, total, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.total_s"] = total
            out[f"{name}.self_s"] = self_s
        c = self.counters

        def ratio(num, den):
            return num / den if den else 0.0

        simplex = self.stats["solvers.simplex_standard"]
        eig = self.stats["numerics.sym_eig"]
        values = {
            "solvers.simplex_standard.cells": c["cells"],
            "solvers.simplex_standard.us_per_call": 1e6 * ratio(simplex[1], simplex[0]),
            "solvers.simplex_standard.infeasible": c["lp_infeasible"],
            "solvers.simplex_standard.unbounded": c["lp_unbounded"],
            "checkers.check_hpoly_linear.box_resolves": ratio(c["box_resolves"], c["facet_lps"]),
            "numerics.sym_eig.us_per_call": 1e6 * ratio(eig[1], eig[0]),
            "numerics.sym_eig.dim_mean": ratio(c["eig_dims"], eig[0]),
            "numerics.eta_search.evals": c["eta_evals"],
            "sets.sample_boundary.points": c["points"],
            "sets.sample_boundary.distinct_ratio": ratio(c["distinct"], c["points"]),
            "sets.membership.boundary_ratio": ratio(c["rejection_accepted"], c["rejection_tests"]),
            "dynamics.falsify.start_steps_per_s": ratio(
                c["start_steps"], self.stats["dynamics.falsify"][1]),
            "expressions.field.columns": c["columns"],
            "trace.overhead_frac": overhead_frac,
        }
        out.update(values)
        units = {name: unit for name, unit, _ in metric_specs()}
        return {name: (value, units[name]) for name, value in out.items()}

    def layer_self_times(self):
        """Self seconds summed per module (spans only)."""
        out = {}
        for name, (_, _, self_s) in self.stats.items():
            mod = name.split(".")[0]
            out[mod] = out.get(mod, 0.0) + self_s
        return out
