"""Outside-in span tracer for the fixmk layers, and the per-layer metrics.

The tracer wraps every public function of the layer modules.  For each one
it rebinds every attribute of every loaded ``fixmk`` module that is the
very same object, which also catches copies made by ``from .lp import
solve_lp`` and the package re-exports.  Spans (name, start, end, parent,
problem id) stay in memory; :meth:`Tracer.remove` restores the originals.

A span's self time is its duration minus the durations of its direct
children, so the self times of one call tree add up to its root's span.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import math
import statistics
import sys
import time

import numpy as np

LAYERS = ("cli", "schema", "semigroup", "geometry", "lp", "solver", "extension")
_MARK = "__perfbench_span__"


def _fixmk_modules():
    return [m for n, m in list(sys.modules.items()) if n == "fixmk" or n.startswith("fixmk.")]


def _generator_count(node) -> int:
    if hasattr(node, "generators"):
        return len(node.generators)
    return _generator_count(node.normal) + _generator_count(node.quotient)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def closed_form_combos(norm: str, dim: int, rank: int) -> int:
    """Facet combinations build_constraint_set tries: C(#dual facets, n - rank).

    The dual of max-abs is sum-abs, whose ball has 2^n facets; the dual of
    sum-abs is max-abs, whose ball has 2n.
    """
    facets = 2**dim if norm == "max-abs" else 2 * dim
    return math.comb(facets, dim - rank)


# Per-function extras, computed after the span's end time is taken.  Each
# gets (args, kwargs, result) and returns a small tuple kept on the span.
_EXTRAS = {
    "lp.solve_lp": lambda a, k, r: (np.shape(_arg(a, k, 1, "A")), r.status),
    "semigroup.enumerate_elements": lambda a, k, r: (len(r),),
    "semigroup.validate_structure": lambda a, k, r: (
        _arg(a, k, 1, "K").n_vertices * _generator_count(_arg(a, k, 0, "node")),
    ),
    "solver.solve_cesaro": lambda a, k, r: (len(r.certificate.residual_history),),
    "extension.build_constraint_set": lambda a, k, r: (
        closed_form_combos(
            _arg(a, k, 0, "problem").norm.kind.value,
            _arg(a, k, 0, "problem").dim,
            int(np.linalg.matrix_rank(_arg(a, k, 0, "problem").subspace_basis)),
        ),
        r.n_vertices,
    ),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, problem, extra, raised]
        self.problem = ""
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        extra = _EXTRAS.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.problem, None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[2] = clock()
                stack.pop()
                rec[6] = type(exc).__name__
                raise
            rec[2] = clock()
            stack.pop()
            if extra is not None:
                rec[5] = extra(args, kwargs, result)
            return result

        setattr(span, _MARK, fn)
        return span

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        mods = _fixmk_modules()
        for layer in LAYERS:
            module = importlib.import_module(f"fixmk.{layer}")
            for fname, fn in vars(module).items():
                if fname.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", fn)
                for m in mods:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, fn))

    def remove(self) -> None:
        for m, attr, fn in reversed(self._patched):
            setattr(m, attr, fn)
        self._patched.clear()

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def installed_wrappers() -> list[str]:
    """Attributes of loaded fixmk modules that are still tracer wrappers."""
    return [
        f"{m.__name__}.{attr}"
        for m in _fixmk_modules()
        for attr, value in list(vars(m).items()) if hasattr(value, _MARK)
    ]


def self_times(spans) -> list[float]:
    own = [end - start for _, start, end, *_ in spans]
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _ancestors(spans, i):
    parent = spans[i][3]
    while parent >= 0:
        yield spans[parent][0]
        parent = spans[parent][3]


def layer_metrics(spans, wall_s: float) -> dict[str, float]:
    """Per-layer counts and self times of one traced pass over the workload."""
    own = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for (name, *_), t in zip(spans, own):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + t

    def extras(name):
        return [s[5] for s in spans if s[0] == name and s[5] is not None]

    def layer_self(layer):
        return sum(t for n, t in self_s.items() if n.startswith(layer + "."))

    lps = [i for i, s in enumerate(spans) if s[0] == "lp.solve_lp"]
    lp_info = extras("lp.solve_lp")
    validate = "semigroup.validate_structure"
    validate_lps = sum(1 for i in lps if validate in _ancestors(spans, i))
    # vertices x generators of the outermost validate calls; nested calls
    # re-check the same vertices for a subtree
    vertex_gens = sum(
        s[5][0] for i, s in enumerate(spans)
        if s[0] == validate and s[5] is not None and validate not in _ancestors(spans, i)
    )
    top_level = sum(end - start for _, start, end, parent, *_ in spans if parent < 0)

    m = {
        "lp.calls": len(lps),
        "lp.self_s": layer_self("lp"),
        "lp.cells": sum(shape[0] * shape[1] for shape, _ in lp_info),
        "lp.non_optimal": sum(1 for _, status in lp_info if status != "optimal"),
        "lp.raised": sum(1 for i in lps if spans[i][6] is not None),
        "geometry.self_s": layer_self("geometry"),
        "geometry.hull_fit_calls": calls.get("geometry.hull_fit", 0),
        "geometry.hull_fit_self_s": self_s.get("geometry.hull_fit", 0.0),
        "geometry.feasible_point_self_s": self_s.get("geometry.feasible_point", 0.0),
        "geometry.cesaro_average_calls": calls.get("geometry.cesaro_average", 0),
        "geometry.polytope_image_self_s": self_s.get("geometry.polytope_image", 0.0),
        "semigroup.self_s": layer_self("semigroup"),
        "semigroup.validate_calls": calls.get(validate, 0),
        "semigroup.validate_self_s": self_s.get(validate, 0.0),
        "semigroup.normal_factor_self_s": self_s.get("semigroup.check_normal_factor", 0.0),
        "semigroup.enumerate_self_s": self_s.get("semigroup.enumerate_elements", 0.0),
        "semigroup.elements": sum(e[0] for e in extras("semigroup.enumerate_elements")),
        "semigroup.lps_per_vertex_gen": validate_lps / vertex_gens if vertex_gens else 0.0,
        "solver.self_s": layer_self("solver"),
        "solver.exact_self_s": self_s.get("solver.solve_exact", 0.0),
        "solver.exact_lps": sum(1 for i in lps if "solver.solve_exact" in _ancestors(spans, i)),
        "solver.cesaro_self_s": self_s.get("solver.solve_cesaro", 0.0),
        "solver.cesaro_stages": sum(e[0] for e in extras("solver.solve_cesaro")),
        "solver.fixed_subspace_self_s": self_s.get("solver.common_fixed_subspace", 0.0)
        + self_s.get("solver.fixed_subspace", 0.0),
        "solver.fip_self_s": self_s.get("solver.fip_check", 0.0),
        "extension.self_s": layer_self("extension"),
        "extension.constraint_set_self_s": self_s.get("extension.build_constraint_set", 0.0),
        "extension.combos": sum(e[0] for e in extras("extension.build_constraint_set")),
        "extension.constraint_vertices": sum(e[1] for e in extras("extension.build_constraint_set")),
        "extension.validate_problem_self_s": self_s.get("extension.validate_problem", 0.0),
        "extension.subspace_norm_calls": calls.get("extension.subspace_norm", 0),
        "extension.extend_self_s": self_s.get("extension.invariant_extension", 0.0),
        "extension.verify_self_s": self_s.get("extension.verify_extension", 0.0),
        "schema.self_s": layer_self("schema"),
        "schema.load_self_s": self_s.get("schema.load_problem", 0.0)
        + self_s.get("schema.parse_problem", 0.0),
        "schema.dumps_self_s": self_s.get("schema.dumps_canonical", 0.0),
        "cli.self_s": layer_self("cli"),
        "trace.spans": len(spans),
        "trace.wall_s": wall_s,
        "trace.remainder_s": wall_s - top_level,
    }
    return m


def median_metrics(per_pass: list[dict]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
