"""Outside-in tracing of clckit's layers.

Each listed function is replaced by a timing wrapper in every loaded
`clckit.*` namespace that binds the same function object, because modules
such as `cli` and `coverage2` import names directly. Spans (name, start,
end, parent, op) are kept in memory; self time is a span's duration minus
the time its child spans cover. Nothing inside clckit changes, so traced
reports must be byte-identical to untraced ones.
"""
from __future__ import annotations

import importlib
import json
import os
import sys
from collections import Counter
from time import perf_counter

# Layer (module) -> public functions the per-layer metrics cover.
LAYER_FUNCTIONS = {
    "cli": ("run",),
    "jsonio": (
        "load_set_function",
        "load_matroid",
        "load_coverage_instance",
        "load_certificate",
        "load_joint_distribution",
        "dump_certificate",
    ),
    "setfn": ("materialize", "homogeneous_restrict", "mobius_coverage_weights", "level_sequence"),
    "matroids": ("to_setfunction", "parallel_partition"),
    "polynomials": ("generating_poly", "homogenize", "derive", "quadratic_hessian", "scale"),
    "logconcave": (
        "certify_clc_homogeneous",
        "certify_clc_homogenization",
        "is_indecomposable",
        "inertia",
        "ulc_check",
    ),
    "coverage2": (
        "verify_2cov",
        "verify_strong2cov",
        "synth_2cov_indicator",
        "synth_strong_matroid",
        "synth_strong_from_parts",
        "search_2cov_feasible",
    ),
    "simplex": ("phase1",),
    "entropy": ("entropy_decomposition",),
    "walk": ("walk_instance", "step", "sample_chain", "histogram_tv", "transition_matrix", "mixing_time_exact"),
    "counterexamples": ("run_all",),
}

TRACED = tuple(f"{mod}.{fn}" for mod, fns in LAYER_FUNCTIONS.items() for fn in fns)

# Counts derived from arguments, results or files, by the span that yields them.
DERIVED = (
    "logconcave.cells",
    "logconcave.inertia.dim_sum",
    "simplex.phase1.cells",
    "walk.mix.states",
    "walk.mix.t_mix_sum",
    "jsonio.bytes_read",
    "jsonio.bytes_written",
)


def _report_cells(args, kwargs, result):
    return {"logconcave.cells": result.checks}


def _inertia_dim(args, kwargs, result):
    return {"logconcave.inertia.dim_sum": len(args[0])}


def _lp_cells(args, kwargs, result):
    rows = args[0]
    return {"simplex.phase1.cells": len(rows) * (len(rows[0]) if rows else 0)}


def _mix_counts(args, kwargs, result):
    return {"walk.mix.states": len(args[0].support), "walk.mix.t_mix_sum": result.t_mix or 0}


def _file_read(args, kwargs, result):
    return {"jsonio.bytes_read": os.path.getsize(args[0])}


_DERIVE = {
    "logconcave.certify_clc_homogeneous": _report_cells,
    "logconcave.certify_clc_homogenization": _report_cells,
    "logconcave.inertia": _inertia_dim,
    "simplex.phase1": _lp_cells,
    "walk.mixing_time_exact": _mix_counts,
    **{f"jsonio.{fn}": _file_read for fn in LAYER_FUNCTIONS["jsonio"] if fn.startswith("load_")},
}


class Tracer:
    """Installs timing wrappers on the listed clckit functions.

    `missing` names listed functions the loaded clckit no longer has; they
    are reported, not fatal.
    """

    def __init__(self):
        self.spans: list[tuple[str, float, float, int | None, str | None]] = []
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.op: str | None = None
        self._stack: list[list] = []  # [span id, child seconds]
        self._patched: list[tuple[object, str, object]] = []

    def add(self, name: str, amount: int):
        self.counts[name] += amount

    def _wrap(self, name: str, fn):
        derive = _DERIVE.get(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1][0] if stack else None
            spans.append(None)  # reserve the id; filled in on exit
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans[span_id] = (name, start, end, parent, self.op)
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
            if derive is not None:
                self.counts.update(derive(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap the listed functions and start fresh counters; spans keep
        accumulating over the run."""
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()
        self.missing = []
        for qualified in TRACED:
            mod_name, fn_name = qualified.split(".")
            try:
                module = importlib.import_module(f"clckit.{mod_name}")
            except ImportError:
                module = None
            fn = getattr(module, fn_name, None)
            if fn is None:
                self.missing.append(qualified)
                continue
            wrapper = self._wrap(qualified, fn)
            for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "clckit"]:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patched.append((module, attr, fn))
                        setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def write_spans(self, path):
        """One JSON array per line: name, start, end, parent id, op."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
