"""Run one `wassprop` CLI command with timing wrappers around each layer.

Usage: python bench/traced.py STATS.json -- <wassprop CLI arguments>

Wrappers are installed on module-level names (functions, and methods of
classes) in the `wassprop` package and on `scipy.sparse.linalg.cg`.  Each
call opens a span; a span's self time is its duration minus the time its
child spans cover.  Spans are aggregated per layer name in memory and
written to STATS.json when the command returns.  A name that no longer
exists is skipped and reported, so a refactor leaves the corresponding
metrics "not measured" instead of crashing the run.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from typing import Callable, Dict, List

import numpy as np

# layer span -> the bindings it wraps ("module:attribute" or
# "module:Class.method").  A function imported by name into another module
# is a separate binding, so every module that looks it up is listed.
TARGETS: Dict[str, List[str]] = {
    "fileio.read": [
        "wassprop.fileio:read_hypergraph",
        "wassprop.fileio:read_labels",
        "wassprop.fileio:read_graph",
        "wassprop.fileio:read_truth",
    ],
    "fileio.write": [
        "wassprop.fileio:write_field",
        "wassprop.fileio:write_trace",
        "wassprop.experiments:emit_metrics",
        "wassprop.cli:emit_metrics",
    ],
    "fileio.label_params": ["wassprop.fileio:label_params"],
    "hypergraph.build": [
        "wassprop.hypergraph:Hypergraph.__init__",
        "wassprop.hypergraph:WeightedGraph.__init__",
    ],
    "hypergraph.laplacian": ["wassprop.hypergraph:laplacian", "wassprop.tikhonov:laplacian"],
    "hypergraph.is_connected": [
        "wassprop.hypergraph:is_connected",
        "wassprop.tikhonov:is_connected",
    ],
    "hypergraph.spectral_gap": [
        "wassprop.hypergraph:spectral_gap",
        "wassprop.tikhonov:spectral_gap",
        "wassprop.stability:spectral_gap",
    ],
    "propagation.propagate": ["wassprop.cli:propagate"],
    "propagation.step": ["wassprop.propagation:step"],
    "propagation.init": ["wassprop.propagation:initial_state"],
    "propagation.reach": ["wassprop.propagation:_warn_unreached"],
    "propagation.classify": [
        "wassprop.propagation:classify",
        "wassprop.cli:classify",
        "wassprop.experiments:classify",
    ],
    "experiments.run": ["wassprop.experiments:run_experiment", "wassprop.cli:run_experiment"],
    "experiments.trial": ["wassprop.experiments:propagate"],
    "tikhonov.solve_field": [
        "wassprop.tikhonov:solve_field",
        "wassprop.cli:solve_field",
        "wassprop.stability:solve_field",
    ],
    "tikhonov.operator": ["wassprop.tikhonov:TikhonovOperator.__init__"],
    "tikhonov.solve": ["wassprop.tikhonov:TikhonovOperator.solve"],
    "tikhonov.cg": ["scipy.sparse.linalg:cg"],
    "labels.quantile_label": ["wassprop.labels:QuantileLabel.__post_init__"],
    "stability.empirical": [
        "wassprop.stability:empirical_stability",
        "wassprop.cli:empirical_stability",
    ],
    "stability.probe": ["wassprop.stability:_random_dominated_label"],
}


class Tracer:
    """Stack of open spans plus per-layer aggregates."""

    def __init__(self):
        self.stack: List[list] = []  # [name, child seconds]
        self.stats: Dict[str, dict] = {}
        self.extra: Dict[str, float] = {"solve_columns": 0, "cg_iterations": 0,
                                        "rel_residual": 0.0, "step_bytes": 0}
        self.hook_errors: Dict[str, str] = {}  # layer -> why its hook failed

    def _agg(self, name: str) -> dict:
        return self.stats.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0, "durations": []})

    def span(self, name: str, fn: Callable, after: Callable = None) -> Callable:
        """Wrap `fn`; `after(args, kwargs, result)` runs outside the span and
        its time is charged to no layer."""
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            tracer.stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer.stack.pop()
                agg = tracer._agg(name)
                agg["calls"] += 1
                agg["total"] += t1 - t0
                agg["self"] += (t1 - t0) - frame[1]
                agg["durations"].append(t1 - t0)
            if after is not None:
                try:
                    after(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
                    tracer.hook_errors[name] = repr(exc)  # e.g. a renamed attribute
            if tracer.stack:
                tracer.stack[-1][1] += time.perf_counter() - t0
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks that record counts and quality figures outside the spans --

    def after_solve(self, args, kwargs, x) -> None:
        op, rhs = args[0], args[1] if len(args) > 1 else kwargs["rhs"]
        rhs = np.asarray(rhs)
        self.extra["solve_columns"] += 1 if rhs.ndim == 1 else rhs.shape[1]
        resid = float(np.max(np.abs(op.matrix @ x - rhs))) if rhs.size else 0.0
        scale = max(1.0, float(np.max(np.abs(rhs)))) if rhs.size else 1.0
        self.extra["rel_residual"] = max(self.extra["rel_residual"], resid / scale)

    def after_step(self, args, kwargs, new_state) -> None:
        # computed bytes: the vertex block read plus the vertex and hyperedge
        # blocks written; gathers and cache misses are not counted
        old = args[0].vertex_values
        self.extra["step_bytes"] = int(
            old.nbytes + new_state.vertex_values.nbytes + new_state.edge_values.nbytes
        )

    def counted_cg(self, fn: Callable) -> Callable:
        """cg with an iteration-counting callback chained before the caller's."""
        tracer = self

        def cg(*args, **kwargs):
            user = kwargs.get("callback")

            def count(xk):
                tracer.extra["cg_iterations"] += 1
                if user is not None:
                    user(xk)

            kwargs["callback"] = count
            return fn(*args, **kwargs)

        return cg


def _resolve(binding: str):
    """(owner object, attribute name) for a binding, or None if missing."""
    module_name, _, path = binding.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    # a method must be defined on the class itself, not inherited
    present = attr in vars(owner) if isinstance(owner, type) else hasattr(owner, attr)
    return (owner, attr) if present else None


def install(tracer: Tracer) -> Dict[str, List[str]]:
    """Wrap every binding that exists; return the missing ones per layer."""
    after = {"tikhonov.solve": tracer.after_solve, "propagation.step": tracer.after_step}
    missing: Dict[str, List[str]] = {}
    for name, bindings in TARGETS.items():
        for binding in bindings:
            found = _resolve(binding)
            if found is None:
                missing.setdefault(name, []).append(binding)
                continue
            owner, attr = found
            fn = getattr(owner, attr)
            if name == "tikhonov.cg":
                fn = tracer.counted_cg(fn)
            setattr(owner, attr, tracer.span(name, fn, after.get(name)))
    return missing


def main(argv: List[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced.py STATS.json -- <wassprop arguments>", file=sys.stderr)
        return 2
    out, cli_argv = argv[0], argv[2:]
    t0 = time.perf_counter()
    import wassprop.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    missing = install(tracer)
    rc = tracer.span("cli.main", wassprop.cli.main)(cli_argv)
    with open(out, "w") as fh:
        json.dump({"import_s": import_s, "stats": tracer.stats, "extra": tracer.extra,
                   "missing": missing, "hook_errors": tracer.hook_errors}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
