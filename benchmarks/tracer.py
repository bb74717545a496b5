"""Span tracer that wraps the public functions of each trish module.

Nothing under ``src/`` is changed: the wrappers are installed from here,
by replacing every binding of a wrapped function, including the ones
that ``from .x import y`` created in other modules (for example
``trish.optimizer.steihaug_cg``) and the suite registry dict.  Each call
records one span (name, start, end, parent) in growable ``array``
columns; self time is derived afterwards as span duration minus the
time covered by its child spans.
"""

from __future__ import annotations

import inspect
import math
import os
import sys
import time
from array import array

import numpy as np

# Modules whose public functions and methods are wrapped, keyed by the
# layer name the per-layer metrics use.
LAYERS = {
    "core": "trish.core",
    "problems": "trish.problems",
    "subproblem": "trish.subproblem",
    "schedules": "trish.schedules",
    "optimizer": "trish.optimizer",
    "bounds": "trish.bounds",
    "checks": "trish.harness.checks",
    "config": "trish.harness.config",
    "experiment": "trish.harness.experiment",
    "grid": "trish.harness.grid",
    "suites": "trish.harness.suites",
}

# Private functions wrapped as well.  The k = 0 trace row is not a step,
# so per-step call counts exclude calls made from ``_initial_record``;
# mini-batch Hessian products reach the data only through ``_batch_hvp``.
EXTRA = {"optimizer._initial_record", "problems.LogisticProblem._batch_hvp"}

# Factories whose returned sampler closure is traced under its own name.
SAMPLER_FACTORIES = {
    "core.oracle_sampler": "core.sample",
    "problems.LogisticProblem.minibatch_sampler": "problems.minibatch_sample",
}


def _count_write_trace_csv(args, result):
    return {"csv_rows": len(args[0].records), "csv_bytes": os.path.getsize(args[1])}


def _count_tune(args, result):
    losses = [loss for entry in result.leaderboard for loss in entry.losses]
    return {"grid_lanes": len(losses),
            "grid_diverged": sum(1 for loss in losses if not math.isfinite(loss))}


def _count_run(args, result):
    return {"lanes": 1, "aborted_lanes": int(result.aborted is not None)}


# Counts recorded at the same boundaries as the spans, from each call's
# arguments and result.
COUNTERS = {
    "optimizer.trish_step": lambda args, result: {"cg_iters": result[1].cg_iterations},
    "optimizer.run_trish": _count_run,
    "optimizer.run_sg": _count_run,
    "schedules.validate_stepsize": lambda args, result: {
        "precondition_violations": int(result is False)},
    "experiment.write_trace_csv": _count_write_trace_csv,
    "grid.tune": _count_tune,
}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name_col = array("q")
        self.parent_col = array("q")
        self.start_col = array("q")
        self.end_col = array("q")
        self.stack = [-1]
        self.counts: dict[str, int] = {}

    def wrap(self, name: str, fn):
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        name_col, parent_col = self.name_col, self.parent_col
        start_col, end_col, stack = self.start_col, self.end_col, self.stack
        clock = time.perf_counter_ns
        counter = COUNTERS.get(name)
        sampler_name = SAMPLER_FACTORIES.get(name)

        def traced(*args, **kwargs):
            i = len(name_col)
            name_col.append(nid)
            parent_col.append(stack[-1])
            end_col.append(0)
            stack.append(i)
            start_col.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end_col[i] = clock()
                stack.pop()
            if counter is not None:
                for key, value in counter(args, result).items():
                    self.counts[key] = self.counts.get(key, 0) + value
            if sampler_name is not None:
                result = self.wrap(sampler_name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every public function and method of the ``LAYERS`` modules."""
        modules = [m for n, m in sys.modules.items() if n == "trish" or n.startswith("trish.")]
        for layer, modname in LAYERS.items():
            mod = sys.modules[modname]
            for attr, obj in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if inspect.isfunction(obj) and obj.__module__ == modname and _public(name):
                    _rebind(modules, obj, self.wrap(name, obj))
                elif inspect.isclass(obj) and obj.__module__ == modname:
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and _public(f"{name}.{meth}"):
                            setattr(obj, meth, self.wrap(f"{name}.{meth}", fn))

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name_col, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent_col, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start_col, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end_col, dtype=np.int64).copy(),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.spans())

    def totals(self) -> dict[str, float]:
        """Raw per-layer sums (ns, calls, counts) that the ratios are built from."""
        sp = self.spans()
        name, parent = sp["name"], sp["parent"]
        dur = sp["end"] - sp["start"]
        layer_ids = {layer: i for i, layer in enumerate(LAYERS)}
        span_layer = np.array([layer_ids[n.split(".")[0]] for n in self.names],
                              dtype=np.int64)[name]

        has_parent = parent >= 0
        child_ns = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_ns = dur - child_ns
        # Time of a span outside descendants of other layers: children in
        # the same layer pass up only the other-layer time they contain.
        excl_list, dur_list = dur.tolist(), dur.tolist()
        parent_list, layer_list = parent.tolist(), span_layer.tolist()
        for i in range(len(dur_list) - 1, -1, -1):
            p = parent_list[i]
            if p >= 0:
                inner = dur_list[i] - excl_list[i] if layer_list[p] == layer_list[i] else dur_list[i]
                excl_list[p] -= inner
        excl = np.array(excl_list, dtype=np.float64)

        def method(*meths):
            ids = [i for i, n in enumerate(self.names)
                   if n.startswith("problems.") and n.rsplit(".", 1)[1] in meths]
            return np.isin(name, ids)

        outermost = ~has_parent
        outermost[has_parent] = span_layer[parent[has_parent]] != span_layer[has_parent]
        initial = self.name_ids.get("optimizer._initial_record", -1)
        in_step = ~(has_parent & (name[np.maximum(parent, 0)] == initial))

        def by_layer(layer):
            return span_layer == layer_ids[layer]

        def exact_name(n):
            return name == self.name_ids.get(n, -1)

        grad = method("grad")
        # LogisticProblem.hvp delegates to _batch_hvp: count that pair once.
        hvp = method("hvp", "_batch_hvp")
        hvp_calls = hvp & ~(has_parent & method("hvp")[np.maximum(parent, 0)])
        steihaug = exact_name("subproblem.steihaug_cg")
        exact = exact_name("subproblem.exact_trs")
        rad = exact_name("subproblem.radius")
        out = {
            "core_sample_ns": excl[exact_name("core.sample")].sum(),
            "hess_dense_ns": excl[exact_name("core.HessianEstimate.dense")].sum(),
            "grad_in_steps": int((grad & in_step).sum()),
            "hvp_in_steps": int((hvp_calls & in_step).sum()),
            "value_ns": self_ns[method("value")].sum(),
            "grad_ns": self_ns[grad].sum(),
            "hvp_ns": self_ns[hvp].sum(),
            "batch_grad_ns": self_ns[method("batch_gradient")].sum(),
            "steihaug_ns": excl[steihaug].sum(),
            "steihaug_calls": int(steihaug.sum()),
            "exact_ns": excl[exact].sum(),
            "exact_calls": int(exact.sum()),
            "radius_ns": excl[rad].sum(),
            "radius_calls": int(rad.sum()),
            "trish_steps": int(exact_name("optimizer.trish_step").sum()),
            "schedules_ns": self_ns[by_layer("schedules")].sum(),
            "optimizer_ns": self_ns[by_layer("optimizer")].sum(),
            "bounds_ns": self_ns[by_layer("bounds")].sum(),
            "checks_ns": self_ns[by_layer("checks")].sum(),
            "csv_ns": excl[exact_name("experiment.write_trace_csv")].sum(),
            "config_ns": dur[by_layer("config") & outermost].sum(),
            "baseline_ns": dur[exact_name("grid.baseline_gradient_norm")].sum(),
        }
        for key in ("cg_iters", "precondition_violations", "lanes", "aborted_lanes",
                    "csv_rows", "csv_bytes", "grid_lanes", "grid_diverged"):
            out[key] = self.counts.get(key, 0)
        return {k: float(v) for k, v in out.items()}


def _public(name: str) -> bool:
    return not name.rsplit(".", 1)[1].startswith("_") or name in EXTRA


def _rebind(modules, original, wrapper) -> None:
    """Replace ``original`` wherever a trish module or module-level dict binds it."""
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, wrapper)
            elif isinstance(val, dict):
                for key, item in list(val.items()):
                    if item is original:
                        val[key] = wrapper
