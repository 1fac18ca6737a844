"""Spans and counters recorded around horoflow's layers from outside the library.

Every traced function is replaced at each name that resolves to it: the
modules import by name (``from .scalarmin import minimize_convex_quartic``),
so patching the defining module alone would miss the callers.  Methods are
patched on their class.  ``Tracer.installed()`` restores every original on
exit, so untraced and traced passes can share one process.

A span is (name id, parent span id, job id, start, end), kept in a flat
in-memory array and written out once at the end.  A function's self time is
its span duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

FIELDS = 5  # name, parent, job, start, end

# (defining module, attribute) of every function recorded as a span; a
# method is written "Class.method" and patched on its class.
SPANNED = (
    ("horoflow.stepping", "solve_to_grid"),
    ("horoflow.stepping", "cumulative_simpson"),
    ("horoflow.scalarmin", "minimize_convex_quartic"),
    ("horoflow.counterexample", "uv_rhs"),
    ("horoflow.counterexample", "solve_regularized"),
    ("horoflow.counterexample", "run_epsilon_ladder"),
    ("horoflow.counterexample", "rung_monitor_report"),
    ("horoflow.counterexample", "singular_integral_residual"),
    ("horoflow.counterexample", "build_nonuniqueness_report"),
    ("horoflow.flow", "integrate"),
    ("horoflow.flow", "residual"),
    ("horoflow.flow", "write_trajectory_csv"),
    ("horoflow.fields", "evaluate_field"),
    ("horoflow.fields", "field_from_spec"),
    ("horoflow.groups", "GradedAlgebra.multiply"),
    ("horoflow.groups", "GradedAlgebra.multiply_batch"),
    ("horoflow.gauges", "HomogeneousDistance.__call__"),
    ("horoflow.gauges", "gauge_report"),
    ("horoflow.gauges", "equivalence_constants"),
    ("horoflow.uniqueness", "verify_equilibrium_condition"),
    ("horoflow.uniqueness", "stability_monitor"),
    ("horoflow.uniqueness", "check_involutive"),
    ("horoflow.uniqueness", "confinement_check"),
    ("horoflow.uniqueness", "reduced_solve"),
    ("horoflow.cli", "_emit"),
    ("horoflow.cli", "_write_uv_csv"),
)

# Called about 60 times per minimiser call, so only counted: a span each
# would hold millions of records.
COUNTED = (("horoflow.scalarmin", "quartic_value"),)


def span_name(module: str, attr: str) -> str:
    """Metric prefix of a traced function: ``groups.multiply``, ``gauges.distance``."""
    layer = module.rsplit(".", 1)[-1]
    method = attr.rsplit(".", 1)[-1]
    if method == "__call__":
        method = "distance"
    return f"{layer}.{method}"


class Tracer:
    """In-memory spans, per-job counters and notes for one benchmark process."""

    def __init__(self):
        self.names: list[str] = []
        self.spans = array("d")
        self.stack = [-1]
        self.job = -1
        self.counters: dict[str, list] = {}
        self.notes: dict = defaultdict(list)  # (job, key) -> observed values

    # ------------------------------------------------------------- recording

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def note(self, key: str, value) -> None:
        self.notes[(self.job, key)].append(value)

    def wrap(self, name: str, fn, observe=None):
        """``fn`` recording one span per call; ``observe(tracer, args, result)``
        sees each returned value."""
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans) // FIELDS
            spans.extend((nid, stack[-1], tracer.job, clock(), 0.0))
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[sid * FIELDS + 4] = clock()
            if observe is not None:
                observe(tracer, args, result)
            return result

        return traced

    def count(self, name: str, fn):
        cell = self.counters.setdefault(name, [0])

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code (one CLI command)."""
        nid = self._name_id(name)
        sid = len(self.spans) // FIELDS
        self.spans.extend((nid, self.stack[-1], self.job, time.perf_counter(), 0.0))
        self.stack.append(sid)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[sid * FIELDS + 4] = time.perf_counter()

    @contextlib.contextmanager
    def job_scope(self, job: int):
        """Attribute spans and counter increments inside the block to ``job``."""
        self.job = job
        before = {k: c[0] for k, c in self.counters.items()}
        try:
            yield
        finally:
            for k, c in self.counters.items():
                self.note(k + ".calls", c[0] - before.get(k, 0))
            self.job = -1

    # ------------------------------------------------------------- patching

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced name in the loaded horoflow modules; restore on exit."""
        patches = []
        for module, attr, wrapper_for in self._targets():
            owner = sys.modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                patches.append((cls, meth, original))
                setattr(cls, meth, wrapper_for(original))
                continue
            original = getattr(owner, attr)
            wrapped = wrapper_for(original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "horoflow" and not mod_name.startswith("horoflow."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, key, original))
                        setattr(mod, key, wrapped)
        try:
            yield
        finally:
            for owner, key, original in reversed(patches):
                setattr(owner, key, original)

    def _targets(self):
        observers = {
            "solve_to_grid": _observe_stepping,
            "residual": lambda tr, args, res: tr.note("flow.residual", res),
            "GradedAlgebra.multiply_batch":
                lambda tr, args, res: tr.note("groups.multiply_batch.rows", len(res)),
        }
        for module, attr in SPANNED:
            name = span_name(module, attr)
            obs = observers.get(attr)
            yield module, attr, functools.partial(self.wrap, name, observe=obs)
        for module, attr in COUNTED:
            yield module, attr, functools.partial(self.count, span_name(module, attr))

    # ------------------------------------------------------------- summaries

    def table(self):
        """Per-job {name: (calls, self seconds)} from the recorded spans."""
        rec = np.frombuffer(self.spans, dtype=float).reshape(-1, FIELDS)
        out: dict = defaultdict(dict)
        if not len(rec):
            return out
        name = rec[:, 0].astype(int)
        parent = rec[:, 1].astype(int)
        job = rec[:, 2].astype(int)
        dur = rec[:, 4] - rec[:, 3]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(rec))
        own = dur - child
        key = job * len(self.names) + name
        keys, inverse = np.unique(key, return_inverse=True)
        calls = np.bincount(inverse)
        own_sum = np.bincount(inverse, weights=own)
        for k, n, s in zip(keys, calls, own_sum):
            j, i = divmod(int(k), len(self.names))
            out[j][self.names[i]] = (int(n), float(s))
        return out

    def save(self, path) -> None:
        rec = np.frombuffer(self.spans, dtype=float).reshape(-1, FIELDS)
        np.savez_compressed(path, names=np.array(self.names), spans=rec,
                            columns=np.array(["name", "parent", "job", "start", "end"]))


def _observe_stepping(tracer: Tracer, args, sol) -> None:
    st = sol.stats
    tracer.note("stepping.steps", st.steps)
    tracer.note("stepping.rejected", st.rejected)
    tracer.note("stepping.rhs_evals", st.rhs_evals)
    if st.steps:
        tracer.note("stepping.min_step", st.min_step)


def job_layer_metrics(tracer: Tracer, job: int, table: dict) -> dict:
    """Per-layer metrics of one traced job (values only; units live in run.py)."""
    rows = table.get(job, {})

    def calls(name):
        return rows.get(name, (0, 0.0))[0]

    def self_s(name):
        return rows.get(name, (0, 0.0))[1]

    def per_call(name, scale, count=None):
        n = calls(name) if count is None else count
        return self_s(name) / n * scale if n else 0.0

    def noted(key, reduce=sum, empty=0):
        values = tracer.notes.get((job, key), [])
        return reduce(values) if values else empty

    rhs = noted("stepping.rhs_evals")
    rows_batched = noted("groups.multiply_batch.rows")
    return {
        "stepping.solve_to_grid.self_s": self_s("stepping.solve_to_grid"),
        "stepping.steps": noted("stepping.steps"),
        "stepping.rejected": noted("stepping.rejected"),
        "stepping.rhs_evals": rhs,
        "stepping.min_step": noted("stepping.min_step", min, 0.0),
        "stepping.overhead_us_per_rhs": per_call("stepping.solve_to_grid", 1e6, rhs),
        "stepping.cumulative_simpson.calls": calls("stepping.cumulative_simpson"),
        "stepping.cumulative_simpson.self_s": self_s("stepping.cumulative_simpson"),
        "scalarmin.minimize_convex_quartic.calls": calls("scalarmin.minimize_convex_quartic"),
        "scalarmin.minimize_convex_quartic.self_s": self_s("scalarmin.minimize_convex_quartic"),
        "scalarmin.minimize_convex_quartic.us_per_call":
            per_call("scalarmin.minimize_convex_quartic", 1e6),
        "scalarmin.quartic_value.calls": noted("scalarmin.quartic_value.calls"),
        "counterexample.uv_rhs.calls": calls("counterexample.uv_rhs"),
        "counterexample.uv_rhs.self_s": self_s("counterexample.uv_rhs"),
        "counterexample.rung_monitor_report.self_s": self_s("counterexample.rung_monitor_report"),
        "counterexample.singular_integral_residual.self_s":
            self_s("counterexample.singular_integral_residual"),
        "counterexample.build_nonuniqueness_report.self_s":
            self_s("counterexample.build_nonuniqueness_report"),
        "flow.integrate.calls": calls("flow.integrate"),
        "flow.integrate.self_s": self_s("flow.integrate"),
        "flow.residual.self_s": self_s("flow.residual"),
        "flow.residual_max": noted("flow.residual", max, 0.0),
        "fields.evaluate_field.calls": calls("fields.evaluate_field"),
        "fields.evaluate_field.self_s": self_s("fields.evaluate_field"),
        "fields.evaluate_field.us_per_call": per_call("fields.evaluate_field", 1e6),
        "groups.multiply.calls": calls("groups.multiply"),
        "groups.multiply.us_per_call": per_call("groups.multiply", 1e6),
        "groups.multiply_batch.rows": rows_batched,
        "groups.multiply_batch.ns_per_row": per_call("groups.multiply_batch", 1e9, rows_batched),
        "gauges.distance.calls": calls("gauges.distance"),
        "gauges.distance.self_s": self_s("gauges.distance"),
        "gauges.gauge_report.self_s": self_s("gauges.gauge_report"),
        "gauges.equivalence_constants.self_s": self_s("gauges.equivalence_constants"),
        "uniqueness.verify_equilibrium_condition.self_s":
            self_s("uniqueness.verify_equilibrium_condition"),
        "uniqueness.stability_monitor.self_s": self_s("uniqueness.stability_monitor"),
        "uniqueness.confinement_check.self_s": self_s("uniqueness.confinement_check"),
        "uniqueness.reduced_solve.self_s": self_s("uniqueness.reduced_solve"),
        "cli.artifacts_s": sum(self_s(n) for n in
                               ("cli._emit", "cli._write_uv_csv", "flow.write_trajectory_csv")),
    }


def median_over_jobs(per_job: list[dict]) -> dict:
    """Median of each metric over jobs; counts stay whole numbers."""
    out = {}
    for k in per_job[0]:
        values = [d[k] for d in per_job]
        exact = all(isinstance(v, int) for v in values)
        out[k] = (statistics.median_low if exact else statistics.median)(values)
    return out
