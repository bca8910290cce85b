"""Spans around calls into idapbc's public functions, kept in memory.

The benchmark traces the program from the outside: ``install`` replaces
each function in ``TRACED`` (in every idapbc module that holds a reference
to it, and on the class for methods) with a wrapper that records a span.
Nothing under ``src/`` changes.

A span is (name, start, end, parent, error): start and end are
``time.perf_counter()`` readings, which on Linux come from the system-wide
monotonic clock, so spans from a child process nest inside the parent's
span around that child.  ``parent`` is the index of the enclosing span or
-1, and ``error`` names the exception that left the call, or is -1.  The
run id of a span is the invocation it came from; ``summarize`` keeps the
invocations apart.

A span's self time is its duration minus the durations of its child spans
(the program is single-threaded, so children never overlap).
"""
from __future__ import annotations

import functools
import importlib
import json
import pathlib
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (span name, module, attribute path): the functions a traced run wraps.
TRACED = [
    ("cli.main", "cli", "main"),
    ("expr.parse", "expr", "parse"),
    ("expr.compile_expr", "expr", "compile_expr"),
    ("system.load_system", "system", "load_system"),
    ("system.mass_matrix", "system", "MechSystem.mass_matrix"),
    ("system.mass_derivatives", "system", "MechSystem.mass_derivatives"),
    ("system.potential_gradient", "system", "MechSystem.potential_gradient"),
    ("system.input_matrix", "system", "MechSystem.input_matrix"),
    ("system.annihilator", "system", "MechSystem.annihilator"),
    ("system.open_loop_field", "system", "MechSystem.open_loop_field"),
    ("system.shaped_mass", "system", "ShapedDesign.shaped_mass"),
    ("system.shaped_mass_derivatives", "system", "ShapedDesign.shaped_mass_derivatives"),
    ("system.shaped_potential_gradient", "system", "ShapedDesign.shaped_potential_gradient"),
    ("system.shaped_hamiltonian", "system", "ShapedDesign.shaped_hamiltonian"),
    ("system.c_table_at", "system", "ShapedDesign.c_table_at"),
    ("tensor.extend_to_gyro", "tensor", "extend_to_gyro"),
    ("matching.evaluate_residuals", "matching", "evaluate_residuals"),
    ("matching.potential_residual", "matching", "potential_residual"),
    ("matching.kinetic_residual", "matching", "kinetic_residual"),
    ("matching.GyroField.at", "matching", "GyroField.at"),
    ("matching.ResidualReport.write_csv", "matching", "ResidualReport.write_csv"),
    ("stability.linearize", "stability", "linearize"),
    ("stability.classify", "stability", "classify"),
    ("stability.minimum_check", "stability", "minimum_check"),
    ("control_sim.simulate", "control_sim", "simulate"),
    ("control_sim.closed_loop_field", "control_sim", "closed_loop_field"),
    ("control_sim.feedback", "control_sim", "feedback"),
    ("control_sim.Controller.gyro_at", "control_sim", "Controller.gyro_at"),
    ("control_sim.Controller.matching_residual", "control_sim", "Controller.matching_residual"),
    ("control_sim.decay_metrics", "control_sim", "decay_metrics"),
    ("control_sim.write_trajectory_csv", "control_sim", "write_trajectory_csv"),
]
# Writes of controller.json/metrics.json: the CLI serializes with json.dumps
# and writes with Path.write_text.
WRITE_SPANS = ["cli.json_dumps", "cli.write_text"]
SPAN_NAMES = [name for name, _, _ in TRACED] + WRITE_SPANS

# evaluate_residuals turns these exceptions into NaN rows; failed points are
# counted by the class it catches.
POINT_ERROR_GROUPS = {
    "SystemError": "SystemError",
    "MatchingError": "MatchingError",
    "TensorError": "TensorError",
    "ExprError": "ExprError",
    "ParseError": "ExprError",
    "ArithmeticError": "ArithmeticError",
    "ZeroDivisionError": "ArithmeticError",
    "FloatingPointError": "ArithmeticError",
    "OverflowError": "ArithmeticError",
    "LinAlgError": "LinAlgError",
}
POINT_ERROR_NAMES = sorted(set(POINT_ERROR_GROUPS.values())) + ["other"]
_RESIDUAL_SPANS = {"matching.potential_residual", "matching.kinetic_residual"}


class Tracer:
    """Spans of one process, in memory until ``save``."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def record(self, name: str, start: float, end: float) -> None:
        """A finished top-level span timed by the caller."""
        self.spans.append((self.name_id(name), start, end, -1, -1))

    @contextmanager
    def span(self, name: str):
        idx = self._open()
        error = -1
        start = perf_counter()
        try:
            yield
        except BaseException as exc:
            error = self.name_id(type(exc).__name__)
            raise
        finally:
            self._close(idx, self.name_id(name), start, error)

    def wrap(self, name: str, fn):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open()
            error = -1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = self.name_id(type(exc).__name__)
                raise
            finally:
                self._close(idx, nid, start, error)

        return traced

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, nid: int, start: float, error: int) -> None:
        end = perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = (nid, start, end, parent, error)

    def save(self, path) -> None:
        arr = np.array(self.spans, dtype=float).reshape(-1, 5)
        np.savez(path, names=np.array(self.names, dtype=str), spans=arr)


class _TracedJson:
    """The json module as the CLI sees it, with ``dumps`` traced."""

    def __init__(self, tracer: Tracer):
        self.dumps = tracer.wrap("cli.json_dumps", json.dumps)

    def __getattr__(self, attr):
        return getattr(json, attr)


def install(tracer: Tracer) -> None:
    """Wrap every function in ``TRACED``; idapbc.cli must be imported."""
    loaded = [m for key, m in list(sys.modules.items()) if key.startswith("idapbc")]
    for name, module, path in TRACED:
        owner = importlib.import_module(f"idapbc.{module}")
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        orig = getattr(owner, attr)
        wrapped = tracer.wrap(name, orig)
        setattr(owner, attr, wrapped)
        if not classes:
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
    sys.modules["idapbc.cli"].json = _TracedJson(tracer)
    pathlib.Path.write_text = tracer.wrap("cli.write_text", pathlib.Path.write_text)


def load(path) -> tuple[list[str], np.ndarray]:
    with np.load(path) as data:
        return [str(n) for n in data["names"]], data["spans"]


def summarize(traces: list[tuple[list[str], np.ndarray]], walls: list[float]) -> dict:
    """Per-layer figures over traced invocations.

    For each span name: ``calls`` and ``self_s`` per invocation (means over
    invocations) and ``us_per_call``, the median inclusive duration over all
    calls, plus ``p99_us``.  Also the failed sweep points grouped by the
    exception class ``evaluate_residuals`` catches, and ``self_sum_frac``:
    the summed self time of all spans of an invocation (which equals the
    summed duration of its top-level spans) over its wall time, median over
    invocations.
    """
    durations: dict[str, list[np.ndarray]] = {}
    self_time: dict[str, float] = {}
    failed_points = dict.fromkeys(POINT_ERROR_NAMES, 0)
    fracs = []
    for (names, arr), wall in zip(traces, walls):
        nid = arr[:, 0].astype(int)
        dur = arr[:, 2] - arr[:, 1]
        parent = arr[:, 3].astype(int)
        error = arr[:, 4].astype(int)
        child = np.zeros(len(arr))
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        own = dur - child
        fracs.append(float(own.sum()) / wall)
        for i, name in enumerate(names):
            mask = nid == i
            if mask.any():
                durations.setdefault(name, []).append(dur[mask])
                self_time[name] = self_time.get(name, 0.0) + float(own[mask].sum())
        for i in np.flatnonzero((error >= 0) & nested):
            if (names[nid[i]] in _RESIDUAL_SPANS
                    and names[nid[parent[i]]] == "matching.evaluate_residuals"):
                failed_points[POINT_ERROR_GROUPS.get(names[error[i]], "other")] += 1
    runs = max(1, len(traces))
    out = {}
    for name in SPAN_NAMES + ["cli.import"]:
        d = np.concatenate(durations[name]) if name in durations else np.zeros(0)
        out[name] = {
            "calls": d.size / runs,
            "self_s": self_time.get(name, 0.0) / runs,
            "us_per_call": float(np.median(d)) * 1e6 if d.size else 0.0,
            "p99_us": float(np.percentile(d, 99)) * 1e6 if d.size else 0.0,
        }
    return {
        "spans": out,
        "points_failed": {k: v / runs for k, v in failed_points.items()},
        "self_sum_frac": float(np.median(fracs)) if fracs else 0.0,
    }
