"""The names the benchmark reaches into idapbc by.

``bench/tracing.py`` wraps the functions listed in its ``TRACED`` table and
``bench/child.py`` calls a few more directly.  Both name them by module and
attribute, and child.py counts the program's warnings by how their messages
begin, so a rename or a reworded warning in ``src/`` would only show when the
benchmark runs; these tests make it fail here instead.  The bench files are
loaded from their paths and left unchanged.
"""
import importlib
import importlib.util
import inspect
import warnings
from pathlib import Path

import numpy as np
import pytest

from idapbc.control_sim import Controller, decay_metrics, feedback
from idapbc.expr import parse
from idapbc.system import ExprMatrix, ShapedDesign, StateTrajectory, builtin

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_traced():
    return load_bench("tracing").TRACED


def resolve(module, path):
    owner = importlib.import_module(f"idapbc.{module}")
    for attr in path.split("."):
        owner = getattr(owner, attr)
    return owner


@pytest.mark.parametrize("module,path", [t[1:] for t in load_traced()])
def test_traced_name_resolves(module, path):
    assert callable(resolve(module, path))


# (module, attribute path, the arguments child.py passes, by position)
CHILD_CALLS = [
    ("cli", "evaluate_residuals", 4),
    ("cli", "main", 1),
    ("control_sim", "feedback", 3),
    ("control_sim", "closed_loop_field", 3),
    ("control_sim", "Controller", 2),
    ("system", "load_system", 1),
    ("system", "MechSystem.open_loop_field", 4),
    ("matching", "ResidualReport.write_csv", 2),
]


@pytest.mark.parametrize("module,path,nargs", CHILD_CALLS)
def test_child_call_binds(module, path, nargs):
    inspect.signature(resolve(module, path)).bind(*[None] * nargs)


def _no_extension():
    sys, _ = builtin("pendulum_cart")
    broken = ShapedDesign(
        sys.vars,
        ExprMatrix.from_strings([["2", "0"], ["0", "1"]], sys.vars),
        parse("q1^2 + q2^2", sys.vars),
        np.eye(1),
    )
    Controller(sys, broken).gyro_at([0.3, 0.0])


def _residual_over_tol():
    sys, good = builtin("pendulum_cart")
    spoiled = ShapedDesign(sys.vars, good.Mhat, parse("q2^2 + q1/10", sys.vars), np.eye(1))
    feedback(Controller(sys, spoiled), [0.3, 0.0], [0.1, 0.1])


def _decay_clamp():
    decay_metrics(StateTrajectory(np.arange(6.0), np.zeros((6, 2)), np.ones(6)))


@pytest.mark.parametrize(
    "trigger,kind",
    [
        (_no_extension, "zero_gyro"),
        (_residual_over_tol, "residual_over_tol"),
        (_decay_clamp, "decay_clamp"),
    ],
)
def test_child_counts_each_warning_kind(trigger, kind):
    child = load_bench("child")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        trigger()
    assert [child._warning_kind(str(w.message)) for w in caught] == [kind]
