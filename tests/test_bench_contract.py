"""The names the benchmark reaches into idapbc by.

``bench/tracing.py`` wraps the functions listed in its ``TRACED`` table and
``bench/child.py`` calls a few more directly.  Both name them by module and
attribute, so a rename in ``src/`` would only show when the benchmark runs;
these tests make it fail here instead.  tracing.py is loaded from its file
and left unchanged.
"""
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_traced():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


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
