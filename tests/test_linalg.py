"""idapbc.linalg against np.linalg: the same bits, errors and warnings."""
import ast
import importlib
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from idapbc import linalg

SRC = Path(linalg.__file__).resolve().parent


def outcome(fn, *args, **kwargs):
    """('ok', result bytes) or ('raised', type, message), with the warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # compared, not handled
            out = ("raised", type(exc), str(exc))
        else:
            parts = result if isinstance(result, tuple) else (result,)
            out = ("ok", [(p.shape, p.dtype, p.tobytes()) for p in parts])
    return out, [(w.category, str(w.message)) for w in caught]


def same(layer_fn, numpy_fn, *args, **kwargs):
    assert outcome(layer_fn, *args, **kwargs) == outcome(numpy_fn, *args, **kwargs)


def random_cases(rng, square=True):
    for n in range(2, 6):
        for lead in ((), (7,), (3, 4)):
            cols = n if square else int(rng.integers(1, n + 2))
            yield rng.standard_normal(lead + (n, cols))


class TestBitwise:
    def test_inv(self):
        rng = np.random.default_rng(0)
        for a in random_cases(rng):
            same(linalg.inv, np.linalg.inv, a)

    def test_solve(self):
        rng = np.random.default_rng(1)
        for a in random_cases(rng):
            n = a.shape[-1]
            for b in (rng.standard_normal(n), rng.standard_normal((n, 3)),
                      rng.standard_normal(a.shape[:-1] + (2,))):
                same(linalg.solve, np.linalg.solve, a, b)

    def test_solve_dispatch_on_b_ndim(self):
        # a one-dimensional b is one vector per matrix of the stack
        rng = np.random.default_rng(2)
        a, b = rng.standard_normal((3, 2, 2)), rng.standard_normal(2)
        assert linalg.solve(a, b).shape == (3, 2)
        same(linalg.solve, np.linalg.solve, a, b)

    def test_eigvalsh_reads_the_lower_triangle(self):
        rng = np.random.default_rng(3)
        for a in random_cases(rng):
            same(linalg.eigvalsh, np.linalg.eigvalsh, a)  # the upper one is ignored
            same(linalg.eigvalsh, np.linalg.eigvalsh, a + a.swapaxes(-1, -2))

    def test_svd(self):
        rng = np.random.default_rng(4)
        for square in (True, False):
            for a in random_cases(rng, square):
                same(linalg.svd, np.linalg.svd, a)

    def test_svd_returns_the_full_u(self):
        u, s, vh = linalg.svd(np.array([[0.0], [1.0], [2.0]]))
        assert u.shape == (3, 3) and s.shape == (1,) and vh.shape == (1, 1)


BAD = {
    "singular": np.zeros((2, 2)),
    "rank_one": np.array([[1.0, 2.0], [2.0, 4.0]]),
    "nan": np.array([[1.0, np.nan], [np.nan, 1.0]]),
    "inf": np.array([[np.inf, 0.0], [0.0, 1.0]]),
    "huge": np.array([[1e308, 1e308], [1e308, -1e308]]),
    "tiny": np.array([[1e-308, 0.0], [0.0, 1e-308]]),
    "stack_one_singular": np.stack([np.eye(2), np.zeros((2, 2))]),
}


class TestFailures:
    @pytest.mark.parametrize("name", BAD)
    def test_same_errors_and_warnings(self, name):
        a = BAD[name]
        same(linalg.inv, np.linalg.inv, a)
        same(linalg.solve, np.linalg.solve, a, np.ones(2))
        same(linalg.solve, np.linalg.solve, a, np.ones((2, 1)))
        same(linalg.eigvalsh, np.linalg.eigvalsh, a)
        same(linalg.svd, np.linalg.svd, a)

    def test_raises_where_numpy_raises(self):
        # the inputs above do reach np.linalg's LinAlgError paths
        for fn, name, message in (
            ("inv", "singular", "Singular matrix"),
            ("inv", "stack_one_singular", "Singular matrix"),
            ("solve", "rank_one", "Singular matrix"),
            ("svd", "nan", "SVD did not converge"),
        ):
            args = (BAD[name], np.ones(2)) if fn == "solve" else (BAD[name],)
            expect = ("raised", np.linalg.LinAlgError, message)
            assert outcome(getattr(np.linalg, fn), *args)[0] == expect
            assert outcome(getattr(linalg, fn), *args)[0] == expect

    def test_error_state_restored(self):
        with np.errstate(all="warn", call=None):
            before = np.geterr(), np.geterrcall()
            with pytest.raises(np.linalg.LinAlgError):
                linalg.inv(BAD["singular"])
            with pytest.raises(np.linalg.LinAlgError):
                linalg.svd(BAD["nan"])
            linalg.eigvalsh(BAD["nan"])
            linalg.solve(np.eye(2), np.ones(2))
            assert (np.geterr(), np.geterrcall()) == before



@pytest.fixture
def fallback(monkeypatch):
    """The layer reloaded with numpy's private error context unimportable."""
    monkeypatch.setitem(sys.modules, "numpy._core._ufunc_config", None)
    yield importlib.reload(linalg)
    monkeypatch.undo()
    importlib.reload(linalg)


class TestFallback:
    def test_binds_the_public_functions(self, fallback):
        assert fallback.inv is np.linalg.inv
        assert fallback.solve is np.linalg.solve
        assert fallback.eigvalsh is np.linalg.eigvalsh
        assert fallback.svd is np.linalg.svd
        u, s, vh = fallback.svd(np.array([[0.0], [1.0]]))
        assert u.shape == (2, 2) and s.shape == (1,) and vh.shape == (1, 1)

    def test_fast_path_by_default(self):
        if linalg._umath_linalg is None:
            pytest.skip("numpy without the private gufunc module")
        assert linalg.inv is not np.linalg.inv


LAYER = {"inv", "solve", "eigvalsh", "svd"}


def numpy_linalg_calls(path: Path) -> list[str]:
    """``np.linalg.<f>(...)`` calls of the layer's four functions in a module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
            continue
        owner = node.func.value
        if (
            node.func.attr in LAYER
            and isinstance(owner, ast.Attribute)
            and owner.attr == "linalg"
            and isinstance(owner.value, ast.Name)
            and owner.value.id in {"np", "numpy"}
        ):
            found.append(f"{path.name}:{node.lineno} np.linalg.{node.func.attr}")
    return found


def test_one_way_to_invert_solve_and_factor():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "linalg.py")
    assert modules
    calls = [c for p in modules for c in numpy_linalg_calls(p)]
    assert calls == [], "route these through idapbc.linalg: " + ", ".join(calls)


def test_guard_sees_a_call(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import numpy as np\nnp.linalg.solve(a, b)\nnp.linalg.norm(a)\n")
    assert numpy_linalg_calls(probe) == ["probe.py:2 np.linalg.solve"]
