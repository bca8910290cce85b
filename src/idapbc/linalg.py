"""The dense linear algebra idapbc does: inv, solve, eigvalsh and svd.

Each function calls numpy's own gufunc in ``numpy.linalg._umath_linalg``
under the error state ``np.linalg`` sets for it (its ``LinAlgError``
handler, ``invalid="call"``, overflow, division and underflow ignored).
That state is built once at import and entered by setting numpy's error
context variable, so a call skips the public wrapper's ``np.errstate``,
type promotion and array wrapping: several µs on a 2x2 matrix, where the
LAPACK call itself takes 1-2 µs.  Results are bitwise those of
``np.linalg``, with the same ``LinAlgError`` messages and warnings.

The functions take float64 arrays of the shapes ``np.linalg`` accepts;
checking shapes is the caller's part.  ``svd`` returns ``(u, s, vh)`` with
the full U.  Where numpy's private names are missing (numpy 1.x), the four
names are the public ``np.linalg`` functions.
"""
from __future__ import annotations

import numpy as np

try:
    from numpy._core._ufunc_config import _extobj_contextvar
    from numpy.linalg import _umath_linalg
    from numpy.linalg._linalg import (
        _raise_linalgerror_eigenvalues_nonconvergence,
        _raise_linalgerror_singular,
        _raise_linalgerror_svd_nonconvergence,
    )
except ImportError:
    _umath_linalg = None

if _umath_linalg is None:
    inv, solve, eigvalsh, svd = (
        np.linalg.inv, np.linalg.solve, np.linalg.eigvalsh, np.linalg.svd
    )
else:
    def _error_state(handler):
        """numpy's error context as ``np.linalg`` enters it around a gufunc."""
        with np.errstate(call=handler, invalid="call", over="ignore",
                         divide="ignore", under="ignore"):
            return _extobj_contextvar.get()

    _SINGULAR = _error_state(_raise_linalgerror_singular)
    _EIGENVALUES = _error_state(_raise_linalgerror_eigenvalues_nonconvergence)
    _SVD = _error_state(_raise_linalgerror_svd_nonconvergence)
    _set, _reset = _extobj_contextvar.set, _extobj_contextvar.reset

    def inv(a: np.ndarray) -> np.ndarray:
        """np.linalg.inv(a)."""
        token = _set(_SINGULAR)
        try:
            return _umath_linalg.inv(a, signature="d->d")
        finally:
            _reset(token)

    def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """np.linalg.solve(a, b): b is one vector per matrix iff b.ndim == 1."""
        token = _set(_SINGULAR)
        try:
            gufunc = _umath_linalg.solve1 if b.ndim == 1 else _umath_linalg.solve
            return gufunc(a, b, signature="dd->d")
        finally:
            _reset(token)

    def eigvalsh(a: np.ndarray) -> np.ndarray:
        """np.linalg.eigvalsh(a), which reads the lower triangle."""
        token = _set(_EIGENVALUES)
        try:
            return _umath_linalg.eigvalsh_lo(a, signature="d->d")
        finally:
            _reset(token)

    def svd(a: np.ndarray):
        """np.linalg.svd(a): (u, s, vh) with the full U."""
        token = _set(_SVD)
        try:
            return _umath_linalg.svd_f(a, signature="d->ddd")
        finally:
            _reset(token)
