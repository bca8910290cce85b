"""Controlled Hamiltonian systems and shaped closed-loop designs.

A mechanical system is (n, m, M(q), V(q), G(q)) with the origin an
equilibrium; a shaped design is the target (Mhat(q), Vhat(q), Kv) plus an
optional explicit gyroscopic tensor table. Both are immutable bundles of
symbolic expressions with fast compiled evaluators attached.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from . import linalg, writer
from .expr import (
    Const,
    Expr,
    ExprError,
    LazyBatch,
    add,
    compile_expr,
    differentiate,
    div,
    mul,
    neg,
    parse,
    sub,
)


class SystemError(ValueError):
    pass


class ExprMatrix:
    """Rectangular grid of expressions with compiled evaluation."""

    def __init__(self, entries: Sequence[Sequence[Expr]]):
        if not entries or not entries[0]:
            raise SystemError("matrix must be non-empty")
        cols = len(entries[0])
        if any(len(row) != cols for row in entries):
            raise SystemError("matrix rows must have equal length")
        self.entries: tuple[tuple[Expr, ...], ...] = tuple(tuple(row) for row in entries)
        self.rows = len(entries)
        self.cols = cols
        self._fn = compile_expr(self.entries)
        # (N, n) stack of points -> ((N, rows, cols) values, flagged rows)
        self.batch = LazyBatch(self.entries)

    @classmethod
    def from_strings(
        cls,
        rows: Sequence[Sequence[str]],
        vars: Sequence[str],
        params: dict[str, float] | None = None,
    ) -> "ExprMatrix":
        return cls([[parse(text, vars, params) for text in row] for row in rows])

    def is_symmetric(self) -> bool:
        """Structural symmetry: printed entry (i, j) equals entry (j, i)."""
        return self.rows == self.cols and all(
            str(self.entries[i][j]) == str(self.entries[j][i])
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )

    def __call__(self, q: Sequence[float]) -> np.ndarray:
        return self._fn(q)

    def diff(self, index: int) -> "ExprMatrix":
        return ExprMatrix([[e.diff(index) for e in row] for row in self.entries])

    def to_strings(self) -> list[list[str]]:
        return [[str(e) for e in row] for row in self.entries]


def gradient(e: Expr, n: int) -> list[Expr]:
    return [e.diff(i) for i in range(n)]


def hessian_at(e: Expr, n: int, q: Sequence[float]) -> np.ndarray:
    return compile_expr([gradient(d, n) for d in gradient(e, n)])(q)


def derivative_stack(m: ExprMatrix, n: int) -> list[list[list[Expr]]]:
    """dm/dq^k for k < n, nested [k][i][j]."""
    return [[[e.diff(k) for e in row] for row in m.entries] for k in range(n)]


def identity_where(a: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """A copy of a (..., k, l) stack with the flagged rows set to the identity,
    for a stacked linalg call, which raises for the whole stack on one
    singular or non-finite matrix."""
    return np.where(rows[..., None, None], np.eye(*a.shape[-2:]), a)


def lowest_eigenvalue(m: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each matrix of a (..., n, n) stack of symmetric
    matrices (eigvalsh reads the lower triangle)."""
    # .T[0].T is [..., 0], but a scalar rather than a 0-d array for one matrix
    return linalg.eigvalsh(m).T[0].T


# Matrices and tensors reach the checks from symbolic expressions, exact up to
# rounding; tolerances are relative to scale_of.
INVARIANT_TOL = 1e-12


def scale_of(a: np.ndarray, axes=None) -> np.ndarray:
    """max(max |a|, 1) over ``axes`` (all by default)."""
    return np.abs(a).max(axis=axes, initial=1.0)


def symmetric(a: np.ndarray) -> np.ndarray:
    """Whether each matrix of a (..., k, k) stack is symmetric to INVARIANT_TOL."""
    asym = np.abs(a - a.swapaxes(-1, -2)).max(axis=(-2, -1))
    return asym <= INVARIANT_TOL * scale_of(a, (-2, -1))


def spd_defect(a) -> str | None:
    """Why a is not a finite, square, symmetric positive definite matrix, or None."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return f"is not square (shape {a.shape})"
    # max |a| and max |a - a'| in one pass; a NaN or inf makes max |a|
    # non-finite (and an inf facing an inf in a - a' makes a NaN)
    peak, asym = np.maximum.reduceat(
        np.abs(np.concatenate((a, linalg.subtract(a, a.T)), axis=None)), (0, a.size)
    ).tolist()
    if not math.isfinite(peak):
        return "is not finite"
    if asym > INVARIANT_TOL * max(peak, 1.0):  # symmetric's test
        return "is not symmetric"
    low = lowest_eigenvalue(a)
    if not low > 0.0:
        return f"is not positive definite (min eigenvalue {low:.3e})"
    return None


def check_kv(kv, m: int) -> np.ndarray:
    """Kv as an m x m float array; raises unless spd_defect passes it."""
    try:
        kv = np.asarray(kv, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SystemError(f"Kv is not a numeric matrix: {exc}") from exc
    if kv.shape != (m, m):
        raise SystemError(f"Kv must be {m}x{m}")
    if defect := spd_defect(kv):
        raise SystemError(f"Kv {defect}")
    return kv


_EPS = np.finfo(float).eps


def full_rank(s: np.ndarray, n: int) -> np.ndarray:
    """Whether each matrix of a stack with n rows and singular values s
    (..., k) has rank k, at matrix_rank's tolerance."""
    return (s.T[-1] > s.T[0] * n * _EPS).T


def q_text(q: Sequence[float]) -> str:
    """q for a message, as a list of plain floats: [0.2, -0.1]."""
    return str([float(v) for v in q])


class InputFrame(NamedTuple):
    """G (n x m) and the orthonormal split of R^n it induces: ``range_basis``
    columns span its range, ``annihilator`` rows W satisfy W G = 0, each row
    signed so that its largest-magnitude entry is positive."""

    g: np.ndarray
    range_basis: np.ndarray
    annihilator: np.ndarray


def split_basis(u: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The range bases and annihilator rows of a (..., n, m) stack of G from
    the U factors (..., n, n) of their SVDs; each annihilator row is signed so
    that its first largest-magnitude entry is positive.  Writes into u."""
    w = u[..., m:].swapaxes(-1, -2)
    rows = w.reshape(-1, w.shape[-1]).tolist()
    signs = [-1.0 if max(row, key=abs) < 0.0 else 1.0 for row in rows]
    # in place: w keeps the layout of a view of u, which decides the BLAS call
    # (and so the rounding) of products with w
    if -1.0 in signs:
        w *= signs[0] if len(signs) == 1 else np.array(signs).reshape(w.shape[:-1] + (1,))
    return u[..., :m], w


def input_frame(g: np.ndarray, q: Sequence[float]) -> InputFrame:
    """One SVD, one rank check (matrix_rank's tolerance) and one split of G."""
    n, m = g.shape
    u, s, _ = linalg.svd(g)
    if m > n or not full_rank(s, n):
        raise SystemError(f"input matrix rank-deficient at q={q_text(q)}")
    return InputFrame(g, *split_basis(u, m))


def q_gradient(dv: np.ndarray, dm: np.ndarray, w: np.ndarray) -> np.ndarray:
    """dH/dq for H = p' M^-1 p / 2 + V, w = M^-1 p, as dM^-1 = -M^-1 dM M^-1."""
    return dv - 0.5 * np.einsum("i,kij,j->k", w, dm, w)


EQUILIBRIUM_TOL = 1e-10


class MechSystem:
    """Controlled Hamiltonian system with the origin as equilibrium.

    State is (q, p); dynamics qdot = dH/dp, pdot = -dH/dq + G(q) u with
    H = p' M(q)^-1 p / 2 + V(q). Mass-matrix positive definiteness and
    input rank are checked at query time, the equilibrium condition
    dV(0) = 0 at construction.  A G without variables (``g_constant``) that
    has full rank is checked, factored and split once, at its first query.
    """

    def __init__(
        self,
        vars: Sequence[str],
        M: ExprMatrix,
        V: Expr,
        G: ExprMatrix,
        name: str = "",
    ):
        n = len(vars)
        if M.rows != n or M.cols != n:
            raise SystemError(f"mass matrix must be {n}x{n}")
        if G.rows != n or not 1 <= G.cols <= n:
            raise SystemError(f"input matrix must be {n}xm with 1 <= m <= {n}")
        if not M.is_symmetric():
            raise SystemError("mass matrix must be structurally symmetric")
        self.vars = tuple(vars)
        self.n = n
        self.m = G.cols
        self.M = M
        self.V = V
        self.G = G
        self.name = name

        grad, dm = gradient(V, n), derivative_stack(M, n)
        self._v_fn = compile_expr(V)
        self._dv_fn = compile_expr(grad)
        self._dm_fn = compile_expr(dm)
        # batch variants (see compile_expr), compiled on first use
        self.v_batch = LazyBatch(V)
        self.dv_batch = LazyBatch(grad)
        self.dm_batch = LazyBatch(dm)
        origin = np.zeros(n)
        grad0 = self._dv_fn(origin)
        if np.max(np.abs(grad0)) > EQUILIBRIUM_TOL:
            raise SystemError(
                f"origin is not an equilibrium: |dV(0)| = {np.max(np.abs(grad0)):.3e}"
            )
        self.g_constant = not any(e.variables() for row in G.entries for e in row)
        # a constant G's read-only range basis and annihilator, from its first
        # query that passes the rank check, so a rank-deficient G always raises
        self._kept_split = None
        # GyroMap.fold of the kept frame, from the first derivation (matching._derive)
        self.kept_fold = None

    def mass_matrix(self, q: Sequence[float]) -> np.ndarray:
        m = self.M(q)
        low = lowest_eigenvalue(m)
        if low <= 0.0:
            raise SystemError(
                f"mass matrix not positive definite at q={q_text(q)} "
                f"(eigenvalue {low:.6e})"
            )
        return m

    def mass_derivatives(self, q: Sequence[float]) -> np.ndarray:
        """Stack dM/dq^k, shape (n, n, n) indexed [k, i, j]."""
        return self._dm_fn(q)

    def potential(self, q: Sequence[float]) -> float:
        return self._v_fn(q)

    def potential_gradient(self, q: Sequence[float]) -> np.ndarray:
        return self._dv_fn(q)

    def frame(self, q: Sequence[float]) -> InputFrame:
        """G(q), evaluated per query, and its split; raises if its rank is below m."""
        g = self.G(q)
        if self._kept_split is not None:
            return InputFrame(g, *self._kept_split)
        frame = input_frame(g, q)
        if self.g_constant:
            for a in frame[1:]:
                a.setflags(write=False)
            self._kept_split = frame[1:]
        return frame

    def input_matrix(self, q: Sequence[float]) -> np.ndarray:
        """G(q); raises if its rank is below m."""
        return self.frame(q).g

    def hamiltonian(self, q: Sequence[float], p: Sequence[float]) -> float | np.ndarray:
        """p' M^-1 p / 2 + V at (q, p), or at each row of (N, n) arrays."""
        p = np.asarray(p, dtype=float)
        if isinstance(q, np.ndarray) and q.ndim == 2:
            return _energy_rows(self.hamiltonian, self.M.batch, self.v_batch, q, p, True)
        return 0.5 * float(p @ linalg.solve(self.mass_matrix(q), p)) + self.potential(q)

    def annihilator(self, q: Sequence[float]) -> np.ndarray:
        """Orthonormal rows spanning the left annihilator of G(q), each signed
        so that its largest-magnitude entry is positive (reproducible)."""
        return self.frame(q).annihilator

    def open_loop_field(
        self, q: Sequence[float], p: Sequence[float], u: Sequence[float]
    ) -> tuple[np.ndarray, np.ndarray]:
        q = np.asarray(q, dtype=float)
        p = np.asarray(p, dtype=float)
        u = np.asarray(u, dtype=float)
        qdot = linalg.solve(self.mass_matrix(q), p)
        dqh = q_gradient(self.potential_gradient(q), self.mass_derivatives(q), qdot)
        return qdot, -dqh + self.input_matrix(q) @ u


class ShapedDesign:
    """Candidate closed-loop energy: (Mhat, Vhat, Kv, optional C table).

    Construction checks structure only (shapes, symmetry, Kv SPD); the
    minimum conditions at the origin are the stability module's
    minimum_check, so that failing candidates can still be built and
    diagnosed.
    """

    def __init__(
        self,
        vars: Sequence[str],
        Mhat: ExprMatrix,
        Vhat: Expr,
        Kv: np.ndarray,
        C: Sequence[Sequence[Sequence[Expr]]] | None = None,
        params: dict[str, float] | None = None,
    ):
        n = len(vars)
        if Mhat.rows != n or Mhat.cols != n:
            raise SystemError(f"shaped mass matrix must be {n}x{n}")
        if not Mhat.is_symmetric():
            raise SystemError("shaped mass matrix must be structurally symmetric")
        self.vars = tuple(vars)
        self.n = n
        self.Mhat = Mhat
        self.Vhat = Vhat
        self.Kv = check_kv(Kv, len(Kv) if np.ndim(Kv) else 1)
        self.C = C
        self.params = dict(params or {})

        grad, dmhat = gradient(Vhat, n), derivative_stack(Mhat, n)
        self._vhat_fn = compile_expr(Vhat)
        self._dvhat_fn = compile_expr(grad)
        self._dmhat_fn = compile_expr(dmhat)
        # batch variants (see compile_expr), compiled on first use
        self.vhat_batch = LazyBatch(Vhat)
        self.dvhat_batch = LazyBatch(grad)
        self.dmhat_batch = LazyBatch(dmhat)
        self._c_fn = None
        if C is not None:
            if len(C) != n or any(len(r) != n for r in C) or any(
                len(e) != n for r in C for e in r
            ):
                raise SystemError(f"C table must be {n}x{n}x{n}")
            self._c_fn = compile_expr(C)

    def shaped_mass(self, q: Sequence[float]) -> np.ndarray:
        return self.Mhat(q)

    def shaped_mass_derivatives(self, q: Sequence[float]) -> np.ndarray:
        return self._dmhat_fn(q)

    def shaped_potential(self, q: Sequence[float]) -> float:
        return self._vhat_fn(q)

    def shaped_potential_gradient(self, q: Sequence[float]) -> np.ndarray:
        return self._dvhat_fn(q)

    def shaped_hamiltonian(
        self, q: Sequence[float], p: Sequence[float]
    ) -> float | np.ndarray:
        """p' Mhat^-1 p / 2 + Vhat at (q, p), or at each row of (N, n) arrays."""
        p = np.asarray(p, dtype=float)
        if isinstance(q, np.ndarray) and q.ndim == 2:
            return _energy_rows(
                self.shaped_hamiltonian, self.Mhat.batch, self.vhat_batch, q, p, False
            )
        return 0.5 * float(p @ linalg.solve(self.Mhat(q), p)) + self.shaped_potential(q)

    def c_table_at(self, q: Sequence[float]) -> np.ndarray | None:
        if self._c_fn is None:
            return None
        return self._c_fn(q)


def _energy_rows(per_point, metric, potential, q, p, check_pd: bool) -> np.ndarray:
    """p' X^-1 p / 2 + U at each row of (N, n) stacks, from the batch variants
    of the metric X and the potential U.  Rows the evaluator flags, and with
    ``check_pd`` rows where X is not positive definite, take ``per_point``,
    which raises at the first one it raised at; a singular metric sends every
    row there, as a stacked solve raises for the whole stack."""
    x, flagged = metric(q)
    u, flagged_u = potential(q)
    flagged |= flagged_u
    if check_pd:
        flagged |= ~(lowest_eigenvalue(identity_where(x, flagged)) > 0.0)
    try:
        solved = linalg.solve(identity_where(x, flagged), p[..., None])
    except np.linalg.LinAlgError:
        return np.array([per_point(qi, pi) for qi, pi in zip(q, p)])
    energy = 0.5 * (p[..., None, :] @ solved)[..., 0, 0] + u
    for i in np.flatnonzero(flagged):
        energy[i] = per_point(q[i], p[i])
    return energy


@dataclass
class StateTrajectory:
    """Sampled trajectory with per-sample energy."""

    times: np.ndarray
    states: np.ndarray
    energies: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        self.energies = np.asarray(self.energies, dtype=float)
        if not (len(self.times) == len(self.states) == len(self.energies)):
            raise SystemError("trajectory arrays must have equal length")
        if len(self.times) > 1 and np.any(np.diff(self.times) <= 0.0):
            raise SystemError("times must be strictly increasing")


PENDULUM_VARS = ("q1", "q2")
THREE_DOF_VARS = ("q1", "q2", "q3")


def _pendulum_gyro_table(
    m: ExprMatrix, mhat: ExprMatrix
) -> list[list[list[Expr]]]:
    """Closed-form gyroscopic table for the 2-dof cart design.

    Built symbolically from the two scalar combinations
    s1 = -(Mhat_{1r} M^{rs} d_s Mhat_{12} + d_1 M^{rs} Mhat_{r1} Mhat_{s2})/2
    s2 = -(Mhat_{1r} M^{rs} d_s Mhat_{22} + d_1 M^{rs} Mhat_{r2} Mhat_{s2})/2
    which determine every entry in dimension two.
    """
    det = sub(
        mul(m.entries[0][0], m.entries[1][1]), mul(m.entries[0][1], m.entries[1][0])
    )
    adj = [
        [m.entries[1][1], neg(m.entries[0][1])],
        [neg(m.entries[1][0]), m.entries[0][0]],
    ]
    minv = [[div(adj[r][s], det) for s in range(2)] for r in range(2)]
    dminv1 = [[differentiate(minv[r][s], 0) for s in range(2)] for r in range(2)]

    def s_value(col: int) -> Expr:
        # target column of Mhat whose derivative enters the first sum
        first = Const(0.0)
        second = Const(0.0)
        for r in range(2):
            for s in range(2):
                d_target = differentiate(mhat.entries[1][col], s)
                first = add(first, mul(mul(mhat.entries[0][r], minv[r][s]), d_target))
                second = add(
                    second, mul(mul(dminv1[r][s], mhat.entries[r][col]), mhat.entries[s][1])
                )
        return mul(Const(-0.5), add(first, second))

    s1 = s_value(0)
    s2 = s_value(1)
    zero = Const(0.0)
    return [
        [[zero, mul(Const(-2.0), s1)], [s1, mul(Const(-0.5), s2)]],
        [[s1, mul(Const(-0.5), s2)], [s2, zero]],
    ]


def _finite_params(params: dict[str, float]) -> dict[str, float]:
    """params; raises for a non-finite value, which no design can be built from."""
    for key, value in params.items():
        if not math.isfinite(value):
            raise SystemError(f"shaped parameter {key} must be finite, got {value!r}")
    return params


def builtin(
    name: str, eps: float = 1.0, K: float = 1.0, Kv: np.ndarray | None = None
) -> tuple[MechSystem, ShapedDesign | None]:
    """Bundled example systems.

    pendulum_cart ships with its closed-form shaped design (parameters
    eps in (0, 2) and K > 0, defaults 1); three_dof has no closed-form
    design and returns None for it.
    """
    if name == "pendulum_cart":
        params = _finite_params({"eps": float(eps), "K": float(K)})
        m = ExprMatrix.from_strings(
            [["1", "cos(q1)"], ["cos(q1)", "2"]], PENDULUM_VARS
        )
        v = parse("10*cos(q1)", PENDULUM_VARS)
        g = ExprMatrix.from_strings([["0"], ["1"]], PENDULUM_VARS)
        sys = MechSystem(PENDULUM_VARS, m, v, g, name=name)
        mhat = ExprMatrix.from_strings(
            [
                ["2*cos(q1)^2 - eps", "(4-eps)*cos(q1)"],
                ["(4-eps)*cos(q1)", "K + (4-eps)^2*cos(q1)^2/(2*cos(q1)^2 - eps)"],
            ],
            PENDULUM_VARS,
            params,
        )
        vhat = parse(
            "-(10/eps)*cos(q1) + (q2 + 2*sin(q1)/eps)^2", PENDULUM_VARS, params
        )
        kv = np.eye(1) if Kv is None else np.asarray(Kv, dtype=float)
        design = ShapedDesign(
            PENDULUM_VARS,
            mhat,
            vhat,
            kv,
            C=_pendulum_gyro_table(m, mhat),
            params=params,
        )
        return sys, design
    if name == "three_dof":
        m = ExprMatrix.from_strings(
            [
                ["5 + cos(q3)", "sin(q1 - q2)", "sin(q3 - q1)"],
                ["sin(q1 - q2)", "5 + cos(q1 - q3)", "sin(q2)"],
                ["sin(q3 - q1)", "sin(q2)", "5 + cos(q2)"],
            ],
            THREE_DOF_VARS,
        )
        v = parse("cos(q1 + q2) + cos(q2 + q3) + cos(q3)", THREE_DOF_VARS)
        g = ExprMatrix.from_strings(
            [["sin(q2)", "1"], ["1", "sin(q3)"], ["sin(q1)", "1"]], THREE_DOF_VARS
        )
        return MechSystem(THREE_DOF_VARS, m, v, g, name=name), None
    raise SystemError(f"unknown builtin {name!r}")


def load_system(
    source: str | Path | dict,
    eps: float | None = None,
    K: float | None = None,
) -> tuple[MechSystem, ShapedDesign | None]:
    """Load ``builtin:<name>``, a JSON file or dict (see the README schema),
    or a controller bundle.

    eps and K override the shaped parameter values; a builtin defaults
    them to 1.  A bundle's stored damping matrix becomes the design's Kv.
    """
    if isinstance(source, str) and source.startswith("builtin:"):
        return builtin(
            source.split(":", 1)[1],
            eps=1.0 if eps is None else eps,
            K=1.0 if K is None else K,
        )
    if isinstance(source, (str, Path)):
        with open(source) as fh:
            data = json.load(fh)
    else:
        data = source
    bundle_kv = None
    if isinstance(data, dict) and "system" in data:
        bundle_kv = data.get("Kv")
        data = data["system"]
    try:
        vars = list(data["vars"])
        n = int(data["n"])
        m = int(data["m"])
        if len(vars) != n:
            raise SystemError(f"vars length {len(vars)} does not match n={n}")
        M = ExprMatrix.from_strings(data["M"], vars)
        V = parse(data["V"], vars)
        G = ExprMatrix.from_strings(data["G"], vars)
    except (KeyError, TypeError, ExprError) as exc:
        raise SystemError(f"invalid system description: {exc}") from exc
    sys = MechSystem(vars, M, V, G, name=str(data.get("name", "")))
    if sys.m != m:
        raise SystemError(f"declared m={m} does not match G columns {sys.m}")

    shaped = data.get("shaped")
    if shaped is None:
        return sys, None
    try:
        params = {k: float(v) for k, v in shaped.get("params", {}).items()}
        if eps is not None:
            params["eps"] = float(eps)
        if K is not None:
            params["K"] = float(K)
        _finite_params(params)
        mhat = ExprMatrix.from_strings(shaped["Mhat"], vars, params)
        vhat = parse(shaped["Vhat"], vars, params)
        kv = shaped.get("Kv", np.eye(sys.m)) if bundle_kv is None else bundle_kv
        kv = check_kv(kv, sys.m)
        c_table = None
        if "C" in shaped:
            c_table = [
                [[parse(text, vars, params) for text in row] for row in plane]
                for plane in shaped["C"]
            ]
        design = ShapedDesign(vars, mhat, vhat, kv, C=c_table, params=params)
    except (KeyError, TypeError, ExprError) as exc:
        raise SystemError(f"invalid shaped design: {exc}") from exc
    return sys, design


def system_to_dict(sys: MechSystem, design: ShapedDesign | None = None) -> dict:
    data: dict = {
        "n": sys.n,
        "m": sys.m,
        "vars": list(sys.vars),
        "M": sys.M.to_strings(),
        "V": str(sys.V),
        "G": sys.G.to_strings(),
    }
    if sys.name:
        data["name"] = sys.name
    if design is not None:
        shaped: dict = {
            "Mhat": design.Mhat.to_strings(),
            "Vhat": str(design.Vhat),
            "Kv": design.Kv.tolist(),
        }
        if design.params:
            shaped["params"] = design.params
        if design.C is not None:
            shaped["C"] = [
                [[str(e) for e in row] for row in plane] for plane in design.C
            ]
        data["shaped"] = shaped
    return data


def save_system(
    path: str | Path, sys: MechSystem, design: ShapedDesign | None = None
) -> None:
    Path(path).write_text(writer.dumps(system_to_dict(sys, design)) + "\n")
