"""Controlled Hamiltonian systems and shaped closed-loop designs.

A mechanical system is (n, m, M(q), V(q), G(q)) with the origin an
equilibrium; a shaped design is the target (Mhat(q), Vhat(q), Kv) plus an
optional explicit gyroscopic tensor table. Both are immutable bundles of
symbolic expressions with fast compiled evaluators attached.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.linalg import null_space

from .expr import (
    Const,
    Expr,
    ExprError,
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


def check_kv(kv: np.ndarray) -> np.ndarray:
    """Reject a damping matrix that is not symmetric positive definite."""
    if np.max(np.abs(kv - kv.T)) > 1e-12 * max(1.0, float(np.max(np.abs(kv)))):
        raise SystemError("Kv must be symmetric")
    if np.linalg.eigvalsh((kv + kv.T) / 2.0)[0] <= 0.0:
        raise SystemError("Kv must be positive definite")
    return kv


EQUILIBRIUM_TOL = 1e-10


class MechSystem:
    """Controlled Hamiltonian system with the origin as equilibrium.

    State is (q, p); dynamics qdot = dH/dp, pdot = -dH/dq + G(q) u with
    H = p' M(q)^-1 p / 2 + V(q). Mass-matrix positive definiteness and
    input rank are checked at query time, the equilibrium condition
    dV(0) = 0 at construction.
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

        self._v_fn = compile_expr(V)
        self._dv_fn = compile_expr(gradient(V, n))
        self._dm_fn = compile_expr(derivative_stack(M, n))
        origin = np.zeros(n)
        grad0 = self._dv_fn(origin)
        if np.max(np.abs(grad0)) > EQUILIBRIUM_TOL:
            raise SystemError(
                f"origin is not an equilibrium: |dV(0)| = {np.max(np.abs(grad0)):.3e}"
            )

    def mass_matrix(self, q: Sequence[float]) -> np.ndarray:
        m = self.M(q)
        eigs = np.linalg.eigvalsh((m + m.T) / 2.0)
        if eigs[0] <= 0.0:
            raise SystemError(
                f"mass matrix not positive definite at q={list(q)} "
                f"(eigenvalue {eigs[0]:.6e})"
            )
        return m

    def mass_derivatives(self, q: Sequence[float]) -> np.ndarray:
        """Stack dM/dq^k, shape (n, n, n) indexed [k, i, j]."""
        return self._dm_fn(q)

    def potential(self, q: Sequence[float]) -> float:
        return self._v_fn(q)

    def potential_gradient(self, q: Sequence[float]) -> np.ndarray:
        return self._dv_fn(q)

    def input_matrix(self, q: Sequence[float]) -> np.ndarray:
        g = self.G(q)
        if np.linalg.matrix_rank(g) < self.m:
            raise SystemError(f"input matrix rank-deficient at q={list(q)}")
        return g

    def hamiltonian(self, q: Sequence[float], p: Sequence[float]) -> float:
        m = self.mass_matrix(q)
        p = np.asarray(p, dtype=float)
        return 0.5 * float(p @ np.linalg.solve(m, p)) + self.potential(q)

    def annihilator(self, q: Sequence[float]) -> np.ndarray:
        """Orthonormal rows spanning the left annihilator of G(q).

        The sign of each row is canonicalized (largest-magnitude entry
        positive) so repeated queries are reproducible; the row span is
        basis-independent.
        """
        g = self.input_matrix(q)
        w = null_space(g.T).T
        if w.shape[0] != self.n - self.m:
            raise SystemError(f"annihilator dimension mismatch at q={list(q)}")
        for i in range(w.shape[0]):
            lead = np.argmax(np.abs(w[i]))
            if w[i, lead] < 0:
                w[i] = -w[i]
        return w

    def open_loop_field(
        self, q: Sequence[float], p: Sequence[float], u: Sequence[float]
    ) -> tuple[np.ndarray, np.ndarray]:
        q = np.asarray(q, dtype=float)
        p = np.asarray(p, dtype=float)
        u = np.asarray(u, dtype=float)
        m = self.mass_matrix(q)
        minv = np.linalg.inv(m)
        dm = self.mass_derivatives(q)
        # dH/dq_k = p' dMinv/dq_k p / 2 + dV/dq_k with dMinv = -Minv dM Minv
        dqh = np.empty(self.n)
        for k in range(self.n):
            dminv_k = -minv @ dm[k] @ minv
            dqh[k] = 0.5 * p @ dminv_k @ p
        dqh += self.potential_gradient(q)
        qdot = minv @ p
        pdot = -dqh + self.input_matrix(q) @ u
        return qdot, pdot


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
        kv = np.asarray(Kv, dtype=float)
        if kv.ndim != 2 or kv.shape[0] != kv.shape[1]:
            raise SystemError("Kv must be a square matrix")
        check_kv(kv)
        self.vars = tuple(vars)
        self.n = n
        self.Mhat = Mhat
        self.Vhat = Vhat
        self.Kv = kv
        self.C = C
        self.params = dict(params or {})

        self._vhat_fn = compile_expr(Vhat)
        self._dvhat_fn = compile_expr(gradient(Vhat, n))
        self._dmhat_fn = compile_expr(derivative_stack(Mhat, n))
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

    def shaped_hamiltonian(self, q: Sequence[float], p: Sequence[float]) -> float:
        mhat = self.Mhat(q)
        p = np.asarray(p, dtype=float)
        return 0.5 * float(p @ np.linalg.solve(mhat, p)) + self.shaped_potential(q)

    def c_table_at(self, q: Sequence[float]) -> np.ndarray | None:
        if self._c_fn is None:
            return None
        return self._c_fn(q)


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


def builtin(
    name: str, eps: float = 1.0, K: float = 1.0, Kv: np.ndarray | None = None
) -> tuple[MechSystem, ShapedDesign | None]:
    """Bundled example systems.

    pendulum_cart ships with its closed-form shaped design (parameters
    eps in (0, 2) and K > 0, defaults 1); three_dof has no closed-form
    design and returns None for it.
    """
    if name == "pendulum_cart":
        params = {"eps": float(eps), "K": float(K)}
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
        mhat = ExprMatrix.from_strings(shaped["Mhat"], vars, params)
        vhat = parse(shaped["Vhat"], vars, params)
        kv = shaped.get("Kv", np.eye(sys.m)) if bundle_kv is None else bundle_kv
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
    with open(path, "w") as fh:
        json.dump(system_to_dict(sys, design), fh, indent=2)
        fh.write("\n")
