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
    Compiled,
    Const,
    Expr,
    ExprError,
    add,
    div,
    mul,
    neg,
    parse,
    sub,
)


class SystemError(ValueError):
    pass


class ExprMatrix(Compiled):
    """Rectangular, non-empty grid of expressions, compiled."""

    def __init__(self, entries: Sequence[Sequence[Expr]]):
        if not entries or not entries[0]:
            raise SystemError("matrix must be non-empty")
        cols = len(entries[0])
        if any(len(row) != cols for row in entries):
            raise SystemError("matrix rows must have equal length")
        super().__init__(tuple(tuple(row) for row in entries))
        self.rows = len(entries)
        self.cols = cols

    @classmethod
    def from_strings(
        cls,
        rows: Sequence[Sequence[str]],
        vars: Sequence[str],
        params: dict[str, float] | None = None,
    ) -> "ExprMatrix":
        return cls([[parse(text, vars, params) for text in row] for row in rows])

    def is_symmetric(self) -> bool:
        """Structural symmetry: entry (i, j) is the tree of entry (j, i), so
        the two share one temporary and evaluate bitwise alike."""
        t = self.tree
        return self.rows == self.cols and all(
            t[i][j] == t[j][i] for i in range(self.rows) for j in range(i)
        )


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


def scale_of(a: np.ndarray) -> float:
    """max(max |a|, 1)."""
    return np.abs(a).max(initial=1.0)


def spd_defect(a) -> str | None:
    """Why a is not a finite, square, symmetric positive definite matrix, or None."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return f"is not square (shape {a.shape})"
    if not np.isfinite(a).all():
        return "is not finite"
    if np.abs(a - a.T).max() > INVARIANT_TOL * scale_of(a):
        return "is not symmetric"
    low = lowest_eigenvalue(a)
    if not low > 0.0:
        return f"is not positive definite (min eigenvalue {low:.3e})"
    return None


def _holds_bool(value) -> bool:
    """Whether a value is a boolean (Python or numpy), a boolean array, or a
    list or tuple holding one."""
    if isinstance(value, (list, tuple)):
        return any(map(_holds_bool, value))
    return np.asarray(value).dtype == bool


def check_kv(kv, m: int) -> np.ndarray:
    """Kv as an m x m float array; raises unless spd_defect passes it."""
    try:
        if _holds_bool(kv):
            raise TypeError(f"boolean entry in {kv!r}")
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


def rk4_step(f, x: np.ndarray, dt: float) -> np.ndarray:
    """One classical fourth-order Runge-Kutta step of x' = f(x) from x."""
    k1 = f(x)
    k2 = f(x + 0.5 * dt * k1)
    k3 = f(x + 0.5 * dt * k2)
    k4 = f(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


EQUILIBRIUM_TOL = 1e-10


class MechSystem:
    """Controlled Hamiltonian system with the origin as equilibrium.

    State is (q, p); dynamics qdot = dH/dp, pdot = -dH/dq + G(q) u with
    H = p' M(q)^-1 p / 2 + V(q). Mass-matrix positive definiteness and
    input rank are checked at query time, the equilibrium condition
    dV(0) = 0 at construction.  ``potential``, ``dV`` ([k]) and ``dM``
    ([k, i, j]) are V, dV/dq^k and dM/dq^k, compiled.  A G without
    variables (``g_constant``) that has full rank is evaluated, checked,
    factored and split once, at its first query (frame or frames).
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
        if len(set(vars)) != n:
            raise SystemError(f"vars must be distinct, got {list(vars)}")
        self.vars = tuple(vars)
        self.n = n
        self.m = G.cols
        self.M = M
        self.V = V
        self.G = G
        self.name = name
        self.potential = Compiled(V)
        self.dV = self.potential.diff(n)
        self.dM = M.diff(n)
        grad0 = np.max(np.abs(self.dV(np.zeros(n))))
        if not grad0 <= EQUILIBRIUM_TOL:
            raise SystemError(f"origin is not an equilibrium: |dV(0)| = {grad0:.3e}")
        self.g_constant = not any(e.variables() for row in G.tree for e in row)
        # a constant G's frame, read-only, from its first query that passes
        # the rank check, so a rank-deficient G always raises
        self.kept_frame = None
        # GyroMap.fold of the kept frame, from the first derivation (matching._derive)
        self.kept_fold = None

    def mass_matrix(self, q: Sequence[float]) -> np.ndarray:
        m = self.M(q)
        low = lowest_eigenvalue(m)
        if not low > 0.0:
            raise SystemError(
                f"mass matrix not positive definite at q={q_text(q)} "
                f"(eigenvalue {low:.6e})"
            )
        return m

    def mass_derivatives(self, q: Sequence[float]) -> np.ndarray:
        """Stack dM/dq^k, shape (n, n, n) indexed [k, i, j]."""
        return self.dM(q)

    def potential_gradient(self, q: Sequence[float]) -> np.ndarray:
        return self.dV(q)

    def _keep(self, frame: InputFrame) -> InputFrame:
        for a in frame:
            a.setflags(write=False)
        self.kept_frame = frame
        return frame

    def frame(self, q: Sequence[float]) -> InputFrame:
        """G(q) and its split; raises if its rank is below m.  A constant G's
        is the kept frame, which the query does not evaluate."""
        if self.kept_frame is not None:
            return self.kept_frame
        frame = input_frame(self.G(q), q)
        return self._keep(frame) if self.g_constant else frame

    def frames(self, g: np.ndarray, failed: np.ndarray) -> InputFrame:
        """frame at each row of an (N, n, m) stack of G's values, which the
        caller has evaluated.  Rows flagged in ``failed`` hold placeholders,
        and ``failed`` gains the rows where frame raises.  A constant G gives
        the kept split, without leading axes, factoring one row to keep it."""
        if self.kept_frame is None:
            # a constant G holds the same value at every row
            one = self.g_constant and not failed.all()
            u, s, _ = linalg.svd(g[failed.argmin()] if one else identity_where(g, failed))
            ok = full_rank(s, self.n)  # m <= n for a MechSystem
            failed |= ~ok
            if not (one and ok):
                return InputFrame(g, *split_basis(u, self.m))
            self._keep(InputFrame(g[failed.argmin()].copy(), *split_basis(u, self.m)))
        return InputFrame(g, *self.kept_frame[1:])

    def input_matrix(self, q: Sequence[float]) -> np.ndarray:
        """G(q); raises if its rank is below m."""
        return self.frame(q).g

    def hamiltonian(self, q: Sequence[float], p: Sequence[float]) -> float | np.ndarray:
        """p' M^-1 p / 2 + V at (q, p), or at each row of (N, n) arrays."""
        p = np.asarray(p, dtype=float)
        if isinstance(q, np.ndarray) and q.ndim == 2:
            return _energy_rows(self.hamiltonian, self.M, self.potential, q, p, True)
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
    diagnosed.  ``shaped_potential``, ``dVhat`` and ``dMhat`` are the
    compiled twins of MechSystem's tables; ``C`` is the compiled C table or
    None.
    """

    def __init__(
        self,
        vars: Sequence[str],
        Mhat: ExprMatrix,
        Vhat: Expr,
        Kv: np.ndarray,
        C: Sequence[Sequence[Sequence[Expr]]] | None = None,
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
        self.shaped_potential = Compiled(Vhat)
        self.dVhat = self.shaped_potential.diff(n)
        self.dMhat = Mhat.diff(n)
        # (system, its pair function with this design), built at the first
        # per-point read (matching.pair_function)
        self.kept_pair = None
        self.C = None
        if C is not None:
            if len(C) != n or any(len(r) != n for r in C) or any(
                len(e) != n for r in C for e in r
            ):
                raise SystemError(f"C table must be {n}x{n}x{n}")
            self.C = Compiled(C)

    def shaped_mass(self, q: Sequence[float]) -> np.ndarray:
        return self.Mhat(q)

    def shaped_mass_derivatives(self, q: Sequence[float]) -> np.ndarray:
        return self.dMhat(q)

    def shaped_potential_gradient(self, q: Sequence[float]) -> np.ndarray:
        return self.dVhat(q)

    def shaped_hamiltonian(
        self, q: Sequence[float], p: Sequence[float]
    ) -> float | np.ndarray:
        """p' Mhat^-1 p / 2 + Vhat at (q, p), or at each row of (N, n) arrays."""
        p = np.asarray(p, dtype=float)
        if isinstance(q, np.ndarray) and q.ndim == 2:
            return _energy_rows(
                self.shaped_hamiltonian, self.Mhat, self.shaped_potential, q, p, False
            )
        return 0.5 * float(p @ linalg.solve(self.Mhat(q), p)) + self.shaped_potential(q)

    def c_table_at(self, q: Sequence[float]) -> np.ndarray | None:
        return None if self.C is None else self.C(q)


def _energy_rows(per_point, metric, potential, q, p, check_pd: bool) -> np.ndarray:
    """p' X^-1 p / 2 + U at each row of (N, n) stacks, from the batch variants
    of the compiled metric X and potential U.  Rows the evaluator flags, and with
    ``check_pd`` rows where X is not positive definite, take ``per_point``,
    which raises at the first one it raised at; a singular metric sends every
    row there, as a stacked solve raises for the whole stack."""
    x, flagged = metric.batch(q)
    u, flagged_u = potential.batch(q)
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
        mul(m.tree[0][0], m.tree[1][1]), mul(m.tree[0][1], m.tree[1][0])
    )
    adj = [
        [m.tree[1][1], neg(m.tree[0][1])],
        [neg(m.tree[1][0]), m.tree[0][0]],
    ]
    minv = [[div(adj[r][s], det) for s in range(2)] for r in range(2)]
    dminv1 = [[minv[r][s].diff(0) for s in range(2)] for r in range(2)]

    def s_value(col: int) -> Expr:
        # target column of Mhat whose derivative enters the first sum
        first = Const(0.0)
        second = Const(0.0)
        for r in range(2):
            for s in range(2):
                d_target = mhat.tree[1][col].diff(s)
                first = add(first, mul(mul(mhat.tree[0][r], minv[r][s]), d_target))
                second = add(
                    second, mul(mul(dminv1[r][s], mhat.tree[r][col]), mhat.tree[s][1])
                )
        return mul(Const(-0.5), add(first, second))

    s1 = s_value(0)
    s2 = s_value(1)
    zero = Const(0.0)
    return [
        [[zero, mul(Const(-2.0), s1)], [s1, mul(Const(-0.5), s2)]],
        [[s1, mul(Const(-0.5), s2)], [s2, zero]],
    ]


def _finite_params(params, **overrides) -> dict[str, float]:
    """A dict's values, with the overrides that are not None, as finite floats;
    raises for any other value, which no design can be built from."""
    if not isinstance(params, dict):
        raise SystemError(f"shaped params must be an object, got {params!r}")
    params = {**params, **{k: v for k, v in overrides.items() if v is not None}}
    for key, value in params.items():
        try:
            if _holds_bool(value):
                raise TypeError
            params[key] = float(value)
        except (TypeError, ValueError):
            raise SystemError(
                f"shaped parameter {key} must be a number, got {value!r}"
            ) from None
        if not math.isfinite(params[key]):
            raise SystemError(
                f"shaped parameter {key} must be finite, got {params[key]!r}"
            )
    return params


class _ReadParams(dict):
    """Shaped parameters that record the names the parser reads from them."""

    def __init__(self, values: dict[str, float]):
        super().__init__(values)
        self.read: set[str] = set()

    def __getitem__(self, key: str) -> float:
        self.read.add(key)
        return super().__getitem__(key)


def _check_overrides(read, **overrides) -> None:
    """Raise for an override that no expression of the loaded design reads,
    which would change nothing."""
    unread = [k for k, v in overrides.items() if v is not None and k not in read]
    if unread:
        raise SystemError(
            f"no expression of the loaded design reads {' or '.join(unread)}: "
            "the override would change nothing"
        )


def builtin(
    name: str, eps: float = 1.0, K: float = 1.0
) -> tuple[MechSystem, ShapedDesign | None]:
    """Bundled example systems.

    pendulum_cart ships with its closed-form shaped design (parameters
    eps in (0, 2) and K > 0, defaults 1); three_dof has no closed-form
    design and returns None for it.
    """
    if name == "pendulum_cart":
        params = _finite_params({"eps": eps, "K": K})
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
        design = ShapedDesign(
            PENDULUM_VARS,
            mhat,
            vhat,
            np.eye(1),
            C=_pendulum_gyro_table(m, mhat),
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
    them to 1.  An override that no expression of the design reads (a
    bundle's folded expressions, or no design) raises.  A bundle's stored
    damping matrix becomes the design's Kv.
    """
    if isinstance(source, str) and source.startswith("builtin:"):
        sys, design = builtin(
            source.split(":", 1)[1],
            eps=1.0 if eps is None else eps,
            K=1.0 if K is None else K,
        )
        if design is None:  # pendulum_cart's design reads both
            _check_overrides((), eps=eps, K=K)
        return sys, design
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
        vars, n, m = list(data["vars"]), data["n"], data["m"]
        if type(n) is not int or type(m) is not int:
            raise SystemError(f"n and m must be integers, got n={n!r}, m={m!r}")
        if len(vars) != n:
            raise SystemError(f"vars length {len(vars)} does not match n={n}")
        M = ExprMatrix.from_strings(data["M"], vars)
        V = parse(data["V"], vars)
        G = ExprMatrix.from_strings(data["G"], vars)
    except (KeyError, TypeError, ExprError) as exc:
        raise SystemError(f"invalid system description: {exc}") from exc
    name = data.get("name", "")
    if not isinstance(name, str):
        raise SystemError(f"name must be a string, got {name!r}")
    sys = MechSystem(vars, M, V, G, name=name)
    if sys.m != m:
        raise SystemError(f"declared m={m} does not match G columns {sys.m}")

    shaped = data.get("shaped")
    if shaped is None:
        _check_overrides((), eps=eps, K=K)
        return sys, None
    if not isinstance(shaped, dict):
        raise SystemError(f"invalid shaped design: expected an object, got {shaped!r}")
    try:
        params = _ReadParams(_finite_params(shaped.get("params", {}), eps=eps, K=K))
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
        _check_overrides(params.read, eps=eps, K=K)
        design = ShapedDesign(vars, mhat, vhat, kv, C=c_table)
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
        if design.C is not None:
            shaped["C"] = design.C.to_strings()
        data["shaped"] = shaped
    return data


def save_system(
    path: str | Path, sys: MechSystem, design: ShapedDesign | None = None
) -> None:
    Path(path).write_text(writer.dumps(system_to_dict(sys, design)) + "\n")
