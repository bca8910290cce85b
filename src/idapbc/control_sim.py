"""Feedback synthesis and closed-loop simulation.

A controller pairs a plant with a verified shaped design.  Its feedback law
is the input that turns the open-loop dynamics into the shaped Hamiltonian
system with damping injected through Kv and a momentum-quadratic gyroscopic
force that does no work on the shaped energy.  A fixed-step integrator and
energy-decay diagnostics close the loop numerically.

The shaped dynamics have one implementation, the shaped law: expression
trees (law_trees) that factor M and Mhat as L D L' and contract dMhat, C
and the damping, compiled per controller by expr.Compiled (shaped_law).
Where it gives no value (a table that fails to evaluate, an M or Mhat that
is not finite and positive definite), MatchPoint's reads raise what fails.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import reduce
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import linalg
from .expr import Compiled, Const, Expr, Tables, Var, add, div, mul, sub
from .matching import POINT_ERRORS, RESIDUAL_TOL, MatchPoint, pair_trees, stack_lows
from .system import (
    MechSystem,
    ShapedDesign,
    StateTrajectory,
    SystemError,
    check_kv,
    q_gradient,
    q_text,
    rk4_step,
)
from .writer import write_table

DIVERGENCE_NORM = 1e6


class DivergenceError(RuntimeError):
    """Simulation left the guarded region; ``time`` records when."""

    def __init__(self, time: float, norm: float):
        super().__init__(
            f"state norm {norm:.3e} exceeded {DIVERGENCE_NORM:.0e} at t={time:.6g}"
        )
        self.time = time
        self.norm = norm


class Controller:
    """Plant, shaped design, and damping gain.

    kv defaults to the design's damping matrix; a positive scalar is
    promoted to that multiple of the identity.  The gyroscopic tensor is the
    design's stored closed-form table when present, otherwise the tensor
    derived pointwise from the matching data.  ``law`` is the shaped law's
    Compiled function (shaped_law), built at its first read and kept.
    """

    def __init__(
        self,
        sys: MechSystem,
        design: ShapedDesign,
        kv: float | np.ndarray | None = None,
    ):
        if tuple(sys.vars) != tuple(design.vars):
            raise SystemError("system and design use different coordinates")
        self.sys = sys
        self.design = design
        kv = design.Kv if kv is None else kv
        if np.ndim(kv) == 0:
            kv = np.diag([kv] * sys.m)
        self.Kv = check_kv(kv, sys.m)
        self._law = None

    @property
    def law(self) -> Compiled:
        if self._law is None:
            self._law = shaped_law(self.sys, self.design, self.Kv)
        return self._law

    def gyro_at(self, q: Sequence[float]) -> np.ndarray:
        """Tensor values at q; raises MatchingError where no extension exists."""
        return self._gyro_from(MatchPoint(self.sys, self.design, q))

    def _gyro_from(self, point: MatchPoint) -> np.ndarray:
        return point.gyro() if self.design.C is None else self.design.c_table_at(point.q)

    def matching_residual(self, q: Sequence[float]) -> float:
        """Largest matching-condition violation of the design at q."""
        return MatchPoint(self.sys, self.design, q).residual()


def _sum(terms: list[Expr]) -> Expr:
    """The terms added left to right; 0 for none."""
    return reduce(add, terms, Const(0.0))


def _quadratic(a: list[list[Expr]], u: list[Expr]) -> Expr:
    """sum_ij a_ij u_i u_j; constant folding drops the terms of zero entries."""
    r = range(len(u))
    return _sum([mul(mul(a[i][j], u[i]), u[j]) for i in r for j in r])


def _ldl(a: list[list[Expr]]) -> tuple[list[list[Expr]], list[Expr]]:
    """(L, D) with a = L D L', L unit lower triangular (only its entries below
    the diagonal are set); a is symmetric, read on and below the diagonal."""
    n = len(a)
    l, ld, d = [[None] * n for _ in range(n)], [[None] * n for _ in range(n)], [None] * n
    for j in range(n):  # ld[i][j] is L_ij D_j
        d[j] = reduce(sub, [mul(ld[j][k], l[j][k]) for k in range(j)], a[j][j])
        for i in range(j + 1, n):
            ld[i][j] = reduce(sub, [mul(ld[i][k], l[j][k]) for k in range(j)], a[i][j])
            l[i][j] = div(ld[i][j], d[j])
    return l, d


def _solve(l: list[list[Expr]], d: list[Expr], b: list[Expr]) -> list[Expr]:
    """x with L D L' x = b."""
    n = len(b)
    y, x = [None] * n, [None] * n
    for i in range(n):
        y[i] = reduce(sub, [mul(l[i][k], y[k]) for k in range(i)], b[i])
    for i in reversed(range(n)):
        x[i] = reduce(sub, [mul(l[k][i], x[k]) for k in range(i + 1, n)], div(y[i], d[i]))
    return x


def law_trees(mats, dmhat, dvhat, c, g, kv: np.ndarray, p: list[Expr]) -> tuple[list, list]:
    """(qdot, pdot) of the shaped law as trees of the entries of the tables
    (M and Mhat, dMhat, dVhat, C), of G, Kv and p: M and Mhat factored as
    L D L', solved for uhat = Mhat^-1 p, M^-1 dHd/dq and M^-1 p; dMhat and C
    contracted with uhat, and G Kv G' with it."""
    m, mhat = mats
    r, ra = range(len(p)), range(len(kv))
    m_factors, mhat_factors = _ldl(m), _ldl(mhat)
    uhat = _solve(*mhat_factors, p)
    # dHd/dq_k = dVhat_k - uhat' dMhat_k uhat / 2
    grad = [sub(dvhat[k], mul(Const(0.5), _quadratic(dmhat[k], uhat))) for k in r]
    minv_grad = _solve(*m_factors, grad)
    gu = [_sum([mul(g[i][a], uhat[i]) for i in r]) for a in ra]
    kgu = [_sum([mul(Const(float(kv[a][b])), gu[b]) for b in ra]) for a in ra]
    pdot = [
        sub(sub(_quadratic([[c[i][j][k] for j in r] for i in r], uhat),
                _sum([mul(mhat[k][j], minv_grad[j]) for j in r])),
            _sum([mul(g[k][a], kgu[a]) for a in ra]))
        for k in r
    ]
    return _solve(*m_factors, p), pdot


def _fed(tables: list, start: int) -> list:
    """The nested tables with each entry that is not a constant (None too)
    replaced by the variable x[k], k counting from start in flat order."""
    out = []
    for table in tables:
        a = np.array(table, dtype=object)
        flat = [e if isinstance(e, Const) else Var(f"x{k}", k) for k, e in enumerate(a.flat, start)]
        out.append(np.array(flat, dtype=object).reshape(a.shape).tolist())
        start += a.size
    return out


def shaped_law(sys: MechSystem, design: ShapedDesign, kv: np.ndarray) -> Compiled:
    """The shaped law (law_trees) compiled as one function of x: q, p, then
    without a C table M and Mhat, dMhat, dVhat (the pair function's first
    three tables) and C, and last G where it varies.  With a C table the law
    evaluates those trees, bitwise as the pair function, and C itself, and
    also returns the (2, n, n) stack of M and Mhat for the PD test.
    Constant entries stay constants, so folding drops the terms they zero.
    A pivot that is zero raises ExprError."""
    n, trees = sys.n, pair_trees(sys, design)[:3]
    if design.C is None:
        p, *fed, g = _fed([[None] * n, *trees, np.empty((n,) * 3, dtype=object), sys.G.tree], n)
        return Compiled(Tables(law_trees(*fed, g, kv, p)))
    p, g = _fed([[None] * n, sys.G.tree], n)
    return Compiled(Tables(law_trees(*trees, design.C.tree, g, kv, p) + (trees[0],)))


def _law_value(ctrl: Controller, point: MatchPoint, p: np.ndarray):
    """(qdot, pdot) from ctrl.law at (point.q, p); None where M or Mhat is
    not finite and PD."""
    x = point.q.tolist() + p.tolist()  # floats: the law reads each entry once
    if derived := ctrl.design.C is None:
        tables, lows = point.tables, point.lows
        if not (lows[0] > 0.0 and lows[1] > 0.0):
            return None
        for table in (tables.mats, tables.dmhat, tables.dvhat, point.gyro()):
            x += table.ravel().tolist()
    if not ctrl.sys.g_constant:
        x += point.frame.g.ravel().tolist()
    if derived:
        return ctrl.law(x)
    qdot, pdot, mats = ctrl.law(x)
    lows = stack_lows(mats)
    return (qdot, pdot) if lows[0] > 0.0 and lows[1] > 0.0 else None


def _shaped_law(
    ctrl: Controller, point: MatchPoint, p: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(qdot, pdot) of the shaped dynamics at (point.q, p) from ctrl.law.
    Where the law takes no value, MatchPoint's reads raise what fails, in
    MatchPoint's order: frame, the pair function, M's and Mhat's PD tests,
    LAPACK's LU (LinAlgError "Singular matrix", as the numpy law's solve
    raised), C.  Where a pivot of the law's L D L' is zero (its ExprError
    the cause), that LinAlgError comes last."""
    point.frame  # the first read: a rank-deficient G raises ahead of the rest
    try:
        field = _law_value(ctrl, point, p)
    except POINT_ERRORS as exc:
        field = exc
    if type(field) is tuple:
        return field
    if defect := point.shaped_mass_defect():
        raise SystemError(f"shaped mass {defect} at q={q_text(point.q)}")
    linalg.solve(point.pair.mhat, p)
    ctrl._gyro_from(point)
    # every read passed, but a pivot of the law's L D L' rounded to zero
    raise np.linalg.LinAlgError("Singular matrix") from field


def feedback(ctrl: Controller, q: Sequence[float], p: Sequence[float]) -> np.ndarray:
    """Stabilizing input at (q, p): the u with G'G u = G'(dH/dq + pdot), for
    which the open loop equals the shaped dynamics (qdot, pdot).

    Raises where Mhat is not positive definite, like closed_loop_field.
    Where the design's matching residual exceeds the verification tolerance
    a warning carrying the local residual is attached, since the law
    realizes the shaped dynamics only up to that residual.
    """
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    point = MatchPoint(ctrl.sys, ctrl.design, q)
    res = point.residual()
    if res > RESIDUAL_TOL:
        warnings.warn(
            f"matching residual {res:.3e} exceeds {RESIDUAL_TOL:.1e} at "
            f"q={q_text(q)}; the feedback does not realize the shaped dynamics here"
        )
    _, pdot = _shaped_law(ctrl, point, p)
    g, minv = point.frame.g, point.pair.minv
    rhs = q_gradient(point.tables.dv, point.tables.dm, minv @ p) + pdot
    return linalg.solve(g.T @ g, g.T @ rhs)


def closed_loop_field(
    ctrl: Controller, q: Sequence[float], p: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Shaped dynamics at (q, p); raises where Mhat is not positive definite."""
    point = MatchPoint(ctrl.sys, ctrl.design, np.asarray(q, dtype=float))
    return _shaped_law(ctrl, point, np.asarray(p, dtype=float))


def closed_loop_linearization(ctrl: Controller) -> np.ndarray:
    """Jacobian blocks of the shaped dynamics at the origin."""
    n = ctrl.sys.n
    origin = np.zeros(n)
    point = MatchPoint(ctrl.sys, ctrl.design, origin)
    g0, (m0inv, mhat0, _) = point.frame.g, point.pair
    hess = ctrl.design.dVhat.diff(n)(origin).T
    damping = g0 @ ctrl.Kv @ g0.T @ linalg.inv(mhat0)
    out = np.zeros((2 * n, 2 * n))
    out[:n, n:] = m0inv
    out[n:, :n] = -mhat0 @ m0inv @ hess
    out[n:, n:] = -damping
    return out


# the largest byte count numpy lets an array hold
_MAX_ARRAY_BYTES = np.iinfo(np.intp).max


@dataclass(frozen=True, eq=False)
class SimConfig:
    """Fixed-step integration window: horizon, step, initial (q, p).  The
    horizon must take a step count whose (steps + 1, 2n) state array numpy
    can shape."""

    t_end: float
    dt: float
    x0: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float).ravel())
        if not np.all(np.isfinite(self.x0)) or self.x0.size < 2 or self.x0.size % 2:
            raise SystemError("x0 must be a finite vector of even length (q then p)")
        if not self.dt > 0.0:
            raise SystemError("dt must be positive")
        if not self.dt <= self.t_end < np.inf:
            raise SystemError("t_end must be finite and cover at least one step")
        count = self.t_end / self.dt
        if not (
            math.isfinite(count)
            and (self.steps + 1) * self.x0.size * self.x0.itemsize <= _MAX_ARRAY_BYTES
        ):
            raise SystemError(
                f"t_end={self.t_end:.6g} at dt={self.dt:.6g} takes {count:.6g} steps, "
                "more than a trajectory array can hold"
            )

    @property
    def steps(self) -> int:
        # horizon snaps to a whole number of steps
        return max(1, int(round(self.t_end / self.dt)))


def simulate(
    field: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    cfg: SimConfig,
    energy: Callable[[np.ndarray, np.ndarray], float] | None = None,
) -> StateTrajectory:
    """Classical fourth-order Runge-Kutta on the split state (q, p).

    Records energy per sample when given (zeros otherwise), from one call
    ``energy(qs, ps)`` on the (steps + 1, n) stacks of samples.  Raises
    DivergenceError as soon as the state norm passes the guard, so runs
    started outside the basin of attraction terminate early; at t = 0 where
    x0 is already past it.
    """
    n = cfg.x0.size // 2
    dt = cfg.dt
    steps = cfg.steps
    norm = math.hypot(*cfg.x0)  # without the overflow of the norm's dot product
    if not norm <= DIVERGENCE_NORM:
        raise DivergenceError(0.0, norm)

    def f(x: np.ndarray) -> np.ndarray:
        qdot, pdot = field(x[:n], x[n:])
        return np.concatenate([qdot, pdot])

    states = np.empty((steps + 1, 2 * n))
    states[0] = cfg.x0
    x = cfg.x0
    for k in range(steps):
        x = rk4_step(f, x, dt)
        norm = float(np.linalg.norm(x))
        if not norm <= DIVERGENCE_NORM:
            raise DivergenceError((k + 1) * dt, norm)
        states[k + 1] = x
    times = dt * np.arange(steps + 1)
    if energy is None:
        energies = np.zeros(steps + 1)
    else:
        energies = energy(states[:, :n], states[:, n:])
    return StateTrajectory(times, states, energies)


def decay_metrics(
    traj: StateTrajectory, rest_energy: float
) -> tuple[float, float | None, int]:
    """(max per-step energy increase, log-excess slope over the tail half,
    count of tail samples at or below the equilibrium).

    The excess is measured from ``rest_energy``, the recorded energy
    function at (q, p) = 0.  Tail samples with no positive excess are left
    out of the least-squares fit and counted; where fewer than two remain,
    the slope is None.
    """
    e = traj.energies
    if e.size == 0:
        raise SystemError("empty trajectory")
    max_increase = float(np.max(np.diff(e))) if e.size > 1 else 0.0
    tail = slice(e.size // 2, None)
    excess = e[tail] - rest_energy
    if excess.size < 2:
        raise SystemError("trajectory too short to fit a decay rate")
    above = excess > 0.0
    at_rest = int(excess.size - np.count_nonzero(above))
    if excess.size - at_rest < 2:
        return max_increase, None, at_rest
    rate = float(np.polyfit(traj.times[tail][above], np.log(excess[above]), 1)[0])
    return max_increase, rate, at_rest


def write_trajectory_csv(
    path: str | Path, traj: StateTrajectory, vars: Sequence[str]
) -> None:
    """Columns: t, the configuration variables, p1..pn, energy."""
    n = len(vars)
    if traj.states.shape[1] != 2 * n:
        raise SystemError("variable names do not match the state dimension")
    header = ["t", *vars, *[f"p{i + 1}" for i in range(n)], "energy"]
    write_table(path, header, np.column_stack([traj.times, traj.states, traj.energies]))
