"""Feedback synthesis and closed-loop simulation.

A controller pairs a plant with a verified shaped design.  Its feedback law
is the input that turns the open-loop dynamics into the shaped Hamiltonian
system with damping injected through Kv and a momentum-quadratic gyroscopic
force that does no work on the shaped energy.  A fixed-step integrator and
energy-decay diagnostics close the loop numerically.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import linalg
from .matching import RESIDUAL_TOL, MatchingError, MatchPoint
from .system import (
    MechSystem,
    ShapedDesign,
    StateTrajectory,
    SystemError,
    check_kv,
    hessian_at,
    q_gradient,
    q_text,
    spd_defect,
)
from .tensor import Tensor3
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
    """Plant, shaped design, damping gain, and gyroscopic tensor field.

    kv defaults to the design's damping matrix; a positive scalar is
    promoted to that multiple of the identity.  gyro overrides the tensor
    field with a callable q -> (n,n,n) values; by default the design's
    stored closed-form table is used when present, otherwise the tensor is
    derived pointwise from the matching data.
    """

    def __init__(
        self,
        sys: MechSystem,
        design: ShapedDesign,
        kv: float | np.ndarray | None = None,
        gyro: Callable[[Sequence[float]], np.ndarray] | None = None,
    ):
        if tuple(sys.vars) != tuple(design.vars):
            raise SystemError("system and design use different coordinates")
        self.sys = sys
        self.design = design
        kv = design.Kv if kv is None else np.asarray(kv, dtype=float)
        if kv.ndim == 0:
            kv = float(kv) * np.eye(sys.m)
        self.Kv = check_kv(kv, sys.m)
        self._gyro = gyro

    def gyro_at(self, q: Sequence[float]) -> np.ndarray:
        """Tensor values at q; zero with a warning where no extension exists."""
        return self._gyro_from(MatchPoint(self.sys, self.design, q))

    def _gyro_from(self, point: MatchPoint) -> np.ndarray:
        if self._gyro is not None:
            c = self._gyro(point.q)
            return c.entries if isinstance(c, Tensor3) else np.asarray(c, dtype=float)
        if self.design.C is not None:
            return self.design.c_table_at(point.q)
        try:
            return point.gyro().entries
        except MatchingError as exc:
            warnings.warn(
                f"no gyroscopic extension at q={q_text(point.q)}; "
                f"using zero gyroscopic force ({exc})"
            )
            return np.zeros((self.sys.n,) * 3)

    def matching_residual(self, q: Sequence[float]) -> float:
        """Largest matching-condition violation of the design at q."""
        return MatchPoint(self.sys, self.design, q).residual()


def _shaped_law(
    ctrl: Controller, point: MatchPoint, p: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(qdot, pdot) of the shaped dynamics at (point.q, p), the damped Hamiltonian
    flow of the design plus the gyroscopic force; raises where Mhat is not PD."""
    g, (minv, mhat, dmhat) = point.frame.g, point.pair
    if defect := spd_defect(mhat):
        raise SystemError(f"shaped mass {defect} at q={q_text(point.q)}")
    uhat = linalg.solve(mhat, p)
    dqhhat = q_gradient(point.dvhat, dmhat, uhat)
    force = ctrl._gyro_from(point).T @ uhat @ uhat
    qdot = minv @ (mhat @ uhat)
    pdot = -mhat @ (minv @ dqhhat) - g @ (ctrl.Kv @ (g.T @ uhat)) + force
    return qdot, pdot


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
    rhs = q_gradient(point.dv, point.dm, minv @ p) + pdot
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
    hess = hessian_at(ctrl.design.Vhat, n, origin)
    damping = g0 @ ctrl.Kv @ g0.T @ linalg.inv(mhat0)
    out = np.zeros((2 * n, 2 * n))
    out[:n, n:] = m0inv
    out[n:, :n] = -mhat0 @ m0inv @ hess
    out[n:, n:] = -damping
    return out


@dataclass(frozen=True, eq=False)
class SimConfig:
    """Fixed-step integration window: horizon, step, initial (q, p)."""

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
    started outside the basin of attraction terminate early.
    """
    n = cfg.x0.size // 2
    dt = cfg.dt
    steps = cfg.steps

    def f(x: np.ndarray) -> np.ndarray:
        qdot, pdot = field(x[:n], x[n:])
        return np.concatenate([qdot, pdot])

    states = np.empty((steps + 1, 2 * n))
    states[0] = cfg.x0
    x = cfg.x0
    for k in range(steps):
        k1 = f(x)
        k2 = f(x + 0.5 * dt * k1)
        k3 = f(x + 0.5 * dt * k2)
        k4 = f(x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
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


def decay_metrics(traj: StateTrajectory) -> tuple[float, float]:
    """(max per-step energy increase, log-excess slope over the tail half).

    The excess is measured from the trajectory's own energy minimum;
    samples at or below it (numerical ties) are clamped to the smallest
    positive excess with a warning before the least-squares fit.
    """
    e = traj.energies
    t = traj.times
    if e.size == 0:
        raise SystemError("empty trajectory")
    max_increase = float(np.max(np.diff(e))) if e.size > 1 else 0.0
    tail = slice(e.size // 2, None)
    excess = e[tail] - np.min(e)
    if excess.size < 2:
        raise SystemError("trajectory too short to fit a decay rate")
    if np.any(excess <= 0.0):
        positive = excess[excess > 0.0]
        floor = float(np.min(positive)) if positive.size else np.finfo(float).tiny
        warnings.warn(
            "energy samples at or below the trajectory minimum; "
            "clamped for the log fit"
        )
        excess = np.maximum(excess, floor)
    rate = float(np.polyfit(t[tail], np.log(excess), 1)[0])
    return max_increase, rate


def write_trajectory_csv(
    path: str | Path, traj: StateTrajectory, vars: Sequence[str]
) -> None:
    """Columns: t, the configuration variables, p1..pn, energy."""
    n = len(vars)
    if traj.states.shape[1] != 2 * n:
        raise SystemError("variable names do not match the state dimension")
    header = ["t", *vars, *[f"p{i + 1}" for i in range(n)], "energy"]
    write_table(path, header, np.column_stack([traj.times, traj.states, traj.energies]))
