"""Feedback synthesis and closed-loop simulation.

A controller pairs a plant with a verified shaped design.  Its feedback law
is the input that turns the open-loop dynamics into the shaped Hamiltonian
system with damping injected through Kv and a momentum-quadratic gyroscopic
force that does no work on the shaped energy.  A fixed-step integrator and
energy-decay diagnostics close the loop numerically.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import linalg
from .matching import RESIDUAL_TOL, MatchPoint
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
    derived pointwise from the matching data.
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

    def gyro_at(self, q: Sequence[float]) -> np.ndarray:
        """Tensor values at q; raises MatchingError where no extension exists."""
        return self._gyro_from(MatchPoint(self.sys, self.design, q))

    def _gyro_from(self, point: MatchPoint) -> np.ndarray:
        return point.gyro() if self.design.C is None else point.c_table()

    def matching_residual(self, q: Sequence[float]) -> float:
        """Largest matching-condition violation of the design at q."""
        return MatchPoint(self.sys, self.design, q).residual()


def _shaped_law(
    ctrl: Controller, point: MatchPoint, p: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(qdot, pdot) of the shaped dynamics at (point.q, p), the damped Hamiltonian
    flow of the design plus the gyroscopic force; raises where Mhat is not PD."""
    g, (minv, mhat, dmhat) = point.frame.g, point.pair
    if defect := point.shaped_mass_defect():
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
