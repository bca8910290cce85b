"""Feedback synthesis and closed-loop simulation.

A controller pairs a plant with a verified shaped design.  Its feedback law
is the input that turns the open-loop dynamics into the shaped Hamiltonian
system with damping injected through Kv and a momentum-quadratic gyroscopic
force that does no work on the shaped energy.  A fixed-step integrator and
energy-decay diagnostics close the loop numerically.

The shaped dynamics, the feedback and its residual check have one recipe,
tick_trees: expression trees that factor M and Mhat as L D L' and contract
dMhat, C and the damping, compiled per controller by expr.Compiled into one
function for closed_loop_field and one for feedback (Controller.law), whose
values are a Tick.  Where it gives no value (a table that fails to
evaluate, an M or Mhat that is not finite and positive definite, a derived
C that does not exist), MatchPoint's reads raise what fails.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import linalg
from .expr import (
    Compiled,
    Tables,
    add,
    inputs,
    ldl,
    ldl_solve,
    matvec,
    mul,
    quadratic,
    sub,
    total,
)
from .matching import (
    POINT_ERRORS,
    RESIDUAL_TOL,
    MatchPoint,
    adapted_basis,
    pair_trees,
    stack_lows,
)
from .system import (
    MechSystem,
    ShapedDesign,
    StateTrajectory,
    SystemError,
    check_kv,
    q_gradient_trees,
    q_text,
    rk4_step,
)
from .tensor import adapted_map, derivation_defect
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
    derived pointwise from the matching data.  ``law(feedback)`` is the
    compiled Tick (tick_trees) for closed_loop_field, or with ``feedback``
    for feedback, each built at its first read and kept.
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
        self._laws = [None, None]

    def law(self, feedback: bool) -> Compiled:
        if self._laws[feedback] is None:
            tick = tick_trees(self.sys, self.design, self.Kv, feedback)
            self._laws[feedback] = Compiled(Tables(t for t in tick if t is not None))
        return self._laws[feedback]

    def gyro_at(self, q: Sequence[float]) -> np.ndarray:
        """Tensor values at q; raises MatchingError where no extension exists."""
        return self._gyro_from(MatchPoint(self.sys, self.design, q))

    def _gyro_from(self, point: MatchPoint) -> np.ndarray:
        return point.gyro() if self.design.C is None else self.design.c_table_at(point.q)

    def matching_residual(self, q: Sequence[float]) -> float:
        """Largest matching-condition violation of the design at q."""
        return MatchPoint(self.sys, self.design, q).residual()


class Tick(NamedTuple):
    """The values of tick_trees: the shaped law (qdot, pdot), the (2, n, n)
    stack of M and Mhat, the derivation's blocks (GyroMap.apply's output),
    the potential defect and the feedback u; None where not computed."""

    qdot: object
    pdot: object
    mats: object
    y: object = None
    potential: object = None
    u: object = None


def tick_trees(sys: MechSystem, design: ShapedDesign, kv: np.ndarray, feedback: bool) -> Tick:
    """The Tick's trees for closed_loop_field (qdot, pdot, the M and Mhat
    stack, and y where C is derived) or, with ``feedback``, for feedback
    (also y, the potential defect and u = (G'G)^-1 G' (dH/dq + pdot), dH/dq
    read at qdot = M^-1 p, G'G factored as L D L').

    The law: M and Mhat factored as L D L', solved for uhat = Mhat^-1 p,
    M^-1 dHd/dq and M^-1 p; dMhat and C contracted with uhat, and G Kv G'
    with it.  y and the potential defect are pair_trees', and a derived C
    is y's C block.  Its input x is q, p, then, where G varies, G and the
    adapted basis [W; U'] of its frame (read where T is: a derived C, or
    feedback's residual); a constant G and its basis are constants of the
    kept frame.  Constant entries stay constants, so folding drops
    the terms they zero.  A pivot that is zero raises ExprError."""
    n, m, derived = sys.n, sys.m, design.C is None
    mats, dmhat, dvhat, dm, dv = ((sys.M.tree, design.Mhat.tree), design.dMhat.tree,
                                  design.dVhat.tree, sys.dM.tree, sys.dV.tree)
    p, r = inputs(n, n), range(n)
    if sys.g_constant:
        g, basis = sys.G.tree, adapted_basis(sys.frame(np.zeros(n)))  # a constant G's, kept
    else:
        g, basis = inputs(2 * n, n, m), inputs(2 * n + n * m, n, n)
    y = potential = None
    if derived or feedback:
        y, potential = pair_trees(sys, design, basis)[-2:]
    c = (np.array(y[adapted_map(n, n - m).c], dtype=object).reshape((n,) * 3).tolist()
         if derived else design.C.tree)
    (m_mat, mhat), gt = mats, [[g[i][a] for i in r] for a in range(m)]
    m_factors = ldl(m_mat)
    uhat = ldl_solve(*ldl(mhat), p)
    minv_grad = ldl_solve(*m_factors, q_gradient_trees(dvhat, dmhat, uhat))  # of Hd
    kgu = matvec(kv, matvec(gt, uhat))
    pdot = [sub(sub(quadratic([[c[i][j][k] for j in r] for i in r], uhat), a), b)
            for k, a, b in zip(r, matvec(mhat, minv_grad), matvec(g, kgu))]
    qdot = ldl_solve(*m_factors, p)
    tick = Tick(qdot, pdot, mats, y)
    if not feedback:
        return tick
    rhs = list(map(add, q_gradient_trees(dv, dm, qdot), pdot))
    gtg = [[total(list(map(mul, a, b))) for b in gt] for a in gt]
    return tick._replace(potential=potential, u=ldl_solve(*ldl(gtg), matvec(gt, rhs)))


def _evaluate(ctrl: Controller, point: MatchPoint, p: np.ndarray, feedback: bool):
    """ctrl.law(feedback)'s value at (point.q, p), its input laid out as
    tick_trees lays it out: for feedback a Tick, for closed_loop_field the
    law's tuple of the Tick's fields (qdot and pdot first, without a Tick
    per call).  None where M or Mhat is not finite and PD, or where a
    derived C's derivation_defect is not None; a stored C is judged only on
    T's finiteness (MatchPoint.t), where feedback's y is not finite.  The
    exception where a read or the law raises; the frame is read first (a
    kept one has passed), so a rank-deficient G raises ahead of the rest."""
    sys, derived = ctrl.sys, ctrl.design.C is None
    x = point.q.tolist() + p.tolist()  # floats: the law reads each entry once
    if sys.kept_frame is None:
        frame = point.frame
        if not sys.g_constant:
            x += frame.g.ravel().tolist() + adapted_basis(frame).ravel().tolist()
    try:
        values = ctrl.law(feedback)(x)
        lows = stack_lows(values[2])  # the Tick's mats, then its y
        if not (lows[0] > 0.0 and lows[1] > 0.0):
            return None
        if derived and derivation_defect(
                adapted_map(sys.n, sys.n - sys.m).peaks(values[3]).tolist()):
            return None
        if feedback and not derived and not np.isfinite(values[3]).all():
            point.t  # raises TensorError where T is not finite
    except POINT_ERRORS as exc:
        return exc
    return Tick(*values) if feedback else values


def _replay(ctrl: Controller, point: MatchPoint, p: np.ndarray, cause) -> None:
    """Raise what fails where the law took no value (``cause``, its exception
    or None): MatchPoint's reads in MatchPoint's order, frame, the pair
    function, M's and Mhat's PD tests, LAPACK's LU (LinAlgError "Singular
    matrix", as the numpy law's solve raised), C.  Where every read passes,
    a pivot of the law's L D L' was zero (its ExprError the cause), and that
    LinAlgError comes last."""
    if defect := point.shaped_mass_defect():
        raise SystemError(f"shaped mass {defect} at q={q_text(point.q)}")
    linalg.solve(point.pair.mhat, p)
    ctrl._gyro_from(point)
    raise np.linalg.LinAlgError("Singular matrix") from cause


def feedback(ctrl: Controller, q: Sequence[float], p: Sequence[float]) -> np.ndarray:
    """Stabilizing input at (q, p): the u with G'G u = G'(dH/dq + pdot), for
    which the open loop equals the shaped dynamics (qdot, pdot).

    Raises where Mhat is not positive definite, like closed_loop_field.
    Where the design's matching residual exceeds the verification tolerance
    a warning carrying the local residual is attached, since the law
    realizes the shaped dynamics only up to that residual.  The law's Tick
    gives u and the residual in the same call.
    """
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    point = MatchPoint(ctrl.sys, ctrl.design, q)
    tick = _evaluate(ctrl, point, p, True)
    if valued := type(tick) is Tick:
        kinetic = tick.y[adapted_map(ctrl.sys.n, ctrl.sys.n - ctrl.sys.m).kinetic]
        res = float(np.max(np.abs(np.concatenate([tick.potential, kinetic])), initial=0.0))
    else:
        res = point.residual()  # MatchPoint's reads raise here, ahead of the replay
    if res > RESIDUAL_TOL:
        warnings.warn(
            f"matching residual {res:.3e} exceeds {RESIDUAL_TOL:.1e} at "
            f"q={q_text(q)}; the feedback does not realize the shaped dynamics here"
        )
    if valued:
        return tick.u
    _replay(ctrl, point, p, tick)


def closed_loop_field(
    ctrl: Controller, q: Sequence[float], p: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Shaped dynamics at (q, p); raises where Mhat is not positive definite."""
    point = MatchPoint(ctrl.sys, ctrl.design, np.asarray(q, dtype=float))
    p = np.asarray(p, dtype=float)
    values = _evaluate(ctrl, point, p, False)
    if type(values) is tuple:
        return values[:2]
    _replay(ctrl, point, p, values)


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
