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
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import linalg
from .expr import (
    Compiled,
    Const,
    Expr,
    Tables,
    Var,
    add,
    constant_product,
    inputs,
    ldl,
    ldl_solve,
    mul,
    quadratic,
    sub,
    total,
)
from .matching import (
    POINT_ERRORS,
    RESIDUAL_TOL,
    MatchPoint,
    adapted_map,
    kept_fold,
    pair_trees,
    stack_lows,
)
from .system import (
    MechSystem,
    ShapedDesign,
    StateTrajectory,
    SystemError,
    check_kv,
    q_gradient,
    q_gradient_trees,
    q_text,
    rk4_step,
)
from .tensor import derivation_defect
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


def law_trees(mats, dmhat, dvhat, c, g, kv: np.ndarray, p: list[Expr]) -> tuple[list, list]:
    """(qdot, pdot) of the shaped law as trees of the entries of the tables
    (M and Mhat, dMhat, dVhat, C), of G, Kv and p: M and Mhat factored as
    L D L', solved for uhat = Mhat^-1 p, M^-1 dHd/dq and M^-1 p; dMhat and C
    contracted with uhat, and G Kv G' with it."""
    m, mhat = mats
    r, ra = range(len(p)), range(len(kv))
    m_factors, mhat_factors = ldl(m), ldl(mhat)
    uhat = ldl_solve(*mhat_factors, p)
    minv_grad = ldl_solve(*m_factors, q_gradient_trees(dvhat, dmhat, uhat))  # of Hd
    gu = [total([mul(g[i][a], uhat[i]) for i in r]) for a in ra]
    kgu = [total([mul(Const(float(kv[a][b])), gu[b]) for b in ra]) for a in ra]
    pdot = [
        sub(sub(quadratic([[c[i][j][k] for j in r] for i in r], uhat),
                total([mul(mhat[k][j], minv_grad[j]) for j in r])),
            total([mul(g[k][a], kgu[a]) for a in ra]))
        for k in r
    ]
    return ldl_solve(*m_factors, p), pdot


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


class Tick(NamedTuple):
    """The values of tick_trees: the shaped law, the (2, n, n) stack of M and
    Mhat, the derivation's blocks (GyroMap.apply's output), the potential
    defect and the feedback u."""

    qdot: np.ndarray
    pdot: np.ndarray
    mats: np.ndarray
    y: np.ndarray
    potential: np.ndarray
    u: np.ndarray


def tick_trees(sys: MechSystem, design: ShapedDesign, kv: np.ndarray) -> Tick:
    """Tick's trees for a design without a C table and a constant G, of
    x = (q, p): the pair function's trees, C as the kept fold times T
    (kept_fold), the law (law_trees), W (dV - Mhat M^-1 dVhat)
    with W the kept annihilator, and u = (G'G)^-1 G' (dH/dq + pdot) with
    (G'G)^-1 G' a constant and dH/dq read at M^-1 p (q_gradient_trees)."""
    n, r = sys.n, range(sys.n)
    frame = sys.frame(np.zeros(n))  # a constant G's, kept
    tables = pair_trees(sys, design)
    (m, mhat), gmap = tables.mats, adapted_map(n, n - sys.m)
    y = constant_product(kept_fold(sys)[0].T, np.ravel(np.array(tables.t, dtype=object)))
    c = np.array(y[gmap.c], dtype=object).reshape((n,) * 3).tolist()
    qdot, pdot = law_trees(tables.mats, tables.dmhat, tables.dvhat, c, sys.G.tree, kv,
                           inputs(n, n))
    minv_dvhat = ldl_solve(*ldl(m), tables.dvhat)
    defect = [sub(tables.dv[k], total([mul(mhat[k][j], minv_dvhat[j]) for j in r])) for k in r]
    rhs = [add(dh, dp) for dh, dp in zip(q_gradient_trees(tables.dv, tables.dm, qdot), pdot)]
    g = frame.g
    return Tick(qdot, pdot, tables.mats, y, constant_product(frame.annihilator, defect),
                constant_product(linalg.solve(g.T @ g, g.T), rhs))


def shaped_law(sys: MechSystem, design: ShapedDesign, kv: np.ndarray) -> Compiled:
    """The shaped law (law_trees) compiled as one function of x: q, p, then
    without a C table M and Mhat, dMhat, dVhat (the pair function's first
    three tables) and C, and last G where it varies.  With a C table the law
    evaluates those trees, bitwise as the pair function, and C itself, and
    also returns the (2, n, n) stack of M and Mhat for the PD test.  Without
    one and with a constant G, it is tick_trees, of q and p.  Constant
    entries stay constants, so folding drops the terms they zero.  A pivot
    that is zero raises ExprError."""
    n = sys.n
    if design.C is not None:
        trees = (sys.M.tree, design.Mhat.tree), design.dMhat.tree, design.dVhat.tree
        p, g = _fed([[None] * n, sys.G.tree], n)
        return Compiled(Tables(law_trees(*trees, design.C.tree, g, kv, p) + (trees[0],)))
    if sys.g_constant:
        return Compiled(Tables(tick_trees(sys, design, kv)))
    p, *fed, g = _fed([[None] * n, *pair_trees(sys, design)[:3],
                       np.empty((n,) * 3, dtype=object), sys.G.tree], n)
    return Compiled(Tables(law_trees(*fed, g, kv, p)))


def _law_value(ctrl: Controller, point: MatchPoint, p: np.ndarray):
    """ctrl.law's value at (point.q, p): (qdot, pdot), or a Tick; None where
    M or Mhat is not finite and PD, or where a Tick's derivation_defect is
    not None."""
    sys = ctrl.sys
    x = point.q.tolist() + p.tolist()  # floats: the law reads each entry once
    if ctrl.design.C is None and sys.g_constant:
        tick = Tick(*ctrl.law(x))
        lows = stack_lows(tick.mats)
        if not (lows[0] > 0.0 and lows[1] > 0.0):
            return None
        peaks = adapted_map(sys.n, sys.n - sys.m).peaks(tick.y).tolist()
        return None if derivation_defect(peaks) else tick
    if derived := ctrl.design.C is None:
        tables, lows = point.tables, point.lows
        if not (lows[0] > 0.0 and lows[1] > 0.0):
            return None
        for table in (tables.mats, tables.dmhat, tables.dvhat, point.gyro()):
            x += table.ravel().tolist()
    if not sys.g_constant:
        x += point.frame.g.ravel().tolist()
    if derived:
        return ctrl.law(x)
    qdot, pdot, mats = ctrl.law(x)
    lows = stack_lows(mats)
    return (qdot, pdot) if lows[0] > 0.0 and lows[1] > 0.0 else None


def _evaluate(ctrl: Controller, point: MatchPoint, p: np.ndarray):
    """_law_value, or the exception it raised; the frame is read first, so a
    rank-deficient G raises ahead of the rest."""
    point.frame
    try:
        return _law_value(ctrl, point, p)
    except POINT_ERRORS as exc:
        return exc


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


def _tick_residual(sys: MechSystem, tick: Tick) -> float:
    """MatchPoint.residual from a Tick's potential defect and derivation."""
    gmap = adapted_map(sys.n, sys.n - sys.m)
    defects = np.concatenate([tick.potential, tick.y[gmap.kinetic]])
    return float(np.max(np.abs(defects), initial=0.0))


def feedback(ctrl: Controller, q: Sequence[float], p: Sequence[float]) -> np.ndarray:
    """Stabilizing input at (q, p): the u with G'G u = G'(dH/dq + pdot), for
    which the open loop equals the shaped dynamics (qdot, pdot).

    Raises where Mhat is not positive definite, like closed_loop_field.
    Where the design's matching residual exceeds the verification tolerance
    a warning carrying the local residual is attached, since the law
    realizes the shaped dynamics only up to that residual.  Without a C
    table and with a constant G, the law's Tick gives u and the residual
    in the same call.
    """
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    point = MatchPoint(ctrl.sys, ctrl.design, q)
    field = _evaluate(ctrl, point, p)
    tick = type(field) is Tick
    # MatchPoint's reads raise here, ahead of the law's replay
    res = _tick_residual(ctrl.sys, field) if tick else point.residual()
    if res > RESIDUAL_TOL:
        warnings.warn(
            f"matching residual {res:.3e} exceeds {RESIDUAL_TOL:.1e} at "
            f"q={q_text(q)}; the feedback does not realize the shaped dynamics here"
        )
    if tick:
        return field.u
    if type(field) is not tuple:
        _replay(ctrl, point, p, field)
    g, minv = point.frame.g, point.pair.minv
    rhs = q_gradient(point.tables.dv, point.tables.dm, minv @ p) + field[1]
    return linalg.solve(g.T @ g, g.T @ rhs)


def closed_loop_field(
    ctrl: Controller, q: Sequence[float], p: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Shaped dynamics at (q, p); raises where Mhat is not positive definite."""
    point = MatchPoint(ctrl.sys, ctrl.design, np.asarray(q, dtype=float))
    p = np.asarray(p, dtype=float)
    field = _evaluate(ctrl, point, p)
    if type(field) is tuple:
        return field
    if type(field) is Tick:
        return field.qdot, field.pdot
    _replay(ctrl, point, p, field)


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
