"""Feedback synthesis and closed-loop simulation.

A controller pairs a plant with a verified shaped design.  Its feedback law
is the input that turns the open-loop dynamics into the shaped Hamiltonian
system with damping injected through Kv and a momentum-quadratic gyroscopic
force that does no work on the shaped energy.  A fixed-step integrator and
energy-decay diagnostics close the loop numerically.

The shaped dynamics have one implementation, the shaped law: a
straight-line Python function generated per controller (shaped_law) from
the pair function's statements, which factors M and Mhat as L D L' and
contracts dMhat, C and the damping unrolled on floats.  Where it gives no
value (a table that fails to evaluate, an M or Mhat that is not finite and
positive definite), MatchPoint's reads raise what fails, in their order.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import linalg
from .expr import SCALAR_NAMES, straight_line
from .matching import POINT_ERRORS, RESIDUAL_TOL, MatchPoint, PairValues, pair_trees
from .system import (
    MechSystem,
    ShapedDesign,
    StateTrajectory,
    SystemError,
    check_kv,
    lowest_eigenvalue,
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
    generated function (shaped_law), built at its first read and kept.
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
    def law(self) -> Callable:
        if self._law is None:
            self._law = shaped_law(self.sys, self.design, self.Kv)
        return self._law

    def gyro_at(self, q: Sequence[float]) -> np.ndarray:
        """Tensor values at q; raises MatchingError where no extension exists."""
        return self._gyro_from(MatchPoint(self.sys, self.design, q))

    def _gyro_from(self, point: MatchPoint) -> np.ndarray:
        return point.gyro() if self.design.C is None else point.c_table()

    def matching_residual(self, q: Sequence[float]) -> float:
        """Largest matching-condition violation of the design at q."""
        return MatchPoint(self.sys, self.design, q).residual()


class _Code:
    """Lines of a generated function, each assigning a new temporary."""

    def __init__(self):
        self.lines: list[str] = []

    def let(self, value: str) -> str:
        """A temporary holding value; an operand (no space) is its own name."""
        if " " not in value:
            return value
        name = f"_v{len(self.lines)}"
        self.lines.append(f"{name} = {value}")
        return name


def _sum(terms: list[str]) -> str:
    return " + ".join(terms) if terms else "0.0"


def _quadratic(a: list[list[str]], u: list[str]) -> str:
    """sum_ij a_ij u_i u_j, without the terms of constant zero entries."""
    n = len(u)
    return _sum([f"{a[i][j]} * {u[i]} * {u[j]}"
                 for i in range(n) for j in range(n) if a[i][j] != "0.0"])


def _ldl(code: _Code, a: list[list[str]]) -> tuple[list[list[str]], list[str]]:
    """(L, D) with a = L D L', L unit lower triangular (only its entries below
    the diagonal are named); a is symmetric, read on and below the diagonal."""
    n = len(a)
    l = [[""] * n for _ in range(n)]
    ld = [[""] * n for _ in range(n)]  # L_ij D_j
    d = [""] * n
    for j in range(n):
        d[j] = code.let(" - ".join([a[j][j]] + [f"{ld[j][k]} * {l[j][k]}" for k in range(j)]))
        for i in range(j + 1, n):
            ld[i][j] = code.let(
                " - ".join([a[i][j]] + [f"{ld[i][k]} * {l[j][k]}" for k in range(j)])
            )
            l[i][j] = code.let(f"{ld[i][j]} / {d[j]}")
    return l, d


def _solve(code: _Code, l: list[list[str]], d: list[str], b: list[str]) -> list[str]:
    """x with L D L' x = b."""
    n = len(b)
    y = [""] * n
    for i in range(n):
        y[i] = code.let(" - ".join([b[i]] + [f"{l[i][k]} * {y[k]}" for k in range(i)]))
    x = [""] * n
    for i in reversed(range(n)):
        x[i] = code.let(
            " - ".join([f"{y[i]} / {d[i]}"] + [f"{l[k][i]} * {x[k]}" for k in range(i + 1, n)])
        )
    return x


def shaped_law(sys: MechSystem, design: ShapedDesign, kv: np.ndarray) -> Callable:
    """The shaped law as one generated function ``law(q, p, g, c)`` of
    Python floats: (qdot, pdot) of the damped Hamiltonian flow of the design
    plus the gyroscopic force, or None where M or Mhat is not finite and
    positive definite, or where evaluating them, dMhat, dVhat or the C table
    raises.

    It evaluates pair_trees by the pair function's statements, so bitwise to
    its values; tests M and Mhat by one lowest_eigenvalue of their (2, n, n)
    stack, as MatchPoint does; then, unrolled for n, factors both as L D L',
    solves for uhat = Mhat^-1 p, M^-1 dHd/dq and M^-1 p, and contracts dMhat
    and C with uhat and G Kv G' with it.  ``g`` is G(q), and ``c`` the C
    values for a design without a C table (None with one).  A pivot that
    rounds to zero raises ZeroDivisionError.
    """
    n, m = sys.n, sys.m
    reads, body, values = straight_line(pair_trees(sys, design))
    mats, dmhat, dvhat, c = PairValues(*values)
    if c is None:
        c = [[[f"_c[{i}][{j}][{k}]" for k in range(n)] for j in range(n)] for i in range(n)]
    # the non-constant entries: a parsed constant is finite
    lower = dict.fromkeys(
        a[i][j] for a in mats for i in range(n) for j in range(i + 1) if a[i][j][0] == "_"
    )
    stack = str(mats).replace("'", "")  # the operands as a nested list
    p = [f"_p{i}" for i in range(n)]
    g = [[f"_g[{i}][{a}]" for a in range(m)] for i in range(n)]

    code = _Code()
    m_factors, mhat_factors = _ldl(code, mats[0]), _ldl(code, mats[1])
    uhat = _solve(code, *mhat_factors, p)
    # dHd/dq_k = dVhat_k - uhat' dMhat_k uhat / 2
    grad = [code.let(f"{dvhat[k]} - 0.5 * ({_quadratic(dmhat[k], uhat)})") for k in range(n)]
    minv_grad = _solve(code, *m_factors, grad)
    qdot = _solve(code, *m_factors, p)
    gu = [code.let(_sum([f"{g[i][a]} * {uhat[i]}" for i in range(n)])) for a in range(m)]
    gain = [[f"({float(v)!r})" for v in row] for row in kv]
    kgu = [code.let(_sum([f"{gain[a][b]} * {gu[b]}" for b in range(m)])) for a in range(m)]
    pdot = [
        code.let(
            f"{_quadratic([[c[i][j][k] for j in range(n)] for i in range(n)], uhat)}"
            f" - ({_sum([f'{mats[1][k][j]} * {minv_grad[j]}' for j in range(n)])})"
            f" - ({_sum([f'{g[k][a]} * {kgu[a]}' for a in range(m)])})"
        )
        for k in range(n)
    ]
    lines = ["def _law(_q, _p, _g, _c):"] + [f"    {read}" for read in reads]
    lines += ["    try:"] + [f"        {line}" for line in body or ["pass"]]
    lines += [
        "    except (ArithmeticError, ValueError):",
        "        return None",
        f"    if not ({' and '.join(f'_isfinite({v})' for v in lower) or 'True'}):",
        "        return None",
        f"    _low = _lowest(_array({stack})).tolist()",
        "    if not (_low[0] > 0.0 and _low[1] > 0.0):",
        "        return None",
        f"    {', '.join(p)}, = _p.tolist()",
        "    _g = _g.tolist()",
    ]
    if design.C is None:
        lines.append("    _c = _c.tolist()")
    lines += [f"    {line}" for line in code.lines]
    lines.append(f"    return _array([{', '.join(qdot)}]), _array([{', '.join(pdot)}])")
    namespace = {
        **SCALAR_NAMES, "_isfinite": math.isfinite, "_lowest": lowest_eigenvalue,
        "_array": np.array,
    }
    exec(compile("\n".join(lines), "<shaped law>", "exec"), namespace)
    return namespace["_law"]


def _shaped_law(
    ctrl: Controller, point: MatchPoint, p: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(qdot, pdot) of the shaped dynamics at (point.q, p) from ctrl.law.
    Where the law takes no value, MatchPoint's reads raise what fails, in
    the order frame, pair, Mhat's PD test, dVhat, C; an Mhat that passes the
    test but that LAPACK's LU finds singular raises after the test
    (LinAlgError, "Singular matrix"), as the numpy law's solve did."""
    g, derived = point.frame.g, ctrl.design.C is None
    if derived:
        point.pair  # read once, ahead of the law and of C's derivation
    try:
        field = ctrl.law(point.q, p, g, point.gyro() if derived else None)
    except POINT_ERRORS as exc:
        field = exc
    if type(field) is tuple:
        return field
    point.pair
    if defect := point.shaped_mass_defect():
        raise SystemError(f"shaped mass {defect} at q={q_text(point.q)}")
    linalg.solve(point.pair.mhat, p)
    point.dvhat
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
