"""Output gates: decide, per operation, whether the program's output is right.

The functions here take parsed outputs (arrays and dicts), not files, so
that ``test_gates.py`` can hand them corrupted outputs directly.  Every
function returns failures as counts or per-operation flags; the caller adds
them to the run's ``failed`` total.

The reference for the gyroscopic tensor is the closed-form table of the
cart-pendulum design, evaluated here with numpy from the formulas, not
with the program's own evaluator, so a wrong ``c_table_at`` or a wrong
``GyroField.at`` cannot agree with itself.
"""
from __future__ import annotations

import math

import numpy as np

C_TOL = 1e-9
ENERGY_INCREASE_TOL = 1e-8
TICK_DEVIATION_TOL = 1e-9


def pendulum_cart_c(points: np.ndarray, eps: float, K: float) -> np.ndarray:
    """Closed-form C of the pendulum_cart design, shape (N, 2, 2, 2).

    M = [[1, cos q1], [cos q1, 2]] and
    Mhat = [[a, b], [b, K + b^2/a]] with a = 2 cos^2 q1 - eps,
    b = (4 - eps) cos q1.  Both depend on q1 only, so every derivative is
    d/dq1.  With Minv = M^-1 the two scalar combinations are
    s_col = -(Mhat_1r Minv_r1 d1 Mhat_{2,col} + d1 Minv_rs Mhat_{r,col} Mhat_s2) / 2
    and C = [[[0, -2 s1], [s1, -s2/2]], [[s1, -s2/2], [s2, 0]]].
    """
    q1 = np.asarray(points, dtype=float)[:, 0]
    c, s = np.cos(q1), np.sin(q1)
    zero, one = np.zeros_like(q1), np.ones_like(q1)
    det = 2.0 - c * c
    adj = np.array([[2.0 * one, -c], [-c, one]])
    minv = adj / det
    # d1 Minv = (d1 adj * det - adj * d1 det) / det^2
    dminv = (np.array([[zero, s], [s, zero]]) * det - adj * (2.0 * c * s)) / det**2
    a = 2.0 * c * c - eps
    b = (4.0 - eps) * c
    mhat = np.array([[a, b], [b, K + b * b / a]])
    # d1 Mhat_21 and d1 Mhat_22
    dmhat_row2 = [-(4.0 - eps) * s, (4.0 - eps) ** 2 * 2.0 * eps * c * s / (a * a)]

    def s_value(col: int) -> np.ndarray:
        first = sum(mhat[0, r] * minv[r, 0] * dmhat_row2[col] for r in range(2))
        second = sum(
            dminv[r, t] * mhat[r, col] * mhat[t, 1] for r in range(2) for t in range(2)
        )
        return -0.5 * (first + second)

    s1, s2 = s_value(0), s_value(1)
    out = np.empty((len(q1), 2, 2, 2))
    out[:, 0, 0, 0], out[:, 0, 0, 1] = zero, -2.0 * s1
    out[:, 0, 1, 0], out[:, 0, 1, 1] = s1, -0.5 * s2
    out[:, 1, 0, 0], out[:, 1, 0, 1] = s1, -0.5 * s2
    out[:, 1, 1, 0], out[:, 1, 1, 1] = s2, zero
    return out


def grid_point_failures(
    points: np.ndarray,
    potential_res: np.ndarray,
    kinetic_res: np.ndarray,
    pd_box: dict,
    axis_names: list[str],
    tolerance: float,
    sample_points: np.ndarray,
    sample_values: np.ndarray,
    eps: float,
    K: float,
) -> np.ndarray:
    """Per grid point: True where the point failed.

    A point fails when any residual is NaN, when it lies in the PD box and
    a residual exceeds the tolerance, or when its sampled C is missing or
    differs from the closed-form table by more than ``C_TOL``.
    """
    points = np.asarray(points, dtype=float)
    res = np.hstack([np.asarray(potential_res, float), np.asarray(kinetic_res, float)])
    failed = ~np.all(np.isfinite(res), axis=1)
    radii = np.array([pd_box[name] for name in axis_names])
    in_box = np.all(np.abs(points) <= radii + 1e-12, axis=1)
    with np.errstate(invalid="ignore"):
        failed |= in_box & np.any(np.abs(res) > tolerance, axis=1)
    sample_points = np.asarray(sample_points, dtype=float).reshape(-1, points.shape[1])
    sample_values = np.asarray(sample_values, dtype=float)
    index = {tuple(p): i for i, p in enumerate(points.tolist())}
    sampled = np.zeros(len(points), dtype=bool)
    if len(sample_points):
        ref = pendulum_cart_c(sample_points, eps, K)
        err = np.abs(sample_values - ref).reshape(len(sample_points), -1).max(axis=1)
        for p, e in zip(sample_points.tolist(), err):
            i = index.get(tuple(p))
            if i is None:
                continue
            sampled[i] = True
            if not e <= C_TOL:
                failed[i] = True
    return failed | ~sampled


def simulate_failures(returncode: int, metrics: dict | None) -> list[str]:
    """Reasons one ``simulate`` invocation failed; empty when it passed."""
    reasons = []
    if returncode != 0:
        reasons.append(f"exit code {returncode}")
    if metrics is None:
        return reasons + ["no metrics.json"]
    if metrics.get("diverged", True):
        reasons.append("diverged")
    if metrics.get("passed") is not True:
        reasons.append("passed is not true")
    increase = metrics.get("max_energy_increase", math.nan)
    if not increase <= ENERGY_INCREASE_TOL:
        reasons.append(f"max_energy_increase {increase!r}")
    rate = metrics.get("fitted_rate", math.nan)
    if not rate < 0.0:
        reasons.append(f"fitted_rate {rate!r}")
    return reasons


def tick_failures(raised: np.ndarray, deviations: dict[int, float]) -> np.ndarray:
    """Per tick: True where ``feedback`` raised or a checked tick deviated.

    ``deviations`` maps a checked tick to max |open_loop_field(q, p, u) -
    closed_loop_field(ctrl, q, p)| over both halves of the state.
    """
    failed = np.asarray(raised, dtype=bool).copy()
    for tick, dev in deviations.items():
        if not dev <= TICK_DEVIATION_TOL:
            failed[tick] = True
    return failed
