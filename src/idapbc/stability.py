"""Stabilizability tests for the linearized system and shaped-energy minimum checks.

The verdict logic: exponential stabilizability iff the linearization is
controllable; Lyapunov-only stabilizability iff the uncontrollable dynamics
are oscillatory (diagonalizable with nonzero purely imaginary eigenvalues);
otherwise not stabilizable by this construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import linalg
from .expr import ExprError
from .system import MechSystem, ShapedDesign, SystemError, hessian_at, spd_defect

RANK_RTOL = 1e-9
REAL_PART_TOL = 1e-9
IMAG_PART_TOL = 1e-9
EIGVEC_COND_MAX = 1e8
GRAD_TOL = 1e-10
MIN_EIG_TOL = 1e-9

EXPONENTIAL = "ExponentiallyStabilizable"
LYAPUNOV_ONLY = "LyapunovStabilizableOnly"
NOT_STABILIZABLE = "NotStabilizable"


@dataclass(frozen=True, eq=False)
class Linearization:
    """Linearized dynamics at the origin: x = (q, p), xdot = alin x + blin u."""

    alin: np.ndarray
    blin: np.ndarray
    mlin: np.ndarray
    hess: np.ndarray

    def __post_init__(self):
        n = self.mlin.shape[0]
        if self.alin.shape != (2 * n, 2 * n) or self.blin.shape[0] != 2 * n:
            raise SystemError("linearization block shapes inconsistent")
        minv = linalg.inv(self.mlin)
        ok = (
            np.allclose(self.alin[:n, :n], 0.0, atol=1e-12)
            and np.allclose(self.alin[n:, n:], 0.0, atol=1e-12)
            and np.allclose(self.alin[:n, n:], minv, atol=1e-10)
            and np.allclose(self.alin[n:, :n], -self.hess, atol=1e-10)
            and np.allclose(self.blin[:n, :], 0.0, atol=1e-12)
        )
        if not ok:
            raise SystemError("linearization lacks the Hamiltonian block structure")

    @property
    def n(self) -> int:
        return self.mlin.shape[0]

    @property
    def m(self) -> int:
        return self.blin.shape[1]

    @property
    def g0(self) -> np.ndarray:
        return self.blin[self.n :, :].copy()


@dataclass(frozen=True)
class StabilizabilityReport:
    controllable: bool
    kalman_rank: int
    uncontrollable_eigs: tuple
    oscillatory: bool
    verdict: str
    note: str = (
        "linearization criterion applied as stated; integrability of the "
        "input distribution is not assumed"
    )

    def to_dict(self) -> dict:
        return {
            "controllable": self.controllable,
            "kalman_rank": self.kalman_rank,
            "uncontrollable_eigs": [
                {"re": z.real, "im": z.imag} for z in self.uncontrollable_eigs
            ],
            "oscillatory": self.oscillatory,
            "verdict": self.verdict,
            "note": self.note,
        }


def linearize(sys: MechSystem) -> Linearization:
    """Linearization at the origin equilibrium."""
    n = sys.n
    origin = np.zeros(n)
    m0 = sys.mass_matrix(origin)
    hess = hessian_at(sys.V, n, origin)
    g0 = sys.input_matrix(origin)
    alin = np.zeros((2 * n, 2 * n))
    alin[:n, n:] = linalg.inv(m0)
    alin[n:, :n] = -hess
    blin = np.vstack([np.zeros((n, sys.m)), g0])
    return Linearization(alin, blin, m0, hess)


def _staircase(lin: Linearization, rtol: float) -> tuple[int, list[complex], bool]:
    """Controllable-subspace dimension, uncontrollable modes, oscillatory flag.

    Orthogonal staircase (Paige, IEEE TAC 26(1), 1981): each step keeps the
    singular directions of the newest block (B, then A times the directions
    added last) projected onto the rest of Q, above rtol times |B| or |A|;
    the modes are those of A on the complement of the first r columns.
    """
    a, b = lin.alin, lin.blin
    q, r = np.eye(a.shape[0]), 0
    block, scale = b, np.linalg.norm(b, 2)
    while r < a.shape[0]:
        u, sv, _ = linalg.svd(q[:, r:].T @ block)
        k = int(np.count_nonzero(sv > rtol * scale))
        if k == 0:
            break
        q[:, r:] = q[:, r:] @ u
        block, scale, r = a @ q[:, r : r + k], np.linalg.norm(a, 2), r + k
    if r == a.shape[0]:
        return r, [], True
    eigvals, eigvecs = np.linalg.eig(q[:, r:].T @ a @ q[:, r:])
    oscillatory = (
        np.linalg.cond(eigvecs) <= EIGVEC_COND_MAX
        and bool(np.all(np.abs(eigvals.real) <= REAL_PART_TOL))
        and bool(np.all(np.abs(eigvals.imag) >= IMAG_PART_TOL))
    )
    return r, list(eigvals), oscillatory


def controllability(lin: Linearization, rtol: float = RANK_RTOL) -> tuple[int, bool]:
    """Controllable-subspace dimension; controllable iff it is 2n."""
    r = _staircase(lin, rtol)[0]
    return r, r == 2 * lin.n


def uncontrollable_modes(
    lin: Linearization, rtol: float = RANK_RTOL
) -> tuple[list[complex], bool]:
    """Eigenvalues of the uncontrollable block (the dynamics on the orthogonal
    complement of the controllable subspace) and whether they are oscillatory."""
    return _staircase(lin, rtol)[1:]


def classify(lin: Linearization) -> StabilizabilityReport:
    rank, eigs, oscillatory = _staircase(lin, RANK_RTOL)
    controllable = rank == 2 * lin.n
    if controllable:
        v = EXPONENTIAL
    elif oscillatory:
        v = LYAPUNOV_ONLY
    else:
        v = NOT_STABILIZABLE
    return StabilizabilityReport(controllable, rank, tuple(eigs), oscillatory, v)


def verdict(sys: MechSystem) -> StabilizabilityReport:
    return classify(linearize(sys))


@dataclass(frozen=True)
class MinimumCheckReport:
    """Result of checking that the shaped energy has a strict minimum at 0."""

    passed: bool
    grad_norm: Optional[float] = None
    hessian_eigs: Optional[tuple] = None
    mhat_min_eig: Optional[float] = None
    failures: tuple = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "grad_norm": self.grad_norm,
            "hessian_eigs": list(self.hessian_eigs)
            if self.hessian_eigs is not None
            else None,
            "mhat_min_eig": self.mhat_min_eig,
            "failures": list(self.failures),
        }


def minimum_check(design: ShapedDesign) -> MinimumCheckReport:
    """Check gradient, Hessian positivity of the shaped potential, and M̂(0) > 0.

    Evaluation failures (for example a shaped mass entry with a vanishing
    denominator at the origin) are reported as failures, not raised.
    """
    n = len(design.vars)
    origin = np.zeros(n)
    failures = []
    grad_norm = None
    hess_eigs = None
    mhat_min = None

    try:
        g = design.shaped_potential_gradient(origin)
        grad_norm = float(np.linalg.norm(g))
        if grad_norm > GRAD_TOL:
            failures.append(f"shaped potential gradient at 0 has norm {grad_norm:.3e}")
    except (ArithmeticError, ExprError) as exc:
        failures.append(f"shaped potential gradient undefined at 0: {exc}")

    try:
        hess = hessian_at(design.Vhat, n, origin)
        eigs = linalg.eigvalsh(hess)
        hess_eigs = tuple(float(e) for e in eigs)
        if eigs[0] < MIN_EIG_TOL:
            failures.append(
                f"shaped potential Hessian at 0 has min eigenvalue {eigs[0]:.3e}"
            )
    except (ArithmeticError, ExprError) as exc:
        failures.append(f"shaped potential Hessian undefined at 0: {exc}")

    try:
        mhat0 = design.Mhat(origin)
        defect = spd_defect(mhat0)
        if defect is None:
            mhat_min = float(linalg.eigvalsh(mhat0)[0])
            if mhat_min < MIN_EIG_TOL:
                defect = f"has min eigenvalue {mhat_min:.3e}"
        if defect is not None:
            failures.append(f"shaped mass at 0 {defect}")
    except (ArithmeticError, ExprError) as exc:
        failures.append(f"shaped mass undefined at 0: {exc}")

    return MinimumCheckReport(
        passed=not failures,
        grad_norm=grad_norm,
        hessian_eigs=hess_eigs,
        mhat_min_eig=mhat_min,
        failures=tuple(failures),
    )
