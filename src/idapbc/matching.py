"""Matching residuals, gyroscopic-tensor derivation, and degree-one solvers.

The kinetic matching condition is checked in its reduced form: the cyclic
sum of the T tensor restricted to the annihilator must vanish.  When it
does, the gyroscopic tensor C is constructed algebraically per point.  Two
solvers cover underactuation degree one: a certificate for the linearized
potential matching condition and a characteristics integrator for the
single quasi-linear kinetic PDE.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from . import linalg
from .expr import Expr, ExprError, compile_expr, parse
from .stability import NOT_STABILIZABLE, Linearization, classify
from .system import (
    InputFrame,
    MechSystem,
    ShapedDesign,
    SystemError,
    full_rank,
    identity_where,
    input_frame,
    lowest_eigenvalue,
    q_text,
    spd_defect,
    split_basis,
    symmetric,
)
from .tensor import (
    GyroMap,
    GyroTensor,
    Tensor3,
    TensorError,
    cyclic_sum,
    derivation_failed,
    finite_rows,
    gyro_defect,
    index_triples,
    precondition_defect,
    random_spd,
    rotate,
)
from .writer import write_table

RESIDUAL_TOL = 1e-8
LINEAR_MATCH_RESIDUAL_TOL = 1e-9
LINEAR_MATCH_MIN_EIG = 1e-6
CHARACTERISTIC_RTOL = 1e-11
CHARACTERISTIC_ATOL = 1e-13


class MatchingError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class MatchTensors:
    """Pointwise values a[i, j, k] = A^{ij}_k and t[i, j, k] = T_ijk."""

    a: np.ndarray
    t: Tensor3

    def __post_init__(self):
        a = np.array(self.a, dtype=float)
        for name, e in (("A", a), ("T", self.t.entries)):
            if not symmetric(np.moveaxis(e, -1, 0)).all():
                raise MatchingError(f"{name} must be symmetric in its first index pair")
        a.setflags(write=False)
        object.__setattr__(self, "a", a)


# The per-point formulas below take arrays with any leading axes: MatchPoint
# calls them on one point, MatchRows once on a stack of points.

def _symmetrized_inverse(m: np.ndarray) -> np.ndarray:
    inv = linalg.inv(m)
    return (inv + inv.swapaxes(-1, -2)) / 2.0


def _inverse_derivatives(minv: np.ndarray, dm: np.ndarray) -> np.ndarray:
    """d(M^-1)/dq^k stacked over k from dM/dq^k.

    The result is symmetrized: each slice is symmetric exactly, and keeping
    it bitwise symmetric preserves the index symmetries of the tensors
    assembled from it.
    """
    out = -np.einsum("...ij,...kjl,...lm->...kim", minv, dm, minv)
    return (out + out.swapaxes(-1, -2)) / 2.0


class MetricPair(NamedTuple):
    """M^-1 (the one, symmetrized, inverse of M), Mhat and dMhat at a q."""

    minv: np.ndarray
    mhat: np.ndarray
    dmhat: np.ndarray


def t_entries(pair: MetricPair, dm: np.ndarray) -> np.ndarray:
    """T_ijk from the metric pair and dM; requires no inversion of the shaped
    mass."""
    minv, mhat, dmhat = pair
    dminv = _inverse_derivatives(minv, dm)
    first = -0.5 * np.einsum("...kl,...lt,...tij->...ijk", mhat, minv, dmhat)
    second = -0.5 * np.einsum("...krs,...ri,...sj->...ijk", dminv, mhat, mhat)
    return first + second


def potential_defect(
    w: np.ndarray, pair: MetricPair, dv: np.ndarray, dvhat: np.ndarray
) -> np.ndarray:
    """W (dV - Mhat M^-1 dVhat); on a stack, dV and dVhat are columns (..., n, 1)."""
    minv, mhat, _ = pair
    return w @ (dv - mhat @ minv @ dvhat)


def cyclic_defects(tp: np.ndarray) -> np.ndarray:
    """Cyclic sums of tp over its index triples a <= b <= c."""
    cyc = cyclic_sum(tp)
    return cyc.reshape(cyc.shape[:-3] + (-1,)).take(index_triples(tp.shape[-1]), axis=-1)


def _adapted_basis(w: np.ndarray, range_basis: np.ndarray) -> np.ndarray:
    """The rows [W; U'], an orthonormal basis adapted to the split by G."""
    return np.concatenate([w, range_basis.swapaxes(-1, -2)], axis=-2)


@cache
def _adapted_map(n: int, d: int) -> GyroMap:
    """The GyroMap for n coordinates, d of them unactuated."""
    return GyroMap(n, d)


def _derive(
    sys: MechSystem, frame: InputFrame, t: np.ndarray
) -> tuple[GyroMap, np.ndarray]:
    """The GyroMap for T at a point with this input frame, and its output for
    T.  For a constant G it is one product with the map's fold of the kept
    frame, which the system keeps from the first derivation."""
    gmap = _adapted_map(sys.n, sys.n - sys.m)
    if not sys.g_constant:
        return gmap, gmap.apply(t, _adapted_basis(frame.annihilator, frame.range_basis))
    if sys.kept_fold is None:
        sys.kept_fold = gmap.fold(_adapted_basis(frame.annihilator, frame.range_basis))
    return gmap, t.reshape(-1) @ sys.kept_fold


def a_tensor(sys: MechSystem, design: ShapedDesign, q: Sequence[float]) -> np.ndarray:
    """A^{ij}_k built from the metric pair and their inverse derivatives."""
    point = MatchPoint(sys, design, q)
    (minv, mhat, dmhat), dm = point.pair, point.dm
    try:
        mhat_inv = _symmetrized_inverse(mhat)
    except np.linalg.LinAlgError as exc:
        raise MatchingError(f"shaped mass singular at q={q_text(q)}: {exc}") from exc
    dminv = _inverse_derivatives(minv, dm)
    dmhat_inv = _inverse_derivatives(mhat_inv, dmhat)
    first = 0.5 * np.einsum("kl,lr,rij->ijk", mhat, minv, dmhat_inv)
    return first - 0.5 * dminv.transpose(1, 2, 0)


def t_tensor(sys: MechSystem, design: ShapedDesign, q: Sequence[float]) -> Tensor3:
    """T_ijk; requires no inversion of the shaped mass."""
    return MatchPoint(sys, design, q).t


def match_tensors(sys: MechSystem, design: ShapedDesign, q: Sequence[float]) -> MatchTensors:
    return MatchTensors(a_tensor(sys, design, q), t_tensor(sys, design, q))


def potential_residual(
    sys: MechSystem, design: ShapedDesign, q: Sequence[float]
) -> np.ndarray:
    """Annihilator projection of the potential matching defect."""
    return MatchPoint(sys, design, q).potential()


class _Kept(cached_property):
    """cached_property without the lock Python 3.11 takes on each first read."""

    def __get__(self, point, owner=None):
        if point is None:
            return self
        value = point.__dict__[self.attrname] = self.func(point)
        return value


class MatchPoint:
    """The input frame, metric pair, dM, dV, dVhat, T and T's derivation at
    one q, each evaluated on first read and kept.  Readers take the frame
    first, so a rank-deficient G is reported ahead of a failing metric."""

    def __init__(self, sys: MechSystem, design: ShapedDesign, q: Sequence[float]):
        self.sys, self.design, self.q = sys, design, q

    @_Kept
    def frame(self) -> InputFrame:
        return self.sys.frame(self.q)

    @_Kept
    def pair(self) -> MetricPair:
        return MetricPair(
            _symmetrized_inverse(self.sys.mass_matrix(self.q)),
            self.design.shaped_mass(self.q),
            self.design.shaped_mass_derivatives(self.q),
        )

    @_Kept
    def dm(self) -> np.ndarray:
        return self.sys.mass_derivatives(self.q)

    @_Kept
    def dv(self) -> np.ndarray:
        return self.sys.potential_gradient(self.q)

    @_Kept
    def dvhat(self) -> np.ndarray:
        return self.design.shaped_potential_gradient(self.q)

    @_Kept
    def t(self) -> Tensor3:
        return Tensor3(t_entries(self.pair, self.dm))

    @_Kept
    def derivation(self) -> tuple[GyroMap, np.ndarray]:
        """The GyroMap at the point and its output for T: one product for a
        constant G."""
        return _derive(self.sys, self.frame, self.t.entries)

    def potential(self) -> np.ndarray:
        """W (dV - Mhat M^-1 dVhat)."""
        return potential_defect(self.frame.annihilator, self.pair, self.dv, self.dvhat)

    def kinetic(self, w: Optional[np.ndarray] = None) -> np.ndarray:
        """Cyclic sums of T(w_a, w_b, w_c) over rows a <= b <= c of w (default W)."""
        if w is None:
            gmap, y = self.derivation
            return y[gmap.kinetic]
        return cyclic_defects(rotate(self.t.entries, w))

    def residual(self) -> float:
        """Largest matching-condition violation at the point."""
        defects = np.concatenate([self.potential(), self.kinetic()])
        return float(np.max(np.abs(defects), initial=0.0))

    def gyro(self) -> GyroTensor:
        """T rotated into the adapted basis [W; U'], extended to a gyroscopic
        tensor there, and rotated back; independent of the basis choice within
        each subspace.  Raises what extend_to_gyro (as a MatchingError) and
        GyroTensor would, from the peaks of the derivation's blocks."""
        gmap, y = self.derivation
        peaks = gmap.peaks(y).tolist()
        if defect := precondition_defect(*peaks[:3]) or gyro_defect(*peaks[3:6]):
            raise MatchingError(
                f"cannot extend to a gyroscopic tensor at q={q_text(self.q)}: {defect}"
            ) from TensorError(defect)
        if defect := gyro_defect(*peaks[6:]):
            raise TensorError(defect)
        return GyroTensor.derived(y[gmap.c].reshape((self.sys.n,) * 3))


class MatchRows:
    """MatchPoint's potential and kinetic defects, Mhat PD test and gyroscopic
    tensor at each row of an (N, n) stack of points, each evaluated once for
    the whole stack by MatchPoint's formulas.

    ``failed`` flags each row where MatchPoint would raise, or where the
    evaluator flags a value (see compile_expr); such rows hold placeholders
    and callers take them from MatchPoint.  ``gyro_failed`` adds the rows
    where MatchPoint.gyro raises.  Flagged matrices are replaced by the
    identity before each stacked linalg call.  Only the results are kept.
    """

    def __init__(self, sys: MechSystem, design: ShapedDesign, points: np.ndarray):
        self.sys, self.design = sys, design
        self.points = points = np.asarray(points, dtype=float)
        self.failed = failed = np.zeros(len(points), dtype=bool)

        def rows(batch):
            values, flagged = batch(points)
            np.logical_or(failed, flagged, out=failed)
            return values

        # the order of MatchPoint's reads: frame, pair, dM, dV, dVhat, T
        u, s, _ = linalg.svd(identity_where(rows(sys.G.batch), failed))
        failed |= ~full_rank(s, sys.n)  # m <= n for a MechSystem
        range_basis, w = split_basis(u, sys.m)
        m = identity_where(rows(sys.M.batch), failed)
        failed |= ~(lowest_eigenvalue(m) > 0.0)  # mass_matrix raises
        minv = _symmetrized_inverse(identity_where(m, failed))
        pair = MetricPair(minv, rows(design.Mhat.batch), rows(design.dmhat_batch))
        dm = rows(sys.dm_batch)
        dv, dvhat = rows(sys.dv_batch), rows(design.dvhat_batch)
        with np.errstate(all="ignore"):
            self.potential = potential_defect(w, pair, dv[..., None], dvhat[..., None])[..., 0]
            # in C order, as Tensor3 copies it: einsum sums in layout order
            t = np.ascontiguousarray(t_entries(pair, dm))
        failed |= ~finite_rows(t)  # Tensor3 raises
        # spd_defect's test; the rows ``failed`` leaves are finite
        mhat = identity_where(pair.mhat, failed)
        self.pd = symmetric(mhat) & (lowest_eigenvalue(mhat) > 0.0)
        # apply, not the fold: the frame varies from row to row
        gmap = _adapted_map(sys.n, sys.n - sys.m)
        with np.errstate(all="ignore"):
            y = gmap.apply(t, _adapted_basis(w, range_basis))
        self.kinetic = y[:, gmap.kinetic]
        self.c = y[:, gmap.c].reshape((-1,) + (sys.n,) * 3).copy()
        self.gyro_failed = failed | derivation_failed(gmap.peaks(y, out=y))

    def gyro(self, select=slice(None)) -> np.ndarray:
        """MatchPoint.gyro's entries at each selected row, those of the rows
        in ``gyro_failed`` taken from GyroField.at, which raises at the
        first point it raises at."""
        c, points = self.c[select].copy(), self.points[select]
        at = GyroField(self.sys, self.design).at
        for i in np.flatnonzero(self.gyro_failed[select]):
            c[i] = at(points[i]).entries
        return c


def kinetic_residual(
    sys: MechSystem,
    design: ShapedDesign,
    q: Sequence[float],
    w: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Cyclic sums of T over unordered triples of annihilator rows.

    Passing ``w`` overrides the computed annihilator basis (rows must be
    orthonormal and span the same space for the result to be meaningful).
    """
    return MatchPoint(sys, design, q).kinetic(w)


def pde_counts(n: int, m: int) -> tuple[int, int]:
    """Naive and reduced kinetic PDE counts for n coordinates, m actuators."""
    if not 1 <= m <= n:
        raise MatchingError(f"require 1 <= m <= n, got n={n}, m={m}")
    d = n - m
    return n * (n + 1) * d // 2, (d + 2) * (d + 1) * d // 6


class GyroField:
    """Per-point gyroscopic tensor derived from a verified design."""

    def __init__(self, sys: MechSystem, design: ShapedDesign):
        self.sys = sys
        self.design = design

    def at(self, q: Sequence[float]) -> GyroTensor:
        return MatchPoint(self.sys, self.design, q).gyro()

    def sample(self, points: np.ndarray) -> np.ndarray:
        """``at(q).entries`` for each row q of an (N, n) stack, in one batched
        pass (see MatchRows.gyro)."""
        return MatchRows(self.sys, self.design, points).gyro()


def derive_gyro(sys: MechSystem, design: ShapedDesign) -> GyroField:
    return GyroField(sys, design)


@dataclass(frozen=True, eq=False)
class LinearMatch:
    """Constant PD pair certifying the linearized potential matching."""

    mbar: np.ndarray
    sbar: np.ndarray

    def __post_init__(self):
        for name, arr in (("mbar", self.mbar), ("sbar", self.sbar)):
            a = np.array(arr, dtype=float)
            if defect := spd_defect(a):
                raise MatchingError(f"{name} {defect}")
            a.setflags(write=False)
            object.__setattr__(self, name, a)


def linear_match_residual(lm: LinearMatch, lin: Linearization) -> float:
    """Max entry of the annihilator-projected linear matching defect."""
    w = input_frame(lin.g0, np.zeros(lin.n)).annihilator
    res = w @ (lm.mbar @ linalg.inv(lin.mlin) @ lm.sbar - lin.hess)
    return float(np.max(np.abs(res))) if res.size else 0.0


def _pd_completion(r: np.ndarray, b: np.ndarray) -> Optional[np.ndarray]:
    """Symmetric PD matrix X with r X = b, or None when r.b <= 0."""
    rb = float(r @ b)
    if rb <= 1e-12 * (np.linalg.norm(r) * np.linalg.norm(b) + 1e-300):
        return None
    proj = np.eye(r.size) - np.outer(r, r) / float(r @ r)
    scale = float(b @ b) / rb
    return np.outer(b, b) / rb + scale * proj


def solve_linear_matching(lin: Linearization, seed: int = 0) -> LinearMatch:
    """Certificate (Mbar, Sbar) for the linearized matching condition.

    Only underactuation degree one is supported (degree zero is trivial).
    The pair is built in closed form from the annihilator direction and
    checked a posteriori; a seeded random search is the fallback.
    """
    n, m = lin.n, lin.m
    if m == n:
        return LinearMatch(np.eye(n), np.eye(n))
    if n - m != 1:
        raise MatchingError(
            f"underactuation degree {n - m} is out of scope (supported: 0 and 1)"
        )
    report = classify(lin)
    if report.verdict == NOT_STABILIZABLE:
        eigs = ", ".join(f"{z:.4g}" for z in report.uncontrollable_eigs)
        raise MatchingError(
            "no linear matching certificate exists: verdict "
            f"{report.verdict} (uncontrollable eigenvalues: {eigs})"
        )
    w = input_frame(lin.g0, np.zeros(n)).annihilator[0]
    d = w @ lin.hess
    h = lin.mlin @ w
    minv0 = linalg.inv(lin.mlin)

    def attempt(r: np.ndarray) -> Optional[LinearMatch]:
        sbar = _pd_completion(r, d)
        mbar = _pd_completion(w, r @ lin.mlin)
        if sbar is None or mbar is None:
            return None
        lm = LinearMatch(mbar, sbar)
        ok = (
            linear_match_residual(lm, lin) <= LINEAR_MATCH_RESIDUAL_TOL
            and min(lowest_eigenvalue(np.stack([mbar, sbar]))) >= LINEAR_MATCH_MIN_EIG
        )
        return lm if ok else None

    dn, hn = np.linalg.norm(d), np.linalg.norm(h)
    if dn > 0 and hn > 0:
        lm = attempt(d / dn + h / hn)
        if lm is not None:
            return lm
    rng = np.random.default_rng(seed)
    for _ in range(500):
        mbar = random_spd(n, rng)
        lm = attempt(w @ mbar @ minv0)
        if lm is not None:
            return lm
    raise MatchingError(
        "could not construct a positive definite linear matching certificate"
    )


@dataclass(frozen=True, eq=False)
class CharacteristicsSolution:
    """Shaped-mass leading entry sampled along the unactuated coordinate.

    Values are NaN beyond a truncation point; pd_interval is the open
    interval around 0 on which the solution stayed positive.
    """

    q_values: np.ndarray
    u_values: np.ndarray
    pd_interval: tuple[float, float]
    truncated: bool
    singular_points: tuple[float, ...]


def solve_kinetic_characteristics(
    sys: MechSystem,
    ansatz: Sequence[Union[str, Expr]],
    init: Union[float, LinearMatch],
    lo: float = -1.0,
    hi: float = 1.0,
    num: int = 201,
    params: Optional[dict] = None,
) -> CharacteristicsSolution:
    """Integrate the degree-one kinetic PDE along its characteristics.

    The unknown is the leading shaped-mass entry as a function of the first
    coordinate; ``ansatz`` fixes the remaining first-row entries as
    expressions in the coordinates and the unknown (named ``u``).  The
    problem must be one-dimensional: the mass matrix and the ansatz may
    depend on the first coordinate only.
    """
    # scipy.integrate takes most of the package's import time; only this
    # solver needs it
    from scipy.integrate import solve_ivp

    n = sys.n
    if len(ansatz) != n - 1:
        raise MatchingError(f"ansatz must fix {n - 1} first-row entries")
    u0 = float(init.mbar[0, 0]) if isinstance(init, LinearMatch) else float(init)
    if u0 <= 0.0:
        raise MatchingError(
            f"initial value {u0:.6g} is not positive: no positive definite "
            "neighborhood exists"
        )
    if not (lo < 0 < hi) or num < 2:
        raise MatchingError("grid must straddle 0 with at least two points")

    for row in sys.M.entries:
        for e in row:
            if not e.variables() <= {0}:
                raise MatchingError(
                    "mass matrix must depend on the first coordinate only"
                )
    names = list(sys.vars) + ["u"]
    exprs = []
    for a in ansatz:
        e = parse(a, names, params) if isinstance(a, str) else a
        if not e.variables() <= {0, n}:
            raise MatchingError(
                "ansatz entries may depend on the first coordinate and the "
                "unknown only"
            )
        exprs.append(e)
    ansatz_fn = compile_expr(exprs)

    def pieces(q1: float, u: float):
        qvec = np.zeros(n)
        qvec[0] = q1
        x = np.append(qvec, u)
        minv = linalg.inv(sys.mass_matrix(qvec))
        c = np.concatenate(([u], ansatz_fn(x))) @ minv
        # row' dM^-1/dq1 row with dM^-1 = -M^-1 dM M^-1, as in q_gradient
        return c, -float(c @ sys.mass_derivatives(qvec)[0] @ c)

    def rhs(t, y):
        c, s = pieces(t, y[0])
        return [-s / c[0]]

    def ev_singular(t, y):
        c, _ = pieces(t, y[0])
        return c[0]

    def ev_positive(t, y):
        return y[0]

    # only a vanishing characteristic speed stops integration; losing
    # positivity is recorded but the solution continues to exist
    ev_singular.terminal = True
    ev_positive.terminal = False

    grid = np.linspace(lo, hi, num)
    values = np.full(num, np.nan)
    zero_idx = np.where(np.isclose(grid, 0.0, atol=1e-15))[0]
    values[zero_idx] = u0

    singular = []
    endpoints = {1: hi, -1: lo}
    truncated = False
    for sign in (1, -1):
        bound = hi if sign == 1 else lo
        t_eval = grid[grid > 0] if sign == 1 else grid[grid < 0][::-1]
        if t_eval.size == 0:
            continue
        sol = solve_ivp(
            rhs,
            (0.0, bound),
            [u0],
            method="DOP853",
            t_eval=t_eval,
            events=[ev_singular, ev_positive],
            rtol=CHARACTERISTIC_RTOL,
            atol=CHARACTERISTIC_ATOL,
        )
        if not sol.success and sol.status != 1:
            raise MatchingError(f"characteristic integration failed: {sol.message}")
        idx = np.searchsorted(grid, sol.t)
        values[idx] = sol.y[0]
        if sol.status == 1 and sol.t_events[0].size:
            t_star = float(sol.t_events[0][0])
            singular.append(t_star)
            endpoints[sign] = t_star
            truncated = True
        if sol.t_events[1].size:
            # first loss of positivity on this side
            endpoints[sign] = float(sol.t_events[1][0])
            truncated = True

    return CharacteristicsSolution(
        q_values=grid,
        u_values=values,
        pd_interval=(endpoints[-1], endpoints[1]),
        truncated=truncated,
        singular_points=tuple(sorted(singular)),
    )


@dataclass(frozen=True, eq=False)
class ResidualReport:
    """Potential and kinetic matching residuals over a tensor-product grid.

    Residuals are recorded everywhere they evaluate; the pass verdict is
    taken over the largest symmetric box around the origin on which both
    metrics stay positive definite, since that is the domain on which the
    design is usable.  ``failed_points`` counts the points that raised, by type.
    """

    axes: tuple
    points: np.ndarray
    potential_res: np.ndarray
    kinetic_res: np.ndarray
    pd_mask: np.ndarray
    pd_box: dict
    tolerance: float
    failed_points: dict
    # the sweep's batched pass, whose gyro() synthesize samples C from
    rows: MatchRows

    @property
    def in_box_mask(self) -> np.ndarray:
        radii = np.array([self.pd_box[name] for name, _ in self.axes])
        return np.all(np.abs(self.points) <= radii + 1e-12, axis=1)

    def _max_over(self, mask: np.ndarray) -> tuple[float, float]:
        def block_max(res):
            if res.shape[1] == 0:
                return 0.0
            vals = res[mask]
            vals = vals[np.all(np.isfinite(vals), axis=1)] if vals.size else vals
            return float(np.max(np.abs(vals))) if vals.size else float("nan")

        return block_max(self.potential_res), block_max(self.kinetic_res)

    @property
    def max_abs(self) -> tuple[float, float]:
        return self._max_over(np.ones(len(self.points), dtype=bool))

    @property
    def max_abs_pd(self) -> tuple[float, float]:
        return self._max_over(self.in_box_mask)

    @property
    def passed(self) -> bool:
        if not np.any(self.in_box_mask & self.pd_mask):
            return False
        pot, kin = self.max_abs_pd
        return bool(
            np.isfinite(pot) and np.isfinite(kin)
            and pot <= self.tolerance and kin <= self.tolerance
        )

    def worst_point(self) -> dict:
        stacked = np.hstack([np.abs(self.potential_res), np.abs(self.kinetic_res)])
        if stacked.shape[1] == 0:
            return {"point": None, "potential": [], "kinetic": []}
        flat = np.where(np.isfinite(stacked), stacked, -np.inf).max(axis=1)
        i = int(np.argmax(flat))
        return {
            "point": [float(v) for v in self.points[i]],
            "potential": [float(v) for v in self.potential_res[i]],
            "kinetic": [float(v) for v in self.kinetic_res[i]],
        }

    def to_summary_dict(self) -> dict:
        pot, kin = self.max_abs
        pot_pd, kin_pd = self.max_abs_pd
        return {
            "grid": {
                name: {
                    "lo": float(vals[0]),
                    "hi": float(vals[-1]),
                    "count": int(len(vals)),
                }
                for name, vals in self.axes
            },
            "tolerance": self.tolerance,
            "max_abs": {"potential": pot, "kinetic": kin},
            "max_abs_pd_domain": {"potential": pot_pd, "kinetic": kin_pd},
            "pd_box": {k: float(v) for k, v in self.pd_box.items()},
            "passed": self.passed,
            "worst": self.worst_point(),
            "failed_points": dict(self.failed_points),
        }

    def write_csv(self, path) -> None:
        names = [name for name, _ in self.axes]
        pot_cols = [f"potential_res_{i + 1}" for i in range(self.potential_res.shape[1])]
        kin_cols = [f"kinetic_res_{i + 1}" for i in range(self.kinetic_res.shape[1])]
        write_table(
            path,
            names + pot_cols + kin_cols + ["pd"],
            np.column_stack(
                [self.points, self.potential_res, self.kinetic_res, self.pd_mask]
            ),
        )


def _pd_box(axes, pd_grid: np.ndarray) -> dict:
    """Largest symmetric box around 0 (per axis, on grid values) staying PD.

    Axes are grown one grid ring at a time in round-robin order until no
    axis can extend without including a non-PD point.
    """
    names = [name for name, _ in axes]
    values = [np.asarray(v, dtype=float) for _, v in axes]
    radii_options = [np.unique(np.abs(v)) for v in values]
    current = [0.0 for _ in axes]
    next_idx = []
    for opts, cur in zip(radii_options, current):
        i = int(np.searchsorted(opts, cur + 1e-12))
        next_idx.append(i)
    locked = [False] * len(axes)

    def box_ok(radii):
        masks = [np.abs(v) <= r + 1e-12 for v, r in zip(values, radii)]
        region = pd_grid
        for axis, m in enumerate(masks):
            region = np.compress(m, region, axis=axis)
        return bool(region.all())

    if not box_ok(current):
        return {name: 0.0 for name in names}
    while not all(locked):
        for i in range(len(axes)):
            if locked[i]:
                continue
            if next_idx[i] >= len(radii_options[i]):
                locked[i] = True
                continue
            tentative = list(current)
            tentative[i] = float(radii_options[i][next_idx[i]])
            if box_ok(tentative):
                current = tentative
                next_idx[i] += 1
            else:
                locked[i] = True
    return dict(zip(names, current))


def evaluate_residuals(
    sys: MechSystem,
    design: ShapedDesign,
    axes: Sequence[tuple[str, Sequence[float]]],
    tol: float = RESIDUAL_TOL,
) -> ResidualReport:
    """Sweep residuals over a tensor-product grid and estimate the PD box.

    One batched pass (MatchRows) covers the grid; the rows it flags are
    evaluated point by point, so that their values, and the exceptions
    counted in ``failed_points``, are MatchPoint's.
    """
    names = [name for name, _ in axes]
    if names != list(sys.vars):
        raise MatchingError(
            f"grid axes {names} must match system coordinates {list(sys.vars)}"
        )
    values = [np.asarray(v, dtype=float) for _, v in axes]
    mesh = np.meshgrid(*values, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=1)
    rows = MatchRows(sys, design, points)
    pot, kin, pd_mask = rows.potential, rows.kinetic, rows.pd
    failed: dict = {}
    for i in np.flatnonzero(rows.failed):
        pot[i], kin[i], pd_mask[i] = np.nan, np.nan, False
        point = MatchPoint(sys, design, points[i])
        try:
            pot[i] = point.potential()  # kept where the kinetic defect fails
            kin[i] = point.kinetic()
        except (SystemError, MatchingError, TensorError, ExprError, ArithmeticError,
                np.linalg.LinAlgError) as exc:
            failed[type(exc).__name__] = failed.get(type(exc).__name__, 0) + 1
            continue
        pd_mask[i] = spd_defect(point.pair.mhat) is None
    axes_t = tuple((name, vals) for name, vals in zip(names, values))
    box = _pd_box(axes_t, pd_mask.reshape([len(v) for v in values]))
    return ResidualReport(
        axes=axes_t,
        points=points,
        potential_res=pot,
        kinetic_res=kin,
        pd_mask=pd_mask,
        pd_box=box,
        tolerance=tol,
        failed_points=failed,
        rows=rows,
    )
