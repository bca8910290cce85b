"""Matching residuals, gyroscopic-tensor derivation, and degree-one solvers.

The kinetic matching condition is checked in its reduced form: the cyclic
sum of the T tensor restricted to the annihilator must vanish.  When it
does, the gyroscopic tensor C is constructed algebraically per point.  Two
solvers cover underactuation degree one: a certificate for the linearized
potential matching condition and a characteristics integrator for the
single quasi-linear kinetic PDE, which takes the simulation's RK4 step and
bisects that step to each event.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from . import linalg
from .expr import Compiled, Expr, ExprError, Tables, parse
from .stability import NOT_STABILIZABLE, Linearization, classify
from .system import (
    InputFrame,
    MechSystem,
    ShapedDesign,
    SystemError,
    identity_where,
    input_frame,
    lowest_eigenvalue,
    q_text,
    rk4_step,
    spd_defect,
)
from .tensor import (
    NOT_FINITE,
    GyroMap,
    TensorError,
    derivation_defect,
    finite_rows,
    random_spd,
)
from .writer import write_table

RESIDUAL_TOL = 1e-8
LINEAR_MATCH_RESIDUAL_TOL = 1e-9
LINEAR_MATCH_MIN_EIG = 1e-6
CHARACTERISTIC_STEP = 5e-3


class MatchingError(ValueError):
    pass


# what evaluating the design at one point raises where it fails there
POINT_ERRORS = (SystemError, MatchingError, TensorError, ExprError, ArithmeticError,
                np.linalg.LinAlgError)


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
    """The GyroMap, and its output for each T of a (..., n, n, n) stack with
    this input frame.  Where the system keeps a constant G's split, that is
    one product with the map's fold of it, kept from the first derivation."""
    gmap = _adapted_map(sys.n, sys.n - sys.m)
    if sys.kept_frame is None:
        return gmap, gmap.apply(t, _adapted_basis(frame.annihilator, frame.range_basis))
    if sys.kept_fold is None:
        sys.kept_fold = gmap.fold(_adapted_basis(frame.annihilator, frame.range_basis))
    return gmap, t.reshape(t.shape[:-3] + (-1,)) @ sys.kept_fold


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


def pair_function(sys: MechSystem, design: ShapedDesign) -> Compiled:
    """One compiled function of q for a system and a design: its values are M
    and Mhat as one (2, n, n) stack, dMhat, dVhat and, where the design stores
    one, the C table.  Built at its first use and kept on the design (for the
    system it was last built for)."""
    kept = design.kept_pair
    if kept is None or kept[0] is not sys:
        trees = ((sys.M.tree, design.Mhat.tree), design.dMhat.tree, design.dVhat.tree)
        if design.C is not None:
            trees += (design.C.tree,)
        kept = design.kept_pair = (sys, Compiled(Tables(trees)))
    return kept[1]


class MatchPoint:
    """The input frame, metric pair, dM, dV, dVhat, T and T's derivation at
    one q, each evaluated on first read and kept.  Readers take the frame
    first, so a rank-deficient G is reported ahead of a failing metric.

    The metric pair, dVhat and the C table come from one call of the
    pair function (``tables``), and M's and Mhat's positive definite tests from
    one eigvalsh of its stack (``lows``).  Where the call raises, each read
    evaluates its own table, and where a fast test fails, mass_matrix and
    spd_defect decide: so every read raises what, and in the order, it would
    raise alone."""

    def __init__(self, sys: MechSystem, design: ShapedDesign, q: Sequence[float]):
        self.sys, self.design, self.q = sys, design, q

    @_Kept
    def frame(self) -> InputFrame:
        return self.sys.frame(self.q)

    @_Kept
    def tables(self) -> tuple | None:
        """The pair function's values at q, or None where evaluating it raises."""
        try:
            return pair_function(self.sys, self.design)(self.q)
        except (ExprError, ArithmeticError):
            return None

    @_Kept
    def lows(self) -> list[float]:
        """The lowest eigenvalues of M and Mhat from one eigvalsh of their
        stack; NaN, which fails every test, where the stack is not evaluated
        or not finite (eigvalsh takes no non-finite matrix)."""
        tables = self.tables
        # a finite sum has finite terms; one that overflows only sends M and
        # Mhat to the tests of mass_matrix and spd_defect
        if tables is None or not math.isfinite(sum(tables[0].ravel().tolist())):
            return [math.nan, math.nan]
        return lowest_eigenvalue(tables[0]).tolist()

    @_Kept
    def pair(self) -> MetricPair:
        tables = self.tables
        if tables is None:
            m = self.sys.mass_matrix(self.q)
            mhat = self.design.shaped_mass(self.q)
            dmhat = self.design.shaped_mass_derivatives(self.q)
        else:
            (m, mhat), dmhat = tables[0], tables[1]
            if not self.lows[0] > 0.0:
                self.sys.mass_matrix(self.q)  # raises where M is not positive definite
        return MetricPair(_symmetrized_inverse(m), mhat, dmhat)

    def shaped_mass_defect(self) -> str | None:
        """spd_defect of Mhat, None without it where ``lows`` finds Mhat
        positive definite: an accepted Mhat evaluates bitwise symmetric
        (ExprMatrix.is_symmetric)."""
        mhat = self.pair.mhat
        return None if self.lows[1] > 0.0 else spd_defect(mhat)

    def c_table(self) -> np.ndarray:
        """The design's C table at q."""
        tables = self.tables
        return self.design.c_table_at(self.q) if tables is None else tables[3]

    @_Kept
    def dm(self) -> np.ndarray:
        return self.sys.mass_derivatives(self.q)

    @_Kept
    def dv(self) -> np.ndarray:
        return self.sys.potential_gradient(self.q)

    @_Kept
    def dvhat(self) -> np.ndarray:
        tables = self.tables
        return self.design.shaped_potential_gradient(self.q) if tables is None else tables[2]

    @_Kept
    def t(self) -> np.ndarray:
        """T_ijk, C-ordered and read-only; raises where an entry is not finite."""
        t = np.ascontiguousarray(t_entries(self.pair, self.dm))
        if not finite_rows(t):
            raise TensorError(NOT_FINITE)
        t.setflags(write=False)
        return t

    @_Kept
    def derivation(self) -> tuple[GyroMap, np.ndarray]:
        """The GyroMap at the point and its output for T: one product for a
        constant G."""
        return _derive(self.sys, self.frame, self.t)

    def potential(self) -> np.ndarray:
        """W (dV - Mhat M^-1 dVhat)."""
        return potential_defect(self.frame.annihilator, self.pair, self.dv, self.dvhat)

    def kinetic(self) -> np.ndarray:
        """Cyclic sums of T(w_a, w_b, w_c) over the rows a <= b <= c of W."""
        gmap, y = self.derivation
        return y[gmap.kinetic]

    def residual(self) -> float:
        """Largest matching-condition violation at the point."""
        defects = np.concatenate([self.potential(), self.kinetic()])
        return float(np.max(np.abs(defects), initial=0.0))

    def gyro(self) -> np.ndarray:
        """C, read-only: T rotated into the adapted basis [W; U'], extended to a
        gyroscopic tensor there, and rotated back; independent of the basis
        choice within each subspace.  Raises derivation_defect as a
        MatchingError."""
        gmap, y = self.derivation
        if defect := derivation_defect(gmap.peaks(y).tolist()):
            raise MatchingError(
                f"cannot extend to a gyroscopic tensor at q={q_text(self.q)}: {defect}"
            )
        c = y[gmap.c].reshape((self.sys.n,) * 3)
        c.setflags(write=False)
        return c


class MatchRows:
    """MatchPoint's potential and kinetic defects, Mhat PD test and gyroscopic
    tensor at each row of an (N, n) stack of points, each evaluated once for
    the whole stack by MatchPoint's formulas.

    ``failed`` flags each row where MatchPoint would raise, or where the
    evaluator flags a value (see Compiled.batch); such rows hold placeholders
    and callers take them from MatchPoint.  ``peaks`` holds each row's
    GyroMap.peaks, which gyro judges.  Flagged matrices are replaced by the
    identity before each stacked linalg call.  Only the results are kept.
    """

    def __init__(self, sys: MechSystem, design: ShapedDesign, points: np.ndarray):
        self.sys, self.design = sys, design
        self.points = points = np.asarray(points, dtype=float)
        self.failed = failed = np.zeros(len(points), dtype=bool)

        def rows(table):
            values, flagged = table.batch(points)
            np.logical_or(failed, flagged, out=failed)
            return values

        # the order of MatchPoint's reads: frame, pair, dM, dV, dVhat, T
        frame = sys.frames(rows(sys.G), failed)
        m = identity_where(rows(sys.M), failed)
        failed |= ~(lowest_eigenvalue(m) > 0.0)  # mass_matrix raises
        minv = _symmetrized_inverse(identity_where(m, failed))
        pair = MetricPair(minv, rows(design.Mhat), rows(design.dMhat))
        dm = rows(sys.dM)
        dv, dvhat = rows(sys.dV), rows(design.dVhat)
        with np.errstate(all="ignore"):
            self.potential = potential_defect(
                frame.annihilator, pair, dv[..., None], dvhat[..., None]
            )[..., 0]
            # in C order, as MatchPoint.t keeps it: einsum sums in layout order
            t = np.ascontiguousarray(t_entries(pair, dm))
        failed |= ~finite_rows(t)  # MatchPoint.t raises
        # spd_defect's test on a bitwise symmetric Mhat; the rows ``failed``
        # leaves are finite
        self.pd = lowest_eigenvalue(identity_where(pair.mhat, failed)) > 0.0
        with np.errstate(all="ignore"):
            gmap, y = _derive(sys, frame, t)
        self.kinetic = y[:, gmap.kinetic]
        self.c = y[:, gmap.c].reshape((-1,) + (sys.n,) * 3).copy()
        self.peaks = gmap.peaks(y, out=y)

    def gyro(self, select=slice(None)) -> np.ndarray:
        """MatchPoint.gyro at each selected row, that of the rows in ``failed``
        or with a derivation_defect taken from MatchPoint itself, which raises
        at the first point it raises at."""
        c, points = self.c[select].copy(), self.points[select]
        failed = self.failed[select]
        for i, peaks in enumerate(self.peaks[select].tolist()):
            if failed[i] or derivation_defect(peaks):
                c[i] = MatchPoint(self.sys, self.design, points[i]).gyro()
        return c


def kinetic_residual(
    sys: MechSystem, design: ShapedDesign, q: Sequence[float]
) -> np.ndarray:
    """Cyclic sums of T over unordered triples of annihilator rows."""
    return MatchPoint(sys, design, q).kinetic()


def pde_counts(n: int, m: int) -> tuple[int, int]:
    """Naive and reduced kinetic PDE counts for n coordinates, m actuators."""
    if not 1 <= m <= n:
        raise MatchingError(f"require 1 <= m <= n, got n={n}, m={m}")
    d = n - m
    return n * (n + 1) * d // 2, (d + 2) * (d + 1) * d // 6


class GyroField:
    """Per-point gyroscopic tensor derived from a verified design.  ``at``, like
    potential_residual and kinetic_residual, stays because the benchmark names it."""

    def __init__(self, sys: MechSystem, design: ShapedDesign):
        self.sys = sys
        self.design = design

    def at(self, q: Sequence[float]) -> np.ndarray:
        return MatchPoint(self.sys, self.design, q).gyro()


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

    The state (q1, u), q1' = 1, takes RK4 steps (system.rk4_step) of at most
    CHARACTERISTIC_STEP from q1 = 0 to each grid point in turn.  A step in
    which the speed's leading entry c0 changes sign or the state turns
    non-finite is bisected until the bracket stops shrinking: the crossing
    is a singular point, and the grid beyond it stays NaN.  The first loss
    of positivity of u is bisected the same way and ends pd_interval there.
    """
    n = sys.n
    if len(ansatz) != n - 1:
        raise MatchingError(f"ansatz must fix {n - 1} first-row entries")
    u0 = float(init.mbar[0, 0]) if isinstance(init, LinearMatch) else float(init)
    if not 0.0 < u0 < math.inf:
        raise MatchingError(
            f"initial value {u0:.6g} is not positive and finite: no positive "
            "definite neighborhood exists"
        )
    if not (-math.inf < lo < 0 < hi < math.inf) or num < 2:
        raise MatchingError("grid must be finite and straddle 0 with at least two points")

    for row in sys.M.tree:
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
    ansatz_fn = Compiled(exprs)

    def pieces(x: np.ndarray):
        qvec = np.zeros(n)
        qvec[0] = x[0]
        minv = linalg.inv(sys.mass_matrix(qvec))
        c = np.concatenate((x[1:], ansatz_fn(np.append(qvec, x[1])))) @ minv
        # row' dM^-1/dq1 row with dM^-1 = -M^-1 dM M^-1, as in q_gradient
        return c, -float(c @ sys.mass_derivatives(qvec)[0] @ c)

    def f(x: np.ndarray) -> np.ndarray:
        c, s = pieces(x)
        return np.array([1.0, -s / c[0]])

    # a non-finite state fails both tests: past a blow-up counts as a crossing
    c0 = pieces(np.array([0.0, u0]))[0][0]
    singular = lambda x: not pieces(x)[0][0] * c0 > 0.0
    nonpositive = lambda x: not x[1] > 0.0

    def crossing(x: np.ndarray, h: float, crossed) -> tuple[float, float]:
        """Step lengths (before, at) a crossing within the step h from x."""
        before, at = 0.0, h
        while (mid := 0.5 * (before + at)) not in (before, at):
            if crossed(rk4_step(f, x, mid)):
                at = mid
            else:
                before = mid
        return before, at

    grid = np.linspace(lo, hi, num)
    values = np.full(num, np.nan)
    values[np.isclose(grid, 0.0, atol=1e-15)] = u0

    def side(indices: np.ndarray) -> tuple[float | None, float | None]:
        """Fill values at grid[indices], outward from 0: the side's first loss
        of positivity and its singular point, each None where there is none."""
        x, end, star = np.array([0.0, u0]), None, None
        for i in indices:
            steps = math.ceil(abs(grid[i] - x[0]) / CHARACTERISTIC_STEP)
            for k in range(steps, 0, -1):
                h = (grid[i] - x[0]) / k
                step = rk4_step(f, x, h)
                if singular(step):
                    h, at = crossing(x, h, singular)
                    star, step = float(x[0] + at), rk4_step(f, x, h)
                if end is None and nonpositive(step):
                    end = float(x[0] + crossing(x, h, nonpositive)[1])
                if star is not None:
                    return end, star
                x = step
            values[i] = x[1]
        return end, None

    with np.errstate(all="ignore"):
        events = (side(np.flatnonzero(grid < 0)[::-1]), side(np.flatnonzero(grid > 0)))
    return CharacteristicsSolution(
        q_values=grid,
        u_values=values,
        # each side ends where positivity is lost, else at its singular point
        pd_interval=tuple(
            next(t for t in (*ev, bound) if t is not None)
            for ev, bound in zip(events, (lo, hi))
        ),
        truncated=any(t is not None for ev in events for t in ev),
        singular_points=tuple(star for _, star in events if star is not None),
    )


@dataclass(frozen=True, eq=False)
class ResidualReport:
    """Potential and kinetic matching residuals over a tensor-product grid.

    Residuals are recorded everywhere they evaluate; the pass verdict is
    taken over the largest symmetric box around the origin on which both
    metrics stay positive definite, since that is the domain on which the
    design is usable.  ``failed_points`` counts the points that raised, by
    type; any of them fails the verdict, wherever it lies.
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
        if self.failed_points or not np.any(self.in_box_mask & self.pd_mask):
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


def _pd_box(values, pd_grid: np.ndarray) -> list:
    """Largest symmetric box around 0 (per axis, on grid values) staying PD.

    Axes are grown one grid ring at a time in round-robin order until no
    axis can extend without including a non-PD point.
    """
    def box_ok(radii):
        region = pd_grid
        for axis, (v, r) in enumerate(zip(values, radii)):
            region = np.compress(np.abs(v) <= r + 1e-12, region, axis=axis)
        return bool(region.all())

    radii = [0.0] * len(values)
    # each axis's radii beyond 0, largest first: pop takes the next one out
    queues = [[r for r in np.unique(np.abs(v))[::-1].tolist() if r >= 1e-12]
              for v in values]
    while any(queues):
        for i, queue in enumerate(queues):
            if queue:
                grown = radii[:i] + [queue.pop()] + radii[i + 1:]
                if box_ok(grown):
                    radii = grown
                else:
                    queue.clear()
    return radii


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
        except POINT_ERRORS as exc:
            failed[type(exc).__name__] = failed.get(type(exc).__name__, 0) + 1
            continue
        pd_mask[i] = point.shaped_mass_defect() is None
    box = _pd_box(values, pd_mask.reshape([len(v) for v in values]))
    return ResidualReport(
        axes=tuple(zip(names, values)),
        points=points,
        potential_res=pot,
        kinetic_res=kin,
        pd_mask=pd_mask,
        pd_box=dict(zip(names, box)),
        tolerance=tol,
        failed_points=failed,
        rows=rows,
    )
