"""Rank-3 tensor algebra for gyroscopic forces.

Two linear subspaces of (0,3)-tensors drive the construction: tensors skew
in their last two slots (B here) and gyroscopic tensors (symmetric first
pair, vanishing cyclic sum; C here). The map psi sends B onto C; its kernel
is exactly the fully antisymmetric tensors. A tensor symmetric in its first
pair whose cyclic sum vanishes on a distinguished block extends to a full
gyroscopic tensor by an explicit formula; that extension is what turns a
verified kinetic matching condition into a usable force term.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import combinations_with_replacement, permutations

import numpy as np

from . import linalg
from .expr import Compiled, inputs, matvec
from .system import INVARIANT_TOL, scale_of, spd_defect

# relative to the tensor's scale_of, like INVARIANT_TOL
CYCLIC_PRECONDITION_TOL = 1e-9


class TensorError(ValueError):
    pass


# The last three axes of a (..., n, n, n) stack of tensors, and their
# permutations (1, 2, 0) and (2, 0, 1).
_CUBE = (-3, -2, -1)


def _t120(a: np.ndarray) -> np.ndarray:
    return a.swapaxes(-3, -2).swapaxes(-2, -1)


def _t201(a: np.ndarray) -> np.ndarray:
    return a.swapaxes(-2, -1).swapaxes(-3, -2)


def cyclic_sum(e: np.ndarray) -> np.ndarray:
    """e_ijk + e_kij + e_jki over the last three axes."""
    return e + _t120(e) + _t201(e)


def finite_rows(a: np.ndarray) -> np.ndarray:
    """Whether every entry of each tensor of a (..., n, n, n) stack is finite."""
    return np.isfinite(a).all(axis=_CUBE)


NOT_FINITE = "entries must be finite"


def gyro_defect(peak: float, sym_err: float, cyc_err: float) -> str | None:
    """Why a tensor whose largest |entry| is ``peak``, with first-pair
    symmetry error ``sym_err`` and largest |cyclic sum| ``cyc_err``, is not a
    GyroTensor, or None."""
    if not math.isfinite(peak):
        return NOT_FINITE
    tol = INVARIANT_TOL * max(peak, 1.0)
    if sym_err > tol:
        return f"first-pair symmetry violated by {sym_err:.3e}"
    if cyc_err > tol:
        return f"cyclic sum violated by {cyc_err:.3e}"
    return None


def precondition_defect(peak: float, sym_err: float, residual: float) -> str | None:
    """Why extend_to_gyro refuses a T whose largest |entry| is ``peak``, with
    first-pair symmetry error ``sym_err`` and largest |cyclic sum| on the
    unactuated block ``residual``, or None."""
    if not math.isfinite(peak):
        return NOT_FINITE
    scale = max(peak, 1.0)
    if sym_err > INVARIANT_TOL * scale:
        return f"T must be symmetric in its first two indices (error {sym_err:.3e})"
    if residual > CYCLIC_PRECONDITION_TOL * scale:
        return (
            f"cyclic sum of T on the unactuated block must vanish; residual {residual:.3e} "
            f"exceeds {CYCLIC_PRECONDITION_TOL:.1e} relative tolerance"
        )
    return None


def _blocks(e: np.ndarray, u: int | None = None) -> list[np.ndarray]:
    """Each tensor of an (N, n, n, n) stack, its first-pair asymmetry and its
    cyclic sum (on the leading u x u x u block, if u is given; one zero for
    an empty block), as (N, k) arrays."""
    cyc = cyclic_sum(e if u is None else e[:, :u, :u, :u])
    if cyc.size == 0:
        cyc = np.zeros((len(e), 1))
    return [b.reshape(len(e), -1) for b in (e, e - e.swapaxes(-3, -2), cyc)]


def _peaks(e: np.ndarray, u: int | None = None) -> list[float]:
    """The largest |entry| of each of e's _blocks: max |e|, its first-pair
    symmetry error and its largest |cyclic sum|."""
    return [np.abs(b).max() for b in _blocks(e[None], u)]


@dataclass(frozen=True, eq=False)
class Tensor3:
    """Dense (0,3)-tensor; entries[i, j, k] = T_ijk."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=float)
        if arr.ndim != 3 or len(set(arr.shape)) != 1:
            raise TensorError(f"expected cubic array, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise TensorError("dimension must be >= 1")
        if not finite_rows(arr):
            raise TensorError(NOT_FINITE)
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def contract(self, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> float:
        """T(u, v, w) with vectors in the slots."""
        return float(np.einsum("ijk,i,j,k->", self.entries, u, v, w))


@dataclass(frozen=True, eq=False)
class GyroTensor(Tensor3):
    """C_ijk = C_jik and C_ijk + C_jki + C_kij = 0, checked at construction."""

    def __post_init__(self):
        super().__post_init__()
        if defect := gyro_defect(*_peaks(self.entries)):
            raise TensorError(defect)


@dataclass(frozen=True, eq=False)
class SkewPairTensor(Tensor3):
    """B_ijk = -B_ikj, checked at construction."""

    def __post_init__(self):
        super().__post_init__()
        b = self.entries
        skew_err = np.max(np.abs(b + b.transpose(0, 2, 1)))
        if skew_err > INVARIANT_TOL * scale_of(b):
            raise TensorError(f"last-pair skewness violated by {skew_err:.3e}")


@dataclass(frozen=True, eq=False)
class Interconnection(Tensor3):
    """Skew matrix family linear in momentum; entries[i, j, k] = J^k_ij."""

    def __post_init__(self):
        super().__post_init__()
        j = self.entries
        skew_err = np.max(np.abs(j + j.transpose(1, 0, 2)))
        if skew_err > INVARIANT_TOL * scale_of(j):
            raise TensorError(f"J^k_ij skewness violated by {skew_err:.3e}")


def sym(t: Tensor3) -> Tensor3:
    """Full symmetrization: average over all six slot permutations."""
    e = t.entries
    total = sum(e.transpose(p) for p in permutations((0, 1, 2)))
    return Tensor3(total / 6.0)


def psi(b: SkewPairTensor) -> GyroTensor:
    """C_ijk = (B_ijk + B_jik) / 2."""
    e = b.entries
    return GyroTensor((e + e.transpose(1, 0, 2)) / 2.0)


def j_to_b(j: Interconnection, mhat: np.ndarray) -> SkewPairTensor:
    """B_kij = J^l_ji Mhat_lk (a bijection for fixed positive definite Mhat)."""
    if defect := spd_defect(mhat):
        raise TensorError(f"Mhat {defect}")
    b = np.einsum("jil,lk->kij", j.entries, mhat)
    return SkewPairTensor(b)


def b_to_j(b: SkewPairTensor, mhat: np.ndarray) -> Interconnection:
    """Inverse of :func:`j_to_b`."""
    if defect := spd_defect(mhat):
        raise TensorError(f"Mhat {defect}")
    mhat_inv = linalg.inv(mhat)
    j = np.einsum("kij,kl->jil", b.entries, mhat_inv)
    return Interconnection(j)


def force_from_j(j: Interconnection, mhat: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Conventional interconnection force: F_i = J^k_ij Mhat^jl p_k p_l."""
    if defect := spd_defect(mhat):
        raise TensorError(f"Mhat {defect}")
    mhat_inv = linalg.inv(mhat)
    p = np.asarray(p, dtype=float)
    return np.einsum("ijk,jl,l,k->i", j.entries, mhat_inv, p, p)


def gyro_force(c, mhat: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Quadratic gyroscopic force: contract c twice with Mhat^-1 p.

    Degree-2 homogeneous in p and workless along Mhat^-1 p whenever c is a
    gyroscopic tensor.  Accepts a tensor object or a raw (n,n,n) array.
    """
    entries = c.entries if isinstance(c, Tensor3) else np.asarray(c, dtype=float)
    u = linalg.solve(np.asarray(mhat, dtype=float), np.asarray(p, dtype=float))
    return entries.T @ u @ u


def space_dims(n: int) -> tuple[int, int, int]:
    """(dim B, dim C, dim ker psi) for dimension n.

    The closed forms are cross-checked constructively: a spanning set of the
    skew-pair space is built, psi is applied to it, and the defining linear
    constraints of the gyroscopic space are assembled; matrix ranks must
    reproduce all three numbers.
    """
    if n < 1:
        raise TensorError("dimension must be >= 1")
    dim_b = n * n * (n - 1) // 2
    dim_c = n * (n * n - 1) // 3
    dim_ker = n * (n - 1) * (n - 2) // 6
    constructed = _constructive_dims(n)
    if constructed != (dim_b, dim_c, dim_ker):
        raise TensorError(
            f"constructive dimensions {constructed} disagree with closed forms "
            f"{(dim_b, dim_c, dim_ker)} for n={n}"
        )
    return dim_b, dim_c, dim_ker


def skew_pair_basis(n: int) -> list[SkewPairTensor]:
    """Canonical basis of the skew-pair space: unit value at (i, j, k), j < k."""
    basis = []
    for i in range(n):
        for j in range(n):
            for k in range(j + 1, n):
                arr = np.zeros((n, n, n))
                arr[i, j, k] = 1.0
                arr[i, k, j] = -1.0
                basis.append(SkewPairTensor(arr))
    return basis


def _orbit_rank(rows: np.ndarray, n: int) -> int:
    """Rank of rows over the coordinates (i, j, k), each row living on one orbit
    {i, j, k} of index permutations: the sum of ranks of <= 6-column blocks."""
    orbit = np.sort(np.indices((n, n, n)).reshape(3, -1), axis=0)
    orbit = (orbit[0] * n + orbit[1]) * n + orbit[2]
    return sum(int(np.linalg.matrix_rank(rows[:, orbit == o])) for o in np.unique(orbit))


def _constructive_dims(n: int) -> tuple[int, int, int]:
    basis = skew_pair_basis(n)
    flat_b = np.array([b.entries.ravel() for b in basis]).reshape(-1, n ** 3)
    dim_b = _orbit_rank(flat_b, n)

    flat_psi = np.array([psi(b).entries.ravel() for b in basis]).reshape(-1, n ** 3)
    dim_ker = dim_b - _orbit_rank(flat_psi, n)

    # Gyroscopic space directly: solution set of the constraints over all n^3
    # coordinates, rows e_ijk - e_jik (symmetry) and e_ijk + e_jki + e_kij (cyclic).
    unit = np.eye(n ** 3).reshape(n, n, n, n ** 3)
    rows = np.concatenate([
        unit - unit.transpose(1, 0, 2, 3),
        unit + unit.transpose(1, 2, 0, 3) + unit.transpose(2, 0, 1, 3),
    ]).reshape(-1, n ** 3)
    return dim_b, n ** 3 - _orbit_rank(rows, n), dim_ker


def cyclic_residual(t: Tensor3, n_unactuated: int) -> float:
    """Max |T_abc + T_bca + T_cab| over the leading unactuated block."""
    return float(_peaks(t.entries, n_unactuated)[2])


def gyro_extension(e: np.ndarray, u: int) -> np.ndarray:
    """Entries of the extension of each T of a (..., n, n, n) stack; the
    preconditions are not checked (see extend_to_gyro)."""
    c = np.zeros(e.shape)
    # Third slot unactuated: copy T.
    c[..., :u] = e[..., :u]
    # Two unactuated, third actuated.
    # C_{alpha beta a} = -T_{beta a alpha} - T_{a alpha beta}
    c[..., :u, :u, u:] = -_t201(e[..., :u, u:, :u]) - _t120(e[..., u:, :u, :u])
    # One unactuated among the first pair, third actuated.
    # C_{alpha a b} = C_{b alpha a} = -T_{ab alpha} / 2
    c[..., :u, u:, u:] = -0.5 * _t201(e[..., u:, u:, :u])
    c[..., u:, :u, u:] = -0.5 * _t120(e[..., u:, u:, :u])
    # All actuated: free block, zero by convention.
    return c


def extend_to_gyro(t: Tensor3, n_unactuated: int) -> GyroTensor:
    """Extend a first-pair-symmetric tensor to a gyroscopic one.

    Indices split into unactuated 0..n_unactuated-1 and actuated rest.
    Requires the cyclic sum of T to vanish on the unactuated block; the
    output C agrees with T whenever the third slot is unactuated, and the
    free fully-actuated block is set to zero.  C's cyclic sum on that block
    is T's, and the GyroTensor check of C (1e-12 relative) is stricter than
    the precondition (1e-9): a T between the two is refused here, though
    GyroMap's derivation, which judges the precondition alone, extends it.
    """
    if not 0 <= n_unactuated <= t.n:
        raise TensorError(f"invalid split {n_unactuated} of {t.n}")
    if defect := precondition_defect(*_peaks(t.entries, n_unactuated)):
        raise TensorError(defect)
    return GyroTensor(gyro_extension(t.entries, n_unactuated))


@cache
def index_triples(d: int) -> np.ndarray:
    """Flat indices of the triples a <= b <= c in a d x d x d block."""
    return np.array(
        [(a * d + b) * d + c for a, b, c in combinations_with_replacement(range(d), 3)],
        dtype=int,
    )


def rotate(t: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """tp[a, b, c] = T(rows[a], rows[b], rows[c]) for each T of a stack."""
    return np.einsum("...ijk,...ai,...bj,...ck->...abc", t, rows, rows, rows)


def rotate_back(tp: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """T from tp = rotate(T, basis), for an orthonormal basis."""
    return np.einsum("...rst,...ri,...sj,...tk->...ijk", tp, basis, basis, basis)


class GyroMap:
    """extend_to_gyro of T in an adapted basis, C rotated back out of it, and
    the extension's precondition, as linear maps of T.

    The outputs are four blocks: tp (T in the basis), its first-pair
    asymmetry, its cyclic sums on the unactuated block (the kinetic defects),
    and C.  ``head`` is one matrix that takes vec(tp) to the first three
    blocks and to the extension cp, from which C is rotated back: the
    first-pair swap, cyclic_sum and gyro_extension applied to the n^3 unit
    tensors, so each formula stays written once.  derivation_trees writes
    the derivation as expression trees; ``apply`` is its numpy reference.
    derivation_defect judges the result.
    """

    def __init__(self, n: int, u: int):
        units = np.eye(n ** 3).reshape(-1, n, n, n)
        blocks = _blocks(units, u) + [gyro_extension(units, u).reshape(n ** 3, -1)]
        self.head = np.hstack(blocks)
        self.starts = np.cumsum([0] + [b.shape[1] for b in blocks[:-1]])
        # tp's cyclic sums on the unactuated block, and C
        self.cyclic = slice(self.starts[2], self.starts[3])
        self.c = slice(self.starts[3], None)
        # the kinetic defects: the cyclic sums over the unactuated index
        # triples a <= b <= c
        self.kinetic = self.cyclic.start + index_triples(u)

    def apply(self, t: np.ndarray, basis: np.ndarray) -> np.ndarray:
        """The four blocks, concatenated, for each T of a C-ordered
        (..., n, n, n) stack, with ``basis`` the adapted basis of each T."""
        lead = t.shape[:-3]
        y = rotate(t, basis).reshape(lead + (-1,)) @ self.head
        c = rotate_back(y[..., self.c].reshape(t.shape), basis)
        y[..., self.c] = c.reshape(lead + (-1,))
        return y

    def peaks(self, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The largest |entry| of each block of apply's output; ``out``
        (y itself, say) takes the |entries|."""
        return np.maximum.reduceat(np.abs(y, out=out), self.starts, axis=-1)


@cache
def adapted_map(n: int, d: int) -> GyroMap:
    """The GyroMap for n coordinates, d of them unactuated, built once."""
    return GyroMap(n, d)


def _staged(t, rows) -> np.ndarray:
    """T(rows[a], rows[b], rows[c]) as trees, for T an (n, n, n) table and
    rows an (n, n) one, of trees or numbers: one index at a time, the last
    first, each stage expr.matvec of ``rows`` along that index."""
    a = np.array(t, dtype=object)
    for axis in (2, 1, 0):
        moved = np.moveaxis(a, axis, -1)
        stage = [matvec(rows, v) for v in moved.reshape(-1, len(rows)).tolist()]
        a = np.moveaxis(np.array(stage, dtype=object).reshape(moved.shape), -1, axis)
    return a


def derivation_trees(t, basis, u: int) -> list:
    """GyroMap(n, u).apply's output for T, as trees of an (n, n, n) table T
    and an (n, n) adapted basis, each of trees or numbers: T rotated into
    the basis in three one-index stages, the map's head as one constant
    matvec, and the C block rotated back by the same stages.  Constant
    entries stay constants, so folding drops the terms of a constant
    basis's zeros."""
    n, gmap = len(basis), adapted_map(len(basis), u)
    y = matvec(gmap.head.T, _staged(t, basis).ravel().tolist())
    cp = np.array(y[gmap.c], dtype=object).reshape((n,) * 3)
    y[gmap.c] = _staged(cp, np.asarray(basis, dtype=object).T).ravel().tolist()
    return y


@cache
def derivation_function(n: int, u: int) -> Compiled:
    """derivation_trees compiled as a function of vec(T) then vec(basis)."""
    return Compiled(derivation_trees(inputs(0, n, n, n), inputs(n ** 3, n, n), u))


def derivation_defect(peaks) -> str | None:
    """Why the derivation whose GyroMap.peaks are ``peaks`` yields no C, or
    None: tp's precondition_defect, or NOT_FINITE where C overflowed."""
    peak, sym_err, residual, c_peak = peaks
    if defect := precondition_defect(peak, sym_err, residual):
        return defect
    return None if math.isfinite(c_peak) else NOT_FINITE


def b_from_gyro(c: GyroTensor) -> SkewPairTensor:
    """A preimage of C under psi (the explicit surjectivity recipe)."""
    e = c.entries
    n = c.n
    b = np.zeros((n, n, n))
    for i in range(n):
        for k in range(n):
            if i == k:
                continue
            b[i, i, k] = e[i, i, k]
            b[i, k, i] = -e[i, i, k]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                b[i, j, k] = 2.0 * e[i, j, k]
                b[k, i, j] = -2.0 * e[j, k, i]
                b[i, k, j] = -2.0 * e[i, j, k]
                b[k, j, i] = 2.0 * e[j, k, i]
    return SkewPairTensor(b)


def random_gyro(n: int, rng: np.random.Generator) -> GyroTensor:
    return psi(random_skew_pair(n, rng))


def random_skew_pair(n: int, rng: np.random.Generator) -> SkewPairTensor:
    raw = rng.standard_normal((n, n, n))
    return SkewPairTensor(raw - raw.transpose(0, 2, 1))


def random_admissible_t(n: int, n_unactuated: int, rng: np.random.Generator) -> Tensor3:
    """Random T meeting the extension preconditions for the given split."""
    raw = rng.standard_normal((n, n, n))
    t = (raw + raw.transpose(1, 0, 2)) / 2.0
    u = n_unactuated
    block = t[:u, :u, :u]
    cyc = cyclic_sum(block) / 3.0
    # Removing a third of the cyclic sum keeps first-pair symmetry (the
    # cyclic average of a first-pair-symmetric tensor is fully symmetric).
    t[:u, :u, :u] = block - cyc
    return Tensor3(t)


def random_spd(n: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


def random_interconnection(n: int, rng: np.random.Generator) -> Interconnection:
    raw = rng.standard_normal((n, n, n))
    return Interconnection(raw - raw.transpose(1, 0, 2))


@dataclass
class SelfCheckResult:
    name: str
    passed: bool
    detail: str


def selfcheck(seed: int = 0, dims_max: int = 5, draws: int = 50) -> list[SelfCheckResult]:
    """Property suites behind the CLI selftest subcommand."""
    rng = np.random.default_rng(seed)
    results: list[SelfCheckResult] = []

    def record(name: str, passed: bool, detail: str) -> None:
        results.append(SelfCheckResult(name, passed, detail))

    try:
        for n in range(2, dims_max + 1):
            space_dims(n)
        ok, detail = True, f"n=2..{dims_max}"
    except TensorError as exc:
        ok, detail = False, str(exc)
    record("space dimensions (constructive vs closed form)", ok, detail)

    worst = 0.0
    for _ in range(draws):
        n = int(rng.integers(2, dims_max + 1))
        c = random_gyro(n, rng)
        worst = max(worst, float(np.max(np.abs(sym(c).entries))))
        v = rng.standard_normal(n)
        worst = max(worst, abs(c.contract(v, v, v)))
    record("psi image is gyroscopic; Sym and triple contraction vanish",
           worst <= 1e-12, f"max residual {worst:.2e}")

    worst = 0.0
    for _ in range(draws):
        n = int(rng.integers(2, dims_max + 1))
        u = int(rng.integers(1, n))
        t = random_admissible_t(n, u, rng)
        c = extend_to_gyro(t, u)
        diff = np.max(np.abs(c.entries[:, :, :u] - t.entries[:, :, :u]))
        worst = max(worst, float(diff))
    record("gyroscopic extension reproduces T on unactuated third slot",
           worst <= 1e-12, f"max deviation {worst:.2e}")

    worst = 0.0
    for _ in range(draws):
        n = int(rng.integers(2, dims_max + 1))
        j = random_interconnection(n, rng)
        mhat = random_spd(n, rng)
        p = rng.standard_normal(n)
        back = b_to_j(j_to_b(j, mhat), mhat)
        worst = max(worst, float(np.max(np.abs(back.entries - j.entries))))
        f_direct = force_from_j(j, mhat, p)
        f_gyro = gyro_force(psi(j_to_b(j, mhat)), mhat, p)
        worst = max(worst, float(np.max(np.abs(f_direct - f_gyro))))
    record("interconnection round trip and force equivalence", worst <= 1e-10,
           f"max deviation {worst:.2e}")

    worst = 0.0
    for _ in range(draws):
        n = int(rng.integers(2, dims_max + 1))
        u = int(rng.integers(1, n))
        basis = np.linalg.qr(rng.standard_normal((n, n)))[0]
        t = rotate_back(random_admissible_t(n, u, rng).entries, basis)
        expect = rotate_back(extend_to_gyro(Tensor3(rotate(t, basis)), u).entries, basis)
        gmap, derive = adapted_map(n, u), derivation_function(n, u)
        for y in (gmap.apply(t, basis), derive(np.append(t, basis).tolist())):
            if derivation_defect(gmap.peaks(y).tolist()):
                worst = np.inf
            c = y[gmap.c].reshape(n, n, n)
            worst = max(worst, float(np.max(np.abs(c - expect)) / scale_of(expect)))
    record("derivation map equals the extension chain", worst <= 1e-12,
           f"max relative deviation {worst:.2e}")

    return results
