import numpy as np
import pytest

from idapbc.tensor import (
    GyroMap,
    GyroTensor,
    Interconnection,
    SkewPairTensor,
    Tensor3,
    TensorError,
    b_from_gyro,
    b_to_j,
    cyclic_residual,
    derivation_failed,
    extend_to_gyro,
    force_from_j,
    gyro_defect,
    gyro_extension,
    j_to_b,
    precondition_defect,
    psi,
    random_admissible_t,
    random_gyro,
    random_interconnection,
    random_skew_pair,
    random_spd,
    skew_pair_basis,
    space_dims,
    sym,
)


def gyro_force_oracle(c: np.ndarray, mhat: np.ndarray, p: np.ndarray) -> np.ndarray:
    # F_k = C_ijk Mhat^il Mhat^jr p_l p_r, written out independently
    mi = np.linalg.inv(mhat)
    u = mi @ p
    return np.einsum("ijk,i,j->k", c, u, u)


class TestConstruction:
    def test_tensor3_rejects_non_cubic(self):
        with pytest.raises(TensorError, match="cubic"):
            Tensor3(np.zeros((2, 3, 2)))

    def test_tensor3_rejects_nan(self):
        arr = np.zeros((2, 2, 2))
        arr[0, 0, 0] = np.nan
        with pytest.raises(TensorError, match="finite"):
            Tensor3(arr)

    def test_gyro_invariants_enforced(self):
        bad = np.zeros((2, 2, 2))
        bad[0, 1, 0] = 1.0
        with pytest.raises(TensorError, match="symmetry"):
            GyroTensor(bad)
        bad = np.zeros((2, 2, 2))
        bad[0, 0, 1] = bad[0, 1, 0] = bad[1, 0, 0] = 1.0
        with pytest.raises(TensorError, match="cyclic"):
            GyroTensor(bad)

    def test_skew_pair_invariant_enforced(self):
        bad = np.zeros((2, 2, 2))
        bad[0, 0, 1] = 1.0
        with pytest.raises(TensorError, match="skew"):
            SkewPairTensor(bad)

    def test_interconnection_invariant_enforced(self):
        bad = np.zeros((2, 2, 2))
        bad[0, 0, 0] = 1.0
        with pytest.raises(TensorError, match="skew"):
            Interconnection(bad)

    def test_entries_immutable(self):
        t = Tensor3(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            t.entries[0, 0, 0] = 1.0


class TestSym:
    def test_single_entry_spreads(self):
        arr = np.zeros((3, 3, 3))
        arr[0, 1, 2] = 6.0
        s = sym(Tensor3(arr)).entries
        for idx in [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]:
            assert s[idx] == pytest.approx(1.0)
        assert np.sum(np.abs(s)) == pytest.approx(6.0)

    def test_gyro_symmetrizes_to_zero(self):
        rng = np.random.default_rng(0)
        for n in (2, 3, 4):
            c = random_gyro(n, rng)
            assert np.max(np.abs(sym(c).entries)) <= 1e-14

    def test_symmetric_fixed_point(self):
        rng = np.random.default_rng(1)
        raw = rng.standard_normal((3, 3, 3))
        t = sym(Tensor3(raw))
        again = sym(t)
        assert np.allclose(again.entries, t.entries, atol=1e-15)

    def test_matches_brute_force(self):
        from itertools import permutations

        rng = np.random.default_rng(2)
        raw = rng.standard_normal((3, 3, 3))
        s = sym(Tensor3(raw)).entries
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    expect = np.mean([raw[p] for p in permutations((i, j, k))])
                    assert s[i, j, k] == pytest.approx(expect, abs=1e-15)


class TestPsi:
    def test_zero(self):
        b = SkewPairTensor(np.zeros((3, 3, 3)))
        assert np.all(psi(b).entries == 0.0)

    def test_hand_case_n2(self):
        arr = np.zeros((2, 2, 2))
        arr[0, 0, 1] = 1.0
        arr[0, 1, 0] = -1.0
        c = psi(SkewPairTensor(arr)).entries
        assert c[0, 0, 1] == pytest.approx(1.0)
        assert c[0, 1, 0] == pytest.approx(-0.5)
        assert c[1, 0, 0] == pytest.approx(-0.5)
        # two-equal-index relation C_iki = C_kii = -C_iik/2
        assert c[0, 1, 0] == pytest.approx(-0.5 * c[0, 0, 1])

    def test_output_is_gyroscopic(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(3, 6))
            b = random_skew_pair(n, rng)
            c = psi(b).entries  # construction already validates
            assert np.max(np.abs(c - c.transpose(1, 0, 2))) == 0.0
            cyc = c + c.transpose(1, 2, 0) + c.transpose(2, 0, 1)
            assert np.max(np.abs(cyc)) <= 1e-13

    def test_triple_contraction_vanishes(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            c = random_gyro(n, rng)
            v = rng.standard_normal(n)
            assert abs(c.contract(v, v, v)) <= 1e-12 * (1 + np.max(np.abs(c.entries)))

    def test_surjectivity_rank(self):
        for n in (2, 3, 4, 5):
            images = np.array([psi(b).entries.ravel() for b in skew_pair_basis(n)])
            assert int(np.linalg.matrix_rank(images)) == n * (n * n - 1) // 3

    def test_preimage_recipe(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 4, 5):
            c = random_gyro(n, rng)
            b = b_from_gyro(c)
            assert np.allclose(psi(b).entries, c.entries, atol=1e-13)


class TestSpaceDims:
    def test_known_values(self):
        assert space_dims(2) == (2, 2, 0)
        assert space_dims(3) == (9, 8, 1)
        assert space_dims(4) == (24, 20, 4)

    def test_closed_forms_match_constructive(self):
        for n in range(2, 7):
            dims = space_dims(n, verify=True)
            assert dims == (
                n * n * (n - 1) // 2,
                n * (n * n - 1) // 3,
                n * (n - 1) * (n - 2) // 6,
            )

    def test_n1_degenerate(self):
        assert space_dims(1) == (0, 0, 0)

    def test_rejects_bad_dimension(self):
        with pytest.raises(TensorError):
            space_dims(0)


class TestExtendToGyro:
    def test_zero(self):
        c = extend_to_gyro(Tensor3(np.zeros((3, 3, 3))), 1)
        assert np.all(c.entries == 0.0)

    def test_hand_case_n2(self):
        # unactuated {0}: T_121=T_211=s, T_221=t determine all of C
        s, t = 0.7, -1.3
        arr = np.zeros((2, 2, 2))
        arr[0, 1, 0] = arr[1, 0, 0] = s
        arr[1, 1, 0] = t
        # actuated-third-slot entries arbitrary but first-pair symmetric
        arr[0, 0, 1] = 2.0
        arr[0, 1, 1] = arr[1, 0, 1] = -0.4
        arr[1, 1, 1] = 0.9
        c = extend_to_gyro(Tensor3(arr), 1).entries
        assert c[0, 1, 0] == pytest.approx(s)
        assert c[1, 0, 0] == pytest.approx(s)
        assert c[1, 1, 0] == pytest.approx(t)
        assert c[0, 0, 1] == pytest.approx(-2 * s)
        assert c[0, 1, 1] == pytest.approx(-0.5 * t)
        assert c[1, 0, 1] == pytest.approx(-0.5 * t)
        assert c[0, 0, 0] == 0.0
        assert c[1, 1, 1] == 0.0

    def test_random_admissible(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(3, 6))
            u = int(rng.integers(1, n))
            t = random_admissible_t(n, u, rng)
            c = extend_to_gyro(t, u)  # invariants checked at construction
            assert np.allclose(c.entries[:, :, :u], t.entries[:, :, :u], atol=1e-14)

    def test_precondition_rejected_with_residual(self):
        rng = np.random.default_rng(7)
        raw = rng.standard_normal((3, 3, 3))
        t = Tensor3((raw + raw.transpose(1, 0, 2)) / 2)
        res = cyclic_residual(t, 2)
        assert res > 1e-3
        with pytest.raises(TensorError, match="cyclic sum"):
            extend_to_gyro(t, 2)

    def test_asymmetric_rejected(self):
        rng = np.random.default_rng(8)
        with pytest.raises(TensorError, match="symmetric"):
            extend_to_gyro(Tensor3(rng.standard_normal((3, 3, 3))), 1)

    def test_fully_actuated_block_zero(self):
        rng = np.random.default_rng(9)
        t = random_admissible_t(4, 2, rng)
        c = extend_to_gyro(t, 2).entries
        assert np.all(c[2:, 2:, 2:] == 0.0)

    def test_no_unactuated_rows_extends_to_zero(self):
        # with every index actuated there is no constraint and no carry-over
        rng = np.random.default_rng(10)
        raw = rng.standard_normal((3, 3, 3))
        t = Tensor3((raw + raw.transpose(1, 0, 2)) / 2)
        assert cyclic_residual(t, 0) == 0.0
        assert np.all(extend_to_gyro(t, 0).entries == 0.0)


class TestInterconnection:
    def test_j_to_b_zero(self):
        j = Interconnection(np.zeros((3, 3, 3)))
        b = j_to_b(j, np.eye(3))
        assert np.all(b.entries == 0.0)

    def test_identity_mhat(self):
        rng = np.random.default_rng(10)
        j = random_interconnection(3, rng)
        b = j_to_b(j, np.eye(3))
        # B_kij = J^k_ji when Mhat = I
        for i in range(3):
            for j_ in range(3):
                for k in range(3):
                    assert b.entries[k, i, j_] == pytest.approx(j.coeffs[j_, i, k])

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            j = random_interconnection(n, rng)
            mhat = random_spd(n, rng)
            back = b_to_j(j_to_b(j, mhat), mhat)
            assert np.allclose(back.coeffs, j.coeffs, atol=1e-12)

    def test_non_pd_rejected(self):
        j = random_interconnection(2, np.random.default_rng(12))
        with pytest.raises(TensorError, match="positive definite"):
            j_to_b(j, np.array([[1.0, 0.0], [0.0, -1.0]]))

    def test_force_zero_momentum(self):
        j = random_interconnection(3, np.random.default_rng(13))
        f = force_from_j(j, np.eye(3), np.zeros(3))
        assert np.all(f == 0.0)

    def test_force_equivalence(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            n = int(rng.integers(3, 6))
            j = random_interconnection(n, rng)
            mhat = random_spd(n, rng)
            p = rng.standard_normal(n)
            direct = force_from_j(j, mhat, p)
            via_gyro = gyro_force_oracle(psi(j_to_b(j, mhat)).entries, mhat, p)
            assert np.allclose(direct, via_gyro, atol=1e-12 * (1 + np.max(np.abs(direct))))

    def test_kernel_element_gives_zero_force(self):
        # null space of the psi matrix over a skew-pair basis, found by SVD
        n = 3
        basis = skew_pair_basis(n)
        images = np.array([psi(b).entries.ravel() for b in basis]).T
        _, s, vt = np.linalg.svd(images)
        null_mask = np.concatenate([s, np.zeros(len(basis) - len(s))]) < 1e-10
        kernel_coeffs = vt[null_mask.nonzero()[0]]
        assert len(kernel_coeffs) == n * (n - 1) * (n - 2) // 6
        combo = sum(c * b.entries for c, b in zip(kernel_coeffs[0], basis))
        kernel_b = SkewPairTensor(combo)
        assert np.max(np.abs(psi(kernel_b).entries)) <= 1e-12
        # fully antisymmetric: proportional to the alternating tensor
        assert kernel_b.entries[0, 1, 2] == pytest.approx(-kernel_b.entries[1, 0, 2])
        rng = np.random.default_rng(15)
        mhat = random_spd(n, rng)
        j = b_to_j(kernel_b, mhat)
        for _ in range(10):
            p = rng.standard_normal(n)
            f = force_from_j(j, mhat, p)
            assert np.max(np.abs(f)) <= 1e-12


class TestSelfCheck:
    def test_all_suites_pass(self):
        from idapbc.tensor import selfcheck

        results = selfcheck(seed=0, dims_max=5, draws=30)
        assert len(results) >= 4
        for r in results:
            assert r.passed, f"{r.name}: {r.detail}"

    def test_deterministic_given_seed(self):
        from idapbc.tensor import selfcheck

        a = selfcheck(seed=42, dims_max=4, draws=10)
        b = selfcheck(seed=42, dims_max=4, draws=10)
        assert [(r.name, r.passed, r.detail) for r in a] == [
            (r.name, r.passed, r.detail) for r in b
        ]


def chain_reference(t: np.ndarray, basis: np.ndarray, u: int):
    """The derivation as an einsum chain: T rotated into the basis, extended
    there, rotated back.  Returns the peaks GyroMap reads (max |e|, first-pair
    asymmetry, cyclic sum, for tp on its unactuated block, cp and C), C and
    tp's cyclic sums on the unactuated block."""
    tp = np.einsum("ijk,ai,bj,ck->abc", t, basis, basis, basis)
    cp = gyro_extension(tp, u)
    c = np.einsum("rst,ri,sj,tk->ijk", cp, basis, basis, basis)

    def cyclic(e):
        return e + e.transpose(2, 0, 1) + e.transpose(1, 2, 0)

    def peaks(e, block):
        return [np.abs(e).max(), np.abs(e - e.transpose(1, 0, 2)).max(),
                np.abs(cyclic(block)).max(initial=0.0)]

    block = tp[:u, :u, :u]
    return peaks(tp, block) + peaks(cp, cp) + peaks(c, c), c, cyclic(block).ravel()


def first_pair_symmetric(n, rng):
    raw = rng.standard_normal((n, n, n))
    return (raw + raw.transpose(1, 0, 2)) / 2.0


def both_maps(n, u, basis, t):
    """The map and its outputs for T: one product with its fold of the basis,
    and its apply."""
    gmap = GyroMap(n, u)
    return [(gmap, t.reshape(-1) @ gmap.fold(basis)), (gmap, gmap.apply(t, basis))]


class TestGyroMap:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_einsum_chain_on_random_frames(self, n):
        rng = np.random.default_rng(20 + n)
        for u in range(n + 1):
            for _ in range(5):
                basis = np.linalg.qr(rng.standard_normal((n, n)))[0]
                t = first_pair_symmetric(n, rng)
                peaks, c, cyc = chain_reference(t, basis, u)
                scale = np.abs(t).max()
                for gmap, y in both_maps(n, u, basis, t):
                    np.testing.assert_allclose(gmap.peaks(y), peaks, rtol=0, atol=1e-13 * scale)
                    np.testing.assert_allclose(
                        y[gmap.c].reshape(n, n, n), c, rtol=0, atol=1e-13 * scale
                    )
                    got = y[gmap.cyclic][: cyc.size]
                    np.testing.assert_allclose(got, cyc, rtol=0, atol=1e-13 * scale)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_bitwise_on_signed_permutation_frames(self, n):
        # every entry of C is one entry of cp, itself at most two terms of tp
        # with coefficients +-1 or -1/2, so no sum rounds; tp's cyclic sums
        # add three terms for u >= 2, and do round in another order
        rng = np.random.default_rng(30 + n)
        for u in range(n + 1):
            for _ in range(5):
                basis = np.zeros((n, n))
                basis[np.arange(n), rng.permutation(n)] = rng.choice([-1.0, 1.0], n)
                t = first_pair_symmetric(n, rng)
                _, c, cyc = chain_reference(t, basis, u)
                for gmap, y in both_maps(n, u, basis, t):
                    assert y[gmap.c].reshape(n, n, n).tobytes() == c.tobytes()
                    if u <= 1:
                        assert y[gmap.cyclic][: cyc.size].tobytes() == cyc.tobytes()

    def test_stacks_and_single_tensors_agree(self):
        rng = np.random.default_rng(40)
        n, u = 3, 1
        basis = np.linalg.qr(rng.standard_normal((n, n)))[0]
        ts = np.stack([first_pair_symmetric(n, rng) for _ in range(4)])
        gmap = GyroMap(n, u)
        fold, bases = gmap.fold(basis), np.broadcast_to(basis, (4, n, n))
        for stacked, single in (
            (ts.reshape(4, -1) @ fold, [t.reshape(-1) @ fold for t in ts]),
            (gmap.apply(ts, bases), [gmap.apply(t, basis) for t in ts]),
        ):
            np.testing.assert_allclose(stacked, single, rtol=1e-14, atol=1e-14)

    def test_failure_flags_follow_the_checks(self):
        # one row per defect: none, asymmetric T, cyclic precondition,
        # non-finite tp, cp overflowing
        n, u = 2, 1
        gmap = GyroMap(n, u)
        ts = np.zeros((5, n, n, n))
        ts[:, 1, 1, 0] = 0.3
        ts[1, 0, 1, 1] = 1.0
        ts[2, 0, 0, 0] = 0.5
        ts[3, 1, 1, 1] = np.inf
        ts[4, 0, 1, 0] = ts[4, 1, 0, 0] = -1e308
        with np.errstate(all="ignore"):
            peaks = gmap.peaks(gmap.apply(ts, np.broadcast_to(np.eye(n), (5, n, n))))
        assert derivation_failed(peaks).tolist() == [False, True, True, True, True]
        assert precondition_defect(*peaks[0, :3]) is None
        assert gyro_defect(*peaks[0, 3:6]) is None and gyro_defect(*peaks[0, 6:]) is None
        assert precondition_defect(*peaks[1, :3]).startswith("T must be symmetric")
        assert precondition_defect(*peaks[2, :3]).startswith("cyclic sum of T")
        assert precondition_defect(*peaks[3, :3]) == "entries must be finite"
        assert precondition_defect(*peaks[4, :3]) is None
        assert gyro_defect(*peaks[4, 3:6]) == "entries must be finite"
