import json
import math

import numpy as np
import pytest

from idapbc import matching
from idapbc.expr import ExprError, add, parse
from idapbc.matching import (
    CharacteristicsSolution,
    LinearMatch,
    MatchingError,
    MatchPoint,
    a_tensor,
    derive_gyro,
    evaluate_residuals,
    kinetic_residual,
    linear_match_residual,
    match_tensors,
    pde_counts,
    potential_residual,
    solve_kinetic_characteristics,
    solve_linear_matching,
    t_tensor,
)
from idapbc.stability import linearize
from idapbc.system import (
    ExprMatrix,
    MechSystem,
    ShapedDesign,
    SystemError,
    builtin,
    load_system,
    q_text,
    system_to_dict,
)
from idapbc.tensor import (
    GyroMap,
    GyroTensor,
    Tensor3,
    TensorError,
    cyclic_sum,
    extend_to_gyro,
)

VARS2 = ["q1", "q2"]
VARS3 = ["q1", "q2", "q3"]


def make_system(m_rows, v_text, g_rows, vars=VARS2):
    return MechSystem(
        vars,
        ExprMatrix.from_strings(m_rows, vars),
        parse(v_text, vars),
        ExprMatrix.from_strings(g_rows, vars),
    )


def make_design(mhat_rows, vhat_text, kv, vars=VARS2):
    return ShapedDesign(
        vars,
        ExprMatrix.from_strings(mhat_rows, vars),
        parse(vhat_text, vars),
        np.atleast_2d(kv),
    )


def constant_pair():
    sys = make_system(
        [["2", "1"], ["1", "1"]], "q1^2 + q2^2", [["0"], ["1"]]
    )
    design = make_design([["3", "1"], ["1", "2"]], "q1^2 + q2^2", np.eye(1))
    return sys, design


def identity_design(sys):
    return ShapedDesign(sys.vars, sys.M, sys.V, np.eye(sys.m))


def three_dof_constant_shaped():
    """Mass independent of q1, constant shaped mass, annihilator e1."""
    sys = make_system(
        [
            ["2", "3*sin(q2)/10", "0"],
            ["3*sin(q2)/10", "3", "cos(q3)/5"],
            ["0", "cos(q3)/5", "2"],
        ],
        "q1^2 + q2^2 + q3^2",
        [["0", "0"], ["1", "0"], ["0", "1"]],
        vars=VARS3,
    )
    design = make_design(
        [["2", "1/2", "0"], ["1/2", "2", "3/10"], ["0", "3/10", "2"]],
        "q1^2 + q2^2 + q3^2",
        np.eye(2),
        vars=VARS3,
    )
    return sys, design


def fd_matrix_derivs(f, q, h=1e-6):
    """Central-difference d f / dq^k stacked over k for a matrix function."""
    q = np.asarray(q, dtype=float)
    out = []
    for k in range(len(q)):
        e = np.zeros_like(q)
        e[k] = h
        out.append((f(q + e) - f(q - e)) / (2 * h))
    return np.array(out)


class TestATensor:
    def test_constant_metrics_zero(self):
        sys, design = constant_pair()
        assert np.max(np.abs(a_tensor(sys, design, [0.4, -0.7]))) == 0.0

    def test_pendulum_vanishes_at_origin(self):
        sys, design = builtin("pendulum_cart")
        assert np.max(np.abs(a_tensor(sys, design, [0.0, 0.0]))) <= 1e-12

    def test_upper_pair_symmetry(self):
        sys, design = builtin("pendulum_cart")
        rng = np.random.default_rng(3)
        for _ in range(20):
            q = rng.uniform(-0.7, 0.7, size=2)
            a = a_tensor(sys, design, q)
            assert np.max(np.abs(a - a.transpose(1, 0, 2))) <= 1e-12

    def test_finite_difference_oracle(self):
        sys, design = builtin("pendulum_cart")
        q = np.array([0.3, -0.4])
        minv = np.linalg.inv(sys.mass_matrix(q))
        mhat = design.shaped_mass(q)
        dminv = fd_matrix_derivs(lambda x: np.linalg.inv(sys.mass_matrix(x)), q)
        dmhatinv = fd_matrix_derivs(
            lambda x: np.linalg.inv(design.shaped_mass(x)), q
        )
        expect = 0.5 * np.einsum(
            "kl,lr,rij->ijk", mhat, minv, dmhatinv
        ) - 0.5 * dminv.transpose(1, 2, 0)
        assert np.allclose(a_tensor(sys, design, q), expect, atol=1e-5)


class TestTTensor:
    def test_constant_metrics_zero(self):
        sys, design = constant_pair()
        assert np.max(np.abs(t_tensor(sys, design, [0.1, 0.9]).entries)) == 0.0

    def test_agrees_with_contracted_a(self):
        sys, design = builtin("pendulum_cart")
        q = [0.3, 0.0]
        mt = match_tensors(sys, design, q)
        mhat = design.shaped_mass(q)
        expect = np.einsum("rsk,ri,sj->ijk", mt.a, mhat, mhat)
        assert np.allclose(mt.t.entries, expect, atol=1e-10)

    def test_first_pair_symmetry(self):
        sys, design = builtin("pendulum_cart")
        rng = np.random.default_rng(4)
        for _ in range(20):
            q = rng.uniform(-0.7, 0.7, size=2)
            t = t_tensor(sys, design, q).entries
            assert np.max(np.abs(t - t.transpose(1, 0, 2))) <= 1e-12

    def test_finite_difference_oracle(self):
        sys, design = builtin("pendulum_cart")
        q = np.array([0.25, 0.6])
        minv = np.linalg.inv(sys.mass_matrix(q))
        mhat = design.shaped_mass(q)
        dmhat = fd_matrix_derivs(design.shaped_mass, q)
        dminv = fd_matrix_derivs(lambda x: np.linalg.inv(sys.mass_matrix(x)), q)
        expect = -0.5 * np.einsum(
            "kl,lt,tij->ijk", mhat, minv, dmhat
        ) - 0.5 * np.einsum("krs,ri,sj->ijk", dminv, mhat, mhat)
        assert np.allclose(t_tensor(sys, design, q).entries, expect, atol=1e-5)


class TestPotentialResidual:
    def test_pendulum_grid(self):
        sys, design = builtin("pendulum_cart")
        for q1 in np.linspace(-0.98, 0.98, 10):
            for q2 in np.linspace(-1.0, 1.0, 5):
                res = potential_residual(sys, design, [q1, q2])
                assert np.max(np.abs(res)) <= 1e-9

    def test_identity_shaping_zero(self):
        sys, _ = builtin("pendulum_cart")
        design = identity_design(sys)
        res = potential_residual(sys, design, [0.4, -0.2])
        assert np.max(np.abs(res)) <= 1e-12

    def test_perturbation_detected(self):
        sys, design = builtin("pendulum_cart")
        bumped = ShapedDesign(
            sys.vars,
            design.Mhat,
            add(design.Vhat, parse("q1/10", sys.vars)),
            np.eye(1),
        )
        res = potential_residual(sys, bumped, [0.0, 0.0])
        # W(0) Mhat(0) Minv(0) e1 * 0.1 = 0.1 since (Mhat Minv)_11 = -1
        assert res[0] == pytest.approx(0.1, abs=1e-9)


class TestKineticResidual:
    def test_pendulum_grid(self):
        sys, design = builtin("pendulum_cart")
        for q1 in np.linspace(-1.0, 1.0, 41):
            res = kinetic_residual(sys, design, [q1, 0.3])
            assert res.shape == (1,)
            assert abs(res[0]) <= 1e-9

    def test_constant_metrics_zero(self):
        sys, design = constant_pair()
        assert np.max(np.abs(kinetic_residual(sys, design, [0.2, 0.1]))) == 0.0

    def test_residual_length_matches_count(self):
        rng = np.random.default_rng(11)
        w = rng.normal(size=(5, 5))
        mconst = w @ w.T + 5 * np.eye(5)
        rows = [[f"{float(mconst[i, j])!r}" for j in range(5)] for i in range(5)]
        g_rows = [["0", "0"], ["0", "0"], ["0", "0"], ["1", "0"], ["0", "1"]]
        vars5 = [f"q{i}" for i in range(1, 6)]
        sys = make_system(rows, "+".join(f"q{i}^2" for i in range(1, 6)), g_rows, vars5)
        design = ShapedDesign(vars5, sys.M, sys.V, np.eye(2))
        res = kinetic_residual(sys, design, np.zeros(5))
        assert res.shape == (pde_counts(5, 2)[1],)
        assert res.shape == (10,)

    def test_broken_design_detected(self):
        sys, design = builtin("pendulum_cart")
        broken = make_design(
            [["1", "3*cos(q1)"], ["3*cos(q1)", "1 + 9*cos(q1)^2"]],
            "q1^2 + q2^2",
            np.eye(1),
        )
        res = kinetic_residual(sys, broken, [0.3, 0.0])
        assert abs(res[0]) > 1e-3

    def test_sign_flip_invariance(self):
        sys, design = builtin("pendulum_cart")
        broken = make_design(
            [["1", "3*cos(q1)"], ["3*cos(q1)", "1 + 9*cos(q1)^2"]],
            "q1^2 + q2^2",
            np.eye(1),
        )
        q = [0.3, 0.0]
        w = sys.annihilator(q)
        r1 = np.abs(kinetic_residual(sys, broken, q, w=w))
        r2 = np.abs(kinetic_residual(sys, broken, q, w=-w))
        assert np.max(np.abs(r1 - r2)) <= 1e-12

    def test_rotation_invariance_on_matching_design(self):
        sys, design = three_dof_constant_shaped()
        # underactuation here is degree 1; embed a richer case by taking G
        # with a single column so the annihilator is two-dimensional
        sys2 = make_system(
            [
                ["2", "3*sin(q2)/10", "0"],
                ["3*sin(q2)/10", "3", "cos(q3)/5"],
                ["0", "cos(q3)/5", "2"],
            ],
            "q1^2 + q2^2 + q3^2",
            [["0"], ["0"], ["1"]],
            vars=VARS3,
        )
        design2 = identity_design(sys2)
        rng = np.random.default_rng(7)
        q = [0.2, -0.3, 0.4]
        w = sys2.annihilator(q)
        rot, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        r1 = kinetic_residual(sys2, design2, q, w=w)
        r2 = kinetic_residual(sys2, design2, q, w=rot @ w)
        assert abs(np.max(np.abs(r1)) - np.max(np.abs(r2))) <= 1e-12


class TestPdeCounts:
    def test_known_values(self):
        assert pde_counts(2, 1) == (3, 1)
        assert pde_counts(5, 2) == (45, 10)
        assert pde_counts(3, 3) == (0, 0)

    def test_reduced_never_exceeds_naive(self):
        for n in range(1, 21):
            for m in range(1, n + 1):
                naive, reduced = pde_counts(n, m)
                assert reduced <= naive
                assert (reduced == naive) == (m == n)
                if n - m == 1:
                    assert reduced == 1

    def test_bounds_enforced(self):
        with pytest.raises(MatchingError):
            pde_counts(3, 0)
        with pytest.raises(MatchingError):
            pde_counts(3, 4)


def s_values_fd(sys, design, q, h=1e-6):
    """S_121 and S_221 from the printed formulas with FD derivatives."""
    q = np.asarray(q, dtype=float)
    minv = np.linalg.inv(sys.mass_matrix(q))
    mhat = design.shaped_mass(q)
    dmhat = fd_matrix_derivs(design.shaped_mass, q, h=h)
    dminv1 = fd_matrix_derivs(lambda x: np.linalg.inv(sys.mass_matrix(x)), q, h=h)[0]
    s121 = -0.5 * (
        mhat[0] @ minv @ dmhat[:, 0, 1] + mhat[:, 0] @ dminv1 @ mhat[:, 1]
    )
    s221 = -0.5 * (
        mhat[0] @ minv @ dmhat[:, 1, 1] + mhat[:, 1] @ dminv1 @ mhat[:, 1]
    )
    return float(s121), float(s221)


class TestDeriveGyro:
    def test_pendulum_closed_forms(self):
        sys, design = builtin("pendulum_cart")
        field = derive_gyro(sys, design)
        for q1 in np.linspace(-0.7, 0.7, 9):
            for q2 in (-1.0, 0.0, 1.0):
                q = [q1, q2]
                c = field.at(q).entries
                s121, s221 = s_values_fd(sys, design, q)
                assert c[0, 0, 0] == pytest.approx(0.0, abs=1e-9)
                assert c[1, 1, 1] == pytest.approx(0.0, abs=1e-9)
                assert c[0, 1, 0] == pytest.approx(s121, abs=3e-6)
                assert c[1, 0, 0] == pytest.approx(s121, abs=3e-6)
                assert c[1, 1, 0] == pytest.approx(s221, abs=3e-6)
                assert c[0, 0, 1] == pytest.approx(-2 * s121, abs=6e-6)
                assert c[0, 1, 1] == pytest.approx(-0.5 * s221, abs=3e-6)
                assert c[1, 0, 1] == pytest.approx(-0.5 * s221, abs=3e-6)

    def test_constant_metric_zero(self):
        sys, design = constant_pair()
        c = derive_gyro(sys, design).at([0.5, -0.5]).entries
        assert np.max(np.abs(c)) <= 1e-14

    def test_third_slot_restriction_reproduces_t(self):
        sys, design = builtin("pendulum_cart")
        field = derive_gyro(sys, design)
        for q1 in np.linspace(-0.7, 0.7, 15):
            q = [q1, 0.2]
            c = field.at(q).entries
            t = t_tensor(sys, design, q).entries
            assert np.max(np.abs(c[:, :, 0] - t[:, :, 0])) <= 1e-12

    def test_constant_shaped_three_dof(self):
        sys, design = three_dof_constant_shaped()
        field = derive_gyro(sys, design)
        rng = np.random.default_rng(5)
        q = [0.3, -0.2, 0.5]
        c = field.at(q)
        t = t_tensor(sys, design, q)
        for _ in range(100):
            v = rng.normal(size=3)
            assert abs(c.contract(v, v, v)) <= 1e-10
            u, w = rng.normal(size=3), np.array([1.0, 0.0, 0.0])
            assert c.contract(u, v, w) == pytest.approx(
                t.contract(u, v, w), abs=1e-10
            )

    def test_identity_design_nonintegrable_inputs(self):
        sys, _ = builtin("three_dof")
        design = identity_design(sys)
        field = derive_gyro(sys, design)
        rng = np.random.default_rng(6)
        for _ in range(10):
            q = rng.uniform(-0.8, 0.8, size=3)
            assert np.max(np.abs(field.at(q).entries)) <= 1e-12

    def test_unmatched_design_refused(self):
        sys, _ = builtin("pendulum_cart")
        broken = make_design(
            [["1", "3*cos(q1)"], ["3*cos(q1)", "1 + 9*cos(q1)^2"]],
            "q1^2 + q2^2",
            np.eye(1),
        )
        with pytest.raises(MatchingError, match="cannot extend"):
            derive_gyro(sys, broken).at([0.3, 0.0])

    def test_full_kinetic_matching_chain(self):
        sys, design = builtin("pendulum_cart")
        field = derive_gyro(sys, design)
        rng = np.random.default_rng(8)
        for _ in range(20):
            q = rng.uniform(-0.7, 0.7, size=2)
            p = rng.normal(size=2)
            w = sys.annihilator(q)
            minv = np.linalg.inv(sys.mass_matrix(q))
            mhat = design.shaped_mass(q)
            mhat_inv = np.linalg.inv(mhat)
            dminv = np.array(
                [-minv @ dm @ minv for dm in sys.mass_derivatives(q)]
            )
            dmhatinv = np.array(
                [
                    -mhat_inv @ dm @ mhat_inv
                    for dm in design.shaped_mass_derivatives(q)
                ]
            )
            grad_kin = np.einsum("kij,i,j->k", dminv, p, p)
            grad_kin_hat = np.einsum("kij,i,j->k", dmhatinv, p, p)
            u = mhat_inv @ p
            force = np.einsum("ijk,i,j->k", field.at(q).entries, u, u)
            res = w @ (grad_kin - mhat @ minv @ grad_kin_hat + 2 * force)
            assert np.max(np.abs(res)) <= 1e-8


class TestLinearMatching:
    def test_pendulum_certificate(self):
        sys, _ = builtin("pendulum_cart")
        lin = linearize(sys)
        lm = solve_linear_matching(lin)
        minv0 = np.linalg.inv(lin.mlin)
        defect = (lm.mbar @ minv0 @ lm.sbar - lin.hess)[0]
        assert np.max(np.abs(defect)) <= 1e-9
        assert np.linalg.eigvalsh(lm.mbar)[0] >= 1e-6
        assert np.linalg.eigvalsh(lm.sbar)[0] >= 1e-6

    def test_paper_certificate_admissible(self):
        sys, _ = builtin("pendulum_cart")
        lin = linearize(sys)
        lm = LinearMatch(
            np.array([[1.0, 3.0], [3.0, 10.0]]), np.array([[18.0, 4.0], [4.0, 2.0]])
        )
        assert linear_match_residual(lm, lin) <= 1e-12
        product = lm.mbar @ np.linalg.inv(lin.mlin) @ lm.sbar
        assert np.allclose(product[0], [-10.0, 0.0], atol=1e-12)

    def test_fully_actuated_identity(self):
        sys = make_system(
            [["1", "0"], ["0", "1"]],
            "q1^2/2 + q2^2/2",
            [["1", "0"], ["0", "1"]],
        )
        lm = solve_linear_matching(linearize(sys))
        assert np.allclose(lm.mbar, np.eye(2))
        assert np.allclose(lm.sbar, np.eye(2))

    def test_not_stabilizable_refused(self):
        sys = make_system(
            [["1", "0"], ["0", "1"]], "q1^2/2 - q2^2/2", [["1"], ["0"]]
        )
        with pytest.raises(MatchingError, match="NotStabilizable"):
            solve_linear_matching(linearize(sys))

    def test_oscillatory_case_solvable(self):
        sys = make_system(
            [["1", "0"], ["0", "1"]], "q1^2/2 + 2*q2^2", [["1"], ["0"]]
        )
        lin = linearize(sys)
        lm = solve_linear_matching(lin)
        assert linear_match_residual(lm, lin) <= 1e-9

    def test_degree_two_out_of_scope(self):
        sys = make_system(
            [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
            "q1^2 + q2^2 + q3^2",
            [["0"], ["1"], ["0"]],
            vars=VARS3,
        )
        with pytest.raises(MatchingError, match="degree"):
            solve_linear_matching(linearize(sys))

    def test_pd_invariant_enforced(self):
        with pytest.raises(MatchingError, match="positive definite"):
            LinearMatch(np.diag([1.0, -1.0]), np.eye(2))


class TestCharacteristics:
    def test_pendulum_recovers_closed_form(self):
        sys, _ = builtin("pendulum_cart")
        sol = solve_kinetic_characteristics(
            sys, ["(4 - eps)*cos(q1)"], 1.0, params={"eps": 1.0}
        )
        expect = 2 * np.cos(sol.q_values) ** 2 - 1.0
        assert np.max(np.abs(sol.u_values - expect)) <= 1e-6
        assert sol.singular_points == ()
        # shaped mass loses positivity at |q1| = pi/4 inside the grid
        assert sol.truncated
        assert sol.pd_interval[0] == pytest.approx(-math.pi / 4, abs=1e-8)
        assert sol.pd_interval[1] == pytest.approx(math.pi / 4, abs=1e-8)

    def test_linear_match_initial_value(self):
        sys, _ = builtin("pendulum_cart")
        lm = LinearMatch(
            np.array([[1.0, 3.0], [3.0, 10.0]]), np.array([[18.0, 4.0], [4.0, 2.0]])
        )
        sol = solve_kinetic_characteristics(
            sys, ["3*cos(q1)"], lm, lo=-0.5, hi=0.5, num=51
        )
        expect = 2 * np.cos(sol.q_values) ** 2 - 1.0
        assert np.max(np.abs(sol.u_values - expect)) <= 1e-6

    def test_constant_mass_constant_solution(self):
        sys, _ = constant_pair()
        sol = solve_kinetic_characteristics(sys, ["1/2"], 2.0)
        assert np.max(np.abs(sol.u_values - 2.0)) <= 1e-12
        assert not sol.truncated
        assert sol.pd_interval == (-1.0, 1.0)

    def test_shrunken_pd_interval_reported(self):
        sys, _ = builtin("pendulum_cart")
        sol = solve_kinetic_characteristics(
            sys, ["(4 - eps)*cos(q1)"], 0.05, params={"eps": 1.95}
        )
        assert sol.truncated
        edge = math.acos(math.sqrt(1.95 / 2.0))
        assert sol.pd_interval[0] == pytest.approx(-edge, abs=1e-6)
        assert sol.pd_interval[1] == pytest.approx(edge, abs=1e-6)
        expect = 2 * np.cos(sol.q_values) ** 2 - 1.95
        assert np.max(np.abs(sol.u_values - expect)) <= 1e-6

    def test_nonpositive_initial_value_refused(self):
        sys, _ = builtin("pendulum_cart")
        with pytest.raises(MatchingError, match="not positive"):
            solve_kinetic_characteristics(
                sys, ["(4 - eps)*cos(q1)"], 0.0, params={"eps": 2.0}
            )

    def test_multivariate_mass_refused(self):
        sys = make_system(
            [["1", "0"], ["0", "1 + q2^2/2"]], "q1^2", [["0"], ["1"]]
        )
        with pytest.raises(MatchingError, match="first coordinate"):
            solve_kinetic_characteristics(sys, ["0"], 1.0)

    def test_singular_characteristic_speed(self):
        sys, _ = constant_pair()
        sol = solve_kinetic_characteristics(
            sys, ["q1 + 1"], 2.0, lo=-1.5, hi=1.5, num=61
        )
        assert sol.truncated
        assert len(sol.singular_points) == 1
        assert sol.singular_points[0] == pytest.approx(1.0, abs=1e-8)
        beyond = sol.q_values > 1.0 + 1e-9
        assert np.all(np.isnan(sol.u_values[beyond]))
        before = sol.q_values <= 0.95
        assert np.max(np.abs(sol.u_values[before] - 2.0)) <= 1e-10


class TestEvaluateResiduals:
    def grid(self):
        return [
            ("q1", np.linspace(-1.0, 1.0, 41)),
            ("q2", np.linspace(-1.0, 1.0, 11)),
        ]

    def test_pendulum_passes(self):
        sys, design = builtin("pendulum_cart")
        rep = evaluate_residuals(sys, design, self.grid(), tol=1e-9)
        assert rep.passed
        pot, kin = rep.max_abs
        assert pot <= 1e-9 and kin <= 1e-9
        assert rep.pd_box == {"q1": pytest.approx(0.75), "q2": pytest.approx(1.0)}
        assert int(rep.pd_mask.sum()) == 31 * 11

    def test_large_eps_passes_on_shrunken_box(self):
        sys, design = builtin("pendulum_cart", eps=1.9)
        rep = evaluate_residuals(sys, design, self.grid(), tol=1e-9)
        assert rep.passed
        assert rep.pd_box["q1"] == pytest.approx(0.2)
        assert rep.pd_box["q2"] == pytest.approx(1.0)

    def test_perturbed_design_fails_with_location(self):
        sys, design = builtin("pendulum_cart")
        bumped = ShapedDesign(
            sys.vars,
            design.Mhat,
            add(design.Vhat, parse("q1/10", sys.vars)),
            np.eye(1),
        )
        rep = evaluate_residuals(sys, bumped, self.grid(), tol=1e-9)
        assert not rep.passed
        worst = rep.worst_point()
        assert worst["point"] is not None
        assert max(abs(v) for v in worst["potential"]) > 1e-3

    def test_csv_and_summary_round_trip(self, tmp_path):
        sys, design = builtin("pendulum_cart")
        axes = [
            ("q1", np.linspace(-0.5, 0.5, 5)),
            ("q2", np.linspace(-0.5, 0.5, 3)),
        ]
        rep = evaluate_residuals(sys, design, axes, tol=1e-9)
        path = tmp_path / "residuals.csv"
        rep.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 5 * 3 + 1
        assert lines[0].split(",")[:2] == ["q1", "q2"]
        summary = json.loads(json.dumps(rep.to_summary_dict()))
        assert summary["passed"] is True
        assert summary["grid"]["q1"]["count"] == 5
        assert summary["failed_points"] == {}

    def test_failed_points_counted(self, tmp_path):
        # Mhat divides by (q1 - 0.5), so the grid's q1 = 0.5 row cannot evaluate
        sys, design = builtin("pendulum_cart", eps=0.55, K=0.25)
        rows = design.Mhat.to_strings()
        rows[0][0] = f"{rows[0][0]} + (q1 - 0.5)/(q1 - 0.5) - 1"
        broken = ShapedDesign(
            sys.vars, ExprMatrix.from_strings(rows, sys.vars), design.Vhat, design.Kv
        )
        axes = [("q1", np.linspace(-1.0, 1.0, 5)), ("q2", np.linspace(-1.0, 1.0, 3))]
        rep = evaluate_residuals(sys, broken, axes, tol=1e-9)
        bad = rep.points[:, 0] == 0.5
        assert int(bad.sum()) == 3
        assert np.isnan(rep.potential_res[bad]).all()
        assert np.isnan(rep.kinetic_res[bad]).all()
        assert not rep.pd_mask[bad].any()
        assert np.isfinite(rep.potential_res[~bad]).all()
        assert rep.to_summary_dict()["failed_points"] == {"ExprError": 3}
        rep.write_csv(tmp_path / "residuals.csv")
        lines = (tmp_path / "residuals.csv").read_text().splitlines()[1:]
        assert [line for line in lines if line.startswith("0.5,")] == [
            f"0.5,{q2},nan,nan,0" for q2 in (-1, 0, 1)
        ]

    def test_potential_kept_where_kinetic_fails(self):
        # Mhat of order 1e200 keeps the potential defect finite, but T
        # (quadratic in Mhat) overflows and Tensor3 rejects it
        sys, design = builtin("pendulum_cart", eps=0.55, K=0.25)
        rows = [[f"1e200*({e})" for e in row] for row in design.Mhat.to_strings()]
        big = ShapedDesign(
            sys.vars, ExprMatrix.from_strings(rows, sys.vars), design.Vhat, design.Kv
        )
        rep = evaluate_residuals(sys, big, [("q1", [0.5]), ("q2", [0.0])])
        assert np.isfinite(rep.potential_res).all()
        assert np.isnan(rep.kinetic_res).all()
        assert rep.failed_points == {"TensorError": 1}

    def test_axis_mismatch_rejected(self):
        sys, design = builtin("pendulum_cart")
        with pytest.raises(MatchingError, match="axes"):
            evaluate_residuals(sys, design, [("q2", [0.0]), ("q1", [0.0])])


def reference_sweep(sys, design, points):
    """The sweep point by point: one MatchPoint per grid point."""
    pot = np.full((len(points), sys.n - sys.m), np.nan)
    kin = np.full((len(points), pde_counts(sys.n, sys.m)[1]), np.nan)
    pd = np.zeros(len(points), dtype=bool)
    failed = {}
    for i, q in enumerate(points):
        point = MatchPoint(sys, design, q)
        try:
            pot[i] = point.potential()
            kin[i] = point.kinetic()
        except (SystemError, MatchingError, TensorError, ExprError, ArithmeticError,
                np.linalg.LinAlgError) as exc:
            failed[type(exc).__name__] = failed.get(type(exc).__name__, 0) + 1
            continue
        mhat = point.pair.mhat
        pd[i] = (
            np.max(np.abs(mhat - mhat.T)) <= 1e-10 * max(1.0, float(np.max(np.abs(mhat))))
            and np.linalg.eigvalsh(mhat)[0] > 0.0
        )
    return pot, kin, pd, failed


class TestBatchedSweep:
    def test_failing_rows_match_point_by_point(self):
        # one grid row (three points) fails in each way: M not positive
        # definite at q1 = -0.75, 0/0 in Mhat at q1 = -0.5, T overflowing where
        # Mhat peaks at 1e155 (q1 = 0.25), G rank-deficient at q1 = 0.5 and a
        # power overflowing at q1 = 0.75
        sys, design = builtin("pendulum_cart", eps=0.55, K=0.25)
        m = sys.M.to_strings()
        m[0][0] += " - 2*(1e-50/(1e-50 + (q1 + 0.75)^2))^4"
        rows = design.Mhat.to_strings()
        rows[0][0] += (
            " + (q1 + 0.5)/(q1 + 0.5) - 1"
            " + 1e155*(1e-50/(1e-50 + (q1 - 0.25)^2))^4"
            " + 1e-300*(1/(1e-200 + (q1 - 0.75)^2))^2"
        )
        g = ExprMatrix.from_strings([["0"], ["q1 - 0.5"]], sys.vars)
        sys = MechSystem(sys.vars, ExprMatrix.from_strings(m, sys.vars), sys.V, g)
        design = ShapedDesign(
            sys.vars, ExprMatrix.from_strings(rows, sys.vars), design.Vhat, design.Kv
        )
        axes = [("q1", np.linspace(-1.0, 1.0, 9)), ("q2", np.linspace(-1.0, 1.0, 3))]
        rep = evaluate_residuals(sys, design, axes)
        pot, kin, pd, failed = reference_sweep(sys, design, rep.points)
        assert failed == {"SystemError": 6, "ExprError": 3, "TensorError": 3,
                          "OverflowError": 3}
        assert rep.failed_points == failed
        np.testing.assert_array_equal(rep.potential_res, pot)
        np.testing.assert_array_equal(rep.kinetic_res, kin)
        np.testing.assert_array_equal(rep.pd_mask, pd)

    @pytest.mark.parametrize(
        "case", [(0.3, 0.1), (0.45, 0.5), (0.55, 1.0), "three_dof_constant_shaped"]
    )
    def test_clean_grid_matches_point_by_point(self, case):
        if case == "three_dof_constant_shaped":
            sys, design = three_dof_constant_shaped()
            axes = [(name, np.linspace(-1.0, 1.0, 5)) for name in sys.vars]
        else:
            sys, design = builtin("pendulum_cart", eps=case[0], K=case[1])
            axes = [("q1", np.linspace(-1.0, 1.0, 21)), ("q2", np.linspace(-1.0, 1.0, 11))]
        rep = evaluate_residuals(sys, design, axes)
        pot, kin, pd, failed = reference_sweep(sys, design, rep.points)
        assert rep.failed_points == failed == {}
        np.testing.assert_allclose(rep.potential_res, pot, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(rep.kinetic_res, kin, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(rep.pd_mask, pd)
        field = derive_gyro(sys, design)
        expect = np.stack([field.at(q).entries for q in rep.points])
        np.testing.assert_allclose(field.sample(rep.points), expect, rtol=1e-12, atol=1e-12)

    def test_sums_in_point_order(self):
        # with G = [[0], [q1 - 0.5]], W has an entry of order 1e-16 at
        # q1 = 0.10000000000000003, where T(W, W, W) depends on the order of
        # its sums; the batched pass keeps the per-point order there
        sys, design = builtin("pendulum_cart", eps=0.55, K=0.25)
        g = ExprMatrix.from_strings([["0"], ["q1 - 0.5"]], sys.vars)
        sys = MechSystem(sys.vars, sys.M, sys.V, g)
        axes = [("q1", np.linspace(-0.2, 0.2, 5)), ("q2", np.linspace(-1.0, 1.0, 3))]
        rep = evaluate_residuals(sys, design, axes)
        np.testing.assert_array_equal(rep.kinetic_res, reference_sweep(sys, design, rep.points)[1])
        field = derive_gyro(sys, design)
        expect = np.stack([field.at(q).entries for q in rep.points])
        np.testing.assert_array_equal(field.sample(rep.points), expect)

    def test_sample_raises_where_at_raises(self):
        # a design off the kinetic matching: no extension anywhere off q1 = 0
        sys, design = builtin("pendulum_cart", eps=0.55, K=0.25)
        rows = design.Mhat.to_strings()
        rows[0][1] += " + q1/10"
        rows[1][0] += " + q1/10"
        bent = ShapedDesign(
            sys.vars, ExprMatrix.from_strings(rows, sys.vars), design.Vhat, design.Kv
        )
        points = np.array([[0.0, 0.0], [0.3, 0.1], [0.6, 0.1]])
        field = derive_gyro(sys, bent)
        with pytest.raises(MatchingError) as batched:
            field.sample(points)
        with pytest.raises(MatchingError) as single:
            field.at(points[1])
        assert str(batched.value) == str(single.value)


def reference_gyro(point):
    """MatchPoint.gyro as an einsum chain: T rotated into [W; U'], extended by
    extend_to_gyro there (its failures as a MatchingError), rotated back."""
    w, u, t = point.frame.annihilator, point.frame.range_basis, point.t
    basis = np.concatenate([w, u.T])
    tp = np.einsum("ijk,ai,bj,ck->abc", t.entries, basis, basis, basis)
    try:
        cp = extend_to_gyro(Tensor3(tp), len(w)).entries
    except TensorError as exc:
        raise MatchingError(
            f"cannot extend to a gyroscopic tensor at q={q_text(point.q)}: {exc}"
        ) from exc
    return GyroTensor(np.einsum("rst,ri,sj,tk->ijk", cp, basis, basis, basis))


def crafted(entries):
    """t_entries replaced by one returning ``entries`` at every point."""
    def t_entries(pair, dm):
        return np.broadcast_to(entries, pair.minv.shape[:-2] + entries.shape).copy()
    return t_entries


def failing_t(case):
    t = np.zeros((2, 2, 2))
    t[1, 1, 0] = 0.3
    if case == "asymmetric":
        t[0, 1, 1] = 1.0
    elif case == "cyclic":
        t[0, 0, 0] = 0.5
    elif case == "non-finite":
        t[1, 1, 1] = np.inf
    else:  # cp = -T_010 - T_100 overflows
        t[0, 1, 0] = t[1, 0, 0] = -1e308
    return t


class TestDerivationMap:
    @pytest.mark.parametrize("g", [[["0"], ["1"]], [["0.6"], ["0.8"]], [["0"], ["q1 - 0.5"]]])
    def test_matches_reference_chain(self, g):
        # a signed permutation, a constant rotation and a varying frame
        sys, design = builtin("pendulum_cart", eps=0.55, K=0.25)
        sys = MechSystem(sys.vars, sys.M, sys.V, ExprMatrix.from_strings(g, sys.vars))
        rng = np.random.default_rng(3)
        permutation = g == [["0"], ["1"]]
        for q in rng.uniform(-0.4, 0.4, (50, 2)):
            point, ref = MatchPoint(sys, design, q), MatchPoint(sys, design, q)
            w = ref.frame.annihilator
            kin = cyclic_sum(np.einsum("ijk,ai,bj,ck->abc", ref.t.entries, w, w, w)).ravel()
            try:
                expect = reference_gyro(ref).entries
            except MatchingError as exc:
                with pytest.raises(MatchingError) as got:
                    point.gyro()
                if permutation:
                    assert str(got.value) == str(exc)
                expect = None
            else:
                c = point.gyro().entries
                if permutation:
                    assert c.tobytes() == expect.tobytes()
                np.testing.assert_allclose(c, expect, rtol=0, atol=1e-13 * np.abs(expect).max())
            if permutation:
                assert point.kinetic().tobytes() == kin.tobytes()
            np.testing.assert_allclose(point.kinetic(), kin, rtol=0, atol=1e-14)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("case", ["asymmetric", "cyclic", "non-finite", "cp-overflow"])
    def test_failing_checks_raise_as_the_chain(self, monkeypatch, case):
        sys, design = builtin("pendulum_cart", eps=0.55, K=0.25)
        monkeypatch.setattr(matching, "t_entries", crafted(failing_t(case)))
        q = np.array([0.3, -0.2])
        with pytest.raises((MatchingError, TensorError)) as want:
            reference_gyro(MatchPoint(sys, design, q))
        for call in (lambda: MatchPoint(sys, design, q).gyro(),
                     lambda: derive_gyro(sys, design).sample(np.array([q, [0.1, 0.1]]))):
            with pytest.raises((MatchingError, TensorError)) as got:
                call()
            assert type(got.value) is type(want.value)
            assert str(got.value) == str(want.value)
        expected = TensorError if case == "non-finite" else MatchingError
        assert type(want.value) is expected

    def test_kinetic_and_gyro_from_one_product(self, monkeypatch):
        sys, design = builtin("pendulum_cart", eps=0.55, K=0.25)
        design = ShapedDesign(sys.vars, design.Mhat, design.Vhat, design.Kv)
        calls = {"apply": 0, "peaks": 0, "checked": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(GyroMap, "apply", counted("apply", GyroMap.apply))
        monkeypatch.setattr(GyroMap, "peaks", counted("peaks", GyroMap.peaks))
        monkeypatch.setattr(GyroTensor, "__post_init__",
                            counted("checked", GyroTensor.__post_init__))
        point = MatchPoint(sys, design, np.array([0.3, -0.2]))
        point.residual()
        point.gyro()
        assert calls == {"apply": 1, "peaks": 1, "checked": 0}

    def test_folded_map_built_once_per_constant_g_system(self, monkeypatch, tmp_path):
        folds = []

        def counted(gmap, basis):
            folds.append(basis)
            return fold(gmap, basis)

        fold = GyroMap.fold
        monkeypatch.setattr(GyroMap, "fold", counted)
        sys, design = builtin("pendulum_cart", eps=0.55, K=0.25)
        path = tmp_path / "system.json"
        path.write_text(json.dumps(system_to_dict(sys, design)))
        loaded, _ = load_system(str(path))
        assert folds == []
        assert sys.kept_fold is None and loaded.kept_fold is None
        field = derive_gyro(sys, design)
        field.at([0.3, -0.2])
        kept = sys.kept_fold
        for q in ([0.1, 0.2], [-0.4, 0.0]):
            field.at(q)
            kinetic_residual(sys, design, q)
        assert len(folds) == 1 and sys.kept_fold is kept
        # a varying G folds nothing
        g = ExprMatrix.from_strings([["0"], ["q1 - 0.5"]], sys.vars)
        varying = MechSystem(sys.vars, sys.M, sys.V, g)
        derive_gyro(varying, design).at([0.3, -0.2])
        assert len(folds) == 1 and varying.kept_fold is None

    def test_synthesize_samples_from_the_sweep(self, monkeypatch, tmp_path, capsys):
        from idapbc.cli import main

        made = []
        init = matching.MatchRows.__init__

        def counted(self, *args):
            made.append(len(args[-1]))
            init(self, *args)

        monkeypatch.setattr(matching.MatchRows, "__init__", counted)
        out = tmp_path / "out"
        code = main(["synthesize", "--system", "builtin:pendulum_cart",
                     "--grid", "q1=-1:1:9,q2=-1:1:5", "--out", str(out)])
        capsys.readouterr()
        assert code == 0 and made == [45]
        samples = json.loads((out / "controller.json").read_text())["C_samples"]
        sys, design = builtin("pendulum_cart")
        expect = derive_gyro(sys, design).sample(np.array(samples["points"]))
        assert np.array_equal(np.array(samples["values"]), expect)
