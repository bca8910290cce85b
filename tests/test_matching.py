import json
import math
import re
import warnings

import numpy as np
import pytest

from idapbc import linalg, matching
from idapbc.control_sim import Controller, closed_loop_field, feedback
from idapbc.expr import ExprError, add, parse
from idapbc.matching import (
    CharacteristicsSolution,
    GyroField,
    LinearMatch,
    MatchingError,
    MatchPoint,
    MatchRows,
    POINT_ERRORS,
    RESIDUAL_TOL,
    a_tensor,
    evaluate_residuals,
    kinetic_residual,
    linear_match_residual,
    pair_function,
    pde_counts,
    potential_residual,
    solve_kinetic_characteristics,
    solve_linear_matching,
)
from idapbc.stability import linearize
from idapbc.system import (
    ExprMatrix,
    MechSystem,
    ShapedDesign,
    SystemError,
    builtin,
    input_frame,
    load_system,
    q_gradient,
    q_text,
    spd_defect,
    system_to_dict,
)
from idapbc.tensor import (
    NOT_FINITE,
    GyroMap,
    GyroTensor,
    Tensor3,
    TensorError,
    cyclic_sum,
    derivation_defect,
    extend_to_gyro,
    finite_rows,
    index_triples,
    rotate,
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
        assert np.max(np.abs(MatchPoint(sys, design, [0.1, 0.9]).t)) == 0.0

    def test_agrees_with_contracted_a(self):
        sys, design = builtin("pendulum_cart")
        q = [0.3, 0.0]
        mhat = design.shaped_mass(q)
        expect = np.einsum("rsk,ri,sj->ijk", a_tensor(sys, design, q), mhat, mhat)
        assert np.allclose(MatchPoint(sys, design, q).t, expect, atol=1e-10)

    def test_first_pair_symmetry(self):
        sys, design = builtin("pendulum_cart")
        rng = np.random.default_rng(4)
        for _ in range(20):
            q = rng.uniform(-0.7, 0.7, size=2)
            t = MatchPoint(sys, design, q).t
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
        assert np.allclose(MatchPoint(sys, design, q).t, expect, atol=1e-5)


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


def cyclic_sums_in(sys, design, q, w):
    """Cyclic sums of T(w_a, w_b, w_c) over the rows a <= b <= c of w."""
    cyc = cyclic_sum(rotate(MatchPoint(sys, design, q).t, w))
    return cyc.ravel()[index_triples(len(w))]


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
        r1 = np.abs(cyclic_sums_in(sys, broken, q, w))
        r2 = np.abs(cyclic_sums_in(sys, broken, q, -w))
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
        r1 = cyclic_sums_in(sys2, design2, q, w)
        r2 = cyclic_sums_in(sys2, design2, q, rot @ w)
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
        field = GyroField(sys, design)
        for q1 in np.linspace(-0.7, 0.7, 9):
            for q2 in (-1.0, 0.0, 1.0):
                q = [q1, q2]
                c = field.at(q)
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
        c = GyroField(sys, design).at([0.5, -0.5])
        assert np.max(np.abs(c)) <= 1e-14

    def test_third_slot_restriction_reproduces_t(self):
        sys, design = builtin("pendulum_cart")
        field = GyroField(sys, design)
        for q1 in np.linspace(-0.7, 0.7, 15):
            q = [q1, 0.2]
            c = field.at(q)
            t = MatchPoint(sys, design, q).t
            assert np.max(np.abs(c[:, :, 0] - t[:, :, 0])) <= 1e-12

    def test_constant_shaped_three_dof(self):
        sys, design = three_dof_constant_shaped()
        field = GyroField(sys, design)
        rng = np.random.default_rng(5)
        q = [0.3, -0.2, 0.5]
        c = GyroTensor(field.at(q))
        t = Tensor3(MatchPoint(sys, design, q).t)
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
        field = GyroField(sys, design)
        rng = np.random.default_rng(6)
        for _ in range(10):
            q = rng.uniform(-0.8, 0.8, size=3)
            assert np.max(np.abs(field.at(q))) <= 1e-12

    def test_unmatched_design_refused(self):
        sys, _ = builtin("pendulum_cart")
        broken = make_design(
            [["1", "3*cos(q1)"], ["3*cos(q1)", "1 + 9*cos(q1)^2"]],
            "q1^2 + q2^2",
            np.eye(1),
        )
        with pytest.raises(MatchingError, match="cannot extend"):
            GyroField(sys, broken).at([0.3, 0.0])

    def test_full_kinetic_matching_chain(self):
        sys, design = builtin("pendulum_cart")
        field = GyroField(sys, design)
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
            force = np.einsum("ijk,i,j->k", field.at(q), u, u)
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

    @pytest.mark.parametrize(
        "init,bounds,message",
        [
            (math.nan, {}, "initial value nan is not positive"),
            (math.inf, {}, "initial value inf is not positive"),
            (1.0, {"hi": math.inf}, "grid must be finite"),
            (1.0, {"lo": -math.inf}, "grid must be finite"),
        ],
        ids=["init-nan", "init-inf", "hi-inf", "lo-inf"],
    )
    def test_non_finite_input_refused(self, init, bounds, message):
        sys, _ = builtin("pendulum_cart")
        with pytest.raises(MatchingError, match=f"^{message}"):
            solve_kinetic_characteristics(
                sys, ["(4 - eps)*cos(q1)"], init, params={"eps": 1.0}, **bounds
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

    @pytest.mark.parametrize("case", ["three-axis", "no-zero", "origin-not-pd"])
    def test_pd_box_round_robin(self, case):
        if case == "three-axis":
            values = [np.linspace(-1, 1, 5), np.linspace(-2, 2, 9), np.linspace(-1, 1, 3)]
            x, y, z = np.meshgrid(*values, indexing="ij")
            pd = np.abs(x) + np.abs(y) / 2 + np.abs(z) <= 1.75
            expect = [0.5, 0.5, 1.0]
        elif case == "no-zero":
            values = [np.linspace(0.2, 1.4, 13), np.linspace(-1, 1, 5)]
            x, y = np.meshgrid(*values, indexing="ij")
            pd = (x <= 0.9) | (np.abs(y) < 0.6)
            expect = [0.8999999999999999, 1.0]
        else:
            values = [np.linspace(-1, 1, 5), np.linspace(-1, 1, 3)]
            pd = np.ones((5, 3), dtype=bool)
            pd[2, 1] = False
            expect = [0.0, 0.0]
        assert matching._pd_box(values, pd) == expect

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
        # outside the PD box, but a point that fails still fails the verdict
        assert not rep.passed
        rep.write_csv(tmp_path / "residuals.csv")
        lines = (tmp_path / "residuals.csv").read_text().splitlines()[1:]
        assert [line for line in lines if line.startswith("0.5,")] == [
            f"0.5,{q2},nan,nan,0" for q2 in (-1, 0, 1)
        ]
        # a constant G that is rank-deficient, or that cannot evaluate, fails
        # at every point as it does point by point
        axes = [(name, np.linspace(-0.5, 0.5, 3)) for name in sys.vars]
        for g, error in (("0", "SystemError"), ("1/0", "ExprError")):
            g = ExprMatrix.from_strings([["0"], [g]], sys.vars)
            rep = evaluate_residuals(MechSystem(sys.vars, sys.M, sys.V, g), design, axes)
            assert rep.failed_points == {error: 9}
            assert np.isnan(rep.potential_res).all()
            assert np.isnan(rep.kinetic_res).all()
            assert not rep.pd_mask.any()

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
        field = GyroField(sys, design)
        expect = np.stack([field.at(q) for q in rep.points])
        batched = MatchRows(sys, design, rep.points).gyro()
        np.testing.assert_allclose(batched, expect, rtol=1e-12, atol=1e-12)

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
        field = GyroField(sys, design)
        expect = np.stack([field.at(q) for q in rep.points])
        np.testing.assert_array_equal(MatchRows(sys, design, rep.points).gyro(), expect)

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
        with pytest.raises(MatchingError) as batched:
            MatchRows(sys, bent, points).gyro()
        with pytest.raises(MatchingError) as single:
            GyroField(sys, bent).at(points[1])
        assert str(batched.value) == str(single.value)


def reference_gyro(point):
    """MatchPoint.gyro as an einsum chain: T rotated into [W; U'], extended by
    extend_to_gyro there (its failures as a MatchingError), rotated back."""
    w, u, t = point.frame.annihilator, point.frame.range_basis, point.t
    basis = np.concatenate([w, u.T])
    tp = np.einsum("ijk,ai,bj,ck->abc", t, basis, basis, basis)
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
            kin = cyclic_sum(np.einsum("ijk,ai,bj,ck->abc", ref.t, w, w, w)).ravel()
            try:
                expect = reference_gyro(ref).entries
            except MatchingError as exc:
                with pytest.raises(MatchingError) as got:
                    point.gyro()
                if permutation:
                    assert str(got.value) == str(exc)
                expect = None
            else:
                c = point.gyro()
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
                     lambda: MatchRows(sys, design, np.array([q, [0.1, 0.1]])).gyro()):
            with pytest.raises((MatchingError, TensorError)) as got:
                call()
            assert type(got.value) is type(want.value)
            assert str(got.value) == str(want.value)
        expected = TensorError if case == "non-finite" else MatchingError
        assert type(want.value) is expected

    def test_kinetic_and_gyro_from_one_product(self, monkeypatch):
        sys, design = builtin("pendulum_cart", eps=0.55, K=0.25)
        design = ShapedDesign(sys.vars, design.Mhat, design.Vhat, design.Kv)
        calls = {"apply": 0, "peaks": 0, "checked": 0, "built": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(GyroMap, "apply", counted("apply", GyroMap.apply))
        monkeypatch.setattr(GyroMap, "peaks", counted("peaks", GyroMap.peaks))
        monkeypatch.setattr(GyroTensor, "__post_init__",
                            counted("checked", GyroTensor.__post_init__))
        monkeypatch.setattr(Tensor3, "__post_init__",
                            counted("built", Tensor3.__post_init__))
        q = np.array([0.3, -0.2])
        point = MatchPoint(sys, design, q)
        point.residual()
        point.gyro()
        assert calls == {"apply": 1, "peaks": 1, "checked": 0, "built": 0}
        assert not point.t.flags.writeable
        # the C-less feedback derives C from the kept fold, through no Tensor3
        feedback(Controller(sys, design), q, [0.4, 0.1])
        assert calls == {"apply": 1, "peaks": 2, "checked": 0, "built": 0}

    @pytest.mark.parametrize("g", [[["0"], ["1"]], [["0"], ["q1 - 0.5"]]])
    def test_gyro_is_a_read_only_array(self, g):
        sys, design = builtin("pendulum_cart", eps=0.55, K=0.25)
        sys = MechSystem(sys.vars, sys.M, sys.V, ExprMatrix.from_strings(g, sys.vars))
        q = np.array([0.3, -0.2])
        point = MatchPoint(sys, design, q)
        gmap, y = point.derivation
        # the C block of the kept derivation
        expect = y[gmap.c].reshape(2, 2, 2).copy()
        for c in (point.gyro(), GyroField(sys, design).at(q)):
            assert type(c) is np.ndarray and c.shape == (2, 2, 2)
            assert c.flags.c_contiguous and not c.flags.writeable
            assert c.tobytes() == expect.tobytes()
            assert c.tobytes() == MatchRows(sys, design, q[None]).gyro()[0].tobytes()
            with pytest.raises(ValueError, match="read-only"):
                c[0, 0, 1] = 1.0
        assert point.gyro().tobytes() == expect.tobytes()

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
        field = GyroField(sys, design)
        field.at([0.3, -0.2])
        kept = sys.kept_fold
        for q in ([0.1, 0.2], [-0.4, 0.0]):
            field.at(q)
            kinetic_residual(sys, design, q)
        assert len(folds) == 1 and sys.kept_fold is kept
        # a varying G folds nothing
        g = ExprMatrix.from_strings([["0"], ["q1 - 0.5"]], sys.vars)
        varying = MechSystem(sys.vars, sys.M, sys.V, g)
        GyroField(varying, design).at([0.3, -0.2])
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
        expect = MatchRows(sys, design, np.array(samples["points"])).gyro()
        assert np.array_equal(np.array(samples["values"]), expect)


class PerTable:
    """MatchPoint's reads at q, each table evaluated on its own in the order a
    first read takes them, with M's and Mhat's tests those of mass_matrix and
    spd_defect: the reference for the pair function."""

    def __init__(self, sys, design, q):
        self.sys, self.design, self.q = sys, design, q
        self.kept = {}

    def read(self, name, fn):
        if name not in self.kept:
            self.kept[name] = fn()
        return self.kept[name]

    def frame(self):
        return self.read("frame", lambda: input_frame(self.sys.G(self.q), self.q))

    def pair(self):
        def build():
            inv = np.linalg.inv(self.sys.mass_matrix(self.q))
            return matching.MetricPair(
                (inv + inv.T) / 2.0,
                self.design.shaped_mass(self.q),
                self.design.shaped_mass_derivatives(self.q),
            )
        return self.read("pair", build)

    def dm(self):
        return self.read("dm", lambda: self.sys.mass_derivatives(self.q))

    def dv(self):
        return self.read("dv", lambda: self.sys.potential_gradient(self.q))

    def dvhat(self):
        return self.read("dvhat", lambda: self.design.shaped_potential_gradient(self.q))

    def derivation(self):
        def build():
            t = np.ascontiguousarray(matching.t_entries(self.pair(), self.dm()))
            if not finite_rows(t):
                raise TensorError(NOT_FINITE)
            return matching._derive(self.sys, self.frame(), t)
        return self.read("derivation", build)

    def residual(self):
        minv, mhat, _ = self.pair()
        w = self.frame().annihilator
        potential = w @ (self.dv() - mhat @ minv @ self.dvhat())
        gmap, y = self.derivation()
        return float(np.max(np.abs(np.concatenate([potential, y[gmap.kinetic]])), initial=0.0))

    def gyro(self):
        gmap, y = self.derivation()
        if defect := derivation_defect(gmap.peaks(y).tolist()):
            raise MatchingError(
                f"cannot extend to a gyroscopic tensor at q={q_text(self.q)}: {defect}"
            )
        return y[gmap.c].reshape((self.sys.n,) * 3)


def per_table_call(ctrl, name, q, p):
    """closed_loop_field ("field"), feedback, GyroField.at ("derive"),
    Controller.gyro_at or Controller.matching_residual ("residual") at (q, p)
    from PerTable, with the shaped law's and the feedback's formulas."""
    sys, design = ctrl.sys, ctrl.design
    q, p = np.asarray(q, dtype=float), np.asarray(p, dtype=float)
    point = PerTable(sys, design, q)
    if name == "derive":
        return point.gyro()
    if name == "residual":
        return point.residual()
    if name == "gyro_at":
        return point.gyro() if design.C is None else design.c_table_at(q)
    if name == "feedback" and (res := point.residual()) > RESIDUAL_TOL:
        warnings.warn(f"matching residual {res:.3e} exceeds {RESIDUAL_TOL:.1e} at q={q_text(q)}")
    g, (minv, mhat, dmhat) = point.frame().g, point.pair()
    if defect := spd_defect(mhat):
        raise SystemError(f"shaped mass {defect} at q={q_text(q)}")
    uhat = np.linalg.solve(mhat, p)
    dqhhat = q_gradient(point.dvhat(), dmhat, uhat)
    c = point.gyro() if design.C is None else design.c_table_at(q)
    qdot = minv @ (mhat @ uhat)
    pdot = -mhat @ (minv @ dqhhat) - g @ (ctrl.Kv @ (g.T @ uhat)) + c.T @ uhat @ uhat
    if name == "field":
        return qdot, pdot
    rhs = q_gradient(point.dv(), point.dm(), minv @ p) + pdot
    return np.linalg.solve(g.T @ g, g.T @ rhs)


PAIR_CALLS = {
    "field": lambda ctrl, q, p: closed_loop_field(ctrl, q, p),
    "feedback": lambda ctrl, q, p: feedback(ctrl, q, p),
    "derive": lambda ctrl, q, p: GyroField(ctrl.sys, ctrl.design).at(q),
    "gyro_at": lambda ctrl, q, p: ctrl.gyro_at(q),
    "residual": lambda ctrl, q, p: ctrl.matching_residual(q),
}


def outcome(call):
    """What call() gives: its arrays' shapes and bytes, or its exception's type
    and message; with the first clause of each warning it raises."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = call()
        except POINT_ERRORS as exc:
            result = exc
    texts = [str(w.message).split(";")[0] for w in caught]
    if isinstance(result, Exception):
        return type(result).__name__, str(result), texts
    arrays = result if isinstance(result, tuple) else (result,)
    return [(np.shape(a), np.asarray(a, dtype=float).tobytes()) for a in arrays], texts


def assert_pair_parity(ctrl, q, p):
    for name, call in PAIR_CALLS.items():
        # the call first: a constant G's first query keeps the frame, after
        # which _derive takes the kept fold
        got = outcome(lambda: call(ctrl, q, p))
        assert got == outcome(lambda: per_table_call(ctrl, name, q, p)), (name, q_text(q))


def pendulum_data(c_table=True):
    data = system_to_dict(*builtin("pendulum_cart", eps=0.55, K=0.25))
    if not c_table:
        del data["shaped"]["C"]
    return data


def rotated_pendulum():
    """pendulum_cart (eps 0.55, K 0.25, no C table) in the coordinates x = R q,
    R = [[0.8, 0.6], [-0.6, 0.8]]: M and Mhat become R M R', and G the
    constant [0.6, 0.8]'.  The lower triangles mirror the upper ones."""
    data = pendulum_data(c_table=False)
    q_of_x = {"q1": "(0.8*q1 - 0.6*q2)", "q2": "(0.6*q1 + 0.8*q2)"}

    def substituted(text):
        return re.sub(r"q[12]", lambda match: q_of_x[match.group()], text)

    r = [[0.8, 0.6], [-0.6, 0.8]]

    def rotated(rows):
        out = [[None, None], [None, None]]
        for i in range(2):
            for j in range(i, 2):
                out[i][j] = out[j][i] = " + ".join(
                    f"{r[i][k] * r[j][l]!r}*({substituted(rows[k][l])})"
                    for k in range(2) for l in range(2)
                )
        return out

    data["M"], data["V"] = rotated(data["M"]), substituted(data["V"])
    data["G"] = [["0.6"], ["0.8"]]
    shaped = data["shaped"]
    shaped["Mhat"], shaped["Vhat"] = rotated(shaped["Mhat"]), substituted(shaped["Vhat"])
    return load_system(data)


def varying_g_pendulum(c_table):
    """pendulum_cart with G = [0, 2 + cos(q1)]': G varies, its annihilator does
    not, so the design still matches."""
    data = pendulum_data(c_table)
    data["G"] = [["0"], ["2 + cos(q1)"]]
    return load_system(data)


PAIR_DESIGNS = {
    "pendulum-c": lambda: load_system(pendulum_data()),
    "pendulum-noc": lambda: load_system(pendulum_data(c_table=False)),
    "three-dof-constant-shaped": three_dof_constant_shaped,
    "varying-g-c": lambda: varying_g_pendulum(True),
    "varying-g-noc": lambda: varying_g_pendulum(False),
    "rotated": rotated_pendulum,
}

NAN = "(q1*1e200*1e200 - q1*1e200*1e200)"


def failing_pair_design(case):
    """pendulum_cart variants on which some read fails at the test points; the
    ``and`` cases fail two reads at one q."""
    data = pendulum_data(c_table=case.endswith("-c"))
    shaped = data["shaped"]
    if case == "nan-m":
        data["M"][0][1] = data["M"][1][0] = f"cos(q1) + {NAN}"
    elif case == "nan-mhat":
        shaped["Mhat"][1][1] += f" + {NAN}"
    elif case.startswith("big-mhat"):
        shaped["Mhat"] = [[f"1e200*({e})" for e in row] for row in shaped["Mhat"]]
    elif case == "zero-over-zero":
        shaped["Mhat"][1][1] += " + (q1 - q1)/(q1 - q1)"
    elif case == "overflow":
        shaped["Mhat"][0][0] = "3 + (q1*1e200)^2"
    elif case == "rank-deficient":
        data["G"] = [["0"], ["0"]]
    elif case == "non-pd-m-and-zero-over-zero":
        data["M"] = [["1", "2"], ["2", "1"]]
        shaped["Mhat"][1][1] += " + (q1 - q1)/(q1 - q1)"
    elif case == "non-pd-mhat-and-dvhat-c":
        shaped["Mhat"][0][0] = "-1"
        shaped["Vhat"] += " + q1^2/(q2 - q2)"
    elif case == "non-pd-mhat-and-c-table-c":
        shaped["Mhat"][0][0] = "-1"
        shaped["C"][0][0][0] = "1/(q1 - q1)"
    return load_system(data)


PAIR_POINTS = [[0.3, -0.2], [0.0, 0.1], [-0.6, 0.5]]


class TestPairFunction:
    @pytest.mark.parametrize("case", list(PAIR_DESIGNS))
    def test_bitwise_equal_to_per_table_reads(self, case):
        sys, design = PAIR_DESIGNS[case]()
        ctrl = Controller(sys, design)
        rng = np.random.default_rng(11)
        # |q1| up to 1.3 leaves the eps 0.55 shaped mass's PD region
        for x in rng.uniform(-1.3, 1.3, (60, 2 * sys.n)):
            assert_pair_parity(ctrl, x[:sys.n], x[sys.n:])

    @pytest.mark.parametrize("case", [
        "nan-m", "nan-mhat", "big-mhat", "big-mhat-c", "zero-over-zero", "overflow",
        "rank-deficient",
        "non-pd-m-and-zero-over-zero", "non-pd-mhat-and-dvhat-c", "non-pd-mhat-and-c-table-c",
    ])
    def test_errors_equal_per_table_reads(self, case):
        sys, design = failing_pair_design(case)
        ctrl = Controller(sys, design)
        for q in PAIR_POINTS:
            assert_pair_parity(ctrl, q, [0.4, 0.1])

    @pytest.mark.parametrize("case", ["nan-m", "nan-mhat"])
    def test_eigvalsh_takes_no_non_finite_stack(self, case, monkeypatch):
        # LAPACK may return garbage or raise on NaN input; only mass_matrix
        # takes a non-finite M to it, as it did on its own
        seen, eigvalsh = [], linalg.eigvalsh

        def recorded(a):
            seen.append(a.copy())
            return eigvalsh(a)

        monkeypatch.setattr(linalg, "eigvalsh", recorded)
        sys, design = failing_pair_design(case)
        ctrl = Controller(sys, design)
        for q in PAIR_POINTS:
            for call in PAIR_CALLS.values():
                outcome(lambda: call(ctrl, q, [0.4, 0.1]))
        non_finite = [a for a in seen if not np.isfinite(a).all()]
        assert all(a.shape == (2, 2) for a in non_finite)
        assert len(non_finite) == (0 if case == "nan-mhat" else 2 * len(PAIR_CALLS))

    def test_coinciding_failures_keep_their_order(self):
        # the pair function evaluates M, Mhat, dMhat, dVhat and C before any
        # test; a read still raises what it raises on its own, first in order
        q, p = [0.3, -0.2], [0.4, 0.1]
        sys, design = failing_pair_design("non-pd-m-and-zero-over-zero")
        with pytest.raises(SystemError, match=r"^mass matrix not positive definite"):
            closed_loop_field(Controller(sys, design), q, p)
        sys, design = failing_pair_design("non-pd-mhat-and-dvhat-c")
        ctrl = Controller(sys, design)
        with pytest.raises(SystemError, match=r"^shaped mass is not positive definite"):
            closed_loop_field(ctrl, q, p)
        with pytest.raises(ExprError, match=r"^division by zero"):
            feedback(ctrl, q, p)  # its residual reads dVhat before the shaped law
        sys, design = failing_pair_design("non-pd-mhat-and-c-table-c")
        ctrl = Controller(sys, design)
        with pytest.raises(SystemError, match=r"^shaped mass is not positive definite"):
            closed_loop_field(ctrl, q, p)
        with pytest.raises(ExprError, match=r"^division by zero in 1/\(q1 - q1\)"):
            ctrl.gyro_at(q)

    @pytest.mark.parametrize("case", list(PAIR_DESIGNS))
    def test_mirrored_entries_are_one_temporary(self, case):
        # an accepted M or Mhat has equal mirrored trees, so one temporary:
        # every path evaluates it exactly symmetric, and the shaped law can
        # skip spd_defect's symmetry test
        sys, design = PAIR_DESIGNS[case]()
        points = np.random.default_rng(2).uniform(-1.0, 1.0, (20, sys.n))
        stacks = [sys.M.batch(points)[0], design.Mhat.batch(points)[0]]
        for q in points:
            stacks.append(pair_function(sys, design)(q)[0])
            stacks += [sys.M(q)[None], design.Mhat(q)[None]]
        for stack in stacks:
            assert stack.tobytes() == stack.swapaxes(-1, -2).copy().tobytes()

    def test_mirror_grouped_apart_is_refused(self):
        # q2 + (1e20*q1 - 1e20*q1) and (q2 + 1e20*q1) - 1e20*q1 are different
        # trees, which evaluate apart: the second loses q2
        sys, design = builtin("pendulum_cart", eps=0.55, K=0.25)
        rows = design.Mhat.to_strings()
        rows[0][1] += " + (q2 + (1e20*q1 - 1e20*q1))"
        rows[1][0] += " + (q2 + 1e20*q1 - 1e20*q1)"
        bent = ExprMatrix.from_strings(rows, sys.vars)
        assert not bent.is_symmetric()
        with pytest.raises(SystemError, match=r"^shaped mass matrix must be structurally symmetric"):
            ShapedDesign(sys.vars, bent, design.Vhat, design.Kv)

    def test_kept_per_system(self):
        sys, design = builtin("pendulum_cart", eps=0.55, K=0.25)
        assert design.kept_pair is None  # built at the first per-point read
        kept = pair_function(sys, design)
        assert pair_function(sys, design) is kept
        other, _ = builtin("pendulum_cart", eps=0.55, K=0.25)
        assert pair_function(other, design) is not kept
