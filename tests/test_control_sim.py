import csv

import numpy as np
import pytest

from idapbc.control_sim import (
    Controller,
    DivergenceError,
    SimConfig,
    closed_loop_field,
    closed_loop_linearization,
    decay_metrics,
    feedback,
    simulate,
    write_trajectory_csv,
)
from idapbc.expr import parse
from idapbc import matching
from idapbc.matching import GyroField, evaluate_residuals, kinetic_residual
from idapbc.system import ExprMatrix, MechSystem, ShapedDesign, SystemError, builtin
from idapbc.tensor import (
    GyroTensor,
    TensorError,
    b_from_gyro,
    b_to_j,
    force_from_j,
    gyro_force,
    random_gyro,
)

VARS2 = ["q1", "q2"]


def random_spd(n, rng):
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


def pendulum_controller(eps=1.0, K=1.0, kv=None):
    sys, design = builtin("pendulum_cart", eps=eps, K=K)
    return sys, design, Controller(sys, design, kv=kv)


def random_pendulum_states(rng, count):
    # inside the positive-definite region of the eps=1 shaped mass
    q1 = rng.uniform(-0.7, 0.7, count)
    rest = rng.uniform(-1.0, 1.0, (count, 3))
    return np.column_stack([q1, rest])


class TestGyroForce:
    def test_zero_momentum(self):
        rng = np.random.default_rng(0)
        c = random_gyro(3, rng)
        assert np.all(gyro_force(c, random_spd(3, rng), np.zeros(3)) == 0.0)

    def test_quadratic_homogeneity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            c = random_gyro(3, rng)
            mhat = random_spd(3, rng)
            p = rng.standard_normal(3)
            np.testing.assert_allclose(
                gyro_force(c, mhat, 2.0 * p),
                4.0 * gyro_force(c, mhat, p),
                rtol=0.0,
                atol=1e-12,
            )

    def test_matches_direct_contraction(self):
        rng = np.random.default_rng(2)
        c = random_gyro(4, rng)
        mhat = random_spd(4, rng)
        p = rng.standard_normal(4)
        u = np.linalg.solve(mhat, p)
        direct = np.zeros(4)
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    direct[k] += c.entries[i, j, k] * u[i] * u[j]
        np.testing.assert_allclose(gyro_force(c, mhat, p), direct, atol=1e-14)

    def test_force_does_no_work(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            c = random_gyro(n, rng)
            mhat = random_spd(n, rng)
            p = rng.standard_normal(n)
            u = np.linalg.solve(mhat, p)
            assert abs(gyro_force(c, mhat, p) @ u) <= 1e-12

    def test_accepts_raw_array(self):
        rng = np.random.default_rng(4)
        c = random_gyro(2, rng)
        mhat = random_spd(2, rng)
        p = rng.standard_normal(2)
        np.testing.assert_array_equal(
            gyro_force(c, mhat, p), gyro_force(c.entries, mhat, p)
        )


class TestController:
    def test_kv_defaults_to_design(self):
        sys, design = builtin("pendulum_cart", Kv=np.array([[2.5]]))
        ctrl = Controller(sys, design)
        np.testing.assert_array_equal(ctrl.Kv, [[2.5]])

    def test_scalar_kv_promoted(self):
        sys, design = builtin("pendulum_cart")
        ctrl = Controller(sys, design, kv=3.0)
        np.testing.assert_array_equal(ctrl.Kv, [[3.0]])

    def test_zero_kv_rejected(self):
        sys, design = builtin("pendulum_cart")
        with pytest.raises(SystemError, match="positive definite"):
            Controller(sys, design, kv=0.0)

    def test_negative_kv_rejected(self):
        sys, design = builtin("pendulum_cart")
        with pytest.raises(SystemError, match="positive definite"):
            Controller(sys, design, kv=np.array([[-1.0]]))

    @pytest.mark.parametrize("kv", [np.nan, np.inf])
    def test_non_finite_scalar_kv_rejected(self, kv):
        sys, design = builtin("pendulum_cart")
        with pytest.raises(SystemError, match="is not finite"):
            Controller(sys, design, kv=kv)

    def test_asymmetric_kv_rejected(self):
        sys, _ = builtin("three_dof")
        design = ShapedDesign(sys.vars, sys.M, sys.V, np.eye(2))
        with pytest.raises(SystemError, match="symmetric"):
            Controller(sys, design, kv=np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_kv_shape_checked(self):
        sys, design = builtin("pendulum_cart")
        with pytest.raises(SystemError, match="1x1"):
            Controller(sys, design, kv=np.eye(2))

    def test_coordinate_mismatch_rejected(self):
        sys, _ = builtin("pendulum_cart")
        other = ShapedDesign(
            ["x1", "x2"],
            ExprMatrix.from_strings([["1", "0"], ["0", "1"]], ["x1", "x2"]),
            parse("x1^2", ["x1", "x2"]),
            np.eye(1),
        )
        with pytest.raises(SystemError, match="coordinates"):
            Controller(sys, other)

    def test_default_gyro_uses_stored_table(self):
        sys, design, ctrl = pendulum_controller()
        q = [0.4, -0.2]
        np.testing.assert_array_equal(ctrl.gyro_at(q), design.c_table_at(q))

    def test_gyro_override_honored(self):
        sys, design = builtin("pendulum_cart")
        calls = []

        def custom(q):
            calls.append(tuple(q))
            return np.zeros((2, 2, 2))

        ctrl = Controller(sys, design, gyro=custom)
        assert np.all(ctrl.gyro_at([0.1, 0.2]) == 0.0)
        assert calls == [(0.1, 0.2)]

    def test_gyro_override_accepts_tensor_objects(self):
        sys, design = builtin("pendulum_cart")
        rng = np.random.default_rng(5)
        c = random_gyro(2, rng)
        ctrl = Controller(sys, design, gyro=lambda q: c)
        np.testing.assert_array_equal(ctrl.gyro_at([0.0, 0.0]), c.entries)

    def test_table_free_design_derives_pointwise(self):
        # identity shaping of the three-dof system has a vanishing tensor
        sys, _ = builtin("three_dof")
        design = ShapedDesign(sys.vars, sys.M, sys.V, np.eye(2))
        ctrl = Controller(sys, design)
        c = ctrl.gyro_at([0.2, -0.1, 0.3])
        assert c.shape == (3, 3, 3)
        assert np.max(np.abs(c)) <= 1e-12

    def test_failed_extension_warns_and_zeroes(self):
        sys, _ = builtin("pendulum_cart")
        broken = ShapedDesign(
            sys.vars,
            ExprMatrix.from_strings([["2", "0"], ["0", "1"]], sys.vars),
            parse("q1^2 + q2^2", sys.vars),
            np.eye(1),
        )
        ctrl = Controller(sys, broken)
        with pytest.warns(UserWarning, match="zero gyroscopic force"):
            c = ctrl.gyro_at([0.3, 0.0])
        assert np.all(c == 0.0)

    def test_matching_residual_small_for_builtin(self):
        _, _, ctrl = pendulum_controller()
        assert ctrl.matching_residual([0.3, -0.5]) <= 1e-10


class TestFeedback:
    def test_zero_at_equilibrium(self):
        _, _, ctrl = pendulum_controller()
        u = feedback(ctrl, [0.0, 0.0], [0.0, 0.0])
        assert np.max(np.abs(u)) <= 1e-12

    def test_pure_damping_at_origin_configuration(self):
        # all gradient and gyroscopic terms vanish at q=0, leaving
        # u = -Kv (Mhat(0)^-1 p)_2 = -Kv with p=(0,1), eps=K=1
        for kv in (1.0, 2.5):
            _, _, ctrl = pendulum_controller(kv=kv)
            u = feedback(ctrl, [0.0, 0.0], [0.0, 1.0])
            np.testing.assert_allclose(u, [-kv], atol=1e-12)

    def test_equivalence_with_open_loop(self):
        sys, _, ctrl = pendulum_controller()
        rng = np.random.default_rng(6)
        for state in random_pendulum_states(rng, 100):
            q, p = state[:2], state[2:]
            u = feedback(ctrl, q, p)
            qdot_ol, pdot_ol = sys.open_loop_field(q, p, u)
            qdot_cl, pdot_cl = closed_loop_field(ctrl, q, p)
            assert np.max(np.abs(qdot_ol - qdot_cl)) <= 1e-9
            assert np.max(np.abs(pdot_ol - pdot_cl)) <= 1e-9

    def test_warns_where_matching_fails(self):
        sys, _ = builtin("pendulum_cart")
        _, good = builtin("pendulum_cart")
        spoiled = ShapedDesign(
            sys.vars,
            good.Mhat,
            parse("-10*cos(q1) + (q2 + 2*sin(q1))^2 + q1/10", sys.vars),
            np.eye(1),
        )
        ctrl = Controller(sys, spoiled)
        with pytest.warns(UserWarning, match="matching residual"):
            feedback(ctrl, [0.3, 0.0], [0.1, 0.1])

    def test_refuses_outside_pd_region(self):
        # Mhat(1.3, 0) has eigenvalue -2.29: no shaped dynamics to match there
        _, _, ctrl = pendulum_controller(eps=0.55, K=0.25)
        q, p = [1.3, 0.0], [0.1, 0.2]
        with pytest.raises(SystemError, match="not positive definite") as field_error:
            closed_loop_field(ctrl, q, p)
        with pytest.raises(SystemError, match="not positive definite") as feedback_error:
            feedback(ctrl, q, p)
        assert str(feedback_error.value) == str(field_error.value)

    def test_rank_deficient_input_matrix(self):
        sys = MechSystem(
            VARS2,
            ExprMatrix.from_strings([["1", "0"], ["0", "1"]], VARS2),
            parse("q1^2 + q2^2", VARS2),
            ExprMatrix.from_strings([["q1"], ["0"]], VARS2),
        )
        design = ShapedDesign(sys.vars, sys.M, sys.V, np.eye(1))
        ctrl = Controller(sys, design, gyro=lambda q: np.zeros((2, 2, 2)))
        with pytest.raises(SystemError, match="rank-deficient"):
            feedback(ctrl, [0.0, 0.0], [0.0, 0.0])


    def test_fully_actuated(self):
        # no annihilator: the matching residual is vacuous and the law is
        # computable everywhere
        sys = MechSystem(
            VARS2,
            ExprMatrix.from_strings([["2", "cos(q1)"], ["cos(q1)", "2"]], VARS2),
            parse("q1^2 + q2^2", VARS2),
            ExprMatrix.from_strings([["1", "0"], ["0", "1"]], VARS2),
        )
        design = ShapedDesign(
            sys.vars,
            ExprMatrix.from_strings([["1", "0"], ["0", "1"]], VARS2),
            parse("q1^2 + 3*q2^2", VARS2),
            np.eye(2),
        )
        ctrl = Controller(sys, design)
        assert ctrl.matching_residual([0.1, 0.2]) == 0.0
        q, p = np.array([0.1, 0.2]), np.array([0.3, -0.1])
        u = feedback(ctrl, q, p)
        ol = np.concatenate(sys.open_loop_field(q, p, u))
        cl = np.concatenate(closed_loop_field(ctrl, q, p))
        assert np.max(np.abs(ol - cl)) <= 1e-12


def count_evaluations(*matrices):
    """Wrap each ExprMatrix's compiled function and its batch variant; return
    the counters of points evaluated (one per call, one per batch row)."""
    counts = [0] * len(matrices)
    for i, m in enumerate(matrices):
        fn, batch = m._fn, m.batch

        def counted(q, i=i, fn=fn):
            counts[i] += 1
            return fn(q)

        def counted_rows(points, i=i, batch=batch):
            counts[i] += len(points)
            return batch(points)

        m._fn, m.batch = counted, counted_rows
    return counts


class TestOneEvaluationPerCall:
    @pytest.mark.parametrize("with_table", [False, True])
    def test_each_matrix_once(self, with_table):
        sys, design = builtin("pendulum_cart", eps=0.55, K=0.25)
        if not with_table:
            design = ShapedDesign(sys.vars, design.Mhat, design.Vhat, design.Kv)
        ctrl = Controller(sys, design)
        q, p = [0.3, -0.2], [0.4, 0.1]
        for call in (feedback, closed_loop_field):
            counts = count_evaluations(sys.M, sys.G, design.Mhat)
            call(ctrl, q, p)
            assert counts == [1, 1, 1], call.__name__

    def test_each_matrix_once_per_query(self):
        sys, design = builtin("pendulum_cart", eps=0.55, K=0.25)
        design = ShapedDesign(sys.vars, design.Mhat, design.Vhat, design.Kv)
        ctrl = Controller(sys, design)
        q = [0.3, -0.2]
        for call in (GyroField(sys, design).at, ctrl.gyro_at, ctrl.matching_residual):
            counts = count_evaluations(sys.M, sys.G, design.Mhat)
            call(q)
            assert counts == [1, 1, 1], call.__name__

    def test_each_matrix_once_per_sweep_point(self):
        sys, design = builtin("pendulum_cart", eps=0.55, K=0.25)
        counts = count_evaluations(sys.M, sys.G, design.Mhat)
        axes = [(name, np.linspace(-0.5, 0.5, 3)) for name in sys.vars]
        evaluate_residuals(sys, design, axes)
        assert counts == [9, 9, 9]

    def test_stored_tensor_builds_no_t(self, monkeypatch):
        def no_t(*args):
            raise AssertionError("T built on a stored-tensor path")

        # dM^-1, which only T (and A) are built from
        monkeypatch.setattr(matching, "_inverse_derivatives", no_t)
        sys, design = builtin("pendulum_cart", eps=0.55, K=0.25)
        q, p = [0.3, -0.2], [0.4, 0.1]
        closed_loop_field(Controller(sys, design), q, p)
        override = Controller(sys, design, gyro=lambda q: np.zeros((2, 2, 2)))
        counts = count_evaluations(sys.M, sys.G, design.Mhat)
        override.gyro_at(q)
        Controller(sys, design).gyro_at(q)
        assert counts == [0, 0, 0]

    def test_given_rows_build_no_frame(self):
        sys, design = builtin("pendulum_cart", eps=0.55, K=0.25)
        q = [0.3, -0.2]
        w = sys.annihilator(q)
        counts = count_evaluations(sys.M, sys.G, design.Mhat)
        given = kinetic_residual(sys, design, q, w=w)
        assert counts == [1, 0, 1]
        assert np.array_equal(given, kinetic_residual(sys, design, q))

    def test_non_finite_t_stays_a_tensor_error(self):
        # T is quadratic in Mhat and overflows; that is not a missing extension
        sys, design = builtin("pendulum_cart", eps=0.55, K=0.25)
        rows = [[f"1e200*({e})" for e in row] for row in design.Mhat.to_strings()]
        mhat = ExprMatrix.from_strings(rows, sys.vars)
        big = Controller(sys, ShapedDesign(sys.vars, mhat, design.Vhat, design.Kv))
        q, p = [0.5, 0.0], [0.4, 0.1]
        for call in (lambda: GyroField(sys, big.design).at(q), lambda: big.gyro_at(q),
                     lambda: closed_loop_field(big, q, p)):
            with pytest.raises(TensorError, match="finite"):
                call()


class TestClosedLoopField:
    def test_equilibrium_is_fixed_point(self):
        _, _, ctrl = pendulum_controller()
        qdot, pdot = closed_loop_field(ctrl, [0.0, 0.0], [0.0, 0.0])
        assert np.max(np.abs(qdot)) <= 1e-12
        assert np.max(np.abs(pdot)) <= 1e-12

    def test_velocity_identity(self):
        # qdot is assembled as Minv Mhat (Mhat^-1 p); it must collapse to
        # Minv p for any design
        sys, _, ctrl = pendulum_controller(eps=0.55, K=0.25)
        rng = np.random.default_rng(7)
        for state in random_pendulum_states(rng, 50):
            q, p = state[:2], state[2:]
            qdot, _ = closed_loop_field(ctrl, q, p)
            expect = np.linalg.solve(sys.mass_matrix(q), p)
            np.testing.assert_allclose(qdot, expect, rtol=0.0, atol=1e-12)

    def test_energy_derivative_is_damping_only(self):
        # d(Hhat)/dt along the field equals -p' Mhat^-1 G Kv G' Mhat^-1 p
        sys, design, ctrl = pendulum_controller(kv=1.7)
        rng = np.random.default_rng(8)
        h = 1e-6
        for state in random_pendulum_states(rng, 100):
            q, p = state[:2], state[2:]
            qdot, pdot = closed_loop_field(ctrl, q, p)
            grad_q = np.array(
                [
                    (
                        design.shaped_hamiltonian(q + h * e, p)
                        - design.shaped_hamiltonian(q - h * e, p)
                    )
                    / (2 * h)
                    for e in np.eye(2)
                ]
            )
            uhat = np.linalg.solve(design.shaped_mass(q), p)
            dhdt = grad_q @ qdot + uhat @ pdot
            g = sys.input_matrix(q)
            expect = -uhat @ g @ ctrl.Kv @ g.T @ uhat
            assert expect <= 0.0
            assert abs(dhdt - expect) <= 1e-6

    def test_gyro_term_does_no_work(self, damped_run):
        # replacing the tensor with zero changes the energy rate by nothing
        # at every sampled state of the converging run
        sys, design = builtin("pendulum_cart", eps=0.55, K=0.25)
        ctrl = Controller(sys, design, kv=1.0)
        muted = Controller(sys, design, gyro=lambda q: np.zeros((2, 2, 2)))
        for state in damped_run.states[::10]:
            q, p = state[:2], state[2:]
            _, pdot = closed_loop_field(ctrl, q, p)
            _, pdot0 = closed_loop_field(muted, q, p)
            uhat = np.linalg.solve(design.shaped_mass(q), p)
            assert abs(uhat @ (pdot - pdot0)) <= 1e-12

    def test_j_matrix_route_gives_same_field(self):
        # rebuild the force through the interconnection-matrix formulation
        sys, design, ctrl = pendulum_controller()
        muted = Controller(sys, design, gyro=lambda q: np.zeros((2, 2, 2)))
        rng = np.random.default_rng(10)
        for state in random_pendulum_states(rng, 25):
            q, p = state[:2], state[2:]
            mhat = design.shaped_mass(q)
            c = GyroTensor(ctrl.gyro_at(q))
            j = b_to_j(b_from_gyro(c), mhat)
            _, pdot = closed_loop_field(ctrl, q, p)
            _, pdot0 = closed_loop_field(muted, q, p)
            via_j = pdot0 + force_from_j(j, mhat, p)
            np.testing.assert_allclose(pdot, via_j, rtol=0.0, atol=1e-10)

    def test_shaped_mass_must_be_positive_definite(self):
        _, _, ctrl = pendulum_controller()
        with pytest.raises(SystemError, match="positive definite"):
            closed_loop_field(ctrl, [1.2, 0.0], [0.0, 0.0])


class TestClosedLoopLinearization:
    def test_matches_finite_difference_jacobian(self):
        _, _, ctrl = pendulum_controller(eps=0.55, K=0.25)
        a = closed_loop_linearization(ctrl)
        h = 1e-6
        fd = np.zeros((4, 4))
        for col in range(4):
            e = np.zeros(4)
            e[col] = h
            fp = np.concatenate(closed_loop_field(ctrl, e[:2] + 0.0, e[2:]))
            fm = np.concatenate(closed_loop_field(ctrl, -e[:2], -e[2:]))
            fd[:, col] = (fp - fm) / (2 * h)
        np.testing.assert_allclose(a, fd, rtol=0.0, atol=1e-5)

    def test_block_structure(self):
        sys, design, ctrl = pendulum_controller()
        a = closed_loop_linearization(ctrl)
        assert np.all(a[:2, :2] == 0.0)
        m0inv = np.linalg.inv(sys.mass_matrix([0.0, 0.0]))
        np.testing.assert_allclose(a[:2, 2:], m0inv, atol=1e-14)

    def test_spectrum_in_open_left_half_plane(self):
        _, _, ctrl = pendulum_controller(eps=0.55, K=0.25)
        eigs = np.linalg.eigvals(closed_loop_linearization(ctrl))
        assert np.max(eigs.real) <= -1e-9


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(SystemError, match="dt"):
            SimConfig(t_end=1.0, dt=0.0, x0=[0.0, 0.0])
        with pytest.raises(SystemError, match="t_end"):
            SimConfig(t_end=0.001, dt=0.01, x0=[0.0, 0.0])
        with pytest.raises(SystemError, match="even length"):
            SimConfig(t_end=1.0, dt=0.01, x0=[0.0, 0.0, 0.0])
        with pytest.raises(SystemError, match="finite"):
            SimConfig(t_end=1.0, dt=0.01, x0=[np.nan, 0.0])

    @pytest.mark.parametrize("t_end", [np.nan, np.inf])
    def test_non_finite_horizon_rejected(self, t_end):
        with pytest.raises(SystemError, match="t_end must be finite"):
            SimConfig(t_end=t_end, dt=0.01, x0=[0.0, 0.0])

    def test_horizon_snaps_to_whole_steps(self):
        cfg = SimConfig(t_end=1.0, dt=0.3, x0=[0.0, 0.0])
        assert cfg.steps == 3


@pytest.fixture(scope="module")
def damped_run():
    sys, design = builtin("pendulum_cart", eps=0.55, K=0.25)
    ctrl = Controller(sys, design, kv=1.0)
    cfg = SimConfig(t_end=10.0, dt=1e-3, x0=[0.3, 0.0, 0.0, 0.0])
    traj = simulate(
        lambda q, p: closed_loop_field(ctrl, q, p),
        cfg,
        energy=design.shaped_hamiltonian,
    )
    return traj


class TestSimulate:
    def test_closed_loop_converges(self, damped_run):
        assert np.linalg.norm(damped_run.states[-1]) <= 1e-2

    def test_shaped_energy_never_increases(self, damped_run):
        assert np.max(np.diff(damped_run.energies)) <= 1e-8

    def test_sample_layout(self, damped_run):
        assert damped_run.states.shape == (10001, 4)
        assert damped_run.times[0] == 0.0
        assert damped_run.times[-1] == pytest.approx(10.0)
        np.testing.assert_array_equal(damped_run.states[0], [0.3, 0.0, 0.0, 0.0])

    def test_open_loop_conserves_energy(self):
        sys, _ = builtin("pendulum_cart")
        cfg = SimConfig(t_end=10.0, dt=1e-3, x0=[0.3, 0.0, 0.0, 0.0])
        traj = simulate(
            lambda q, p: sys.open_loop_field(q, p, np.zeros(1)),
            cfg,
            energy=sys.hamiltonian,
        )
        h0 = traj.energies[0]
        assert np.max(np.abs(traj.energies - h0)) <= 1e-6 * (1.0 + abs(h0))

    @pytest.mark.parametrize("closed", [True, False])
    def test_energies_match_per_sample_calls(self, closed):
        # simulate evaluates the energy once on the stacked samples
        sys, design = builtin("pendulum_cart", eps=0.55, K=0.25)
        ctrl = Controller(sys, design, kv=1.0)
        if closed:
            field, energy = (lambda q, p: closed_loop_field(ctrl, q, p)), design.shaped_hamiltonian
        else:
            field, energy = (lambda q, p: sys.open_loop_field(q, p, np.zeros(1))), sys.hamiltonian
        cfg = SimConfig(t_end=0.5, dt=1e-3, x0=[0.3, -0.1, 0.2, 0.0])
        traj = simulate(field, cfg, energy=energy)
        per_sample = [energy(s[:2], s[2:]) for s in traj.states]
        np.testing.assert_allclose(traj.energies, per_sample, rtol=1e-12, atol=0.0)

    def test_fourth_order_convergence(self):
        sys, design = builtin("pendulum_cart", eps=0.55, K=0.25)
        ctrl = Controller(sys, design, kv=1.0)
        field = lambda q, p: closed_loop_field(ctrl, q, p)

        def terminal(dt):
            cfg = SimConfig(t_end=1.0, dt=dt, x0=[0.3, 0.0, 0.0, 0.0])
            return simulate(field, cfg).states[-1]

        coarse, mid, fine = terminal(0.02), terminal(0.01), terminal(0.005)
        ratio = np.linalg.norm(coarse - mid) / np.linalg.norm(mid - fine)
        assert 8.0 < ratio < 32.0

    def test_divergence_reported_with_time(self):
        # saddle flow doubles roughly every 0.7 s; norm passes 1e6 near t=14
        def unstable(q, p):
            return p, q

        cfg = SimConfig(t_end=30.0, dt=0.01, x0=[1.0, 0.0, 0.0, 0.0])
        with pytest.raises(DivergenceError, match="exceeded") as err:
            simulate(unstable, cfg)
        assert 13.0 < err.value.time < 15.0

    def test_energy_defaults_to_zero(self):
        cfg = SimConfig(t_end=0.1, dt=0.01, x0=[0.0, 0.0])
        traj = simulate(lambda q, p: (p, -q), cfg)
        assert np.all(traj.energies == 0.0)


class TestDecayMetrics:
    def test_max_increase_exact(self):
        from idapbc.system import StateTrajectory

        traj = StateTrajectory(
            [0.0, 1.0, 2.0, 3.0], np.zeros((4, 2)), [3.0, 1.0, 2.0, 0.0]
        )
        with pytest.warns(UserWarning, match="clamped"):
            inc, _ = decay_metrics(traj)
        assert inc == 1.0

    def test_growth_rate_recovered(self):
        # growing energy keeps the tail clear of the minimum, so the fit
        # sees a clean exponential
        t = np.linspace(0.0, 20.0, 801)
        e = np.exp(0.3 * t)
        from idapbc.system import StateTrajectory

        _, rate = decay_metrics(StateTrajectory(t, np.zeros((801, 2)), e))
        assert rate == pytest.approx(0.3, abs=0.05)
        assert rate > 0.0

    def test_damped_run_decays(self, damped_run):
        with pytest.warns(UserWarning, match="clamped"):
            inc, rate = decay_metrics(damped_run)
        assert inc <= 1e-8
        assert rate < 0.0

    def test_constant_energy_clamped_with_warning(self):
        from idapbc.system import StateTrajectory

        traj = StateTrajectory(
            np.arange(6.0), np.zeros((6, 2)), np.ones(6)
        )
        with pytest.warns(UserWarning, match="clamped"):
            inc, rate = decay_metrics(traj)
        assert inc == 0.0
        assert abs(rate) <= 1e-9

    def test_too_short_rejected(self):
        from idapbc.system import StateTrajectory

        with pytest.raises(SystemError, match="short"):
            decay_metrics(StateTrajectory([0.0], np.zeros((1, 2)), [1.0]))


class TestTrajectoryCsv:
    def test_round_trip(self, tmp_path, damped_run):
        path = tmp_path / "run.csv"
        write_trajectory_csv(path, damped_run, VARS2)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "q1", "q2", "p1", "p2", "energy"]
        assert len(rows) == damped_run.times.size + 1
        first = [float(x) for x in rows[1]]
        np.testing.assert_allclose(first[1:5], damped_run.states[0], atol=0.0)
        assert first[5] == pytest.approx(damped_run.energies[0], abs=0.0)
        last = [float(x) for x in rows[-1]]
        assert last[0] == pytest.approx(10.0)

    def test_dimension_mismatch(self, tmp_path, damped_run):
        with pytest.raises(SystemError, match="state dimension"):
            write_trajectory_csv(tmp_path / "x.csv", damped_run, ["q1"])
