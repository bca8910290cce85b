import csv
import math
import re

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
from idapbc.expr import Compiled, ExprError, parse
from idapbc import matching
from idapbc.matching import (
    GyroField,
    MatchingError,
    evaluate_residuals,
    pair_function,
)
from idapbc.system import (
    ExprMatrix,
    MechSystem,
    ShapedDesign,
    SystemError,
    builtin,
    input_frame,
    load_system,
    q_gradient,
    system_to_dict,
)
from idapbc.tensor import (
    GyroTensor,
    Tensor3,
    TensorError,
    b_from_gyro,
    b_to_j,
    extend_to_gyro,
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


def muted(design):
    """The design with a zero C table: its shaped law without the gyroscopic
    force."""
    n = len(design.vars)
    zero = [[[parse("0", design.vars)] * n for _ in range(n)] for _ in range(n)]
    return ShapedDesign(design.vars, design.Mhat, design.Vhat, design.Kv, C=zero)


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
        data = system_to_dict(*builtin("pendulum_cart"))
        data["shaped"]["Kv"] = [[2.5]]
        ctrl = Controller(*load_system(data))
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

    @pytest.mark.parametrize(
        "kv", [True, np.bool_(True), np.array([[True]])], ids=["bool", "numpy-bool", "bool-array"]
    )
    def test_boolean_kv_rejected(self, kv):
        sys, design = builtin("pendulum_cart")
        with pytest.raises(SystemError, match="^Kv is not a numeric matrix: boolean entry in "):
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

    def test_table_free_design_derives_pointwise(self):
        # identity shaping of the three-dof system has a vanishing tensor
        sys, _ = builtin("three_dof")
        design = ShapedDesign(sys.vars, sys.M, sys.V, np.eye(2))
        ctrl = Controller(sys, design)
        c = ctrl.gyro_at([0.2, -0.1, 0.3])
        assert c.shape == (3, 3, 3)
        assert np.max(np.abs(c)) <= 1e-12

    def test_failed_extension_raises(self):
        # no closed loop with this Mhat exists, so there is no force to apply
        sys, _ = builtin("pendulum_cart")
        broken = ShapedDesign(
            sys.vars,
            ExprMatrix.from_strings([["2", "0"], ["0", "1"]], sys.vars),
            parse("q1^2 + q2^2", sys.vars),
            np.eye(1),
        )
        ctrl = Controller(sys, broken)
        q, p = [0.3, 0.0], [0.1, 0.1]
        match = r"cannot extend to a gyroscopic tensor at q=\[0.3, 0.0\]"
        with pytest.raises(MatchingError, match=match):
            ctrl.gyro_at(q)
        with pytest.raises(MatchingError, match=match):
            closed_loop_field(ctrl, q, p)
        with pytest.warns(UserWarning, match="matching residual"):
            with pytest.raises(MatchingError, match=match):
                feedback(ctrl, q, p)

    def test_matching_residual_small_for_builtin(self):
        _, _, ctrl = pendulum_controller()
        assert ctrl.matching_residual([0.3, -0.5]) <= 1e-10


class TestFeedback:
    @pytest.mark.filterwarnings("ignore:matching residual")
    def test_n3_tick_equals_the_reference_chain(self):
        # n = 3, d = 1, a constant G and no C table: the law is a Tick; its
        # potential matching residual reaches 0.2, so feedback warns
        vars3 = ("q1", "q2", "q3")
        m = ExprMatrix.from_strings([["2", "3*sin(q2)/10", "0"],
                                     ["3*sin(q2)/10", "3", "cos(q3)/5"],
                                     ["0", "cos(q3)/5", "2"]], vars3)
        g = ExprMatrix.from_strings([["0", "0"], ["1", "0"], ["0", "1"]], vars3)
        sys = MechSystem(vars3, m, parse("q1^2 + q2^2 + q3^2", vars3), g)
        mhat = ExprMatrix.from_strings([["2", "1/2", "0"], ["1/2", "2", "3/10"],
                                        ["0", "3/10", "2"]], vars3)
        design = ShapedDesign(vars3, mhat, parse("q1^2 + q2^2 + q3^2", vars3),
                              [[1.0, 0.2], [0.2, 0.5]])
        ctrl = Controller(sys, design)
        for x in np.random.default_rng(9).uniform(-0.5, 0.5, (100, 6)):
            want = reference_feedback(ctrl, x[:3], x[3:])
            got = feedback(ctrl, x[:3], x[3:])
            assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(want).max())

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
        ctrl = Controller(sys, design)
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


def count_pair_calls(sys, design):
    """Wrap the compiled pair function of (sys, design); return its call counter."""
    tables, calls = pair_function(sys, design), [0]
    fn = tables._fn

    def counted(q):
        calls[0] += 1
        return fn(q)

    tables._fn = counted
    return calls


def reference_feedback(ctrl, q, p):
    """feedback at (q, p) by a numpy chain: T by einsum from M^-1, C by
    extend_to_gyro in the adapted basis, the law by LU solves, and the u
    with G'G u = G'(dH/dq + pdot)."""
    sys, design = ctrl.sys, ctrl.design
    m, mhat, dmhat, dm = sys.M(q), design.Mhat(q), design.dMhat(q), sys.dM(q)
    g, minv = sys.G(q), np.linalg.inv(m)
    dminv = -np.einsum("ij,kjl,lm->kim", minv, dm, minv)
    t = (-0.5 * np.einsum("kl,lt,tij->ijk", mhat, minv, dmhat)
         - 0.5 * np.einsum("krs,ri,sj->ijk", dminv, mhat, mhat))
    frame = input_frame(g, q)
    basis = np.concatenate([frame.annihilator, frame.range_basis.T])
    tp = np.einsum("ijk,ai,bj,ck->abc", t, basis, basis, basis)
    cp = extend_to_gyro(Tensor3(tp), len(frame.annihilator)).entries
    c = np.einsum("rst,ri,sj,tk->ijk", cp, basis, basis, basis)
    uhat = np.linalg.solve(mhat, p)
    grad_hd = q_gradient(design.dVhat(q), dmhat, uhat)
    pdot = (np.einsum("ijk,i,j->k", c, uhat, uhat) - mhat @ np.linalg.solve(m, grad_hd)
            - g @ ctrl.Kv @ g.T @ uhat)
    rhs = q_gradient(sys.dV(q), dm, np.linalg.solve(m, p)) + pdot
    return np.linalg.solve(g.T @ g, g.T @ rhs)


def count_law_calls(ctrl):
    """Wrap the controller's two compiled laws, closed_loop_field's and
    feedback's; return their joint call counter."""
    calls = [0]
    for selection in (False, True):
        law = ctrl.law(selection)

        def counted(x, law=law):
            calls[0] += 1
            return law(x)

        ctrl._laws[selection] = counted
    return calls


def gyro_at(ctrl, q, p):
    return ctrl.gyro_at(q)


class TestOneEvaluationPerCall:
    # M, Mhat, dMhat, dVhat, dM, dV, T, its derivation and the potential
    # defect come from one call of the pair function, a stored C from its own
    # table, and a constant G from the kept frame.  The law, a Tick,
    # evaluates the tables, T, C (derived or stored) and the residual
    # itself: feedback and closed_loop_field call it alone, gyro_at the pair
    # function alone without a stored C and neither with one.  A varying G
    # is evaluated once per call, and its frame's adapted basis is an input
    # of the law and of the pair function.
    @pytest.mark.parametrize("with_table", [False, True])
    def test_each_matrix_once(self, with_table):
        sys, design = builtin("pendulum_cart", eps=0.55, K=0.25)
        if not with_table:
            design = ShapedDesign(sys.vars, design.Mhat, design.Vhat, design.Kv)
        ctrl = Controller(sys, design)
        q, p = [0.3, -0.2], [0.4, 0.1]
        sys.frame(q)  # a constant G is evaluated once, at its first query
        gyro_calls = [0, 0] if with_table else [1, 0]
        for call, want in ((feedback, [0, 1]), (closed_loop_field, [0, 1]),
                           (gyro_at, gyro_calls)):
            counts = count_evaluations(sys.M, sys.G, design.Mhat)
            pair_calls, law_calls = count_pair_calls(sys, design), count_law_calls(ctrl)
            call(ctrl, q, p)
            assert counts == [0, 0, 0] and pair_calls + law_calls == want, call

    def test_varying_input_matrix_once(self):
        sys, stored = builtin("pendulum_cart", eps=0.55, K=0.25)
        g = ExprMatrix.from_strings([["0"], ["2 + cos(q1)"]], sys.vars)
        sys = MechSystem(sys.vars, sys.M, sys.V, g)
        derived = ShapedDesign(sys.vars, stored.Mhat, stored.Vhat, stored.Kv)
        q, p = [0.3, -0.2], [0.4, 0.1]
        for design, g_reads in ((derived, 1), (stored, 0)):
            ctrl = Controller(sys, design)
            for call, want, reads in ((feedback, [0, 1], 1), (closed_loop_field, [0, 1], 1),
                                      (gyro_at, [g_reads, 0], g_reads)):
                counts = count_evaluations(sys.M, sys.G, design.Mhat)
                pair_calls, law_calls = count_pair_calls(sys, design), count_law_calls(ctrl)
                call(ctrl, q, p)
                assert counts == [0, reads, 0] and pair_calls + law_calls == want, call

    def test_each_matrix_once_per_query(self):
        sys, design = builtin("pendulum_cart", eps=0.55, K=0.25)
        design = ShapedDesign(sys.vars, design.Mhat, design.Vhat, design.Kv)
        ctrl = Controller(sys, design)
        q = [0.3, -0.2]
        sys.frame(q)
        for call in (GyroField(sys, design).at, ctrl.gyro_at, ctrl.matching_residual):
            counts = count_evaluations(sys.M, sys.G, design.Mhat)
            pair_calls = count_pair_calls(sys, design)
            call(q)
            assert counts == [0, 0, 0] and pair_calls == [1], call.__name__

    def test_each_matrix_once_per_sweep_point(self, monkeypatch):
        # one batch call of G and one of the pair function, which also
        # derives C and the potential defect, each over all 9 points, and no
        # other evaluation of M or Mhat; a varying G's points carry their
        # adapted bases
        batches, batch = [], Compiled.batch
        monkeypatch.setattr(Compiled, "batch", lambda table, points: (
            batches.append((table, np.shape(points))) or batch(table, points)))
        axes = [(name, np.linspace(-0.5, 0.5, 3)) for name in ("q1", "q2")]
        for g, columns in (("1", 2), ("2 + cos(q1)", 6)):
            sys, design = builtin("pendulum_cart", eps=0.55, K=0.25)
            sys = MechSystem(sys.vars, sys.M, sys.V, ExprMatrix.from_strings([["0"], [g]], sys.vars))
            counts = count_evaluations(sys.M, design.Mhat)
            pair_calls = count_pair_calls(sys, design)
            batches.clear()
            evaluate_residuals(sys, design, axes)
            assert batches == [(sys.G, (9, 2)), (pair_function(sys, design), (9, columns))]
            assert counts == [0, 0] and pair_calls == [0]

    @pytest.mark.parametrize("g", ["0", "1/0"])
    def test_constant_g_failing_everywhere_makes_no_pair_call(self, monkeypatch, g):
        # G's rank check (or its evaluation) has failed every row before the
        # pair function would run
        batches, batch = [], Compiled.batch
        monkeypatch.setattr(Compiled, "batch", lambda table, points: (
            batches.append(table) or batch(table, points)))
        sys, design = builtin("pendulum_cart", eps=0.55, K=0.25)
        sys = MechSystem(sys.vars, sys.M, sys.V, ExprMatrix.from_strings([["0"], [g]], sys.vars))
        axes = [(name, np.linspace(-0.5, 0.5, 3)) for name in sys.vars]
        assert len(evaluate_residuals(sys, design, axes).failed_points) == 1
        assert batches == [sys.G] and design.kept_pair is None

    def test_stored_tensor_builds_no_t(self, monkeypatch):
        def no_t(*args):
            raise AssertionError("T built on a stored-tensor path")

        # T's trees, which the pair function and feedback's Tick hold
        monkeypatch.setattr(matching, "t_trees", no_t)
        q, p = [0.3, -0.2], [0.4, 0.1]
        for g in ("1", "2 + cos(q1)"):
            sys, design = builtin("pendulum_cart", eps=0.55, K=0.25)
            g = ExprMatrix.from_strings([["0"], [g]], sys.vars)
            sys = MechSystem(sys.vars, sys.M, sys.V, g)
            closed_loop_field(Controller(sys, design), q, p)
            counts = count_evaluations(sys.M, sys.G, design.Mhat)
            Controller(sys, design).gyro_at(q)
            assert counts == [0, 0, 0] and design.kept_pair is None

    @pytest.mark.parametrize("g", ["1", "2 + cos(q1)"])
    def test_failing_point_calls_the_pair_function_once(self, g):
        # Mhat divides by q1 - 0.5: the law, a Tick for the constant G, takes
        # no value, and the replay's reads keep the pair function's exception
        sys, design = builtin("pendulum_cart", eps=0.55, K=0.25)
        sys = MechSystem(sys.vars, sys.M, sys.V, ExprMatrix.from_strings([["0"], [g]], sys.vars))
        rows = design.Mhat.to_strings()
        rows[0][0] += " + (q1 - 0.5)/(q1 - 0.5) - 1"
        broken = ShapedDesign(
            sys.vars, ExprMatrix.from_strings(rows, sys.vars), design.Vhat, design.Kv
        )
        ctrl = Controller(sys, broken)
        calls = count_pair_calls(sys, broken)
        with pytest.raises(ExprError, match=r"^division by zero in \(q1 - 0.5\)/\(q1 - 0.5\)$"):
            closed_loop_field(ctrl, [0.5, 0.1], [0.4, 0.1])
        assert calls == [1]

    def test_non_finite_t_stays_a_tensor_error(self):
        # T is quadratic in Mhat and overflows; that is not a missing extension
        sys, design = builtin("pendulum_cart", eps=0.55, K=0.25)
        rows = [[f"1e200*({e})" for e in row] for row in design.Mhat.to_strings()]
        mhat = ExprMatrix.from_strings(rows, sys.vars)
        big = Controller(sys, ShapedDesign(sys.vars, mhat, design.Vhat, design.Kv))
        q, p = [0.5, 0.0], [0.4, 0.1]
        # with a stored C the field reads no T, and feedback judges T only on
        # its finiteness
        stored = Controller(sys, ShapedDesign(sys.vars, mhat, design.Vhat, design.Kv,
                                              C=design.C.tree))
        for call in (lambda: GyroField(sys, big.design).at(q), lambda: big.gyro_at(q),
                     lambda: closed_loop_field(big, q, p), lambda: feedback(stored, q, p)):
            with pytest.raises(TensorError, match="finite"):
                call()
        closed_loop_field(stored, q, p)


class TestClosedLoopField:
    @pytest.mark.parametrize("with_table", [False, True])
    def test_reads_dm_only_for_feedback(self, with_table):
        # the shaped law needs no dM/dq; the feedback's dH/dq does (and T).
        # With a constant G, dM comes from the Tick, which calls no pair
        # function
        sys, design = builtin("pendulum_cart", eps=0.55, K=0.25)
        if not with_table:
            design = ShapedDesign(sys.vars, design.Mhat, design.Vhat, design.Kv)
        ctrl = Controller(sys, design)
        alone, dm_fn = [], sys.dM._fn
        sys.dM._fn = lambda q: alone.append(1) or dm_fn(q)
        calls = count_pair_calls(sys, design)
        q, p = [0.3, -0.2], [0.4, 0.1]
        closed_loop_field(ctrl, q, p)
        assert calls == [0]
        feedback(ctrl, q, p)
        assert calls == [0] and alone == []

    def test_equilibrium_is_fixed_point(self):
        _, _, ctrl = pendulum_controller()
        qdot, pdot = closed_loop_field(ctrl, [0.0, 0.0], [0.0, 0.0])
        assert np.max(np.abs(qdot)) <= 1e-12
        assert np.max(np.abs(pdot)) <= 1e-12

    def test_velocity_identity(self):
        # qdot = Minv Mhat (Mhat^-1 p) collapses to Minv p for any design
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

    @pytest.mark.parametrize("case", ["pendulum-table", "pendulum-derived", "three-dof"])
    def test_energy_balance_of_the_law(self, case):
        # grad Hd . (qdot, pdot) = -uhat' G Kv G' uhat for any gyroscopic C,
        # matched or not; three-dof takes the law's unrolled 3x3 factorizations
        sys, design = builtin("pendulum_cart", eps=0.55, K=0.25)
        if case == "pendulum-derived":
            design = ShapedDesign(sys.vars, design.Mhat, design.Vhat, design.Kv)
        elif case == "three-dof":
            sys, _ = builtin("three_dof")
            mhat = ExprMatrix.from_strings(
                [["3 + sin(q1)", "1/2", "cos(q2)/4"], ["1/2", "2", "3/10"],
                 ["cos(q2)/4", "3/10", "2 + q3^2"]], sys.vars)
            zero = [[[parse("0", sys.vars)] * 3 for _ in range(3)] for _ in range(3)]
            vhat = parse("q1^2 + q2^2 + q3^2 + q1*q3", sys.vars)
            design = ShapedDesign(sys.vars, mhat, vhat, [[2.0, 0.5], [0.5, 1.0]], C=zero)
        ctrl = Controller(sys, design)
        n = sys.n
        rng = np.random.default_rng(12)
        for state in rng.uniform(-0.5, 0.5, (100, 2 * n)):
            q, p = state[:n], state[n:]
            qdot, pdot = closed_loop_field(ctrl, q, p)
            uhat = np.linalg.solve(design.Mhat(q), p)
            grad_q = design.dVhat(q) - 0.5 * np.einsum("i,kij,j->k", uhat, design.dMhat(q), uhat)
            g = sys.input_matrix(q)
            damping = uhat @ g @ ctrl.Kv @ g.T @ uhat
            assert damping > 0.0
            scale = np.linalg.norm(grad_q) * np.linalg.norm(qdot) + np.linalg.norm(uhat) * np.linalg.norm(pdot)
            assert abs(grad_q @ qdot + uhat @ pdot + damping) <= 1e-12 * scale

    def test_gyro_term_does_no_work(self, damped_run):
        # replacing the tensor with zero changes the energy rate by nothing
        # at every sampled state of the converging run
        sys, design = builtin("pendulum_cart", eps=0.55, K=0.25)
        ctrl = Controller(sys, design, kv=1.0)
        ctrl0 = Controller(sys, muted(design))
        for state in damped_run.states[::10]:
            q, p = state[:2], state[2:]
            _, pdot = closed_loop_field(ctrl, q, p)
            _, pdot0 = closed_loop_field(ctrl0, q, p)
            uhat = np.linalg.solve(design.shaped_mass(q), p)
            assert abs(uhat @ (pdot - pdot0)) <= 1e-12

    def test_j_matrix_route_gives_same_field(self):
        # rebuild the force through the interconnection-matrix formulation
        sys, design, ctrl = pendulum_controller()
        ctrl0 = Controller(sys, muted(design))
        rng = np.random.default_rng(10)
        for state in random_pendulum_states(rng, 25):
            q, p = state[:2], state[2:]
            mhat = design.shaped_mass(q)
            c = GyroTensor(ctrl.gyro_at(q))
            j = b_to_j(b_from_gyro(c), mhat)
            _, pdot = closed_loop_field(ctrl, q, p)
            _, pdot0 = closed_loop_field(ctrl0, q, p)
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

    def test_step_count_must_fit_an_array(self):
        # the (steps + 1, 2n) state array at numpy's limit: 1e17 steps fit in
        # its byte count, 1e18 do not (checked without allocating)
        SimConfig(t_end=1e17, dt=1.0, x0=[0.0] * 4)
        with pytest.raises(ValueError, match="too big"):
            np.empty((10**18 + 1, 4))
        for t_end, dt, count in ((1e18, 1.0, "1e+18"), (1.0, 1e-300, "1e+300"),
                                 (1.0, 1e-320, "inf")):
            with pytest.raises(SystemError, match=f"takes {re.escape(count)} steps"):
                SimConfig(t_end=t_end, dt=dt, x0=[0.0] * 4)


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

    @pytest.mark.parametrize("x0", [[0.0, 2e6], [0.0, 1e200], [1e300, 1e300]])
    def test_start_beyond_the_guard_diverges_at_zero(self, x0):
        def unused(q, p):
            raise AssertionError("field evaluated")

        cfg = SimConfig(t_end=1.0, dt=0.1, x0=x0)
        with pytest.raises(DivergenceError, match="at t=0$") as err:
            simulate(unused, cfg)
        assert err.value.time == 0.0 and err.value.norm == math.hypot(*x0)

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
        assert decay_metrics(traj, 0.0) == (1.0, None, 1)

    def test_growth_rate_recovered(self):
        # growing energy keeps the tail above the rest energy 0, so the fit
        # sees a clean exponential
        t = np.linspace(0.0, 20.0, 801)
        e = np.exp(0.3 * t)
        from idapbc.system import StateTrajectory

        _, rate, at_rest = decay_metrics(StateTrajectory(t, np.zeros((801, 2)), e), 0.0)
        assert rate == pytest.approx(0.3, abs=0.05)
        assert rate > 0.0
        assert at_rest == 0

    def test_damped_run_decays(self, damped_run):
        _, design = builtin("pendulum_cart", eps=0.55, K=0.25)
        inc, rate, at_rest = decay_metrics(
            damped_run, design.shaped_hamiltonian([0.0, 0.0], [0.0, 0.0])
        )
        assert inc <= 1e-8
        assert rate < 0.0
        assert at_rest == 0

    def test_constant_energy_at_equilibrium_has_no_rate(self):
        from idapbc.system import StateTrajectory

        traj = StateTrajectory(
            np.arange(6.0), np.zeros((6, 2)), np.ones(6)
        )
        assert decay_metrics(traj, 1.0) == (0.0, None, 3)

    def test_samples_at_or_below_equilibrium_left_out_of_the_fit(self):
        from idapbc.system import StateTrajectory

        t = np.arange(8.0)
        e = np.exp(-0.5 * t)
        e[5], e[7] = 0.0, -1e-12
        _, rate, at_rest = decay_metrics(StateTrajectory(t, np.zeros((8, 2)), e), 0.0)
        assert rate == pytest.approx(-0.5, abs=1e-12)
        assert at_rest == 2

    def test_too_short_rejected(self):
        from idapbc.system import StateTrajectory

        with pytest.raises(SystemError, match="short"):
            decay_metrics(StateTrajectory([0.0], np.zeros((1, 2)), [1.0]), 0.0)


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
