import json
import math

import numpy as np
import pytest

from idapbc.expr import parse
from idapbc.stability import (
    EXPONENTIAL,
    LYAPUNOV_ONLY,
    NOT_STABILIZABLE,
    Linearization,
    classify,
    linearize,
    minimum_check,
    verdict,
)
from idapbc.system import ExprMatrix, MechSystem, ShapedDesign, builtin

VARS2 = ["q1", "q2"]


def make_system(m_rows, v_text, g_rows, vars=VARS2):
    return MechSystem(
        vars,
        ExprMatrix.from_strings(m_rows, vars),
        parse(v_text, vars),
        ExprMatrix.from_strings(g_rows, vars),
    )


def oscillator_appended():
    # actuated unit oscillator plus an uncontrolled one at frequency 2
    return make_system(
        [["1", "0"], ["0", "1"]], "q1^2/2 + 2*q2^2", [["1"], ["0"]]
    )


def unstable_appended():
    return make_system(
        [["1", "0"], ["0", "1"]], "q1^2/2 - q2^2/2", [["1"], ["0"]]
    )


def spring_chain(n, k):
    # n unit masses, the first tied to the wall, neighbours joined by springs
    # of stiffness k, forced only at the last mass
    vars = [f"q{i + 1}" for i in range(n)]
    mass = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
    springs = ["q1^2"] + [f"(q{i + 2} - q{i + 1})^2" for i in range(n - 1)]
    potential = f"{k}/2*(" + " + ".join(springs) + ")"
    g = [["1" if i == n - 1 else "0"] for i in range(n)]
    return make_system(mass, potential, g, vars=vars)


def fd_hessian(f, n, h=1e-5):
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            ei = np.eye(n)[i] * h
            ej = np.eye(n)[j] * h
            out[i, j] = (f(ei + ej) - f(ei - ej) - f(-ei + ej) + f(-ei - ej)) / (
                4 * h * h
            )
    return out


class TestLinearize:
    def test_pendulum_blocks(self):
        sys, _ = builtin("pendulum_cart")
        lin = linearize(sys)
        assert np.allclose(lin.mlin, [[1, 1], [1, 2]])
        assert np.allclose(lin.alin[:2, 2:], [[2, -1], [-1, 1]])
        assert np.allclose(lin.hess, np.diag([-10.0, 0.0]))
        assert np.allclose(lin.alin[2:, :2], np.diag([10.0, 0.0]))
        assert np.allclose(lin.blin, [[0], [0], [0], [1]])

    def test_pendulum_hessian_fd(self):
        sys, _ = builtin("pendulum_cart")
        lin = linearize(sys)
        assert np.allclose(lin.hess, fd_hessian(sys.potential, 2), atol=1e-4)

    def test_three_dof_blocks(self):
        sys, _ = builtin("three_dof")
        lin = linearize(sys)
        assert np.allclose(lin.alin[:3, 3:], np.eye(3) / 6.0)
        expect = -np.array([[1, 1, 0], [1, 2, 1], [0, 1, 2]], dtype=float)
        assert np.allclose(lin.hess, expect)
        assert np.allclose(lin.hess, fd_hessian(sys.potential, 3), atol=1e-4)


class TestControllability:
    def test_pendulum_full_rank(self):
        sys, _ = builtin("pendulum_cart")
        rep = classify(linearize(sys))
        assert (rep.kalman_rank, rep.controllable) == (4, True)

    def test_three_dof_full_rank(self):
        sys, _ = builtin("three_dof")
        rep = classify(linearize(sys))
        assert (rep.kalman_rank, rep.controllable) == (6, True)

    def test_zero_input(self):
        sys = oscillator_appended()
        lin = linearize(sys)
        dead = Linearization(lin.mlin, lin.hess, np.zeros((2, 1)))
        rep = classify(dead)
        assert (rep.kalman_rank, rep.controllable) == (0, False)

    def test_appended_rank_two(self):
        rep = classify(linearize(oscillator_appended()))
        assert (rep.kalman_rank, rep.controllable) == (2, False)


    @pytest.mark.parametrize("n, k", [(6, 100), (8, 10), (10, 10)])
    def test_spring_chain_badly_scaled(self, n, k):
        # controllable for every k > 0; powers of A in the Kalman matrix
        # lose the rank numerically, the staircase does not
        rep = verdict(spring_chain(n, k))
        assert (rep.kalman_rank, rep.verdict) == (2 * n, EXPONENTIAL)
        assert rep.uncontrollable_eigs == ()


class TestUncontrollableModes:
    def test_controllable_vacuous(self):
        sys, _ = builtin("pendulum_cart")
        rep = classify(linearize(sys))
        assert rep.uncontrollable_eigs == ()
        assert rep.oscillatory

    def test_oscillator_modes(self):
        rep = classify(linearize(oscillator_appended()))
        assert rep.oscillatory
        got = sorted(z.imag for z in rep.uncontrollable_eigs)
        assert got == pytest.approx([-2.0, 2.0], abs=1e-9)
        assert max(abs(z.real) for z in rep.uncontrollable_eigs) <= 1e-9

    def test_unstable_modes(self):
        rep = classify(linearize(unstable_appended()))
        assert not rep.oscillatory
        got = sorted(z.real for z in rep.uncontrollable_eigs)
        assert got == pytest.approx([-1.0, 1.0], abs=1e-9)


class TestVerdict:
    def test_pendulum(self):
        sys, _ = builtin("pendulum_cart")
        rep = verdict(sys)
        assert rep.verdict == EXPONENTIAL
        assert rep.controllable and rep.kalman_rank == 4

    def test_three_dof(self):
        sys, _ = builtin("three_dof")
        assert verdict(sys).verdict == EXPONENTIAL

    def test_oscillator_appended(self):
        rep = verdict(oscillator_appended())
        assert rep.verdict == LYAPUNOV_ONLY
        assert not rep.controllable and rep.oscillatory

    def test_unstable_appended(self):
        rep = verdict(unstable_appended())
        assert rep.verdict == NOT_STABILIZABLE

    def test_invariance_under_input_scaling(self):
        sys, _ = builtin("pendulum_cart")
        scaled = make_system(
            [["1", "cos(q1)"], ["cos(q1)", "2"]], "10*cos(q1)", [["0"], ["-3"]]
        )
        a, b = verdict(sys), verdict(scaled)
        assert (a.kalman_rank, a.verdict) == (b.kalman_rank, b.verdict)

    def test_invariance_under_input_mixing(self):
        sys, _ = builtin("three_dof")
        # right-multiply G by [[1,1],[0,1]]
        mixed = make_system(
            [
                ["5 + cos(q3)", "sin(q1 - q2)", "sin(q3 - q1)"],
                ["sin(q1 - q2)", "5 + cos(q1 - q3)", "sin(q2)"],
                ["sin(q3 - q1)", "sin(q2)", "5 + cos(q2)"],
            ],
            "cos(q1 + q2) + cos(q2 + q3) + cos(q3)",
            [
                ["sin(q2)", "sin(q2) + 1"],
                ["1", "1 + sin(q3)"],
                ["sin(q1)", "sin(q1) + 1"],
            ],
            vars=["q1", "q2", "q3"],
        )
        a, b = verdict(sys), verdict(mixed)
        assert (a.kalman_rank, a.verdict) == (b.kalman_rank, b.verdict)

    def test_report_serializes(self):
        rep = verdict(oscillator_appended())
        text = json.dumps(rep.to_dict())
        assert "LyapunovStabilizableOnly" in text


class TestMinimumCheck:
    def test_pendulum_passes(self):
        _, design = builtin("pendulum_cart")
        rep = minimum_check(design)
        assert rep.passed
        assert rep.grad_norm <= 1e-10
        expect = sorted([10 - 4 * math.sqrt(5), 10 + 4 * math.sqrt(5)])
        assert sorted(rep.hessian_eigs) == pytest.approx(expect)
        assert rep.mhat_min_eig > 0

    def test_unshapen_potential_fails(self):
        sys, design = builtin("pendulum_cart")
        bad = ShapedDesign(sys.vars, design.Mhat, sys.V, np.eye(1))
        rep = minimum_check(bad)
        assert not rep.passed
        assert any("Hessian" in f for f in rep.failures)

    def test_eps_two_fails_cleanly(self):
        _, design = builtin("pendulum_cart", eps=2.0)
        rep = minimum_check(design)
        assert not rep.passed
        assert rep.mhat_min_eig is None
        assert any("shaped mass" in f for f in rep.failures)

    @pytest.mark.parametrize(
        "vhat, failure",
        [
            # B^3 - B^3 with B = q1 + 1e200: inf - inf in the gradient at 0
            ("B*B*B - B*B*B + q1^2 + q2^2", "gradient at 0 has norm nan"),
            # gradient 0, Hessian entry 2e400 = inf, whose eigenvalues are NaN
            ("q1^2*1e200*1e200 + q2^2", "Hessian at 0 has min eigenvalue nan"),
        ],
    )
    def test_non_finite_value_fails(self, vhat, failure):
        sys, design = builtin("pendulum_cart")
        vhat = parse(vhat.replace("B", "(q1 + 1e200)"), sys.vars)
        rep = minimum_check(ShapedDesign(sys.vars, design.Mhat, vhat, np.eye(1)))
        assert not rep.passed
        assert any(failure in f for f in rep.failures)

    def test_report_serializes(self):
        _, design = builtin("pendulum_cart")
        json.dumps(minimum_check(design).to_dict())
