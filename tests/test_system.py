import json
import math
import os
import subprocess
import warnings
from pathlib import Path
from sys import executable

import numpy as np
import pytest

from idapbc import linalg
from idapbc.control_sim import Controller
from idapbc.expr import ExprError, parse
from idapbc.matching import LinearMatch, MatchingError, MatchPoint
from idapbc.stability import minimum_check
from idapbc.system import (
    ExprMatrix,
    MechSystem,
    ShapedDesign,
    StateTrajectory,
    SystemError,
    builtin,
    hessian_at,
    input_frame,
    load_system,
    save_system,
    spd_defect,
    system_to_dict,
)
from idapbc.tensor import TensorError, j_to_b, random_interconnection

VARS2 = ["q1", "q2"]


def make_system(m_rows, v_text, g_rows, vars=VARS2):
    return MechSystem(
        vars,
        ExprMatrix.from_strings(m_rows, vars),
        parse(v_text, vars),
        ExprMatrix.from_strings(g_rows, vars),
    )


class TestExprMatrix:
    def test_eval(self):
        m = ExprMatrix.from_strings([["1", "cos(q1)"], ["cos(q1)", "2"]], VARS2)
        assert np.allclose(m([0.0, 0.0]), [[1, 1], [1, 2]])

    def test_symmetry_flag(self):
        m = ExprMatrix.from_strings([["1", "cos(q1)"], ["cos(q1)", "2"]], VARS2)
        assert m.is_symmetric()
        m2 = ExprMatrix.from_strings([["1", "q1"], ["q2", "2"]], VARS2)
        assert not m2.is_symmetric()

    def test_ragged_rejected(self):
        with pytest.raises(SystemError):
            ExprMatrix.from_strings([["1", "2"], ["3"]], VARS2)

    def test_division_by_zero(self):
        m = ExprMatrix.from_strings([["1", "1/q1"]], VARS2)
        for q in ([0.0, 0.0], np.zeros(2)):
            with pytest.raises(ExprError, match="division by zero in 1/q1"):
                m(q)

    def test_diff(self):
        m = ExprMatrix.from_strings([["cos(q1)"]], VARS2)
        d = m.diff(0)
        assert d([0.5, 0.0])[0, 0] == pytest.approx(-math.sin(0.5))


class TestMechSystem:
    def test_equilibrium_enforced(self):
        with pytest.raises(SystemError, match="equilibrium"):
            make_system([["1", "0"], ["0", "1"]], "sin(q1)", [["0"], ["1"]])

    def test_pendulum_hamiltonian_at_origin(self):
        sys, _ = builtin("pendulum_cart")
        assert sys.hamiltonian([0.0, 0.0], [0.0, 0.0]) == pytest.approx(10.0)

    def test_hamiltonian_reduces_to_potential(self):
        sys, _ = builtin("pendulum_cart")
        for q in ([0.3, -0.2], [0.7, 1.1]):
            assert sys.hamiltonian(q, [0.0, 0.0]) == pytest.approx(sys.potential(q))

    def test_pendulum_kinetic_energy(self):
        sys, _ = builtin("pendulum_cart")
        # Minv(0) = [[2, -1], [-1, 1]]
        assert sys.hamiltonian([0.0, 0.0], [1.0, 0.0]) == pytest.approx(11.0)

    def test_non_pd_mass_reported_with_eigenvalue(self):
        sys = make_system(
            [["1 - 2*q1^2", "0"], ["0", "1"]], "q1^2", [["0"], ["1"]]
        )
        with pytest.raises(SystemError, match="eigenvalue"):
            sys.mass_matrix([1.0, 0.0])

    def test_open_loop_equilibrium(self):
        sys, _ = builtin("pendulum_cart")
        qdot, pdot = sys.open_loop_field([0.0, 0.0], [0.0, 0.0], [0.0])
        assert np.allclose(qdot, 0.0)
        assert np.allclose(pdot, 0.0)

    def test_open_loop_pendulum_momentum(self):
        sys, _ = builtin("pendulum_cart")
        qdot, pdot = sys.open_loop_field([0.0, 0.0], [1.0, 0.0], [0.0])
        assert np.allclose(qdot, [2.0, -1.0])
        assert np.allclose(pdot, [0.0, 0.0], atol=1e-14)

    def test_open_loop_input_linear(self):
        sys, _ = builtin("pendulum_cart")
        q, p = [0.4, -0.3], [0.2, 0.5]
        _, pdot0 = sys.open_loop_field(q, p, [0.0])
        _, pdot1 = sys.open_loop_field(q, p, [2.5])
        assert np.allclose(pdot1 - pdot0, sys.input_matrix(q) @ [2.5])

    def test_open_loop_rejects_rank_deficient_input(self):
        # G = [[0], [q1 - 0.5]] loses rank on the line q1 = 0.5 only
        sys = make_system([["1", "0"], ["0", "1"]], "q1^2", [["0"], ["q1 - 0.5"]])
        sys.open_loop_field([0.4, 0.0], [0.1, 0.2], [1.0])
        for q in ([0.5, 0.0], [0.5, -0.3]):
            with pytest.raises(SystemError, match="input matrix rank-deficient at q="):
                sys.open_loop_field(q, [0.1, 0.2], [1.0])

    def test_stacked_hamiltonian_raises_at_first_bad_row(self):
        # V cannot be evaluated at q1 = 0.2, and M is not PD where |q1| >= 1
        sys = make_system(
            [["1 - q1^2", "0"], ["0", "1"]],
            "q1^2 + (q1 - 0.2)/(q1 - 0.2) - 1",
            [["0"], ["1"]],
        )
        p = np.full((3, 2), 0.3)
        good = np.array([[0.1, 0.0], [0.4, 1.0], [-0.3, 0.5]])
        assert np.array_equal(
            sys.hamiltonian(good, p), [sys.hamiltonian(q, r) for q, r in zip(good, p)]
        )
        for q1s, error in (((0.1, 0.2, 1.5), ExprError), ((0.1, 1.5, 0.2), SystemError)):
            q = np.array([[v, 0.0] for v in q1s])
            with pytest.raises(error) as stacked:
                sys.hamiltonian(q, p)
            with pytest.raises(error) as single:
                sys.hamiltonian(q[1], p[1])
            assert str(stacked.value) == str(single.value)

    def test_energy_conserved_uncontrolled(self):
        sys, _ = builtin("pendulum_cart")
        x = np.array([0.3, 0.0, 0.2, -0.1])
        n = sys.n
        h0 = sys.hamiltonian(x[:n], x[n:])

        def field(state):
            qdot, pdot = sys.open_loop_field(state[:n], state[n:], [0.0])
            return np.concatenate([qdot, pdot])

        dt = 1e-3
        for _ in range(10000):
            k1 = field(x)
            k2 = field(x + 0.5 * dt * k1)
            k3 = field(x + 0.5 * dt * k2)
            k4 = field(x + dt * k3)
            x = x + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        h1 = sys.hamiltonian(x[:n], x[n:])
        assert abs(h1 - h0) <= 1e-6 * (1 + abs(h0))


class TestAnnihilator:
    def test_pendulum(self):
        sys, _ = builtin("pendulum_cart")
        w = sys.annihilator([0.3, -0.5])
        assert w.shape == (1, 2)
        assert np.allclose(w, [[1.0, 0.0]])

    def test_three_dof_origin(self):
        sys, _ = builtin("three_dof")
        w = sys.annihilator([0.0, 0.0, 0.0])
        expect = np.array([[1.0, 0.0, -1.0]]) / math.sqrt(2.0)
        # contract fixes the span, not the sign
        assert np.allclose(w, expect, atol=1e-12) or np.allclose(
            w, -expect, atol=1e-12
        )

    def test_kills_input_matrix(self):
        sys, _ = builtin("three_dof")
        rng = np.random.default_rng(0)
        for _ in range(100):
            q = rng.uniform(-1, 1, size=3)
            w = sys.annihilator(q)
            assert np.max(np.abs(w @ sys.input_matrix(q))) <= 1e-12
            assert np.allclose(w @ w.T, np.eye(w.shape[0]), atol=1e-12)

    def test_row_span_reproducible(self):
        sys, _ = builtin("three_dof")
        q = [0.2, -0.7, 0.4]
        w1 = sys.annihilator(q)
        w2 = sys.annihilator(q)
        # principal angle cosines between the row spaces
        sv = np.linalg.svd(w1 @ w2.T, compute_uv=False)
        assert np.all(np.abs(sv - 1.0) <= 1e-10)

    def test_rank_deficient_rejected(self):
        sys = make_system([["1", "0"], ["0", "1"]], "q1^2", [["q1"], ["q1"]])
        with pytest.raises(SystemError, match="rank"):
            sys.annihilator([0.0, 0.0])


class TestInputFrame:
    def test_orthonormal_complements(self):
        sys_, _ = builtin("three_dof")
        rng = np.random.default_rng(1)
        for _ in range(100):
            q = rng.uniform(-1, 1, size=3)
            frame = sys_.frame(q)
            basis = np.vstack([frame.annihilator, frame.range_basis.T])
            assert basis.shape == (3, 3)
            assert np.max(np.abs(basis @ basis.T - np.eye(3))) <= 1e-12
            assert np.max(np.abs(frame.annihilator @ frame.g)) <= 1e-12
            # the range basis spans the columns of G
            proj = frame.range_basis @ frame.range_basis.T
            assert np.max(np.abs(proj @ frame.g - frame.g)) <= 1e-12

    def test_matches_scipy_reference(self):
        # scipy is only the reference here; the package does not import it
        from scipy.linalg import null_space, orth

        sys_, _ = builtin("three_dof")
        rng = np.random.default_rng(2)
        for _ in range(100):
            q = rng.uniform(-1, 1, size=3)
            frame = sys_.frame(q)
            g = sys_.G(q)
            for got, ref in (
                (frame.annihilator.T, null_space(g.T)),
                (frame.range_basis, orth(g)),
            ):
                assert got.shape == ref.shape
                for col, ref_col in zip(got.T, ref.T):
                    assert min(
                        np.max(np.abs(col - ref_col)), np.max(np.abs(col + ref_col))
                    ) <= 1e-13

    def test_rank_deficient_rejected(self):
        for g in ([[0.0], [0.0]], [[1.0, 2.0], [2.0, 4.0]]):
            with pytest.raises(SystemError, match="rank-deficient at q=\\[0.5\\]"):
                input_frame(np.array(g), [0.5])

    def test_constant_input_factored_once(self, monkeypatch):
        plant, _ = builtin("pendulum_cart")
        queries = ([0.3, -0.2], [1.2, 0.7], [np.nan, 0.0])
        expect = [input_frame(plant.G(q), q) for q in queries]
        svd, calls = linalg.svd, []

        def counted_svd(*args, **kwargs):
            calls.append(args)
            return svd(*args, **kwargs)

        monkeypatch.setattr(linalg, "svd", counted_svd)
        sys_, design = builtin("pendulum_cart")
        assert calls == []  # a system that is never queried is never factored
        for q, ref in zip(queries, expect):
            assert sys_.input_matrix(q).tobytes() == ref.g.tobytes()
            for got in (sys_.frame(q), MatchPoint(sys_, design, q).frame):
                for part, ref_part in zip(got, ref):
                    assert part.tobytes() == ref_part.tobytes()
        assert len(calls) == 1

    def test_constant_input_frame_is_read_only(self):
        sys_, _ = builtin("pendulum_cart")
        frame = sys_.frame([0.3, -0.2])
        for part in (frame.range_basis, frame.annihilator):
            with pytest.raises(ValueError, match="read-only"):
                part[0, 0] = 5.0
        # G itself is evaluated per query, so a caller may write into it
        sys_.input_matrix([0.3, -0.2])[:] = 5.0
        assert np.array_equal(sys_.frame([0.3, -0.2]).g, [[0.0], [1.0]])

    def test_constant_rank_deficient_input_names_the_query(self):
        sys_ = make_system([["1", "0"], ["0", "1"]], "q1^2", [["0"], ["0"]])
        for call in (sys_.frame, sys_.input_matrix, sys_.annihilator):
            with pytest.raises(SystemError, match=r"rank-deficient at q=\[0.25, -0.5\]"):
                call([0.25, -0.5])

    def test_import_leaves_scipy_linalg_out(self):
        src = str(Path(__import__("idapbc").__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        code = "import sys, idapbc.cli; print('scipy.linalg' in sys.modules)"
        out = subprocess.run(
            [executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"


class TestBuiltins:
    def test_pendulum_matrices(self):
        sys, design = builtin("pendulum_cart")
        assert np.allclose(sys.mass_matrix([0, 0]), [[1, 1], [1, 2]])
        assert sys.potential([0, 0]) == pytest.approx(10.0)
        assert np.allclose(sys.input_matrix([0.7, 0]), [[0], [1]])
        assert np.allclose(design.shaped_mass([0, 0]), [[1, 3], [3, 10]])
        assert np.linalg.det(design.shaped_mass([0, 0])) == pytest.approx(1.0)

    def test_pendulum_shaped_hessian(self):
        _, design = builtin("pendulum_cart")
        hess = hessian_at(design.Vhat, 2, [0.0, 0.0])
        assert np.allclose(hess, [[18, 4], [4, 2]])
        assert np.linalg.det(hess) == pytest.approx(20.0)
        # finite-difference oracle
        h = 1e-5
        fd = np.empty((2, 2))
        f = design.shaped_potential
        for i in range(2):
            for j in range(2):
                e_i = np.eye(2)[i] * h
                e_j = np.eye(2)[j] * h
                fd[i, j] = (
                    f(e_i + e_j) - f(e_i - e_j) - f(-e_i + e_j) + f(-e_i - e_j)
                ) / (4 * h * h)
        assert np.allclose(hess, fd, atol=1e-4)

    def test_pendulum_eps_scaling(self):
        _, design = builtin("pendulum_cart", eps=0.5, K=2.0)
        mh0 = design.shaped_mass([0.0, 0.0])
        assert mh0[0, 0] == pytest.approx(1.5)
        assert mh0[0, 1] == pytest.approx(3.5)
        assert mh0[1, 1] == pytest.approx(2.0 + 3.5 ** 2 / 1.5)

    def test_three_dof_origin_mass(self):
        sys, design = builtin("three_dof")
        assert design is None
        assert np.allclose(sys.mass_matrix([0, 0, 0]), 6 * np.eye(3))

    def test_mass_pd_on_domains(self):
        sys, _ = builtin("pendulum_cart")
        for q1 in np.linspace(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3, 31):
            sys.mass_matrix([q1, 0.0])
        sys3, _ = builtin("three_dof")
        for q1 in np.linspace(-1, 1, 7):
            for q2 in np.linspace(-1, 1, 7):
                for q3 in np.linspace(-1, 1, 7):
                    sys3.mass_matrix([q1, q2, q3])

    def test_unknown_name(self):
        with pytest.raises(SystemError, match="unknown builtin"):
            builtin("acrobot")


class TestShapedDesign:
    def test_kv_validation(self):
        _, design = builtin("pendulum_cart")
        with pytest.raises(SystemError, match="positive definite"):
            ShapedDesign(VARS2, design.Mhat, design.Vhat, np.zeros((1, 1)))
        with pytest.raises(SystemError, match="symmetric"):
            ShapedDesign(
                VARS2, design.Mhat, design.Vhat, np.array([[1.0, 2.0], [0.0, 1.0]])
            )

    def test_shaped_hamiltonian(self):
        _, design = builtin("pendulum_cart")
        # Mhatinv(0) = [[10, -3], [-3, 1]]
        expect = 0.5 * 10.0 + design.shaped_potential([0.0, 0.0])
        assert design.shaped_hamiltonian([0, 0], [1.0, 0.0]) == pytest.approx(expect)

    def test_c_table_round_trip(self):
        c = [[[parse("0", VARS2) for _ in range(2)] for _ in range(2)] for _ in range(2)]
        _, design = builtin("pendulum_cart")
        d2 = ShapedDesign(VARS2, design.Mhat, design.Vhat, np.eye(1), C=c)
        assert np.all(d2.c_table_at([0.3, 0.1]) == 0.0)


class TestStateTrajectory:
    def test_length_mismatch(self):
        with pytest.raises(SystemError, match="equal length"):
            StateTrajectory(np.array([0.0, 1.0]), np.zeros((3, 4)), np.zeros(3))

    def test_times_strictly_increasing(self):
        with pytest.raises(SystemError, match="increasing"):
            StateTrajectory(np.array([0.0, 0.0]), np.zeros((2, 4)), np.zeros(2))


class TestJsonIO:
    def test_round_trip(self, tmp_path):
        sys, design = builtin("pendulum_cart", eps=0.8, K=1.5)
        path = tmp_path / "pendulum.json"
        save_system(path, sys, design)
        sys2, design2 = load_system(path)
        rng = np.random.default_rng(1)
        for _ in range(10):
            q = rng.uniform(-0.6, 0.6, size=2)
            assert np.allclose(sys2.mass_matrix(q), sys.mass_matrix(q), atol=1e-14)
            assert sys2.potential(q) == pytest.approx(sys.potential(q), abs=1e-14)
            assert np.allclose(
                design2.shaped_mass(q), design.shaped_mass(q), atol=1e-12
            )
            assert design2.shaped_potential(q) == pytest.approx(
                design.shaped_potential(q), abs=1e-12
            )

    def test_symbolic_params_with_override(self, tmp_path):
        data = {
            "n": 2,
            "m": 1,
            "vars": ["q1", "q2"],
            "M": [["1", "cos(q1)"], ["cos(q1)", "2"]],
            "V": "10*cos(q1)",
            "G": [["0"], ["1"]],
            "shaped": {
                "Mhat": [
                    ["2*cos(q1)^2 - eps", "(4-eps)*cos(q1)"],
                    ["(4-eps)*cos(q1)", "K + (4-eps)^2*cos(q1)^2/(2*cos(q1)^2 - eps)"],
                ],
                "Vhat": "-(10/eps)*cos(q1) + (q2 + 2*sin(q1)/eps)^2",
                "Kv": [[1.0]],
                "params": {"eps": 1.0, "K": 1.0},
            },
        }
        import json

        path = tmp_path / "sys.json"
        path.write_text(json.dumps(data))
        _, design = load_system(path, eps=0.5)
        assert design.shaped_mass([0, 0])[0, 0] == pytest.approx(1.5)

    def test_bundle_unwrapped(self):
        sys, design = builtin("pendulum_cart")
        bundle = {"system": system_to_dict(sys, design), "Kv": [[2.0]]}
        loaded, loaded_design = load_system(bundle)
        assert loaded.name == "pendulum_cart"
        assert np.array_equal(loaded_design.Kv, [[2.0]])

    def test_undefined_gradient_rejected(self):
        data = {
            "n": 2,
            "m": 1,
            "vars": ["q1", "q2"],
            "M": [["1", "0"], ["0", "1"]],
            "V": "q1^2 + q2^2 + q1^3/(q1 - q1)",
            "G": [["0"], ["1"]],
        }
        with pytest.raises((ExprError, SystemError)):
            load_system(data)

    def test_missing_key(self):
        with pytest.raises(SystemError, match="invalid system"):
            load_system({"n": 2, "m": 1, "vars": ["q1", "q2"]})

    def test_m_mismatch(self):
        with pytest.raises(SystemError, match="does not match G columns"):
            load_system(
                {
                    "n": 2,
                    "m": 2,
                    "vars": ["q1", "q2"],
                    "M": [["1", "0"], ["0", "1"]],
                    "V": "q1^2",
                    "G": [["0"], ["1"]],
                }
            )

    @pytest.mark.parametrize("where", ["shaped", "bundle"])
    def test_kv_checked_against_m(self, where):
        sys, design = builtin("pendulum_cart")
        data = system_to_dict(sys, design)
        if where == "shaped":
            data["shaped"]["Kv"] = np.eye(2).tolist()
        else:
            data = {"system": data, "Kv": np.eye(2).tolist()}
        with pytest.raises(SystemError, match="Kv must be 1x1"):
            load_system(data)

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_params_rejected(self, tmp_path, value):
        text = json.dumps(system_to_dict(*builtin("pendulum_cart", eps=0.55, K=0.25)))
        path = tmp_path / "sys.json"
        path.write_text(text.replace('"eps": 0.55', f'"eps": {value}'))
        message = f"shaped parameter eps must be finite, got {float(value)!r}"
        with pytest.raises(SystemError, match=f"^{message}$"):
            load_system(path)

    @pytest.mark.parametrize("override", [{"eps": math.inf}, {"K": math.nan}])
    def test_non_finite_overrides_rejected(self, override):
        for source in ("builtin:pendulum_cart", system_to_dict(*builtin("pendulum_cart"))):
            with pytest.raises(SystemError, match="must be finite"):
                load_system(source, **override)

    @pytest.mark.parametrize("kv", ["x", [[1], [1, 2]], {"a": 1}])
    def test_non_numeric_kv_rejected(self, kv):
        data = system_to_dict(*builtin("pendulum_cart"))
        data["shaped"]["Kv"] = kv
        with pytest.raises(SystemError, match="^Kv is not a numeric matrix: "):
            load_system(data)

    def test_resolve_builtin(self):
        sys, design = load_system("builtin:pendulum_cart", eps=0.5)
        assert sys.name == "pendulum_cart"
        assert design.shaped_mass([0, 0])[0, 0] == pytest.approx(1.5)


def _minimum_check_of(a):
    # the check reads Mhat(0); an ExprMatrix could not hold an asymmetric or
    # non-finite value
    mhat = ExprMatrix.from_strings([["1", "0"], ["0", "1"]], VARS2)
    design = ShapedDesign(VARS2, mhat, parse("q1^2 + q2^2", VARS2), np.eye(1))
    design.Mhat = lambda q: a
    report = minimum_check(design)
    if not report.passed:
        raise SystemError("; ".join(report.failures))


def _sites():
    three_dof, _ = builtin("three_dof")
    design = ShapedDesign(three_dof.vars, three_dof.M, three_dof.V, np.eye(2))
    j = random_interconnection(2, np.random.default_rng(0))
    return {
        "ShapedDesign.Kv": (
            lambda a: ShapedDesign(three_dof.vars, three_dof.M, three_dof.V, a),
            SystemError,
        ),
        "Controller.Kv": (lambda a: Controller(three_dof, design, kv=a), SystemError),
        "LinearMatch.mbar": (lambda a: LinearMatch(a, np.eye(2)), MatchingError),
        "LinearMatch.sbar": (lambda a: LinearMatch(np.eye(2), a), MatchingError),
        "j_to_b.Mhat": (lambda a: j_to_b(j, a), TensorError),
        "minimum_check.Mhat": (_minimum_check_of, SystemError),
    }


SITES = _sites()

REJECTED = {
    "asymmetric": (np.array([[1.0, 0.5], [0.0, 1.0]]), "symmetric"),
    "indefinite": (np.diag([1.0, -1.0]), "positive definite"),
    "nan": (np.array([[1.0, 0.0], [0.0, np.nan]]), "is not finite"),
    # an inf without its mirror passes the symmetry test: inf <= tol * inf
    "inf": (np.array([[1.0, np.inf], [0.0, 1.0]]), "is not finite"),
}


class TestSpdCheck:
    """Every symmetric positive definite check goes through spd_defect."""

    @pytest.mark.parametrize("bad", sorted(REJECTED))
    @pytest.mark.parametrize("site", sorted(SITES))
    def test_rejects(self, site, bad):
        call, error = SITES[site]
        a, words = REJECTED[bad]
        with pytest.raises(error, match=words):
            call(a)

    @pytest.mark.parametrize("scale", [1e-8, 1e8])
    @pytest.mark.parametrize("site", sorted(SITES))
    def test_accepts_badly_scaled(self, site, scale):
        call, _ = SITES[site]
        call(scale * np.eye(2))

    def test_one_symmetry_tolerance(self):
        # relative to max(1, max |a|): 1e-12 absolute below 1, relative above
        for size in (1e-8, 1.0, 1e8):
            a = size * np.eye(2)
            a[0, 1] = 0.9e-12 * max(1.0, size)
            assert spd_defect(a) is None
            a[0, 1] = 1.1e-12 * max(1.0, size)
            assert spd_defect(a) == "is not symmetric"
        assert spd_defect(np.ones(3)) == "is not square (shape (3,))"

    @pytest.mark.parametrize("a", [np.diag([np.inf, 1.0]), [[1.0, np.inf], [np.inf, 1.0]]])
    def test_infinite_entries_reported_without_a_warning(self, a):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert spd_defect(a) == "is not finite"
