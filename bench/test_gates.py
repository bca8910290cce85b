"""The benchmark's gates reject corrupted outputs.

    python3 -m pytest bench/test_gates.py
"""
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import gates
import tracing

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

EPS, K = 0.45, 0.5


@pytest.fixture
def grid():
    q1, q2 = np.meshgrid(np.linspace(-1, 1, 5), np.linspace(-1, 1, 3), indexing="ij")
    points = np.stack([q1.ravel(), q2.ravel()], axis=1)
    return {
        "points": points,
        "potential_res": np.full((len(points), 1), 2e-14),
        "kinetic_res": np.full((len(points), 1), -3e-15),
        "pd_box": {"q1": 1.0, "q2": 1.0},
        "axis_names": ["q1", "q2"],
        "tolerance": 1e-8,
        "sample_points": points.copy(),
        "sample_values": gates.pendulum_cart_c(points, EPS, K),
        "eps": EPS,
        "K": K,
    }


def test_clean_grid_passes(grid):
    assert not gates.grid_point_failures(**grid).any()


def test_nan_residual_is_rejected(grid):
    grid["kinetic_res"][4, 0] = math.nan
    assert np.flatnonzero(gates.grid_point_failures(**grid)).tolist() == [4]


def test_residual_over_tolerance_in_box_is_rejected(grid):
    grid["potential_res"][7, 0] = 1e-6
    assert np.flatnonzero(gates.grid_point_failures(**grid)).tolist() == [7]


def test_perturbed_c_sample_is_rejected(grid):
    grid["sample_values"][2, 1, 0, 1] += 1e-7
    assert np.flatnonzero(gates.grid_point_failures(**grid)).tolist() == [2]


def test_missing_c_sample_is_rejected(grid):
    grid["sample_points"] = grid["sample_points"][1:]
    grid["sample_values"] = grid["sample_values"][1:]
    assert np.flatnonzero(gates.grid_point_failures(**grid)).tolist() == [0]


def test_reference_matches_the_program_table():
    from idapbc.system import builtin

    _, design = builtin("pendulum_cart", eps=EPS, K=K)
    points = np.random.default_rng(0).uniform(-1, 1, (50, 2))
    ref = gates.pendulum_cart_c(points, EPS, K)
    for q, c in zip(points, ref):
        np.testing.assert_allclose(design.c_table_at(q), c, rtol=0, atol=1e-11)


GOOD_SIM = {
    "diverged": False,
    "passed": True,
    "max_energy_increase": -6e-11,
    "fitted_rate": -2.3,
}


def test_clean_simulation_passes():
    assert gates.simulate_failures(0, dict(GOOD_SIM)) == []


@pytest.mark.parametrize(
    "change",
    [
        {"fitted_rate": 0.1},
        {"fitted_rate": 0.0},
        {"passed": False},
        {"diverged": True},
        {"max_energy_increase": 1e-6},
        {"max_energy_increase": math.nan},
    ],
)
def test_corrupted_simulation_is_rejected(change):
    assert gates.simulate_failures(0, {**GOOD_SIM, **change})


def test_failed_simulation_exit_is_rejected():
    assert gates.simulate_failures(3, dict(GOOD_SIM))
    assert gates.simulate_failures(0, None)


def test_tick_deviation_is_rejected():
    raised = np.zeros(30, dtype=bool)
    clean = {0: 5e-15, 10: 0.0, 20: 4e-15}
    assert not gates.tick_failures(raised, clean).any()
    failed = gates.tick_failures(raised, {**clean, 10: 1e-6})
    assert np.flatnonzero(failed).tolist() == [10]


def test_raised_tick_is_rejected():
    raised = np.zeros(30, dtype=bool)
    raised[3] = True
    assert np.flatnonzero(gates.tick_failures(raised, {0: 0.0})).tolist() == [3]


def test_summarize_self_time_and_failed_points():
    names = ["matching.evaluate_residuals", "matching.potential_residual", "ZeroDivisionError"]
    spans = np.array(
        [
            # name, start, end, parent, error
            [0, 0.0, 10.0, -1, -1],
            [1, 1.0, 3.0, 0, -1],
            [1, 4.0, 5.0, 0, 2],
        ]
    )
    out = tracing.summarize([(names, spans)], [10.0])
    assert out["spans"]["matching.evaluate_residuals"]["self_s"] == pytest.approx(7.0)
    assert out["spans"]["matching.potential_residual"]["calls"] == 2
    assert out["spans"]["matching.potential_residual"]["us_per_call"] == pytest.approx(1.5e6)
    assert out["points_failed"]["ArithmeticError"] == 1
    assert out["self_sum_frac"] == pytest.approx(1.0)
