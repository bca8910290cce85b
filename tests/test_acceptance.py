"""End-to-end acceptance checks for the whole pipeline.

Each test prints one numbered PASS/FAIL line with the measured deviation
and runtime, so a ``pytest -s`` run doubles as a release checklist.  The
tolerances and time limits are asserted, not just reported.
"""
import time
from itertools import combinations_with_replacement

import numpy as np

from idapbc.control_sim import (
    Controller,
    SimConfig,
    closed_loop_field,
    closed_loop_linearization,
    decay_metrics,
    feedback,
    simulate,
)
from idapbc.expr import parse
from idapbc.matching import (
    GyroField,
    LinearMatch,
    evaluate_residuals,
    pde_counts,
    solve_kinetic_characteristics,
)
from idapbc.stability import EXPONENTIAL, LYAPUNOV_ONLY, NOT_STABILIZABLE, verdict
from idapbc.system import ExprMatrix, MechSystem, builtin
from idapbc.tensor import (
    SkewPairTensor,
    extend_to_gyro,
    force_from_j,
    gyro_force,
    j_to_b,
    psi,
    random_admissible_t,
    random_interconnection,
    random_spd,
    space_dims,
)

VARS2 = ["q1", "q2"]
GRID_41x11 = [
    ("q1", np.linspace(-1.0, 1.0, 41)),
    ("q2", np.linspace(-1.0, 1.0, 11)),
]


def record(idx, name, ok, detail, elapsed, limit):
    in_time = elapsed < limit
    status = "PASS" if ok and in_time else "FAIL"
    print(f"acceptance {idx:2d}: {status} {name} ({detail}; {elapsed:.2f}s < {limit:.0f}s)")
    assert ok, f"{name}: {detail}"
    assert in_time, f"{name} took {elapsed:.2f}s, limit {limit:.0f}s"


def make_system(m_rows, v_text, g_rows, vars=VARS2):
    return MechSystem(
        vars,
        ExprMatrix.from_strings(m_rows, vars),
        parse(v_text, vars),
        ExprMatrix.from_strings(g_rows, vars),
    )


def test_tensor_space_dimensions():
    t0 = time.perf_counter()
    ok = True
    for n in range(2, 7):
        got = space_dims(n)  # cross-checks the constructive count
        expect = (
            n * n * (n - 1) // 2,
            n * (n * n - 1) // 3,
            n * (n - 1) * (n - 2) // 6,
        )
        ok = ok and got == expect
    record(
        1,
        "tensor space dimensions match closed forms for n=2..6",
        ok,
        "integer equality",
        time.perf_counter() - t0,
        1.0,
    )


def test_gyro_extension_invariants():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for n, m in [(2, 1), (3, 1), (3, 2), (4, 2)]:
        u = n - m
        for _ in range(100):
            t = random_admissible_t(n, u, rng)
            c = extend_to_gyro(t, u).entries
            sym = np.max(np.abs(c - c.transpose(1, 0, 2)))
            cyc = np.max(np.abs(c + c.transpose(1, 2, 0) + c.transpose(2, 0, 1)))
            carry = np.max(np.abs(c[:, :, :u] - t.entries[:, :, :u]))
            worst = max(worst, sym, cyc, carry)
    record(
        2,
        "extension keeps symmetry, cyclic sum, and the unactuated block",
        worst <= 1e-12,
        f"400 draws, max deviation {worst:.2e}",
        time.perf_counter() - t0,
        5.0,
    )


def test_interconnection_force_redundancy():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 6))
        j = random_interconnection(n, rng)
        mhat = random_spd(n, rng)
        p = rng.standard_normal(n)
        direct = force_from_j(j, mhat, p)
        via_gyro = gyro_force(psi(j_to_b(j, mhat)), mhat, p)
        worst = max(worst, float(np.max(np.abs(direct - via_gyro))))
    # the alternating tensor spans ker psi for n=3 and must carry no force
    eps3 = np.zeros((3, 3, 3))
    for i, k, l in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        eps3[i, k, l] = 1.0
        eps3[i, l, k] = -1.0
    kernel = psi(SkewPairTensor(eps3))
    kernel_force = float(
        np.max(np.abs(gyro_force(kernel, random_spd(3, rng), rng.standard_normal(3))))
    )
    ok = worst <= 1e-12 and kernel_force <= 1e-12
    record(
        3,
        "momentum-linear interconnection force is a special gyroscopic force",
        ok,
        f"100 draws, max deviation {worst:.2e}, kernel force {kernel_force:.2e}",
        time.perf_counter() - t0,
        5.0,
    )


def test_pendulum_matching_residuals():
    t0 = time.perf_counter()
    sys, design = builtin("pendulum_cart", eps=1.0, K=1.0)
    report = evaluate_residuals(sys, design, GRID_41x11, tol=1e-9)
    pot, kin = report.max_abs
    ok = pot <= 1e-9 and kin <= 1e-9
    record(
        4,
        "cart-pendulum design satisfies both matching conditions on the grid",
        ok,
        f"41x11 grid, max residuals potential {pot:.2e}, kinetic {kin:.2e}",
        time.perf_counter() - t0,
        10.0,
    )


def pendulum_gyro_oracle(sys, design, q):
    """Hand-evaluated closed-form table for the 2-dof cart design."""
    minv = np.linalg.inv(sys.mass_matrix(q))
    dminv1 = -(minv @ sys.mass_derivatives(q)[0] @ minv)
    mhat = design.shaped_mass(q)
    dmhat = design.shaped_mass_derivatives(q)
    s = np.empty(2)
    for col in range(2):
        first = sum(
            mhat[0, r] * minv[r, t] * dmhat[t][1, col]
            for r in range(2)
            for t in range(2)
        )
        second = sum(
            dminv1[r, t] * mhat[r, col] * mhat[t, 1]
            for r in range(2)
            for t in range(2)
        )
        s[col] = -0.5 * (first + second)
    c = np.zeros((2, 2, 2))
    c[0, 1, 0] = c[1, 0, 0] = s[0]
    c[1, 1, 0] = s[1]
    c[0, 0, 1] = -2.0 * s[0]
    c[0, 1, 1] = c[1, 0, 1] = -0.5 * s[1]
    return c


def test_gyro_table_matches_derivation():
    t0 = time.perf_counter()
    sys, design = builtin("pendulum_cart", eps=1.0, K=1.0)
    field = GyroField(sys, design)
    worst_derived = 0.0
    worst_table = 0.0
    for q1 in GRID_41x11[0][1]:
        for q2 in GRID_41x11[1][1]:
            q = np.array([q1, q2])
            oracle = pendulum_gyro_oracle(sys, design, q)
            worst_derived = max(
                worst_derived, float(np.max(np.abs(field.at(q) - oracle)))
            )
            worst_table = max(
                worst_table, float(np.max(np.abs(design.c_table_at(q) - oracle)))
            )
    ok = worst_derived <= 1e-9 and worst_table <= 1e-9
    record(
        5,
        "derived gyroscopic tensor equals the closed-form cart table",
        ok,
        f"41x11 grid, max deviation derived {worst_derived:.2e}, stored {worst_table:.2e}",
        time.perf_counter() - t0,
        5.0,
    )


def test_stabilizability_verdicts():
    t0 = time.perf_counter()
    pend = verdict(builtin("pendulum_cart")[0])
    three = verdict(builtin("three_dof")[0])
    oscillatory = verdict(
        make_system([["1", "0"], ["0", "1"]], "q1^2/2 + 2*q2^2", [["1"], ["0"]])
    )
    unstable = verdict(
        make_system([["1", "0"], ["0", "1"]], "q1^2/2 - q2^2/2", [["1"], ["0"]])
    )
    ok = (
        pend.controllable
        and pend.kalman_rank == 4
        and pend.verdict == EXPONENTIAL
        and three.controllable
        and three.kalman_rank == 6
        and three.verdict == EXPONENTIAL
        and oscillatory.verdict == LYAPUNOV_ONLY
        and unstable.verdict == NOT_STABILIZABLE
    )
    record(
        6,
        "linearization verdicts across the four reference cases",
        ok,
        f"ranks {pend.kalman_rank}/{three.kalman_rank}, "
        f"{oscillatory.verdict}, {unstable.verdict}",
        time.perf_counter() - t0,
        1.0,
    )


def test_feedback_realizes_target_dynamics():
    t0 = time.perf_counter()
    sys, design = builtin("pendulum_cart", eps=1.0, K=1.0)
    ctrl = Controller(sys, design)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        q = np.array([rng.uniform(-0.7, 0.7), rng.uniform(-1.0, 1.0)])
        p = rng.uniform(-1.0, 1.0, 2)
        u = feedback(ctrl, q, p)
        open_qdot, open_pdot = sys.open_loop_field(q, p, u)
        want_qdot, want_pdot = closed_loop_field(ctrl, q, p)
        worst = max(
            worst,
            float(np.max(np.abs(open_qdot - want_qdot))),
            float(np.max(np.abs(open_pdot - want_pdot))),
        )
    record(
        7,
        "feedback turns the open loop into the target closed loop",
        worst <= 1e-9,
        f"100 states, max deviation {worst:.2e}",
        time.perf_counter() - t0,
        2.0,
    )


def test_closed_loop_decay_and_spectrum():
    t0 = time.perf_counter()
    sys, design = builtin("pendulum_cart", eps=0.55, K=0.25)
    ctrl = Controller(sys, design, kv=1.0)
    cfg = SimConfig(t_end=10.0, dt=1e-3, x0=[0.3, 0.0, 0.0, 0.0])
    traj = simulate(
        lambda q, p: closed_loop_field(ctrl, q, p),
        cfg,
        energy=design.shaped_hamiltonian,
    )
    max_increase, rate, _ = decay_metrics(
        traj, design.shaped_hamiltonian([0.0, 0.0], [0.0, 0.0])
    )
    terminal = float(np.linalg.norm(traj.states[-1]))
    eig_real = np.real(np.linalg.eigvals(closed_loop_linearization(ctrl)))
    ok = (
        max_increase <= 1e-8
        and terminal <= 1e-2
        and rate < 0.0
        and np.max(eig_real) <= -1e-9
    )
    record(
        8,
        "shaped energy decays and the closed-loop spectrum is strictly stable",
        ok,
        f"max increase {max_increase:.2e}, terminal norm {terminal:.2e}, "
        f"rate {rate:.2f}, max Re(eig) {np.max(eig_real):.3f}",
        time.perf_counter() - t0,
        10.0,
    )


def test_characteristic_recovery():
    t0 = time.perf_counter()
    sys, _ = builtin("pendulum_cart")
    init = LinearMatch(
        np.array([[1.0, 3.0], [3.0, 10.0]]), np.array([[18.0, 4.0], [4.0, 2.0]])
    )
    sol = solve_kinetic_characteristics(
        sys, ["(4 - eps)*cos(q1)"], init, params={"eps": 1.0}
    )
    worst = float(np.max(np.abs(sol.u_values - (2 * np.cos(sol.q_values) ** 2 - 1.0))))
    record(
        9,
        "characteristics reproduce the closed-form leading shaped-mass entry",
        worst <= 1e-6,
        f"201 points on [-1,1], max deviation {worst:.2e}",
        time.perf_counter() - t0,
        2.0,
    )


def test_pde_count_identities():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 21):
        for m in range(1, n + 1):
            naive, reduced = pde_counts(n, m)
            d = n - m
            ok = ok and naive == n * (n + 1) * d // 2
            ok = ok and reduced == (d + 2) * (d + 1) * d // 6
            if d == 1:
                ok = ok and reduced == 1
    record(
        10,
        "matching PDE counts and the degree-one collapse",
        ok,
        "integer identities for 1 <= m <= n <= 20",
        time.perf_counter() - t0,
        1.0,
    )
