"""Batch command-line interface over JSON system descriptions.

Subcommands follow the synthesis workflow: ``check`` the linearization
before attempting any design, ``verify`` a candidate design's matching
residuals and minimum conditions on a grid, ``synthesize`` the gyroscopic
tensor and damping bundle, ``simulate`` the closed loop, and ``selftest``
the library's property suites.  Structured results are printed as JSON;
grids and trajectories are written under ``--out`` as CSV.

Exit codes: 0 success/pass, 1 usage or input errors, 2 a check or
verification that ran and failed (or a refusal), 3 simulation divergence.
"""
from __future__ import annotations

import argparse
import json
import sys as _sys
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__, writer
from .control_sim import (
    Controller,
    DivergenceError,
    SimConfig,
    closed_loop_field,
    decay_metrics,
    simulate,
    write_trajectory_csv,
)
from .matching import (
    POINT_ERRORS,
    RESIDUAL_TOL,
    MatchingError,
    MatchPoint,
    evaluate_residuals,
)
from .stability import EXPONENTIAL, NOT_STABILIZABLE, linearize, classify, minimum_check
from .system import MechSystem, load_system, system_to_dict
from .tensor import selfcheck

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FAIL = 2
EXIT_DIVERGED = 3

OPEN_LOOP_ENERGY_TOL = 1e-6
ENERGY_INCREASE_TOL = 1e-8


class CliError(ValueError, argparse.ArgumentTypeError):
    """Usage or input error; argparse reports its message for a bad flag value."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; 2 is reserved for
    # failed checks here, so route usage problems through CliError instead
    def error(self, message):
        raise CliError(message)


def parse_grid(text: str) -> tuple[tuple[str, tuple[float, float, int]], ...]:
    """``q1=-1:1:41,q2=-1:1:11`` -> ((q1, (-1, 1, 41)), (q2, (-1, 1, 11)))."""
    axes = []
    for part in text.split(","):
        if "=" not in part:
            raise CliError(f"grid axis {part!r} must look like name=lo:hi:count")
        name, _, bounds = part.partition("=")
        pieces = bounds.split(":")
        if len(pieces) != 3:
            raise CliError(f"grid axis {part!r} must look like name=lo:hi:count")
        try:
            lo, hi = float(pieces[0]), float(pieces[1])
            count = int(pieces[2])
        except ValueError as exc:
            raise CliError(f"grid axis {part!r}: {exc}") from exc
        name = name.strip()
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise CliError(f"grid bounds for {name} must be finite")
        if count < 1:
            raise CliError(f"grid count for {name} must be >= 1")
        if not lo <= hi:
            raise CliError(f"grid range for {name} is empty")
        axes.append((name, (lo, hi, count)))
    return tuple(axes)


def finite_float(text: str) -> float:
    """The type of every float flag: nan and inf are input errors."""
    value = float(text)
    if not np.isfinite(value):
        raise CliError(f"expected a finite number, got {text!r}")
    return value


def parse_x0(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise CliError(f"x0 {text!r}: {exc}") from exc


def _grid_axes(
    args: argparse.Namespace, sys: MechSystem
) -> list[tuple[str, np.ndarray]]:
    if args.grid is None:
        return [(v, np.linspace(-1.0, 1.0, 21)) for v in sys.vars]
    return [
        (name, np.linspace(lo, hi, count)) for name, (lo, hi, count) in args.grid
    ]


def _emit(payload: dict, out: Path | None, filename: str) -> None:
    text = writer.dumps(payload)
    print(text)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / filename).write_text(text + "\n")


def cmd_check(args: argparse.Namespace) -> int:
    sys, _ = load_system(args.system, eps=args.eps, K=args.K)
    lin = linearize(sys)
    report = classify(lin)
    payload = {
        "system": sys.name or args.system,
        "n": sys.n,
        "m": sys.m,
        **report.to_dict(),
        "alin": lin.alin.tolist(),
        "blin": lin.blin.tolist(),
    }
    _emit(payload, args.out, "check.json")
    return EXIT_OK if report.verdict != NOT_STABILIZABLE else EXIT_FAIL


def _verify_payload(args: argparse.Namespace):
    sys, design = load_system(args.system, eps=args.eps, K=args.K)
    if design is None:
        raise CliError(f"{args.system} has no shaped design to verify")
    axes = _grid_axes(args, sys)
    tol = args.tol if args.tol is not None else RESIDUAL_TOL
    report = evaluate_residuals(sys, design, axes, tol)
    minimum = minimum_check(design)
    passed = bool(report.passed and minimum.passed)
    payload = {
        "system": sys.name or args.system,
        "residuals": report.to_summary_dict(),
        "minimum": minimum.to_dict(),
        "passed": passed,
    }
    return sys, design, report, payload


def cmd_verify(args: argparse.Namespace) -> int:
    _, _, report, payload = _verify_payload(args)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        report.write_csv(args.out / "residuals.csv")
    _emit(payload, args.out, "verify.json")
    return EXIT_OK if payload["passed"] else EXIT_FAIL


def cmd_synthesize(args: argparse.Namespace) -> int:
    sys, design, report, verify_payload = _verify_payload(args)
    if not verify_payload["passed"]:
        reason = "design failed verification"
        diagnostic = ""
        kin_pd = verify_payload["residuals"]["max_abs_pd_domain"]["kinetic"]
        if kin_pd > verify_payload["residuals"]["tolerance"]:
            worst = verify_payload["residuals"]["worst"]
            try:
                MatchPoint(sys, design, np.asarray(worst["point"])).gyro()
                diagnostic = (
                    f"kinetic residual {kin_pd:.3e} exceeds the tolerance "
                    "although a pointwise extension exists"
                )
            except MatchingError as exc:
                diagnostic = str(exc)
        payload = {
            "refused": True,
            "reason": reason,
            "diagnostic": diagnostic,
            "verify": verify_payload,
        }
        _emit(payload, args.out, "synthesize.json")
        return EXIT_FAIL
    points = report.points[report.in_box_mask]
    bundle = {
        "kind": "idapbc-controller-bundle",
        "version": __version__,
        "system": system_to_dict(sys, design),
        "Kv": design.Kv.tolist(),
        "C_samples": {
            "points": points,
            "values": report.rows.gyro(report.in_box_mask),
        },
        "metadata": {
            "source": args.system,
            "grid": verify_payload["residuals"]["grid"],
            "tolerance": verify_payload["residuals"]["tolerance"],
            "max_abs_pd_domain": verify_payload["residuals"]["max_abs_pd_domain"],
            "pd_box": verify_payload["residuals"]["pd_box"],
        },
    }
    out = args.out if args.out is not None else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    path = out / "controller.json"
    path.write_text(writer.dumps(bundle) + "\n")
    print(
        writer.dumps(
            {
                "refused": False,
                "bundle": str(path),
                "sampled_points": int(points.shape[0]),
                "verify": verify_payload,
            }
        )
    )
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    sys, design = load_system(args.system, eps=args.eps, K=args.K)
    x0 = np.asarray(
        args.x0 if args.x0 is not None else [0.3] + [0.0] * (2 * sys.n - 1),
        dtype=float,
    )
    if x0.size != 2 * sys.n:
        raise CliError(f"x0 must have {2 * sys.n} entries (q then p)")
    sim_cfg = SimConfig(t_end=args.t_end, dt=args.dt, x0=x0)
    out = args.out if args.out is not None else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    metrics: dict = {
        "system": sys.name or args.system,
        "open_loop": args.open_loop,
        "t_end": sim_cfg.steps * sim_cfg.dt,
        "dt": args.dt,
        "x0": x0.tolist(),
    }
    if args.open_loop:
        u0 = np.zeros(sys.m)
        field = lambda q, p: sys.open_loop_field(q, p, u0)
        energy = sys.hamiltonian
        tol = args.tol if args.tol is not None else OPEN_LOOP_ENERGY_TOL
    else:
        if design is None:
            raise CliError(f"{args.system} has no shaped design to close the loop with")
        ctrl = Controller(sys, design, kv=args.Kv)
        metrics["Kv"] = ctrl.Kv.tolist()
        field = lambda q, p: closed_loop_field(ctrl, q, p)
        energy = design.shaped_hamiltonian
        tol = args.tol if args.tol is not None else ENERGY_INCREASE_TOL
    try:
        traj = simulate(field, sim_cfg, energy=energy)
    except DivergenceError as exc:
        metrics.update({"diverged": True, "divergence_time": exc.time})
        _emit(metrics, out, "metrics.json")
        print(f"simulation diverged at t={exc.time:.6g}", file=_sys.stderr)
        return EXIT_DIVERGED
    write_trajectory_csv(out / "trajectory.csv", traj, sys.vars)
    rest = np.zeros((1, sys.n))  # the equilibrium, through the samples' batched call
    max_increase, rate, at_rest = decay_metrics(traj, float(energy(rest, rest)[0]))
    metrics.update(
        {
            "diverged": False,
            "terminal_norm": float(np.linalg.norm(traj.states[-1])),
            "energy_initial": float(traj.energies[0]),
            "energy_final": float(traj.energies[-1]),
            "max_energy_increase": max_increase,
            "fitted_rate": rate,
            "energy_samples_at_equilibrium": at_rest,
            "trajectory": str(out / "trajectory.csv"),
        }
    )
    if args.open_loop:
        drift = float(np.max(np.abs(traj.energies - traj.energies[0])))
        scale = 1.0 + abs(float(traj.energies[0]))
        metrics["energy_drift"] = drift
        passed = drift <= tol * scale
    else:
        passed = max_increase <= tol
        if rate is not None and classify(linearize(sys)).verdict == EXPONENTIAL:
            passed = passed and rate < 0.0
    metrics["passed"] = bool(passed)
    _emit(metrics, out, "metrics.json")
    return EXIT_OK if passed else EXIT_FAIL


def cmd_selftest(args: argparse.Namespace) -> int:
    if args.dims_max < 2:
        raise CliError(f"--dims-max must be >= 2, got {args.dims_max}")
    if args.seed < 0:
        raise CliError(f"--seed must be >= 0, got {args.seed}")
    results = selfcheck(seed=args.seed, dims_max=args.dims_max)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        detail = f" ({r.detail})" if r.detail else ""
        print(f"{status} {r.name}{detail}")
        failed += 0 if r.passed else 1
    total = len(results)
    print(f"{total - failed}/{total} suites passed")
    return EXIT_OK if failed == 0 else EXIT_ERROR


def build_parser() -> _Parser:
    parser = _Parser(prog="idapbc", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, system=True):
        if system:
            p.add_argument(
                "--system",
                required=True,
                help="JSON file, controller bundle, or builtin:<name>",
            )
            p.add_argument("--eps", type=finite_float, default=None)
            p.add_argument("--K", type=finite_float, default=None)
        p.add_argument("--out", type=Path, default=None, help="output directory")

    p = sub.add_parser("check", help="stabilizability verdict of the linearization")
    common(p)

    p = sub.add_parser("verify", help="matching residuals and minimum conditions")
    common(p)
    p.add_argument("--grid", type=parse_grid, default=None, help="q1=-1:1:41,q2=-1:1:11")
    p.add_argument("--tol", type=finite_float, default=None)

    p = sub.add_parser("synthesize", help="derive the gyroscopic tensor bundle")
    common(p)
    p.add_argument("--grid", type=parse_grid, default=None, help="q1=-1:1:41,q2=-1:1:11")
    p.add_argument("--tol", type=finite_float, default=None)

    p = sub.add_parser("simulate", help="integrate the closed (or open) loop")
    common(p)
    p.add_argument("--Kv", type=finite_float, default=None, help="damping gain (scalar)")
    p.add_argument("--x0", type=parse_x0, default=None, help="initial state q1,..,p1,..")
    p.add_argument("--t-end", type=finite_float, default=10.0)
    p.add_argument("--dt", type=finite_float, default=1e-3)
    p.add_argument("--tol", type=finite_float, default=None)
    p.add_argument("--open-loop", action="store_true")

    p = sub.add_parser("selftest", help="run the library property suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dims-max", type=int, default=5)
    return parser


_COMMANDS = {
    "check": cmd_check,
    "verify": cmd_verify,
    "synthesize": cmd_synthesize,
    "simulate": cmd_simulate,
    "selftest": cmd_selftest,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        tol = getattr(args, "tol", None)
        if tol is not None and not tol > 0.0:
            raise CliError("tolerance must be positive")
        return _COMMANDS[args.command](args)
    except (CliError, OSError, json.JSONDecodeError, *POINT_ERRORS) as exc:
        # numpy's and Python's arithmetic errors do not say what they are
        plain = not isinstance(exc, (ArithmeticError, np.linalg.LinAlgError))
        print(f"error: {'' if plain else type(exc).__name__ + ': '}{exc}", file=_sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    _sys.exit(main())
