"""One benchmark invocation in a fresh interpreter.

    python child.py setup   RESULT SYSTEM_JSON
    python child.py cli     RESULT TRACE ARGV...
    python child.py control RESULT TRACE SYSTEM_JSON Q0 TICKS CHECK_EVERY

``setup`` imports ``idapbc.cli``, loads and compiles a system JSON or a
controller bundle, and exits.  ``cli`` runs ``idapbc.cli.main(ARGV)``; for
``synthesize`` it also keeps the sweep's ``ResidualReport`` and writes it
with the program's own ``write_csv`` to ``residuals.csv`` under ``--out``,
so every grid point can be checked.  ``control`` runs a 1 kHz controller:
each tick times one ``feedback`` call, then advances the plant with RK4 on
``open_loop_field`` with the input held; every CHECK_EVERY-th tick compares
``open_loop_field(q, p, u)`` with ``closed_loop_field(ctrl, q, p)``
outside the timed call.

RESULT receives a JSON object with the import and run times, the exit code
and the peak RSS.  With TRACE=1 the calls into idapbc are wrapped in spans
(see tracing.py), the warnings the program raises are counted instead of
printed, and the spans are written next to RESULT when the run ends.
"""
from __future__ import annotations

import json
import resource
import sys
import time
import warnings
from contextlib import nullcontext
from pathlib import Path

WARNING_KINDS = {
    "no gyroscopic extension": "zero_gyro",
    "matching residual": "residual_over_tol",
    "energy samples at or below": "decay_clamp",
}


def _warning_kind(message: str) -> str:
    for prefix, kind in WARNING_KINDS.items():
        if message.startswith(prefix):
            return kind
    return "other"


def run_cli(argv: list[str], result: dict, tracer) -> int:
    import idapbc.cli as cli

    reports = []
    if argv[0] == "synthesize":
        sweep = cli.evaluate_residuals

        def keep_report(*args, **kwargs):
            report = sweep(*args, **kwargs)
            reports.append(report)
            return report

        cli.evaluate_residuals = keep_report
    t0 = time.perf_counter()
    rc = cli.main(argv)
    result["run_s"] = time.perf_counter() - t0
    out = Path(argv[argv.index("--out") + 1])
    if reports:
        reports[-1].write_csv(out / "residuals.csv")
    result["write_bytes"] = sum(
        (out / f).stat().st_size
        for f in ("controller.json", "trajectory.csv", "metrics.json")
        if (out / f).is_file()
    )
    return rc


def run_control(args: list[str], result: dict, tracer) -> int:
    import numpy as np
    from idapbc import control_sim, system

    path, q0, ticks, check_every = args[0], args[1], int(args[2]), int(args[3])
    dt = 1e-3
    t0 = time.perf_counter()
    with tracer.span("control.run") if tracer else nullcontext():
        plant, design = system.load_system(path)
        ctrl = control_sim.Controller(plant, design)
        n = plant.n
        x = np.concatenate([np.array([float(v) for v in q0.split(",")]), np.zeros(n)])
        u = np.zeros(plant.m)
        latency = np.empty(ticks)
        raised: list[int] = []
        errors: dict[str, int] = {}
        deviation: dict[int, float] = {}

        def f(state):
            qdot, pdot = plant.open_loop_field(state[:n], state[n:], u)
            return np.concatenate([qdot, pdot])

        for k in range(ticks):
            q, p = x[:n], x[n:]
            start = time.perf_counter()
            try:
                u = control_sim.feedback(ctrl, q, p)
            except Exception as exc:  # counted as a failed tick; u stays held
                latency[k] = time.perf_counter() - start
                raised.append(k)
                errors[type(exc).__name__] = errors.get(type(exc).__name__, 0) + 1
            else:
                latency[k] = time.perf_counter() - start
                if k % check_every == 0:
                    ol = np.concatenate(plant.open_loop_field(q, p, u))
                    cl = np.concatenate(control_sim.closed_loop_field(ctrl, q, p))
                    deviation[k] = float(np.max(np.abs(ol - cl)))
            k1 = f(x)
            k2 = f(x + 0.5 * dt * k1)
            k3 = f(x + 0.5 * dt * k2)
            k4 = f(x + dt * k3)
            x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    result["run_s"] = time.perf_counter() - t0
    result.update(
        latency_us=(latency * 1e6).tolist(),
        raised=raised,
        errors=errors,
        deviation={str(k): v for k, v in deviation.items()},
    )
    return 0


def main(argv: list[str]) -> int:
    mode, result_path = argv[0], Path(argv[1])
    t0 = time.perf_counter()
    import idapbc.cli  # noqa: F401  (every mode pays the CLI import)

    t1 = time.perf_counter()
    result: dict = {"import_s": t1 - t0}
    if mode == "setup":
        from idapbc.system import load_system

        with open(argv[2]) as fh:
            data = json.load(fh)
        load_system(data["system"] if "system" in data else data)
        return 0
    trace, args = argv[2] == "1", argv[3:]
    tracer = None
    if trace:
        from tracing import Tracer, install

        tracer = Tracer()
        tracer.record("cli.import", t0, t1)
        install(tracer)
    run = run_cli if mode == "cli" else run_control
    if tracer is None:
        rc = run(args, result, tracer)
    else:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run(args, result, tracer)
        kinds: dict[str, int] = {}
        for w in caught:
            kind = _warning_kind(str(w.message))
            kinds[kind] = kinds.get(kind, 0) + 1
        result["warnings"] = kinds
        tracer.save(result_path.with_suffix(".npz"))
    result["rc"] = rc
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result_path.write_text(json.dumps(result))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
