"""Benchmark of the design -> synthesis -> closed-loop pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``.
Workloads (one at a time, each invocation a fresh child process pinned to
one BLAS thread, a closed loop: the next invocation starts when the last
has ended):

synthesize-grid  ``idapbc synthesize`` of the pendulum_cart design on an
                 81x41 grid over [-1, 1]^2 (3321 points, all inside the PD
                 box for eps < 2 cos^2 1).  Operation: one grid point.
simulate-table   ``idapbc simulate`` of the bundle that ``synthesize``
                 writes for the same seed (closed-form C table, 5x5 sample
                 grid), 3000 RK4 steps of dt 1e-3.  Operation: one
                 invocation; throughput counts RK4 steps.
control-loop     a 1 kHz controller, 3000 ticks, on a system JSON whose
                 design has no C, so every ``feedback`` derives C through
                 ``GyroField.at``.  Operation: one tick.

The seed draws eps in [0.3, 0.55], K in [0.1, 1] and q0 in [-0.3, 0.3]^2
(|q0| >= 0.1, p0 = 0); the program sees only the generated files and
arguments.  Before the timed window the run generates its inputs, builds
the simulate-table bundle, starts one untimed interpreter to warm the
caches, and times SETUP_REPEATS set-ups (import ``idapbc.cli``, load and
compile the input, exit).  Then it starts invocations until ``--seconds``
have passed (at least MIN_INVOCATIONS), and checks every output with the
gates in gates.py.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics (wall_s, setup_s, ops_per_s, peak_rss_mb; op_p50_us,
the median time of one operation, is only printed); with ``--trace 1``
the invocations alternate untraced and traced, and it carries the
per-layer metrics (tracing.py) including the tracing overhead.  The lines before it are a human-readable report.
The exit code is 0 only when every operation passed its gate.

The gates have their own test: ``python3 -m pytest bench/test_gates.py``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import gates
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

GRID = "q1=-1:1:81,q2=-1:1:41"
# simulate-table reads only the bundle's closed-form C table, so its bundle is
# synthesized on a small grid to keep the untimed preparation short.
BUNDLE_GRID = "q1=-1:1:5,q2=-1:1:5"
GRID_POINTS = 81 * 41
T_END, DT = 3.0, 1e-3
STEPS = 3000
TICKS = 3000
CHECK_EVERY = 10
SETUP_REPEATS = 3
MIN_INVOCATIONS = 3
CHILD_TIMEOUT = 60.0

# ROADMAP's hand-taken baselines: (label, workloads it applies to, per-layer
# key, scale, figure, unit); the measured value is the key's value times
# scale.  closed_loop_field was taken with the C table, so not on control-loop.
ANY = ("synthesize-grid", "simulate-table", "control-loop")
BASELINES = [
    ("CLI import", ANY, "cli.import_s", 1.0, 0.75, "s"),
    ("closed_loop_field", ("simulate-table",), "control_sim.closed_loop_field.us_per_call", 1.0, 195.0, "us"),
    ("c_table_at", ANY, "system.c_table_at.us_per_call", 1.0, 80.0, "us"),
    ("feedback", ANY, "control_sim.feedback.us_per_call", 1.0, 915.0, "us"),
    ("matching_residual", ANY, "control_sim.Controller.matching_residual.us_per_call", 1.0, 407.0, "us"),
    ("GyroField.at", ANY, "matching.GyroField.at.us_per_call", 1.0, 510.0, "us"),
    ("sweep point", ANY, "matching.evaluate_residuals.us_per_call", 1.0 / GRID_POINTS, 416.0, "us"),
]
BASELINE_FLAG = 0.25


class BenchError(RuntimeError):
    pass


def draw_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    eps = rng.uniform(0.3, 0.55)
    K = rng.uniform(0.1, 1.0)
    while True:
        q0 = [rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)]
        if np.hypot(*q0) >= 0.1:
            return {"eps": eps, "K": K, "q0": q0}


def write_system(path: Path, inputs: dict, with_c: bool) -> None:
    from idapbc.system import builtin, system_to_dict

    plant, design = builtin("pendulum_cart", eps=inputs["eps"], K=inputs["K"])
    data = system_to_dict(plant, design)
    if not with_c:
        del data["shaped"]["C"]
    path.write_text(json.dumps(data, indent=2) + "\n")


class Runner:
    """Starts child.py processes one at a time and collects their results."""

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(
            os.environ,
            PYTHONPATH=str(SRC),
            OPENBLAS_NUM_THREADS="1",
            OMP_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
            PYTHONHASHSEED="0",
        )
        self.count = 0

    def run(self, mode: str, args: list[str], trace: bool = False) -> dict:
        self.count += 1
        tag = f"{mode}-{self.count}"
        result_path = self.work / f"{tag}.json"
        argv = [sys.executable, str(BENCH / "child.py"), mode, str(result_path)]
        if mode != "setup":
            argv.append("1" if trace else "0")
        with open(self.work / f"{tag}.out", "wb") as out, open(self.work / f"{tag}.err", "wb") as err:
            start = time.perf_counter()
            try:
                proc = subprocess.run(
                    argv + args, env=self.env, cwd=ROOT, stdout=out, stderr=err,
                    timeout=CHILD_TIMEOUT,
                )
                rc = proc.returncode
            except subprocess.TimeoutExpired:
                rc = -9
            end = time.perf_counter()
        result = json.loads(result_path.read_text()) if result_path.is_file() else {}
        result.update(wall_s=end - start, start=start, end=end, exit=rc)
        if trace and result_path.with_suffix(".npz").is_file():
            result["trace"] = tracing.load(result_path.with_suffix(".npz"))
        if rc != 0:
            result["stderr"] = (self.work / f"{tag}.err").read_text(errors="replace")[-2000:]
        return result

    def out_dir(self) -> Path:
        return Path(tempfile.mkdtemp(prefix="out-", dir=self.work))


class SynthesizeGrid:
    name = "synthesize-grid"
    op = "grid point"

    def __init__(self, work: Path, inputs: dict):
        self.inputs = inputs
        self.system = work / "system.json"
        write_system(self.system, inputs, with_c=True)
        self.setup_input = self.system

    def prepare(self, runner: Runner) -> None:
        pass

    def invoke(self, runner: Runner, trace: bool) -> dict:
        out = runner.out_dir()
        res = runner.run(
            "cli",
            ["synthesize", "--system", str(self.system), "--grid", GRID, "--out", str(out)],
            trace,
        )
        res["ops"] = GRID_POINTS
        res["attempted"] = GRID_POINTS
        res["failed"] = int(self.point_failures(res, out).sum())
        res["op_us"] = [res["run_s"] / GRID_POINTS * 1e6] if "run_s" in res else []
        shutil.rmtree(out)
        return res

    def point_failures(self, res: dict, out: Path) -> np.ndarray:
        csv_path, bundle_path = out / "residuals.csv", out / "controller.json"
        if res["exit"] != 0 or not csv_path.is_file() or not bundle_path.is_file():
            return np.ones(GRID_POINTS, dtype=bool)
        header = csv_path.read_text().split("\n", 1)[0].split(",")
        table = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
        if table.shape[0] != GRID_POINTS:
            return np.ones(GRID_POINTS, dtype=bool)
        pot = [i for i, h in enumerate(header) if h.startswith("potential_res_")]
        kin = [i for i, h in enumerate(header) if h.startswith("kinetic_res_")]
        bundle = json.loads(bundle_path.read_text())
        meta = bundle["metadata"]
        return gates.grid_point_failures(
            table[:, :2], table[:, pot], table[:, kin], meta["pd_box"], ["q1", "q2"],
            meta["tolerance"], bundle["C_samples"]["points"], bundle["C_samples"]["values"],
            self.inputs["eps"], self.inputs["K"],
        )


class SimulateTable:
    name = "simulate-table"
    op = "invocation"

    def __init__(self, work: Path, inputs: dict):
        self.inputs = inputs
        self.system = work / "system.json"
        write_system(self.system, inputs, with_c=True)
        self.bundle = work / "bundle" / "controller.json"
        self.setup_input = self.bundle

    def prepare(self, runner: Runner) -> None:
        out = self.bundle.parent
        out.mkdir()
        res = runner.run(
            "cli", ["synthesize", "--system", str(self.system), "--grid", BUNDLE_GRID, "--out", str(out)]
        )
        if res["exit"] != 0 or not self.bundle.is_file():
            raise BenchError(f"building the bundle failed: {res.get('stderr', '')}")

    def invoke(self, runner: Runner, trace: bool) -> dict:
        out = runner.out_dir()
        q1, q2 = self.inputs["q0"]
        res = runner.run(
            "cli",
            ["simulate", "--system", str(self.bundle), f"--x0={q1!r},{q2!r},0,0",
             "--t-end", str(T_END), "--dt", str(DT), "--out", str(out)],
            trace,
        )
        metrics_path = out / "metrics.json"
        metrics = json.loads(metrics_path.read_text()) if metrics_path.is_file() else None
        reasons = gates.simulate_failures(res["exit"], metrics)
        if reasons:
            print(f"simulate failed: {'; '.join(reasons)}")
        res.update(ops=STEPS, attempted=1, failed=int(bool(reasons)))
        res["op_us"] = [res["run_s"] / STEPS * 1e6] if "run_s" in res else []
        shutil.rmtree(out)
        return res


class ControlLoop:
    name = "control-loop"
    op = "tick"

    def __init__(self, work: Path, inputs: dict):
        self.inputs = inputs
        self.system = work / "system-noc.json"
        write_system(self.system, inputs, with_c=False)
        self.setup_input = self.system

    def prepare(self, runner: Runner) -> None:
        pass

    def invoke(self, runner: Runner, trace: bool) -> dict:
        q0 = ",".join(repr(v) for v in self.inputs["q0"])
        res = runner.run(
            "control", [str(self.system), q0, str(TICKS), str(CHECK_EVERY)], trace
        )
        res.update(ops=TICKS, attempted=TICKS)
        if res["exit"] != 0 or "latency_us" not in res:
            res.update(failed=TICKS, op_us=[])
            return res
        raised = np.zeros(TICKS, dtype=bool)
        raised[res["raised"]] = True
        deviation = {int(k): v for k, v in res["deviation"].items()}
        checked = set(range(0, TICKS, CHECK_EVERY)) - set(res["raised"])
        if set(deviation) != checked:  # a check that did not run is a failure
            raised[list(checked - set(deviation))] = True
        res["failed"] = int(gates.tick_failures(raised, deviation).sum())
        if res["errors"]:
            print(f"feedback raised: {res['errors']}")
        res["op_us"] = res["latency_us"]
        return res


WORKLOADS = {w.name: w for w in (SynthesizeGrid, SimulateTable, ControlLoop)}


def quartiles(values) -> tuple[float, float, float]:
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def environment() -> str:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (
        f"env: python {platform.python_version()}, numpy {np.__version__}, "
        f"scipy {scipy.__version__}, {blas.get('name')} {blas.get('version')}, "
        f"nproc {len(os.sched_getaffinity(0))}, cpu {cpu!r}, BLAS threads 1"
    )


def measure(workload, runner: Runner, seconds: float, trace: bool) -> dict:
    workload.prepare(runner)
    runner.run("setup", [str(workload.setup_input)])  # untimed: fills caches
    setups = []
    for _ in range(SETUP_REPEATS):
        res = runner.run("setup", [str(workload.setup_input)])
        if res["exit"] != 0:
            raise BenchError(f"set-up failed: {res.get('stderr', '')}")
        setups.append(res["wall_s"])
    plain, traced = [], []
    start = time.perf_counter()
    minimum = MIN_INVOCATIONS + (1 if trace else 0)
    while len(plain) + len(traced) < minimum or time.perf_counter() - start < seconds:
        with_trace = trace and len(plain) > len(traced)
        (traced if with_trace else plain).append(workload.invoke(runner, with_trace))
    return {"setups": setups, "plain": plain, "traced": traced}


# Printed in the report but left out of the JSON: its run-to-run spread on a
# shared two-vCPU host reached the largest bound a metric may have.
REPORT_ONLY = {"op_p50_us"}


def end_to_end(runs: list[dict], setups: list[float]) -> dict:
    op_samples = [v for r in runs for v in r["op_us"]]
    return {
        "wall_s": ("s", [r["wall_s"] for r in runs]),
        "setup_s": ("s", setups),
        "ops_per_s": ("1/s", [r["ops"] / r["wall_s"] for r in runs]),
        "op_p50_us": ("us", op_samples or [0.0]),
        "peak_rss_mb": ("MB", [r.get("maxrss_kb", 0) / 1024.0 for r in runs]),
    }


def per_layer(plain: list[dict], traced: list[dict], attempted: int, failed: int) -> dict:
    traces = [r["trace"] for r in traced if "trace" in r]
    summary = tracing.summarize(traces, [r["wall_s"] for r in traced if "trace" in r])
    out = {}
    for name, stats in summary["spans"].items():
        if name == "cli.import":
            continue
        out[f"{name}.calls"] = (stats["calls"], "count")
        out[f"{name}.self_s"] = (stats["self_s"], "s")
        out[f"{name}.us_per_call"] = (stats["us_per_call"], "us")
    out["control_sim.feedback.p99_us"] = (summary["spans"]["control_sim.feedback"]["p99_us"], "us")
    out["cli.import_s"] = (statistics.median(r["import_s"] for r in traced), "s")
    out["cli.write_bytes"] = (
        statistics.median(r.get("write_bytes", 0) for r in traced), "bytes")
    for kind in ("zero_gyro", "residual_over_tol", "decay_clamp"):
        count = sum(r.get("warnings", {}).get(kind, 0) for r in traced) / len(traced)
        out[f"control_sim.warnings.{kind}"] = (count, "count")
    failed_points = summary["points_failed"]
    out["matching.points_failed"] = (sum(failed_points.values()), "count")
    for kind, count in failed_points.items():
        out[f"matching.points_failed.{kind}"] = (count, "count")
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    plain_wall = statistics.median(r["wall_s"] for r in plain)
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.untraced_wall_s"] = (plain_wall, "s")
    out["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    out["trace.self_sum_frac"] = (summary["self_sum_frac"], "ratio")
    out["run.failed_frac"] = (failed / attempted, "ratio")
    return out


def save_trace(path: Path, traced: list[dict]) -> None:
    """All spans of the traced invocations, one file, written at the end.

    Columns: name id, start, end, parent (index into this file, -1 at the
    top), error name id, run id (invocation).  Each invocation has a root
    span ``bench.invocation`` around the child process.
    """
    ids = {"bench.invocation": 0}
    rows = []
    for run_id, r in enumerate(traced):
        if "trace" not in r:
            continue
        child_names, arr = r["trace"]
        root = len(rows)
        rows.append([0, r["start"], r["end"], -1, -1, run_id])
        remap = [ids.setdefault(n, len(ids)) for n in child_names]
        for nid, start, end, parent, error in arr.tolist():
            rows.append([
                remap[int(nid)], start, end,
                root if parent < 0 else root + 1 + int(parent),
                remap[int(error)] if error >= 0 else -1, run_id,
            ])
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, names=np.array(list(ids), dtype=str), spans=np.array(rows, dtype=float).reshape(-1, 6))


def report_line(name: str, unit: str, values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{name:<18} {med:>14.6g} {unit:<6} q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "idapbc" / "cli.py").is_file():
        print(f"error: {SRC / 'idapbc'} not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    trace = bool(args.trace)
    inputs = draw_inputs(args.seed)
    print(f"bench: workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"seconds {args.seconds:g}, eps {inputs['eps']:.6f}, K {inputs['K']:.6f}, "
          f"q0 {inputs['q0'][0]:.4f},{inputs['q0'][1]:.4f}")
    print(environment())
    try:
        workload = WORKLOADS[args.workload](work, inputs)
        runs = measure(workload, Runner(work), args.seconds, trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    everything = runs["plain"] + runs["traced"]
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    for r in everything:
        if r["exit"] != 0:
            print(f"invocation exited {r['exit']}: {r.get('stderr', '')}")
    e2e = end_to_end(runs["plain"], runs["setups"])
    print(f"{len(runs['plain'])} untraced and {len(runs['traced'])} traced invocations; "
          f"operation = one {workload.op}")
    for name, (unit, values) in e2e.items():
        print(report_line(name, unit, values))
    alias = {"synthesize-grid": "points_per_s", "simulate-table": "steps_per_s"}
    if workload.name in alias:
        print(report_line(alias[workload.name], "1/s", e2e["ops_per_s"][1]))
    else:
        print(report_line("feedback_p50_us", "us", e2e["op_p50_us"][1]))
    print(f"{'failed_frac':<18} {failed / attempted:>14.6g} ratio  ({failed} of {attempted})")
    if trace:
        layers = per_layer(runs["plain"], runs["traced"], attempted, failed)
        save_trace(WORK / f"trace-{workload.name}.npz", runs["traced"])
        print("ROADMAP baselines (traced; inclusive median per call):")
        for label, where, key, scale, figure, unit in BASELINES:
            value = layers[key][0] * scale
            if workload.name not in where or not value:
                continue
            ratio = value / figure
            flag = "  FLAG: differs by more than 25%" if abs(ratio - 1) > BASELINE_FLAG else ""
            print(f"  {label:<18} {value:>10.4g} {unit}  ROADMAP {figure:g} {unit}  ratio {ratio:.2f}{flag}")
        frac = layers["trace.self_sum_frac"][0]
        print(f"spans cover {frac:.3f} of the traced wall time"
              + ("" if 0.9 <= frac <= 1.1 else "  FLAG: outside 10%"))
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        metrics = {
            name: {"value": statistics.median(values), "unit": unit}
            for name, (unit, values) in e2e.items()
            if name not in REPORT_ONLY
        }
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
