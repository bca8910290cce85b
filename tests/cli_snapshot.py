"""Write the outputs of a fixed list of CLI runs to a directory.

    python tests/cli_snapshot.py OUT

The runs use the package in this tree's ``src``.  Each run gets a
directory under OUT holding its stdout, stderr, exit code and every file
it wrote under ``--out``.  The output directory and the
source tree are replaced by ``<OUT>`` and ``<ROOT>`` in every file, and
the source line a warning names by ``<LINE>``, so snapshots taken from two
trees compare with one ``diff -r``.  The runs
cover pendulum_cart's ``verify``, ``synthesize`` and ``simulate`` with
and without the closed-form C table, and ``selftest``.  ``simulate-bundle``
simulates the controller bundle that ``synthesize-bundle`` writes, 3000 RK4
steps of dt 1e-3 on its C table.  The ``repro-*`` runs take a design whose
kinetic residual is 5.5e-11 (verify, synthesize, simulate), a step count no
array can hold (``repro-steps-*``) and an initial state beyond the
divergence guard (``repro-x0-*``).  The ``*-c-pow-pow`` and
``*-c-neg-exp`` runs synthesize and simulate a C table holding a power of a
power and a negative exponent, which the bundle prints back.  A run whose
system is not one of the inputs names a file an earlier run wrote.
"""
from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
sys.path.insert(0, SRC)

from idapbc.system import builtin, system_to_dict  # noqa: E402


def design(
    eps: float, K: float, c_table: bool = True, mhat00: str = "", c000: str = ""
) -> dict:
    sys_, shaped = builtin("pendulum_cart", eps=eps, K=K)
    data = system_to_dict(sys_, shaped)
    if not c_table:
        del data["shaped"]["C"]
    elif c000:
        data["shaped"]["C"][0][0][0] = c000
    data["shaped"]["Mhat"][0][0] += mhat00
    return data


INPUTS = {
    "c": design(0.55, 0.25),
    "noc": design(0.55, 0.25, c_table=False),
    "noc-0.3-0.9": design(0.3, 0.9, c_table=False),
    "c-1.9": design(1.9, 0.25),
    "repro": design(0.55, 0.25, c_table=False, mhat00=" + 1e-10*q1^3"),
    "c-pow-pow": design(0.55, 0.25, c000="(q1^2)^2 - (q1^2)^2"),
    "c-neg-exp": design(0.55, 0.25, c000="cos(q1)^-1 - cos(q1)^-1"),
}

GRID_41 = "q1=-1:1:41,q2=-1:1:11"
GRID_81 = "q1=-1:1:81,q2=-1:1:41"
GRID_21 = "q1=-1:1:21,q2=-1:1:11"
SIM = ["--t-end", "1", "--dt", "0.01"]
BUNDLE = "synthesize-bundle/files/controller.json"

RUNS = {
    "verify-c": ["verify", "c", "--grid", GRID_41],
    "verify-noc": ["verify", "noc", "--grid", GRID_41],
    "synthesize-noc-81": ["synthesize", "noc", "--grid", GRID_81],
    "synthesize-noc-0.3-0.9": ["synthesize", "noc-0.3-0.9", "--grid", GRID_21],
    "synthesize-c-1.9": ["synthesize", "c-1.9", "--grid", GRID_21],
    "simulate-c": ["simulate", "c", *SIM],
    "simulate-noc": ["simulate", "noc", *SIM],
    "simulate-noc-0.3-0.9": ["simulate", "noc-0.3-0.9", *SIM],
    "simulate-noc-1ms": ["simulate", "noc", "--t-end", "1", "--dt", "1e-3"],
    "synthesize-bundle": ["synthesize", "c", "--grid", "q1=-1:1:5,q2=-1:1:5"],
    "simulate-bundle": ["simulate", BUNDLE, "--x0=0.2,-0.1,0,0", "--t-end", "3", "--dt", "1e-3"],
    "selftest": ["selftest", "--seed", "3", "--dims-max", "4"],
    "repro-verify": ["verify", "repro", "--grid", GRID_41],
    "repro-synthesize": ["synthesize", "repro", "--grid", GRID_41],
    "repro-simulate": ["simulate", "repro", *SIM],
    "repro-steps-dt-1e-300": ["simulate", "c", "--t-end", "1", "--dt", "1e-300"],
    "repro-steps-t-end-1e300": ["simulate", "c", "--t-end", "1e300", "--dt", "1"],
    "repro-steps-dt-1e-320": ["simulate", "c", "--t-end", "1", "--dt", "1e-320"],
    "repro-x0-2e6": ["simulate", "c", "--x0=0.2,-0.1,2e6,0"],
    "repro-x0-1e100": ["simulate", "c", "--x0=0.2,-0.1,1e100,0"],
    "repro-x0-open-loop-1e200": ["simulate", "c", "--x0=0.2,-0.1,1e200,0", "--open-loop"],
    "synthesize-c-pow-pow": ["synthesize", "c-pow-pow", "--grid", "q1=-1:1:5,q2=-1:1:5"],
    "simulate-c-pow-pow": ["simulate", "synthesize-c-pow-pow/files/controller.json", *SIM],
    "synthesize-c-neg-exp": ["synthesize", "c-neg-exp", "--grid", "q1=-1:1:5,q2=-1:1:5"],
    "simulate-c-neg-exp": ["simulate", "synthesize-c-neg-exp/files/controller.json", *SIM],
}


def main(out: Path) -> None:
    out = out.resolve()
    if out.exists():
        shutil.rmtree(out)
    inputs = out / "inputs"
    inputs.mkdir(parents=True)
    for name, data in INPUTS.items():
        (inputs / f"{name}.json").write_text(json.dumps(data, indent=2) + "\n")
    for name, (command, *rest) in RUNS.items():
        run_dir = out / name
        files = run_dir / "files"
        argv = [command]
        if command != "selftest":
            system = inputs / f"{rest[0]}.json" if rest[0] in INPUTS else out / rest[0]
            argv += ["--system", str(system), "--out", str(files)]
            rest = rest[1:]
        proc = subprocess.run(
            [sys.executable, "-m", "idapbc.cli", *argv, *rest],
            capture_output=True, text=True, cwd=out,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        run_dir.mkdir(exist_ok=True)
        (run_dir / "stdout.txt").write_text(proc.stdout)
        (run_dir / "stderr.txt").write_text(proc.stderr)
        (run_dir / "exit.txt").write_text(f"{proc.returncode}\n")
        print(f"{name}: exit {proc.returncode}")
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        text = path.read_text().replace(str(out), "<OUT>").replace(str(ROOT), "<ROOT>")
        path.write_text(re.sub(r"(<ROOT>/src/\S+\.py):\d+: ", r"\1:<LINE>: ", text))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUT")
    main(Path(sys.argv[1]))
