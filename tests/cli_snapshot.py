"""Write the outputs of a fixed list of CLI runs to a directory, or compare
two such directories.

    python tests/cli_snapshot.py OUT
    python tests/cli_snapshot.py --compare OLD NEW

The runs use the package in this tree's ``src``.  Each run gets a
directory under OUT holding its stdout, stderr, exit code and every file
it wrote under ``--out``.  The output directory and the
source tree are replaced by ``<OUT>`` and ``<ROOT>`` in every file, and
the source line a warning names by ``<LINE>``, so snapshots taken from two
trees compare with one ``diff -r``.  The runs
cover pendulum_cart's ``verify``, ``synthesize`` and ``simulate`` with
and without the closed-form C table, and ``selftest``.  ``simulate-bundle``
simulates the controller bundle that ``synthesize-bundle`` writes, 3000 RK4
steps of dt 1e-3 on its C table.  ``simulate-open-loop`` integrates the
plant with u = 0 (``--open-loop``) from x0 = (0.2, -0.1, 0, 0).  The ``repro-*`` runs take a design whose
kinetic residual is 5.5e-11 (verify, synthesize, simulate), a step count no
array can hold (``repro-steps-*``) and an initial state beyond the
divergence guard (``repro-x0-*``).  The ``*-c-pow-pow`` and
``*-c-neg-exp`` runs synthesize and simulate a C table holding a power of a
power and a negative exponent, which the bundle prints back.
``simulate-equilibrium`` starts the builtin closed loop at its equilibrium.
The ``*-mhat-0-over-0`` runs take a design whose Mhat[0][0] holds q1/q1,
which divides by zero along q1 = 0: ``verify`` counts those grid points in
``failed_points``, and ``simulate`` from q1 = 0, with and without the C
table, exits 1 with one ``error:`` line.
The ``*-varying-g-*`` runs verify, synthesize and simulate pendulum_cart
(eps 0.55, K 0.25) with and without the C table, its G replaced by the
varying [0, 2 + cos(q1)]': the annihilator does not change, so the design
still matches, and the sweep, the derivation of C and the law read the
frame's adapted basis at every point.
A run whose system is not one of the inputs or a builtin names a file an
earlier run wrote.

``--compare`` reads every file of two snapshots.  Exit codes, stderr and
every non-numeric part must match exactly: a file or JSON field present on
one side only, a changed string, boolean or null, a changed CSV header or
row count, a NaN or infinity that moved, or a changed text file.  Numbers
are compared by group, a CSV column or a JSON field (array indices folded
into ``[]``): the report prints, for each group that differs, the largest
absolute difference and that difference relative to max(1, the largest
magnitude of the group in OLD), so a group whose exact values are 0 reads
its rounding drift as is.  The exit code is 1 if anything mismatched, else 0.
"""
from __future__ import annotations

import json
import math
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
    eps: float, K: float, c_table: bool = True, mhat00: str = "", c000: str = "",
    g: list | None = None,
) -> dict:
    sys_, shaped = builtin("pendulum_cart", eps=eps, K=K)
    data = system_to_dict(sys_, shaped)
    if g is not None:
        data["G"] = g
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
    "mhat-0-over-0": design(0.55, 0.25, c_table=False, mhat00=" + q1/q1 - 1"),
    "c-mhat-0-over-0": design(0.55, 0.25, mhat00=" + q1/q1 - 1"),
    "varying-g-c": design(0.55, 0.25, g=[["0"], ["2 + cos(q1)"]]),
    "varying-g-noc": design(0.55, 0.25, c_table=False, g=[["0"], ["2 + cos(q1)"]]),
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
    "simulate-open-loop": ["simulate", "c", "--x0=0.2,-0.1,0,0", "--open-loop", *SIM],
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
    "simulate-equilibrium": [
        "simulate", "builtin:pendulum_cart", "--eps", "0.4", "--K", "0.5", "--x0=0,0,0,0", *SIM
    ],
    "verify-mhat-0-over-0": ["verify", "mhat-0-over-0", "--grid", GRID_41],
    "simulate-mhat-0-over-0": ["simulate", "mhat-0-over-0", "--x0=0,0.1,0,0", *SIM],
    "simulate-c-mhat-0-over-0": ["simulate", "c-mhat-0-over-0", "--x0=0,0.1,0,0", *SIM],
    "verify-varying-g-c": ["verify", "varying-g-c", "--grid", GRID_41],
    "verify-varying-g-noc": ["verify", "varying-g-noc", "--grid", GRID_41],
    "synthesize-varying-g-c": ["synthesize", "varying-g-c", "--grid", GRID_21],
    "synthesize-varying-g-noc": ["synthesize", "varying-g-noc", "--grid", GRID_41],
    "simulate-varying-g-c": ["simulate", "varying-g-c", *SIM],
    "simulate-varying-g-noc": ["simulate", "varying-g-noc", *SIM],
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
            system = rest[0]
            if system in INPUTS:
                system = inputs / f"{system}.json"
            elif not system.startswith("builtin:"):
                system = out / system
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


def _leaves(value, path: str, out: dict) -> None:
    """The leaves of a JSON value by path, array indices folded into ``[]``."""
    if isinstance(value, dict):
        for key, item in value.items():
            _leaves(item, f"{path}.{key}" if path else key, out)
    elif isinstance(value, list):
        for item in value:
            _leaves(item, f"{path}[]", out)
    else:
        out.setdefault(path, []).append(value)


def _json_groups(text: str) -> dict | None:
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        return None
    out: dict = {}
    _leaves(value, "", out)
    return out


def _csv_groups(text: str) -> dict:
    rows = [line.split(",") for line in text.splitlines()]
    out = {"<header>": [",".join(rows[0])], "<rows>": [len(rows)]}
    for k, name in enumerate(rows[0]):
        out[name] = [float(row[k]) for row in rows[1:]]
    return out


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _compare_group(old: list, new: list) -> tuple[float, float] | None:
    """(largest absolute difference, it relative to max(1, largest |old|)) of
    two lists of numbers, or None where they differ other than in finite values."""
    if len(old) != len(new):
        return None
    diff, scale = 0.0, 1.0
    for a, b in zip(old, new):
        if not (_is_number(a) and _is_number(b)):
            if a != b:
                return None
            continue
        if not (math.isfinite(a) and math.isfinite(b)):
            if not (a == b or (math.isnan(a) and math.isnan(b))):
                return None
            continue
        diff, scale = max(diff, abs(a - b)), max(scale, abs(a))
    return diff, diff / scale


def compare(old: Path, new: Path) -> int:
    """Print how snapshot NEW differs from OLD; 1 if anything mismatched."""
    files = sorted(
        {p.relative_to(root) for root in (old, new) for p in root.rglob("*") if p.is_file()}
    )
    mismatches, differing, worst = [], 0, (0.0, "")
    for rel in files:
        if not (old / rel).is_file() or not (new / rel).is_file():
            mismatches.append(f"{rel}: only in {'NEW' if (new / rel).is_file() else 'OLD'}")
            continue
        a, b = (old / rel).read_text(), (new / rel).read_text()
        if a == b:
            continue
        if rel.suffix == ".csv":
            groups_a, groups_b = _csv_groups(a), _csv_groups(b)
        elif rel.name in ("exit.txt", "stderr.txt") or (groups_a := _json_groups(a)) is None:
            mismatches.append(f"{rel}: text differs")
            continue
        else:
            groups_b = _json_groups(b)
            if groups_b is None:
                mismatches.append(f"{rel}: NEW is not JSON")
                continue
        for name in sorted(groups_a.keys() | groups_b.keys()):
            if name not in groups_a or name not in groups_b:
                side = "NEW" if name in groups_b else "OLD"
                mismatches.append(f"{rel}: {name} only in {side}")
                continue
            result = _compare_group(groups_a[name], groups_b[name])
            if result is None:
                mismatches.append(f"{rel}: {name} differs other than in finite numbers")
            elif result[0] > 0.0:
                differing += 1
                worst = max(worst, (result[1], f"{rel}: {name}"))
                print(f"{rel}: {name} max abs {result[0]:.3g} rel {result[1]:.3g}")
    for line in mismatches:
        print(f"MISMATCH {line}")
    print(f"{len(files)} files, {differing} numeric groups differ"
          + (f" (largest relative {worst[0]:.3g}, {worst[1]})" if differing else "")
          + f", {len(mismatches)} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        sys.exit(compare(Path(sys.argv[2]), Path(sys.argv[3])))
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUT | --compare OLD NEW")
    main(Path(sys.argv[1]))
