"""idapbc.writer against the standard library: the same bytes.

JSON documents are compared with ``json.dumps(indent=2, default=float)`` of
the document with every ndarray as its ``tolist()``; CSV tables with
``csv.writer`` over ``format(v, ".17g")`` cells.  The CLI's outputs are
checked by round trip: their floats parse back exactly, so re-encoding
what was read must give the file again.
"""
import ast
import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest

from idapbc import writer
from idapbc.cli import main
from idapbc.control_sim import write_trajectory_csv
from idapbc.matching import evaluate_residuals
from idapbc.system import StateTrajectory, builtin, load_system, system_to_dict

SRC = Path(writer.__file__).resolve().parent

ODD = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308,
       2.2250738585072014e-308, 0.1, 1 / 3, 1e16, 123456789012345678.0]


def plain(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    return obj


def json_reference(doc) -> str:
    return json.dumps(plain(doc), indent=2, default=float)


def csv_reference(header, rows) -> str:
    buf = io.StringIO(newline="")
    out = csv.writer(buf)
    out.writerow(header)
    for row in rows:
        out.writerow([format(v, ".17g") for v in row])
    return buf.getvalue()


def csv_round_trip(text: str) -> str:
    header, *rows = csv.reader(io.StringIO(text, newline=""))
    return csv_reference(header, [[float(c) for c in row] for row in rows])


def same_text(got: str, want: str) -> None:
    """Equal strings, or a failure naming the first line that differs (pytest's
    own diff of texts this long takes minutes)."""
    if got != want:
        g, w = got.splitlines(keepends=True), want.splitlines(keepends=True)
        i = next((i for i, (a, b) in enumerate(zip(g, w)) if a != b), min(len(g), len(w)))
        pytest.fail(f"line {i + 1}: {g[i:i + 1]!r} != {w[i:i + 1]!r} ({len(g)} vs {len(w)} lines)")


def random_doubles(n, seed):
    """Doubles from random bit patterns: every exponent, subnormals included."""
    raw = np.random.default_rng(seed).integers(0, 2**64, size=n, dtype=np.uint64)
    return raw.view(np.float64)


class TestJson:
    @pytest.mark.parametrize(
        "value",
        [
            np.array(ODD),
            np.array(ODD[3:]).reshape(-1, 1),
            np.array([[1.0, np.nan], [0.5, 2.0]]),
            np.array([[np.inf, -np.inf]]),
            np.array([-0.0, 5e-324, 1e308]),
            np.zeros((0, 2)),
            np.zeros((3, 0)),
            np.zeros((2, 0, 2)),
            np.array(2.5),
            np.arange(6).reshape(2, 3),
            np.array([True, False]),
            np.array([0.1, 1 / 3], dtype=np.float32),
            np.array([[1.0], [1.0, 2.0]], dtype=object),
            [[1.0], [1.0, 2.0], []],
            [np.array([1.0, 2.0]), np.array([[3.0]]), {"x": np.ones((2, 2, 2))}],
            [[np.full((2, 3), 0.5), np.array([1.0])], np.eye(2)],
            np.int64(3),
            np.float32(0.1),
        ],
    )
    def test_same_as_json(self, value):
        doc = {"a": {"value": value, "after": [1, "b"]}, "top": value}
        same_text(writer.dumps(doc), json_reference(doc))
        same_text(writer.dumps(value), json_reference(value))

    def test_random_bit_patterns(self):
        values = random_doubles(4000, 0)
        finite = values[np.isfinite(values)]
        doc = {"all": values.reshape(-1, 2, 2), "finite": finite[: len(finite) // 4 * 4].reshape(-1, 4)}
        same_text(writer.dumps(doc), json_reference(doc))

    @pytest.mark.parametrize("where", ["key", "value"])
    def test_a_string_that_spells_the_mark(self, where):
        doc = {"x": np.ones((2, 2))}
        if where == "key":
            doc["\x00"] = 1
        else:
            doc["s"] = ["\x00", np.zeros(3)]
        same_text(writer.dumps(doc), json_reference(doc))


class TestCsv:
    def write(self, tmp_path, header, table):
        path = tmp_path / "t.csv"
        writer.write_table(path, header, table)
        return path.read_bytes().decode()

    def test_odd_values(self, tmp_path):
        table = np.array(ODD).reshape(-1, 2)
        same_text(self.write(tmp_path, ["a", "b"], table), csv_reference(["a", "b"], table))

    def test_random_bit_patterns(self, tmp_path):
        table = random_doubles(6000, 1).reshape(-1, 6)
        header = [f"c{i}" for i in range(6)]
        same_text(self.write(tmp_path, header, table), csv_reference(header, table))

    def test_empty_stack(self, tmp_path):
        assert self.write(tmp_path, ["a", "b"], np.zeros((0, 2))) == "a,b\r\n"

    def test_names_that_need_quotes(self, tmp_path):
        header = ['q,1', 'say "x"', "line\nbreak", "plain"]
        table = np.array([[1.0, -0.0, np.nan, 2.5]])
        text = self.write(tmp_path, header, table)
        same_text(text, csv_reference(header, table))
        assert text.startswith('"q,1","say ""x""","line\nbreak",plain\r\n')

    def test_trajectory(self, tmp_path):
        times = np.array([0.0, 1e-3, 2e-3])
        states = np.array([ODD[:4], ODD[4:8], ODD[8:12]])
        energies = np.array([1 / 3, np.nan, -0.0])
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(path, StateTrajectory(times, states, energies), ["x,1", 'y"'])
        rows = np.column_stack([times, states, energies])
        header = ["t", "x,1", 'y"', "p1", "p2", "energy"]
        same_text(path.read_bytes().decode(), csv_reference(header, rows))

    def test_residual_report(self, tmp_path):
        sys, design = builtin("pendulum_cart", eps=0.55, K=0.25)
        rep = evaluate_residuals(
            sys, design, [("q1", np.linspace(-1, 1, 5)), ("q2", np.linspace(-1, 1, 3))]
        )
        rep.write_csv(tmp_path / "residuals.csv")
        same_text((tmp_path / "residuals.csv").read_bytes().decode(), residual_reference(rep))


def residual_reference(rep) -> str:
    """The residual table as csv.writer writes it, cell by cell."""
    buf = io.StringIO(newline="")
    out = csv.writer(buf)
    out.writerow(
        [name for name, _ in rep.axes]
        + [f"potential_res_{i + 1}" for i in range(rep.potential_res.shape[1])]
        + [f"kinetic_res_{i + 1}" for i in range(rep.kinetic_res.shape[1])]
        + ["pd"]
    )
    for q, pot, kin, pd in zip(rep.points, rep.potential_res, rep.kinetic_res, rep.pd_mask):
        out.writerow([format(v, ".17g") for v in [*q, *pot, *kin]] + [int(pd)])
    return buf.getvalue()


def design_file(tmp_path, name, edit):
    """pendulum_cart (eps 0.55, K 0.25) without its C table, edited."""
    sys, design = builtin("pendulum_cart", eps=0.55, K=0.25)
    data = system_to_dict(sys, design)
    del data["shaped"]["C"]
    edit(data)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data))
    return str(path)


def _zero_over_zero(data):
    data["shaped"]["Mhat"][0][0] += " + (q1 - 0.5)/(q1 - 0.5) - 1"


def _huge_mhat(data):
    data["shaped"]["Mhat"] = [[f"1e200*({e})" for e in row] for row in data["shaped"]["Mhat"]]


def _vanishing_g(data):
    data["G"] = [["0"], ["q1 - 0.5"]]


# the failing designs of tests/test_matching.py, with the q1 count of a grid
# through their bad rows
FAILING = {
    "zero_over_zero": (_zero_over_zero, 5),
    "huge_mhat": (_huge_mhat, 9),
    "vanishing_g": (_vanishing_g, 9),
}


def assert_json_as_stdlib(text: str):
    same_text(text, json.dumps(json.loads(text), indent=2) + "\n")


class TestCliOutputs:
    def run(self, capsys, *args):
        code = main(list(args))
        return code, capsys.readouterr().out

    def test_synthesize(self, capsys, tmp_path):
        code, out = self.run(
            capsys, "synthesize", "--system", "builtin:pendulum_cart", "--eps", "0.45",
            "--K", "0.5", "--grid", "q1=-1:1:21,q2=-1:1:11", "--out", str(tmp_path),
        )
        assert code == 0
        text = (tmp_path / "controller.json").read_text()
        assert_json_as_stdlib(text)
        assert_json_as_stdlib(out)
        assert len(json.loads(text)["C_samples"]["values"]) == 21 * 11

    @pytest.mark.parametrize("name", FAILING)
    def test_failing_design_grids(self, capsys, tmp_path, name):
        edit, count = FAILING[name]
        path = design_file(tmp_path, name, edit)
        grid = f"q1=-1:1:{count},q2=-1:1:3"
        code, out = self.run(capsys, "verify", "--system", path, "--grid", grid,
                             "--out", str(tmp_path / "v"))
        assert code in (0, 2)
        assert_json_as_stdlib(out)
        assert_json_as_stdlib((tmp_path / "v" / "verify.json").read_text())
        text = (tmp_path / "v" / "residuals.csv").read_bytes().decode()
        assert "nan" in text
        same_text(text, csv_round_trip(text))
        sys, design = load_system(path)
        axes = [("q1", np.linspace(-1, 1, count)), ("q2", np.linspace(-1, 1, 3))]
        same_text(text, residual_reference(evaluate_residuals(sys, design, axes)))

        code, out = self.run(capsys, "synthesize", "--system", path, "--grid", grid,
                             "--out", str(tmp_path / "s"))
        assert_json_as_stdlib(out)
        written = list((tmp_path / "s").glob("*.json"))
        assert len(written) == 1
        assert_json_as_stdlib(written[0].read_text())

    @pytest.mark.parametrize("extra", [[], ["--open-loop"]])
    def test_simulate(self, capsys, tmp_path, extra):
        code, out = self.run(
            capsys, "simulate", "--system", "builtin:pendulum_cart", "--t-end", "0.2",
            "--x0", "0.2,-0.1,0,0", "--out", str(tmp_path), *extra,
        )
        assert code == 0
        assert_json_as_stdlib(out)
        assert_json_as_stdlib((tmp_path / "metrics.json").read_text())
        text = (tmp_path / "trajectory.csv").read_bytes().decode()
        assert text.count("\r\n") == 201 + 1
        same_text(text, csv_round_trip(text))


def output_calls(path: Path) -> list[str]:
    """``csv.writer(...)`` and ``json.dump(s)(..., indent=...)`` calls of a module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
            continue
        owner, attr = node.func.value, node.func.attr
        if not isinstance(owner, ast.Name):
            continue
        if (owner.id, attr) == ("csv", "writer") or (
            owner.id == "json"
            and attr in {"dump", "dumps"}
            and any(k.arg == "indent" for k in node.keywords)
        ):
            found.append(f"{path.name}:{node.lineno} {owner.id}.{attr}")
    return found


def test_one_writer_of_each_kind():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "writer.py")
    assert modules
    calls = [c for p in modules for c in output_calls(p)]
    assert calls == [], "write through idapbc.writer: " + ", ".join(calls)


def test_guard_sees_a_call(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import csv, json\ncsv.writer(fh)\njson.dumps(d, indent=2)\n"
        "json.dumps(d)\njson.dump(d, fh, indent=2)\ncsv.reader(fh)\n"
    )
    assert output_calls(probe) == [
        "probe.py:2 csv.writer", "probe.py:3 json.dumps", "probe.py:5 json.dump"
    ]
