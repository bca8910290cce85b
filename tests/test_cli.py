import json
import os
import subprocess
from pathlib import Path
from sys import executable

import numpy as np
import pytest

from idapbc import cli
from idapbc.cli import CliError, main, parse_grid, parse_x0
from idapbc.system import builtin, load_system, system_to_dict


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *args):
    code, out, err = run(capsys, *args)
    return code, json.loads(out), err


def write_json(path, data):
    path.write_text(json.dumps(data, indent=2))
    return str(path)


def pendulum_dict(eps=1.0, K=1.0):
    sys, design = builtin("pendulum_cart", eps=eps, K=K)
    return system_to_dict(sys, design)


# pendulum_cart variants, without the C table, that fail at every q1 != 0:
# sin of an infinite argument, an overflowing power, a NaN entry of G or M
def failing_design(case):
    data = pendulum_dict(eps=0.55, K=0.25)
    del data["shaped"]["C"]
    nan = "(q1*1e200*1e200 - q1*1e200*1e200)"
    if case == "sin":
        data["shaped"]["Mhat"] = [["3 + sin(q1*1e200*1e200)", "0"], ["0", "1"]]
    elif case == "overflow":
        data["shaped"]["Mhat"][0][0] = "3 + (q1*1e200)^2"
    elif case == "nan-m":
        data["M"][0][1] = data["M"][1][0] = f"cos(q1) + {nan}"
    else:
        data["G"] = [["0"], ["1 + " + nan]]
    return data


def kinetic_defect_design(coefficient):
    """pendulum_cart (eps 0.55, K 0.25) without the C table, its Mhat bent
    so that the kinetic residual is about 0.5 * coefficient: inside the
    derivation's relative 1e-9 and verify's 1e-8."""
    data = pendulum_dict(eps=0.55, K=0.25)
    del data["shaped"]["C"]
    data["shaped"]["Mhat"][0][0] += f" + {coefficient}*q1^3"
    return data


SADDLE = {
    "name": "saddle",
    "n": 2,
    "m": 1,
    "vars": ["q1", "q2"],
    "M": [["1", "0"], ["0", "1"]],
    "V": "q1^2/2 - q2^2/2",
    "G": [["1"], ["0"]],
}

FULLY_ACTUATED = {
    "name": "planar",
    "n": 2,
    "m": 2,
    "vars": ["q1", "q2"],
    "M": [["2", "0"], ["0", "1"]],
    "V": "q1^2 + q2^2",
    "G": [["1", "0"], ["0", "1"]],
    "shaped": {
        "Mhat": [["1", "0"], ["0", "1"]],
        "Vhat": "q1^2 + q2^2",
        "Kv": [[1.0, 0.0], [0.0, 1.0]],
    },
}


class TestParsing:
    def test_grid_round_trip(self):
        axes = parse_grid("q1=-1:1:41,q2=-0.5:0.5:11")
        assert axes == (("q1", (-1.0, 1.0, 41)), ("q2", (-0.5, 0.5, 11)))

    def test_grid_rejects_missing_count(self):
        with pytest.raises(CliError, match="lo:hi:count"):
            parse_grid("q1=-1:1")

    def test_grid_rejects_bad_number(self):
        with pytest.raises(CliError):
            parse_grid("q1=a:1:5")

    def test_x0(self):
        assert parse_x0("0.3,0,0,0") == (0.3, 0.0, 0.0, 0.0)

    def test_x0_rejects_garbage(self):
        with pytest.raises(CliError):
            parse_x0("0.3,zero")

    def test_config_rejects_bad_tol(self, capsys):
        code, _, err = run(
            capsys, "simulate", "--system", "builtin:pendulum_cart", "--tol", "-1"
        )
        assert code == 1
        assert "positive" in err

    def test_config_rejects_empty_grid_axis(self):
        with pytest.raises(CliError, match="count"):
            parse_grid("q1=-1:1:0")
        with pytest.raises(CliError, match="empty"):
            parse_grid("q1=1:-1:5")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "command,flag",
        [
            ("check", "--eps"),
            ("verify", "--K"),
            ("verify", "--tol"),
            ("synthesize", "--eps"),
            ("simulate", "--eps"),
            ("simulate", "--t-end"),
            ("simulate", "--dt"),
            ("simulate", "--Kv"),
        ],
    )
    def test_non_finite_flag_is_an_input_error(self, capsys, tmp_path, command, flag, value):
        code, _, err = run(
            capsys, command, "--system", "builtin:pendulum_cart", f"{flag}={value}",
            "--out", str(tmp_path),
        )
        assert code == 1
        assert err == f"error: argument {flag}: expected a finite number, got {value!r}\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "grid", ["q1=-inf:1:5,q2=-1:1:3", "q1=-1:1:5,q2=-1:inf:3", "q1=nan:1:5,q2=-1:1:3"]
    )
    def test_non_finite_grid_bound_is_an_input_error(self, capsys, tmp_path, grid):
        out = tmp_path / "out"
        code, stdout, err = run(
            capsys, "verify", "--system", "builtin:pendulum_cart", "--grid", grid,
            "--out", str(out),
        )
        assert code == 1
        axis = "q2" if "inf:3" in grid else "q1"
        assert err == f"error: argument --grid: grid bounds for {axis} must be finite\n"
        assert stdout == "" and not out.exists()

    def test_grid_message_reaches_user(self, capsys):
        code, _, err = run(
            capsys, "verify", "--system", "builtin:pendulum_cart", "--grid", "q1=-1:1"
        )
        assert code == 1
        assert "must look like name=lo:hi:count" in err


class TestCheck:
    def test_pendulum_passes(self, capsys):
        code, payload, _ = run_json(
            capsys, "check", "--system", "builtin:pendulum_cart"
        )
        assert code == 0
        assert payload["verdict"] == "ExponentiallyStabilizable"
        assert payload["kalman_rank"] == 4
        assert payload["n"] == 2 and payload["m"] == 1
        assert np.asarray(payload["alin"]).shape == (4, 4)

    def test_three_dof_passes(self, capsys):
        code, payload, _ = run_json(capsys, "check", "--system", "builtin:three_dof")
        assert code == 0
        assert payload["verdict"] == "ExponentiallyStabilizable"
        assert payload["kalman_rank"] == 6

    def test_uncontrollable_unstable_mode_fails(self, capsys, tmp_path):
        path = write_json(tmp_path / "saddle.json", SADDLE)
        code, payload, _ = run_json(capsys, "check", "--system", path)
        assert code == 2
        assert payload["verdict"] == "NotStabilizable"
        assert any(
            abs(e["re"] - 1.0) < 1e-9 for e in payload["uncontrollable_eigs"]
        )

    def test_potential_divided_by_a_tiny_constant_gets_a_verdict(self, capsys, tmp_path):
        # its derivative once folded to 0/0; the verdict itself is scale-dependent
        data = pendulum_dict()
        data["V"] = "10*cos(q1) + q2^2/1e-200"
        code, payload, err = run_json(
            capsys, "check", "--system", write_json(tmp_path / "tiny.json", data)
        )
        assert err == "" and code == (0 if payload["verdict"] != "NotStabilizable" else 2)

    def test_out_writes_report(self, capsys, tmp_path):
        code, payload, _ = run_json(
            capsys,
            "check",
            "--system",
            "builtin:pendulum_cart",
            "--out",
            str(tmp_path),
        )
        assert code == 0
        on_disk = json.loads((tmp_path / "check.json").read_text())
        assert on_disk == payload

    @pytest.mark.parametrize(
        "entry, value, text",
        [("M", "cos(q1) + 1e400*q1^2", "cos(q1) + 1e400*q1^2"),
         ("V", "10*cos(q1) + q2^2/10^400", "10*cos(q1) + q2^2/10^400")],
    )
    def test_non_finite_constant_is_an_input_error(self, capsys, tmp_path, entry, value, text):
        data = pendulum_dict()
        if entry == "M":
            data["M"][0][1] = data["M"][1][0] = value
        else:
            data["V"] = value
        path = write_json(tmp_path / "huge.json", data)
        code, out, err = run(capsys, "check", "--system", path)
        assert code == 1 and out == ""
        assert err.startswith("error: invalid system description: constant is not finite")
        assert err.endswith(f": {text!r}\n") and len(err.splitlines()) == 1

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "--system", "/nowhere/missing.json")
        assert code == 1
        assert err.startswith("error:")

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ this is not json")
        code, _, err = run(capsys, "check", "--system", str(path))
        assert code == 1
        assert err.startswith("error:")

    def test_unknown_builtin(self, capsys):
        code, _, err = run(capsys, "check", "--system", "builtin:wrong")
        assert code == 1
        assert "wrong" in err


class TestVerify:
    def test_pendulum_grid_passes(self, capsys, tmp_path):
        code, payload, _ = run_json(
            capsys,
            "verify",
            "--system",
            "builtin:pendulum_cart",
            "--grid",
            "q1=-1:1:41,q2=-1:1:11",
            "--out",
            str(tmp_path),
        )
        assert code == 0
        assert payload["passed"] is True
        res = payload["residuals"]
        assert res["max_abs"]["potential"] <= 1e-9
        assert res["max_abs"]["kinetic"] <= 1e-9
        assert res["pd_box"]["q1"] == pytest.approx(0.75)
        assert res["pd_box"]["q2"] == pytest.approx(1.0)
        assert payload["minimum"]["passed"] is True
        header = (tmp_path / "residuals.csv").read_text().splitlines()[0]
        assert header == "q1,q2,potential_res_1,kinetic_res_1,pd"
        assert (tmp_path / "verify.json").exists()

    def test_narrow_pd_box_still_passes(self, capsys):
        code, payload, _ = run_json(
            capsys,
            "verify",
            "--system",
            "builtin:pendulum_cart",
            "--eps",
            "1.9",
            "--grid",
            "q1=-1:1:41,q2=-1:1:11",
        )
        assert code == 0
        assert payload["passed"] is True
        assert payload["residuals"]["pd_box"]["q1"] == pytest.approx(0.2)
        assert payload["residuals"]["pd_box"]["q2"] == pytest.approx(1.0)

    def test_spoiled_potential_fails(self, capsys, tmp_path):
        data = pendulum_dict()
        data["shaped"]["Vhat"] = "(" + data["shaped"]["Vhat"] + ") + q1/10"
        path = write_json(tmp_path / "spoiled.json", data)
        code, payload, _ = run_json(
            capsys, "verify", "--system", path, "--grid", "q1=-1:1:21,q2=-1:1:5"
        )
        assert code == 2
        assert payload["passed"] is False
        assert payload["residuals"]["max_abs_pd_domain"]["potential"] > 1e-9
        worst = payload["residuals"]["worst"]
        assert isinstance(worst["point"], list) and len(worst["point"]) == 2

    def test_no_design_is_an_input_error(self, capsys, tmp_path):
        data = pendulum_dict()
        del data["shaped"]
        path = write_json(tmp_path / "plain.json", data)
        code, _, err = run(capsys, "verify", "--system", path)
        assert code == 1
        assert "no shaped design" in err

    @pytest.mark.parametrize("command", ["verify", "synthesize"])
    def test_kv_of_wrong_size_is_an_input_error(self, capsys, tmp_path, command):
        data = pendulum_dict(eps=0.55, K=0.25)
        data["shaped"]["Kv"] = [[1.0, 0.0], [0.0, 1.0]]
        path = write_json(tmp_path / "kv2.json", data)
        out = tmp_path / "out"
        code, _, err = run(capsys, command, "--system", path, "--out", str(out))
        assert code == 1
        assert err == "error: Kv must be 1x1\n"
        assert not out.exists()

    @pytest.mark.parametrize("kv", ["x", [[1], [1, 2]]])
    def test_non_numeric_kv_is_an_input_error(self, capsys, tmp_path, kv):
        data = pendulum_dict(eps=0.55, K=0.25)
        data["shaped"]["Kv"] = kv
        path = write_json(tmp_path / "kv.json", data)
        code, _, err = run(capsys, "verify", "--system", path)
        assert code == 1
        assert err.startswith("error: Kv is not a numeric matrix: ")

    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    def test_non_finite_param_is_an_input_error(self, capsys, tmp_path, value):
        data = pendulum_dict(eps=0.55, K=0.25)
        data["shaped"]["params"] = {"eps": 0.55, "K": 0.25}
        text = json.dumps(data)
        path = tmp_path / "params.json"
        path.write_text(text.replace('"eps": 0.55', f'"eps": {value}'))
        code, _, err = run(capsys, "verify", "--system", str(path))
        assert code == 1
        assert err == f"error: shaped parameter eps must be finite, got {float(value)!r}\n"

    @pytest.mark.parametrize(
        "case, failed",
        [
            # dMhat holds cos(...)*inf, infinite at q1 = 0, so T is not finite there
            ("sin", {"ExprError": 6, "TensorError": 3}),
            ("overflow", {"OverflowError": 6}),
            ("nan-g", {"LinAlgError": 6}),
        ],
    )
    def test_failing_points_counted(self, capsys, tmp_path, case, failed):
        path = write_json(tmp_path / "failing.json", failing_design(case))
        code, payload, err = run_json(
            capsys, "verify", "--system", path, "--grid", "q1=-1:1:3,q2=-1:1:3"
        )
        # a point that fails to evaluate fails the verdict
        assert code == 2 and err == ""
        assert not payload["passed"] and not payload["residuals"]["passed"]
        assert payload["residuals"]["failed_points"] == failed

    def test_grid_axis_mismatch(self, capsys):
        code, _, err = run(
            capsys,
            "verify",
            "--system",
            "builtin:pendulum_cart",
            "--grid",
            "a=-1:1:5,b=-1:1:5",
        )
        assert code == 1
        assert "must match system coordinates" in err

    def test_non_positive_tolerance(self, capsys):
        code, _, err = run(
            capsys, "verify", "--system", "builtin:pendulum_cart", "--tol", "0"
        )
        assert code == 1
        assert "positive" in err


class TestSynthesize:
    def synth(self, capsys, out, *extra):
        return run_json(
            capsys,
            "synthesize",
            "--system",
            "builtin:pendulum_cart",
            "--grid",
            "q1=-1:1:41,q2=-1:1:11",
            "--out",
            str(out),
            *extra,
        )

    def test_bundle_written(self, capsys, tmp_path):
        code, payload, _ = self.synth(capsys, tmp_path)
        assert code == 0
        assert payload["refused"] is False
        assert payload["sampled_points"] > 0
        bundle = json.loads((tmp_path / "controller.json").read_text())
        assert bundle["kind"] == "idapbc-controller-bundle"
        assert bundle["Kv"] == [[1.0]]
        assert bundle["system"]["shaped"].get("C") is not None
        pts = np.asarray(bundle["C_samples"]["points"])
        vals = np.asarray(bundle["C_samples"]["values"])
        assert pts.shape == (payload["sampled_points"], 2)
        assert vals.shape == (len(pts), 2, 2, 2)

    def test_samples_match_stored_table(self, capsys, tmp_path):
        code, _, _ = self.synth(capsys, tmp_path)
        assert code == 0
        bundle = json.loads((tmp_path / "controller.json").read_text())
        _, design = load_system(bundle["system"])
        worst = 0.0
        for q, c in zip(bundle["C_samples"]["points"], bundle["C_samples"]["values"]):
            table = design.c_table_at(np.asarray(q))
            worst = max(worst, float(np.max(np.abs(table - np.asarray(c)))))
        assert worst <= 1e-9

    def test_deterministic_output(self, capsys, tmp_path):
        self.synth(capsys, tmp_path / "a")
        self.synth(capsys, tmp_path / "b")
        assert (tmp_path / "a/controller.json").read_bytes() == (
            tmp_path / "b/controller.json"
        ).read_bytes()

    def test_bundle_drives_the_simulator(self, capsys, tmp_path):
        code, _, _ = self.synth(capsys, tmp_path, "--eps", "0.55", "--K", "0.25")
        assert code == 0
        code, metrics, _ = run_json(
            capsys,
            "simulate",
            "--system",
            str(tmp_path / "controller.json"),
            "--t-end",
            "2",
            "--out",
            str(tmp_path / "sim"),
        )
        assert code == 0
        assert metrics["passed"] is True
        assert metrics["Kv"] == [[1.0]]

    def test_bundle_of_printed_powers_simulates(self, capsys, tmp_path):
        # the bundle prints a power of a power and a negative exponent back
        # to strings that simulate parses (two entries that are 0 in the table)
        data = pendulum_dict(eps=0.55, K=0.25)
        data["shaped"]["C"][0][0][0] = "(q1^2)^2 - (q1^2)^2"
        data["shaped"]["C"][1][1][1] = "cos(q1)^-1 - cos(q1)^-1"
        path = write_json(tmp_path / "c.json", data)
        code, _, _ = run_json(
            capsys, "synthesize", "--system", path, "--grid", "q1=-1:1:5,q2=-1:1:5",
            "--out", str(tmp_path),
        )
        assert code == 0
        code, metrics, err = run_json(
            capsys, "simulate", "--system", str(tmp_path / "controller.json"),
            "--t-end", "0.1", "--out", str(tmp_path / "sim"),
        )
        assert (code, err) == (0, "")
        assert metrics["passed"] is True

    def test_override_of_a_bundle_rejected(self, capsys, tmp_path):
        # the bundle's expressions hold eps and K as numbers
        code, _, _ = self.synth(capsys, tmp_path, "--eps", "0.4", "--K", "0.5")
        assert code == 0
        code, out, err = run(
            capsys, "simulate", "--system", str(tmp_path / "controller.json"),
            "--eps", "1.5", "--K", "3", "--out", str(tmp_path / "sim"),
        )
        assert (code, out) == (1, "")
        assert err == (
            "error: no expression of the loaded design reads eps or K: "
            "the override would change nothing\n"
        )
        assert not (tmp_path / "sim").exists()

    def test_unmatchable_kinetics_refused(self, capsys, tmp_path):
        data = pendulum_dict()
        data["shaped"] = {
            "Mhat": [["2", "0"], ["0", "1"]],
            "Vhat": "q1^2/2 + q2^2/2",
            "Kv": [[1.0]],
        }
        path = write_json(tmp_path / "broken.json", data)
        code, payload, _ = run_json(
            capsys,
            "synthesize",
            "--system",
            path,
            "--grid",
            "q1=-1:1:21,q2=-1:1:5",
            "--out",
            str(tmp_path),
        )
        assert code == 2
        assert payload["refused"] is True
        assert "cyclic sum" in payload["diagnostic"]
        assert not (tmp_path / "controller.json").exists()
        assert (tmp_path / "synthesize.json").exists()

    def test_fully_actuated_needs_no_force(self, capsys, tmp_path):
        path = write_json(tmp_path / "planar.json", FULLY_ACTUATED)
        code, payload, _ = run_json(
            capsys,
            "synthesize",
            "--system",
            path,
            "--grid",
            "q1=-1:1:5,q2=-1:1:5",
            "--out",
            str(tmp_path),
        )
        assert code == 0
        bundle = json.loads((tmp_path / "controller.json").read_text())
        assert bundle["system"]["shaped"].get("C") is None
        vals = np.asarray(bundle["C_samples"]["values"])
        assert vals.shape == (25, 2, 2, 2)
        assert np.max(np.abs(vals)) <= 1e-12

    @pytest.mark.parametrize("coefficient", ["1e-10", "1e-9"])
    def test_small_kinetic_defect_is_synthesized(self, capsys, tmp_path, coefficient):
        path = write_json(tmp_path / "design.json", kinetic_defect_design(coefficient))
        code, payload, err = run_json(
            capsys, "synthesize", "--system", path,
            "--grid", "q1=-0.5:0.5:5,q2=-0.5:0.5:3", "--out", str(tmp_path),
        )
        assert code == 0 and err == "" and not payload["refused"]
        kinetic = payload["verify"]["residuals"]["max_abs"]["kinetic"]
        assert 1e-12 < kinetic < 1e-8
        bundle = json.loads((tmp_path / "controller.json").read_text())
        assert len(bundle["C_samples"]["values"]) == payload["sampled_points"] == 15


class TestSimulate:
    def test_closed_loop_decays(self, capsys, tmp_path):
        code, metrics, _ = run_json(
            capsys,
            "simulate",
            "--system",
            "builtin:pendulum_cart",
            "--eps",
            "0.55",
            "--K",
            "0.25",
            "--Kv",
            "1",
            "--x0",
            "0.3,0,0,0",
            "--t-end",
            "2",
            "--out",
            str(tmp_path),
        )
        assert code == 0
        assert metrics["passed"] is True
        assert metrics["diverged"] is False
        assert metrics["max_energy_increase"] <= 1e-8
        assert metrics["fitted_rate"] < 0.0
        rows = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert rows[0] == "t,q1,q2,p1,p2,energy"
        assert len(rows) == 2002
        on_disk = json.loads((tmp_path / "metrics.json").read_text())
        assert on_disk == metrics

    def test_damping_flag_overrides(self, capsys, tmp_path):
        code, metrics, _ = run_json(
            capsys,
            "simulate",
            "--system",
            "builtin:pendulum_cart",
            "--eps",
            "0.55",
            "--K",
            "0.25",
            "--Kv",
            "2",
            "--t-end",
            "0.5",
            "--out",
            str(tmp_path),
        )
        assert code == 0
        assert metrics["Kv"] == [[2.0]]

    def test_open_loop_conserves_energy(self, capsys, tmp_path):
        code, metrics, _ = run_json(
            capsys,
            "simulate",
            "--system",
            "builtin:pendulum_cart",
            "--open-loop",
            "--t-end",
            "2",
            "--out",
            str(tmp_path),
        )
        assert code == 0
        assert metrics["open_loop"] is True
        assert metrics["passed"] is True
        assert metrics["energy_drift"] <= 1e-6 * (1 + abs(metrics["energy_initial"]))
        # the origin is the top of V = 10 cos(q1): every sample lies below it
        assert metrics["fitted_rate"] is None
        assert metrics["energy_samples_at_equilibrium"] == 1001

    def test_run_at_the_equilibrium_passes(self, capsys, tmp_path):
        code, metrics, _ = run_json(
            capsys,
            "simulate",
            "--system",
            "builtin:pendulum_cart",
            "--eps",
            "0.4",
            "--K",
            "0.5",
            "--x0=0,0,0,0",
            "--t-end",
            "1",
            "--dt",
            "0.01",
            "--out",
            str(tmp_path),
        )
        assert code == 0 and metrics["passed"] is True
        assert metrics["fitted_rate"] is None
        assert metrics["energy_samples_at_equilibrium"] == 51
        assert metrics["max_energy_increase"] == 0.0

    def test_open_loop_three_dof_default_start(self, capsys, tmp_path):
        code, metrics, _ = run_json(
            capsys,
            "simulate",
            "--system",
            "builtin:three_dof",
            "--open-loop",
            "--t-end",
            "0.5",
            "--out",
            str(tmp_path),
        )
        assert code == 0
        assert metrics["x0"] == [0.3, 0.0, 0.0, 0.0, 0.0, 0.0]

    def test_divergence_exit_code(self, capsys, tmp_path):
        unstable = dict(SADDLE, V="-(q1^2 + q2^2)/2")
        path = write_json(tmp_path / "unstable.json", unstable)
        code, out, err = run(
            capsys,
            "simulate",
            "--system",
            path,
            "--open-loop",
            "--x0",
            "0.1,0.1,0,0",
            "--t-end",
            "30",
            "--dt",
            "0.01",
            "--out",
            str(tmp_path),
        )
        assert code == 3
        assert "diverged at t=" in err
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["diverged"] is True
        assert 10.0 < metrics["divergence_time"] < 20.0

    @pytest.mark.parametrize("x0, extra", [
        ("0.2,-0.1,2e6,0", []), ("0.2,-0.1,1e100,0", []), ("0.2,-0.1,1e200,0", ["--open-loop"]),
    ])
    def test_start_beyond_the_divergence_guard(self, capsys, tmp_path, x0, extra):
        # no field evaluation, so no overflow warning and no error naming q
        code, out, err = run(
            capsys, "simulate", "--system", "builtin:pendulum_cart", "--eps", "0.55",
            "--K", "0.25", f"--x0={x0}", "--out", str(tmp_path), *extra,
        )
        assert code == 3 and err == "simulation diverged at t=0\n"
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert json.loads(out) == metrics
        assert metrics["diverged"] is True and metrics["divergence_time"] == 0.0
        assert not (tmp_path / "trajectory.csv").exists()

    @pytest.mark.parametrize("t_end, dt, count", [
        ("1", "1e-300", "1e+300"), ("1e300", "1", "1e+300"), ("1", "1e-320", "inf"),
    ])
    def test_unrepresentable_step_count_is_an_error(
        self, capsys, tmp_path, monkeypatch, t_end, dt, count
    ):
        def no_run(*args, **kwargs):
            raise AssertionError("the state array was allocated")

        monkeypatch.setattr(cli, "simulate", no_run)
        code, out, err = run(
            capsys, "simulate", "--system", "builtin:pendulum_cart", "--t-end", t_end,
            "--dt", dt, "--out", str(tmp_path / "out"),
        )
        assert code == 1 and out == ""
        assert err.startswith("error: t_end=") and err.count("\n") == 1
        assert f"takes {count} steps, more than a trajectory array can hold" in err
        assert not (tmp_path / "out").exists()

    def test_start_outside_pd_region_is_an_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "simulate",
            "--system",
            "builtin:pendulum_cart",
            "--x0",
            "1.5,0,0,0",
            "--t-end",
            "1",
            "--out",
            str(tmp_path),
        )
        assert code == 1
        assert "not positive definite" in err

    def test_error_prints_q_as_plain_floats(self, capsys, tmp_path):
        data = pendulum_dict()
        data["G"] = [["0"], ["0"]]
        code, _, err = run(
            capsys,
            "simulate",
            "--system",
            write_json(tmp_path / "no_input.json", data),
            "--x0=0.2,-0.1,0,0",
            "--out",
            str(tmp_path),
        )
        assert code == 1
        assert "rank-deficient at q=[0.2, -0.1]" in err

    def test_missing_extension_is_an_error(self, capsys, tmp_path):
        # Mhat = diag(2, 1) admits no gyroscopic tensor at any q: no closed
        # loop exists to simulate
        data = pendulum_dict()
        data["shaped"] = {
            "Mhat": [["2", "0"], ["0", "1"]],
            "Vhat": "q1^2 + q2^2",
            "Kv": [[1.0]],
        }
        code, _, err = run(
            capsys,
            "simulate",
            "--system",
            write_json(tmp_path / "no_extension.json", data),
            "--t-end",
            "0.01",
            "--dt",
            "0.001",
            "--out",
            str(tmp_path),
        )
        assert code == 1
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(
            "error: cannot extend to a gyroscopic tensor at q=[0.3, 0.0]"
        )
        assert not (tmp_path / "metrics.json").exists()

    @pytest.mark.parametrize(
        "case, message",
        [
            ("sin", "error: infinite argument in sin(q1*1e+200*1e+200)"),
            ("overflow", "error: OverflowError: "),
            ("nan-g", "error: LinAlgError: SVD did not converge"),
        ],
    )
    def test_evaluation_error_is_one_line(self, capsys, tmp_path, case, message):
        path = write_json(tmp_path / "failing.json", failing_design(case))
        code, _, err = run(
            capsys, "simulate", "--system", path, "--x0", "0.3,0,0,0",
            "--t-end", "0.01", "--dt", "0.001", "--out", str(tmp_path),
        )
        assert code == 1
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(message)

    @pytest.mark.parametrize("extra", [[], ["--open-loop"]])
    def test_nan_mass_matrix_is_not_positive_definite(self, capsys, tmp_path, extra):
        path = write_json(tmp_path / "failing.json", failing_design("nan-m"))
        code, out, err = run(
            capsys, "simulate", "--system", path, "--x0", "0.3,0,0,0",
            "--t-end", "0.01", "--dt", "0.001", "--out", str(tmp_path), *extra,
        )
        assert code == 1 and out == ""
        assert err == (
            "error: mass matrix not positive definite at q=[0.3, 0.0] (eigenvalue nan)\n"
        )

    @pytest.mark.parametrize("coefficient", ["1e-10", "1e-9"])
    def test_small_kinetic_defect_closes_the_loop(self, capsys, tmp_path, coefficient):
        path = write_json(tmp_path / "design.json", kinetic_defect_design(coefficient))
        code, metrics, err = run_json(
            capsys, "simulate", "--system", path, "--t-end", "0.05", "--dt", "0.01",
            "--out", str(tmp_path),
        )
        assert code == 0 and err == "" and metrics["passed"]

    def test_wrong_state_length(self, capsys):
        code, _, err = run(
            capsys,
            "simulate",
            "--system",
            "builtin:pendulum_cart",
            "--x0",
            "0.1,0.2",
        )
        assert code == 1
        assert "4 entries" in err

    def test_closed_loop_needs_a_design(self, capsys):
        code, _, err = run(
            capsys, "simulate", "--system", "builtin:three_dof", "--t-end", "1"
        )
        assert code == 1
        assert "no shaped design" in err


class TestSelftest:
    def test_passes(self, capsys):
        code, out, _ = run(capsys, "selftest")
        assert code == 0
        lines = out.splitlines()
        assert all(l.startswith("PASS") for l in lines[:-1])
        assert lines[-1] == "5/5 suites passed"

    def test_seed_reproducible(self, capsys):
        _, first, _ = run(capsys, "selftest", "--seed", "42")
        _, second, _ = run(capsys, "selftest", "--seed", "42")
        assert first == second

    def test_dims_flag(self, capsys):
        code, out, _ = run(capsys, "selftest", "--dims-max", "3")
        assert code == 0
        assert "5/5 suites passed" in out

    @pytest.mark.parametrize(
        "flag,value", [("--dims-max", "1"), ("--dims-max", "0"), ("--seed", "-1")]
    )
    def test_out_of_range_flag_is_a_usage_error(self, capsys, flag, value):
        code, out, err = run(capsys, "selftest", flag, value)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {flag} must be >= ")


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1
        assert err.startswith("error:")

    def test_no_subcommand(self, capsys):
        code, _, err = run(capsys)
        assert code == 1

    def test_malformed_description_is_an_input_error(self, tmp_path):
        data = pendulum_dict()
        data["shaped"]["params"] = {"eps": "abc"}
        path = write_json(tmp_path / "bad.json", data)
        src = str(Path(__import__("idapbc").__file__).resolve().parents[1])
        out = subprocess.run(
            [executable, "-m", "idapbc.cli", "check", "--system", path],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
        )
        assert out.returncode == 1
        assert out.stderr == "error: shaped parameter eps must be a number, got 'abc'\n"
        assert "Traceback" not in out.stderr

    def test_missing_system_flag(self, capsys):
        code, _, err = run(capsys, "check")
        assert code == 1
        assert "--system" in err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
