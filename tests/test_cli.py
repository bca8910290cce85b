import json

import numpy as np
import pytest

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
        text = json.dumps(pendulum_dict(eps=0.55, K=0.25))
        path = tmp_path / "params.json"
        path.write_text(text.replace('"eps": 0.55', f'"eps": {value}'))
        code, _, err = run(capsys, "verify", "--system", str(path))
        assert code == 1
        assert err == f"error: shaped parameter eps must be finite, got {float(value)!r}\n"

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
        assert bundle["C_table"] is not None
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
        assert bundle["C_table"] is None
        vals = np.asarray(bundle["C_samples"]["values"])
        assert vals.shape == (25, 2, 2, 2)
        assert np.max(np.abs(vals)) <= 1e-12


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

    def test_missing_system_flag(self, capsys):
        code, _, err = run(capsys, "check")
        assert code == 1
        assert "--system" in err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
