import csv
import json
import math
from importlib import resources

import jsonschema
import pytest

from maxslope.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_OK,
    main,
)
from maxslope.config import ExperimentConfig
from maxslope.errors import ConfigError


def load_schema(name):
    with resources.files("maxslope.schemas").joinpath(name).open() as fh:
        return json.load(fh)


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def quad_run_config(out_dir, tau=0.1, T=1.0, **extra_payload):
    return {
        "space": {"dimension": 1},
        "energy": {"kind": "quadratic", "weights": [1.0], "center": [0.0]},
        "command": {"run": {
            "eps": 1.0, "tau": tau, "horizon_T": T,
            "initial_point": [1.0], "tau_star": 1.0 if tau < 0.125 else 8 * tau + 1,
            **extra_payload,
        }},
        "output_dir": str(out_dir),
    }


class TestConfigParsing:
    def test_missing_top_level_field(self):
        with pytest.raises(ConfigError, match="'space'"):
            ExperimentConfig.from_dict({"energy": {}, "command": {}})

    def test_two_commands_rejected(self):
        with pytest.raises(ConfigError, match="exactly one"):
            ExperimentConfig.from_dict({
                "space": {"dimension": 1},
                "energy": {"kind": "quadratic", "weights": [1], "center": [0]},
                "command": {"run": {}, "sweep": {}},
            })

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            ExperimentConfig.from_file("/nonexistent/config.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            ExperimentConfig.from_file(path)


class TestRunCommand:
    def test_artifacts_and_exit_code(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, quad_run_config(out))
        assert main(["run", "--config", cfg, "--quiet"]) == EXIT_OK
        assert (out / "trajectory.csv").exists()
        assert (out / "interpolant.csv").exists()
        report = json.loads((out / "dissipation.json").read_text())
        jsonschema.validate(report, load_schema("dissipation.json"))
        assert report["n_steps"] == 10
        assert abs(report["full_range"]["residual"]) < 1e-8

    def test_trajectory_values(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, quad_run_config(out))
        main(["run", "--config", cfg, "--quiet"])
        with open(out / "trajectory.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert math.isclose(float(rows[1]["x0"]), 1.0 / 1.1, rel_tol=1e-12)
        assert math.isclose(float(rows[-1]["x0"]), 1.1 ** -10, rel_tol=1e-12)

    def test_missing_tau_is_config_error(self, tmp_path, capsys):
        doc = quad_run_config(tmp_path / "out")
        del doc["command"]["run"]["tau"]
        cfg = write_config(tmp_path, doc)
        assert main(["run", "--config", cfg]) == EXIT_CONFIG
        assert "'tau'" in capsys.readouterr().err

    def test_tau_outside_regime_is_config_error(self, tmp_path):
        doc = quad_run_config(tmp_path / "out")
        doc["command"]["run"]["tau"] = 0.5  # >= tau_star / 8
        cfg = write_config(tmp_path, doc)
        assert main(["run", "--config", cfg]) == EXIT_CONFIG

    def test_wrong_dimension_initial_point_is_config_error(self, tmp_path, capsys):
        doc = quad_run_config(tmp_path / "out")
        doc["command"]["run"]["initial_point"] = [1.0, 0.0]
        cfg = write_config(tmp_path, doc)
        assert main(["run", "--config", cfg]) == EXIT_CONFIG
        assert "'initial_point'" in capsys.readouterr().err

    @pytest.mark.parametrize("expression", [
        "__import__('os').getpid()*0 + x^2", "x.real", "log(x)", "pi*x",
    ])
    def test_expression_outside_grammar_is_config_error(self, tmp_path, capsys,
                                                         expression):
        doc = quad_run_config(tmp_path / "out")
        doc["energy"] = {"kind": "custom_smooth", "expression": expression}
        cfg = write_config(tmp_path, doc)
        assert main(["run", "--config", cfg]) == EXIT_CONFIG
        assert "only numbers, x, eps" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_wrong_subcommand_for_config(self, tmp_path):
        cfg = write_config(tmp_path, quad_run_config(tmp_path / "out"))
        assert main(["sweep", "--config", cfg]) == EXIT_CONFIG

    def test_out_override(self, tmp_path):
        cfg = write_config(tmp_path, quad_run_config(tmp_path / "ignored"))
        other = tmp_path / "elsewhere"
        assert main(["run", "--config", cfg, "--out", str(other),
                     "--quiet"]) == EXIT_OK
        assert (other / "trajectory.csv").exists()
        assert not (tmp_path / "ignored").exists()

    def test_determinism_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cfg = write_config(tmp_path, quad_run_config(out_a))
        main(["run", "--config", cfg, "--quiet"])
        main(["run", "--config", cfg, "--out", str(out_b), "--quiet"])
        for name in ("trajectory.csv", "interpolant.csv", "dissipation.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestSweepCommand:
    def sweep_config(self, out_dir):
        return {
            "space": {"dimension": 1},
            "energy": {"kind": "quadratic", "weights": [1.0], "center": [0.0]},
            "command": {"sweep": {
                "coupling": {"form": "eps_of_tau", "lam": 1.0, "alpha": 1.0},
                "levels": [0.04, 0.02, 0.01, 0.005],
                "params": {"horizon_T": 1.0, "initial_point": [1.0]},
            }},
            "output_dir": str(out_dir),
        }

    def test_artifacts(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, self.sweep_config(out))
        assert main(["sweep", "--config", cfg, "--quiet"]) == EXIT_OK
        for k in range(4):
            assert (out / f"trajectory_level_{k:02d}.csv").exists()
        report = json.loads((out / "sweep_report.json").read_text())
        jsonschema.validate(report, load_schema("sweep_report.json"))
        assert report["cauchy_flag"] is True
        assert report["limit_candidate_level"] == 3

    def test_empty_levels_rejected(self, tmp_path):
        doc = self.sweep_config(tmp_path / "out")
        doc["command"]["sweep"]["levels"] = []
        cfg = write_config(tmp_path, doc)
        assert main(["sweep", "--config", cfg]) == EXIT_CONFIG


class TestCheckCommand:
    def check_config(self, out_dir, ctype, payload):
        return {
            "space": {"dimension": 1},
            "energy": {"kind": "quadratic", "weights": [1.0], "center": [0.0]},
            "command": {"check": {"type": ctype, **payload}},
            "output_dir": str(out_dir),
        }

    def run_payload(self):
        return {"run": {"eps": 1.0, "tau": 0.1, "horizon_T": 1.0,
                        "initial_point": [1.0], "tau_star": 1.0}}

    def read_report(self, out, ctype):
        report = json.loads((out / f"check_{ctype}.json").read_text())
        jsonschema.validate(report, load_schema("check_report.json"))
        return report

    def test_dissipation_passes(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, self.check_config(
            out, "dissipation", self.run_payload()))
        assert main(["check", "--config", cfg, "--quiet"]) == EXIT_OK
        report = self.read_report(out, "dissipation")
        assert report["passed"] is True
        assert report["report"]["max_abs_residual"] < 1e-8

    def test_apriori_passes(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, self.check_config(
            out, "apriori", self.run_payload()))
        assert main(["check", "--config", cfg, "--quiet"]) == EXIT_OK
        report = self.read_report(out, "apriori")
        assert report["report"]["velocity_margin"] >= 0.0

    def test_slope_cone_passes_for_convex(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, self.check_config(
            out, "slope_cone", {"eps": 1.0, "x": [1.5]}))
        assert main(["check", "--config", cfg, "--quiet"]) == EXIT_OK

    def test_slope_cone_fails_at_oscillation_trap(self, tmp_path):
        out = tmp_path / "out"
        doc = self.check_config(out, "slope_cone",
                                {"eps": 0.1, "x": [0.84232], "cone_tol": 1e-3})
        doc["energy"] = {"kind": "wiggly",
                         "base": {"kind": "quadratic", "weights": [1.0],
                                  "center": [0.0]}}
        cfg = write_config(tmp_path, doc)
        assert main(["check", "--config", cfg, "--quiet"]) == EXIT_CHECK_FAILED
        report = self.read_report(out, "slope_cone")
        assert report["passed"] is False
        assert report["report"]["min_residual"] < -1e-3

    def test_condition_h(self, tmp_path):
        out = tmp_path / "out"
        doc = self.check_config(out, "condition_h", {
            "sequence": [[0.1, [1.0]], [0.01, [1.0]], [1e-4, [1.0]]],
            "limit_v": [1.0],
        })
        doc["energy"] = {"kind": "convex_perturbed",
                         "base": {"kind": "quadratic", "weights": [1.0],
                                  "center": [0.0]}}
        cfg = write_config(tmp_path, doc)
        assert main(["check", "--config", cfg, "--quiet"]) == EXIT_OK

    def test_maximal_slope(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, self.check_config(out, "maximal_slope", {
            "coupling": {"form": "eps_of_tau", "lam": 1.0, "alpha": 1.0},
            "levels": [0.02, 0.01, 0.005],
            "params": {"horizon_T": 1.0, "initial_point": [1.0]},
        }))
        assert main(["check", "--config", cfg, "--quiet"]) == EXIT_OK
        report = self.read_report(out, "maximal_slope")
        assert report["report"]["sweep"]["cauchy_flag"] is True

    def test_wrong_dimension_initial_point_is_config_error(self, tmp_path, capsys):
        payload = self.run_payload()
        payload["run"]["initial_point"] = [1.0, 0.0]
        cfg = write_config(tmp_path, self.check_config(
            tmp_path / "out", "dissipation", payload))
        assert main(["check", "--config", cfg]) == EXIT_CONFIG
        assert "'initial_point'" in capsys.readouterr().err

    def test_unknown_check_type(self, tmp_path):
        cfg = write_config(tmp_path, self.check_config(
            tmp_path / "out", "entropy", {}))
        assert main(["check", "--config", cfg]) == EXIT_CONFIG

    def test_slope_cone_missing_x(self, tmp_path):
        cfg = write_config(tmp_path, self.check_config(
            tmp_path / "out", "slope_cone", {"eps": 1.0}))
        assert main(["check", "--config", cfg]) == EXIT_CONFIG
