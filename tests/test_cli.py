import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maxslope
from maxslope.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SOLVER,
    main,
)
from maxslope.config import ExperimentConfig, parse_scheme_params
from maxslope.diagnostics import dissipation_identity
from maxslope.errors import ConfigError
from maxslope.scheme import build_interpolant, run_scheme

from conftest import grammar_expressions


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


def check_config(out_dir, ctype, payload):
    return {
        "space": {"dimension": 1},
        "energy": {"kind": "quadratic", "weights": [1.0], "center": [0.0]},
        "command": {"check": {"type": ctype, **payload}},
        "output_dir": str(out_dir),
    }


def condition_h_config(out_dir):
    doc = check_config(out_dir, "condition_h", {
        "sequence": [[0.1, [1.0]], [0.01, [1.0]], [1e-4, [1.0]]],
        "limit_v": [1.0],
    })
    doc["energy"] = {"kind": "convex_perturbed",
                     "base": {"kind": "quadratic", "weights": [1.0], "center": [0.0]}}
    return doc


def dissipation_config(out_dir):
    return check_config(out_dir, "dissipation", quad_run_config(out_dir)["command"])


def slope_cone_config(out_dir):
    return check_config(out_dir, "slope_cone", {"eps": 1.0, "x": [1.5]})


def maximal_slope_config(out_dir):
    return check_config(out_dir, "maximal_slope", {
        "coupling": {"form": "eps_of_tau", "lam": 1.0, "alpha": 1.0},
        "levels": [0.02, 0.01, 0.005],
        "params": {"horizon_T": 1.0, "initial_point": [1.0]},
    })


def run_cli(tmp_path, doc, *extra):
    """``python -m maxslope.cli`` on ``doc`` in a fresh process."""
    cfg = write_config(tmp_path, doc)
    src = str(Path(maxslope.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run(
        [sys.executable, "-m", "maxslope.cli", next(iter(doc["command"])),
         "--config", cfg, *extra], capture_output=True, text=True, env=env,
        timeout=60)


def set_field(doc, path, value):
    *blocks, name = path
    for key in blocks:
        doc = doc[key]
    doc[name] = value


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

    @pytest.mark.parametrize("build, path, value, named", [
        (quad_run_config, ("command", "run", "initial_point"), 5, "initial_point"),
        (quad_run_config, ("command", "run", "eps"), None, "eps"),
        (slope_cone_config, ("command", "check", "x"), 1.5, "x"),
        (quad_run_config, ("energy", "weights"), 1.0, "energy"),
        (slope_cone_config, ("command", "check", "probes"), "many", "probes"),
        (quad_run_config, ("command", "run", "prox_settings"), [1], "prox_settings"),
        (maximal_slope_config, ("command", "check", "waive_condition_h"), "false",
         "waive_condition_h"),
        (quad_run_config, ("output_dir",), 5, "output_dir"),
        # float() takes a bool as 0.0 or 1.0, but a JSON true is no number
        (quad_run_config, ("command", "run", "eps"), True, "eps"),
        (quad_run_config, ("command", "run", "initial_point"), [True], "initial_point"),
        (quad_run_config, ("energy", "weights"), [True], "weights"),
        (quad_run_config, ("energy", "center"), [False], "center"),
        (quad_run_config, ("space",), {"dimension": 1, "metric_kind": "diagonal_weighted",
                                       "weights": [True]}, "weights"),
        (quad_run_config, ("command", "run", "prox_settings"), {"local_tol": True},
         "local_tol"),
        (quad_run_config, ("energy",), {"kind": "wiggly", "amplitude_scale": True,
                                        "base": {"kind": "quadratic", "weights": [1.0],
                                                 "center": [0.0]}}, "amplitude_scale"),
        (maximal_slope_config, ("command", "check", "coupling", "lam"), True, "lam"),
        (maximal_slope_config, ("command", "check", "coupling", "alpha"), True, "alpha"),
    ], ids=["initial_point", "eps", "x", "weights", "probes", "prox_settings",
            "waive_condition_h", "output_dir", "eps_bool", "initial_point_bool",
            "weights_bool", "center_bool", "metric_weights_bool", "local_tol_bool",
            "amplitude_scale_bool", "lam_bool", "alpha_bool"])
    def test_wrong_json_type_is_config_error(self, tmp_path, build, path, value, named):
        # a real process, so that an escaping exception shows as a traceback
        doc = build(tmp_path / "out")
        set_field(doc, path, value)
        proc = run_cli(tmp_path, doc)
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr.startswith("config error:")
        assert named in proc.stderr.splitlines()[0]
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("factor", [0.0, -1.0, math.inf])
    def test_search_radius_factor_must_be_positive(self, tmp_path, factor):
        # at 0 the numeric prox would search an empty window and freeze the
        # trajectory; at -1 a reversed one
        doc = quad_run_config(tmp_path / "out", prox_settings={
            "mode": "multistart_numeric", "search_radius_factor": factor})
        proc = run_cli(tmp_path, doc)
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr.startswith("config error:")
        assert "search_radius_factor must be finite and positive" in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_non_string_output_dir_with_out_override(self, tmp_path):
        doc = quad_run_config(tmp_path / "out")
        doc["output_dir"] = 5
        proc = run_cli(tmp_path, doc, "--out", str(tmp_path / "elsewhere"))
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr.startswith("config error: field 'output_dir'")
        assert not (tmp_path / "elsewhere").exists()

    @pytest.mark.parametrize("build, path, value", [
        (quad_run_config, ("space", "dimension"), 1.9),
        (quad_run_config, ("space", "dimension"), True),
        (quad_run_config, ("seed",), 3.9),
        (quad_run_config, ("command", "run", "quadrature_nodes_per_step"), 2.7),
        (quad_run_config, ("command", "run", "quadrature_nodes_per_step"), True),
        (quad_run_config, ("command", "run", "prox_settings"), {"starts": 2.5}),
        (quad_run_config, ("command", "run", "prox_settings"), {"max_iters": 1e6 + 0.5}),
        (slope_cone_config, ("command", "check", "probes"), {"count": 10.5}),
        (slope_cone_config, ("command", "check", "probes"), {"count": False}),
    ], ids=["dimension", "dimension_bool", "seed", "quadrature_nodes_per_step",
            "quadrature_nodes_bool", "starts", "max_iters", "count", "count_bool"])
    def test_non_integer_is_config_error(self, tmp_path, build, path, value):
        doc = build(tmp_path / "out")
        set_field(doc, path, value)
        proc = run_cli(tmp_path, doc)
        assert proc.returncode == EXIT_CONFIG
        name = next(iter(value)) if isinstance(value, dict) else path[-1]
        assert proc.stderr.startswith(
            f"config error: field {name!r} must be an integer, got")
        assert "Traceback" not in proc.stderr

    def test_integral_float_is_an_integer(self, tmp_path):
        doc = quad_run_config(tmp_path / "out")
        doc["seed"] = 3.0
        doc["space"]["dimension"] = 1.0
        doc["command"]["run"]["prox_settings"] = {"max_iters": 1e6, "starts": 2.0}
        parsed = ExperimentConfig.from_dict(doc)
        params = parse_scheme_params(parsed.payload, parsed.space)
        assert (parsed.seed, parsed.space.dimension) == (3, 1)
        assert (params.prox_settings.max_iters, params.prox_settings.starts) == \
            (1_000_000, 2)


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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("expression", [
        "10^400*x^2", "x^2/0", "0^-1 + x^2",
        "(-8)^(1/3) + x^2",     # a float power has no real cube root of -8
        "2^2^2^2^2^2*x",        # 2^65536 overflows; exact integers would exhaust memory
    ])
    def test_nonfinite_constant_is_an_error(self, tmp_path, capsys, expression):
        doc = quad_run_config(tmp_path / "out")
        doc["energy"] = {"kind": "custom_smooth", "expression": expression}
        assert main(["run", "--config", write_config(tmp_path, doc)]) in (
            EXIT_CONFIG, EXIT_SOLVER)
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith(("config error:", "solver error:"))
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=100, deadline=None)
    @given(expression=grammar_expressions(
        st.sampled_from([0, 1e300, -1e300, 1e-300, -1e-300])
        | st.floats(allow_nan=False, allow_infinity=False) | st.integers(-1000, 1000)))
    def test_fuzzed_expression_exits_cleanly(self, expression):
        # in-process, so that any escaping exception fails the test
        with tempfile.TemporaryDirectory() as tmp:
            doc = quad_run_config(Path(tmp) / "out", tau=0.05, T=0.1,
                                  initial_energy_bound_S=1e300)
            doc["energy"] = {"kind": "custom_smooth", "expression": expression}
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["run", "--config", write_config(Path(tmp), doc), "--quiet"])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_SOLVER, EXIT_CHECK_FAILED)
        if code != EXIT_OK:
            assert err.getvalue().splitlines()[-1].startswith(
                ("config error:", "solver error:"))

    def test_unbounded_energy_reports_one_solver_line(self, tmp_path):
        # -x^4 runs off to -3.7e76 by step 6, where the 1D search window
        # overflows; the message is the only line, without a warning
        doc = quad_run_config(tmp_path / "out", tau=0.05)
        doc["energy"] = {"kind": "custom_smooth", "expression": "-x^4"}
        proc = run_cli(tmp_path, doc)
        assert proc.returncode == EXIT_SOLVER
        assert proc.stderr.startswith("solver error: prox failed at step ")
        assert proc.stderr.count("\n") == 1
        assert "array(" not in proc.stderr
        assert "RuntimeWarning" not in proc.stderr

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
    def run_payload(self):
        return {"run": {"eps": 1.0, "tau": 0.1, "horizon_T": 1.0,
                        "initial_point": [1.0], "tau_star": 1.0}}

    def read_report(self, out, ctype):
        report = json.loads((out / f"check_{ctype}.json").read_text())
        jsonschema.validate(report, load_schema("check_report.json"))
        return report

    def test_dissipation_passes(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, check_config(
            out, "dissipation", self.run_payload()))
        assert main(["check", "--config", cfg, "--quiet"]) == EXIT_OK
        report = self.read_report(out, "dissipation")
        assert report["passed"] is True
        assert report["report"]["max_abs_residual"] < 1e-8

    def test_apriori_passes(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, check_config(
            out, "apriori", self.run_payload()))
        assert main(["check", "--config", cfg, "--quiet"]) == EXIT_OK
        report = self.read_report(out, "apriori")
        assert report["report"]["velocity_margin"] >= 0.0

    def test_slope_cone_passes_for_convex(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, check_config(
            out, "slope_cone", {"eps": 1.0, "x": [1.5]}))
        assert main(["check", "--config", cfg, "--quiet"]) == EXIT_OK

    def test_slope_cone_fails_at_oscillation_trap(self, tmp_path):
        out = tmp_path / "out"
        doc = check_config(out, "slope_cone",
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
        cfg = write_config(tmp_path, condition_h_config(tmp_path / "out"))
        assert main(["check", "--config", cfg, "--quiet"]) == EXIT_OK

    def test_maximal_slope(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, maximal_slope_config(out))
        assert main(["check", "--config", cfg, "--quiet"]) == EXIT_OK
        report = self.read_report(out, "maximal_slope")
        assert report["report"]["sweep"]["cauchy_flag"] is True

    @pytest.mark.parametrize("build, path, value", [
        (dissipation_config, ("command", "check", "run", "initial_point"), [1.0, 0.0]),
        (slope_cone_config, ("command", "check", "x"), [1.5, 0.0]),
        (condition_h_config, ("command", "check", "limit_v"), [1.0, 0.0]),
        (condition_h_config, ("command", "check", "sequence"),
         [[0.1, [1.0]], [0.01, [1.0, 0.0]]]),
        (dissipation_config, ("space", "base_point"), [0.0, 0.0]),
    ], ids=["initial_point", "x", "limit_v", "sequence", "base_point"])
    def test_wrong_dimension_point_is_config_error(self, tmp_path, capsys,
                                                   build, path, value):
        doc = build(tmp_path / "out")
        set_field(doc, path, value)
        cfg = write_config(tmp_path, doc)
        assert main(["check", "--config", cfg]) == EXIT_CONFIG
        assert f"'{path[-1]}' has dimension 2" in capsys.readouterr().err

    def test_dissipation_covers_all_pairs_beyond_200_steps(self, tmp_path):
        out = tmp_path / "out"
        payload = {"run": {"eps": 1.0, "tau": 0.005, "horizon_T": 1.01,
                           "initial_point": [1.0], "tau_star": 1.0}}
        cfg = write_config(tmp_path, check_config(out, "dissipation", payload))
        assert main(["check", "--config", cfg, "--quiet"]) == EXIT_OK
        n = math.ceil(1.01 / 0.005)
        assert n > 200
        assert self.read_report(out, "dissipation")["report"]["n_pairs"] == \
            n * (n + 1) // 2

    def test_dissipation_from_the_minimizer(self, tmp_path):
        # every residual is 0.0, so the cumulative residual is constant
        out = tmp_path / "out"
        payload = self.run_payload()
        payload["run"]["initial_point"] = [0.0]
        cfg = write_config(tmp_path, check_config(out, "dissipation", payload))
        assert main(["check", "--config", cfg, "--quiet"]) == EXIT_OK
        report = self.read_report(out, "dissipation")["report"]
        assert (report["worst_pair"]["i"], report["worst_pair"]["j"]) == (0, 1)
        assert report["max_abs_residual"] == 0.0

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_dissipation_worst_pair_matches_all_pairs(self, data):
        dim = data.draw(st.integers(1, 2), label="dim")
        coords = st.lists(st.floats(-2.0, 2.0), min_size=dim, max_size=dim)
        weights = st.lists(st.floats(0.5, 3.0), min_size=dim, max_size=dim)
        quad = {"kind": "quadratic", "weights": data.draw(weights),
                "center": data.draw(coords)}
        energy = data.draw(st.sampled_from(
            [quad, {"kind": "convex_perturbed", "base": quad}]))
        space = {"dimension": dim}
        if dim == 2:
            space.update(metric_kind="diagonal_weighted", weights=data.draw(weights))
        tau = data.draw(st.floats(0.01, 0.1))
        run = {"eps": data.draw(st.floats(0.05, 1.0)), "tau": tau,
               "horizon_T": tau * data.draw(st.integers(1, 25)),
               "initial_point": data.draw(coords),
               "initial_energy_bound_S": 100.0,
               "initial_distance_bound_Sprime": 100.0}
        doc = {"space": space, "energy": energy,
               "command": {"check": {"type": "dissipation", "run": run}}}
        with tempfile.TemporaryDirectory() as tmp:
            cfg = write_config(Path(tmp), doc)
            # a kink crossed inside a step leaves a quadrature residual that
            # can fail the check; the reported worst pair must be right anyway
            code = main(["check", "--config", cfg, "--out", tmp, "--quiet"])
            report = json.loads((Path(tmp) / "check_dissipation.json").read_text())
        parsed = ExperimentConfig.from_dict(doc)
        params = parse_scheme_params(run, parsed.space, "check.run")
        traj = run_scheme(parsed.energy, params)
        interp = build_interpolant(parsed.energy, traj, params.prox_settings)
        n = traj.n_steps
        brute = max(abs(dissipation_identity(parsed.energy, traj, interp, i, j).residual)
                    for i in range(n) for j in range(i + 1, n + 1))
        bound = 4 * n * sys.float_info.epsilon * max(1.0, abs(traj.step_energies[0]))
        assert code == (EXIT_OK if report["passed"] else EXIT_CHECK_FAILED)
        assert report["report"]["n_pairs"] == n * (n + 1) // 2
        assert abs(report["report"]["max_abs_residual"] - brute) <= bound

    def test_unknown_check_type(self, tmp_path):
        cfg = write_config(tmp_path, check_config(
            tmp_path / "out", "entropy", {}))
        assert main(["check", "--config", cfg]) == EXIT_CONFIG

    def test_slope_cone_missing_x(self, tmp_path):
        cfg = write_config(tmp_path, check_config(
            tmp_path / "out", "slope_cone", {"eps": 1.0}))
        assert main(["check", "--config", cfg]) == EXIT_CONFIG
