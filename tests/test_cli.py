import contextlib
import csv
import functools
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
from maxslope import cli
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


def weighted_plane_config(out_dir):
    doc = quad_run_config(out_dir)
    doc["space"] = {"dimension": 2, "metric_kind": "diagonal_weighted",
                    "weights": [4.0, 1.0]}
    doc["energy"] = {"kind": "quadratic", "weights": [1.0, 2.0], "center": [0.0, 0.0]}
    doc["command"]["run"]["initial_point"] = [1.0, -0.5]
    return doc


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


def run_cli(tmp_path, doc, *extra, timeout=60):
    """``python -m maxslope.cli`` on ``doc`` in a fresh process.  A ``doc``
    given as JSON text, for a literal that json.dumps cannot write, runs as
    ``run``."""
    if isinstance(doc, str):
        cfg, command = tmp_path / "config.json", "run"
        cfg.write_text(doc)
    else:
        cfg, command = write_config(tmp_path, doc), next(iter(doc["command"]))
    return cli_process(command, "--config", str(cfg), *extra, timeout=timeout)


def cli_process(*argv, timeout=60):
    """``python -m maxslope.cli`` with ``argv``, in a fresh process."""
    src = str(Path(maxslope.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-m", "maxslope.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=timeout)


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
        # a string is no number, however it reads, and an integer literal
        # beyond float64 is a number that no float holds
        (slope_cone_config, ("command", "check", "eps"), "1.0", "eps"),
        (quad_run_config, ("command", "run", "horizon_T"), 10**400, "horizon_T"),
        (maximal_slope_config, ("command", "check", "levels"), ["0.1"], "levels"),
        (quad_run_config, ("command", "run", "initial_point"), ["1.0"], "initial_point"),
        (weighted_plane_config, ("energy", "weights"), "41", "weights"),
        (quad_run_config, ("energy", "weights"), {"1": 0}, "weights"),
        (quad_run_config, ("energy", "weights"), [10**400], "weights"),
        (weighted_plane_config, ("space", "weights"), "41", "weights"),
        (quad_run_config, ("energy", "center"), "0", "center"),
        (maximal_slope_config, ("command", "check", "coupling", "lam"), "1", "lam"),
        (quad_run_config, ("energy",), {"kind": "wiggly", "amplitude_scale": "2",
                                        "base": {"kind": "quadratic", "weights": [1.0],
                                                 "center": [0.0]}}, "amplitude_scale"),
        (quad_run_config, ("command", "run", "prox_settings"), {"local_tol": "1e-9"},
         "local_tol"),
        (quad_run_config, ("energy",), {"kind": "custom_smooth", "expression": 5},
         "expression"),
    ], ids=["initial_point", "eps", "x", "weights", "probes", "prox_settings",
            "waive_condition_h", "output_dir", "eps_bool", "initial_point_bool",
            "weights_bool", "center_bool", "metric_weights_bool", "local_tol_bool",
            "amplitude_scale_bool", "lam_bool", "alpha_bool", "eps_str",
            "horizon_T_huge_int", "levels_str", "initial_point_str", "weights_str",
            "weights_object", "weights_huge_int", "metric_weights_str", "center_str",
            "lam_str", "amplitude_scale_str", "local_tol_str", "expression_int"])
    def test_wrong_json_type_is_config_error(self, tmp_path, build, path, value, named):
        # a real process, so that an escaping exception shows as a traceback
        doc = build(tmp_path / "out")
        set_field(doc, path, value)
        proc = run_cli(tmp_path, doc)
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr.startswith("config error:")
        assert named in proc.stderr.splitlines()[0]
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("factor", [0.0, -1.0, math.inf, 2.0])
    def test_search_radius_factor_must_be_positive(self, tmp_path, factor):
        # The field is gone: the numeric prox sizes its window from the
        # energy floor.  Any value, the old default 2 included, is a config
        # error that names it, so a config written for it does not run
        # silently with another window.
        doc = quad_run_config(tmp_path / "out", prox_settings={
            "mode": "multistart_numeric", "search_radius_factor": factor})
        proc = run_cli(tmp_path, doc)
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr.startswith("config error:")
        assert "unknown field 'search_radius_factor'" in proc.stderr.splitlines()[0]
        assert not (tmp_path / "out").exists()

    def test_starts_is_an_unknown_field(self, tmp_path):
        # The grid route's first-round shortlist is a constant of the prox.
        doc = quad_run_config(tmp_path / "out", prox_settings={
            "mode": "multistart_numeric", "starts": 3})
        proc = run_cli(tmp_path, doc)
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr.startswith("config error:")
        assert "unknown field 'starts'" in proc.stderr.splitlines()[0]
        assert not (tmp_path / "out").exists()

    WIGGLY = {"kind": "wiggly", "base": {"kind": "quadratic", "weights": [1.0],
                                         "center": [0.0]}}

    @pytest.mark.parametrize("build, path, value, named", [
        (quad_run_config, ("command", "run", "horizon_T"), math.inf, "horizon_T"),
        (quad_run_config, ("command", "run", "prox_settings"), {"local_tol": math.nan},
         "local_tol"),
        (quad_run_config, ("command", "run", "initial_energy_bound_S"), math.nan,
         "initial_energy_bound_S"),
        (quad_run_config, ("command", "run", "eps"), math.nan, "eps"),
        (quad_run_config, ("energy", "weights"), [math.nan], "weights"),
        (quad_run_config, ("energy",), {**WIGGLY, "amplitude_scale": math.nan},
         "amplitude_scale"),
    ], ids=["horizon_T_inf", "local_tol_nan", "initial_energy_bound_S_nan", "eps_nan",
            "weights_nan", "amplitude_scale_nan"])
    def test_nonfinite_number_is_config_error(self, tmp_path, build, path, value, named):
        # json reads NaN and Infinity; a number field must be finite
        doc = build(tmp_path / "out")
        set_field(doc, path, value)
        proc = run_cli(tmp_path, doc)
        assert proc.returncode == EXIT_CONFIG
        first = proc.stderr.splitlines()[0]
        assert first.startswith("config error:")
        assert named in first and "finite" in first
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

    SWEEP = {"coupling": {"form": "eps_of_tau"}, "levels": [0.04, 0.02],
             "params": {"horizon_T": 0.2, "initial_point": [1.0]}}

    @pytest.mark.parametrize("build, path, value, named", [
        (quad_run_config, ("energy",), {**WIGGLY, "amplitude": 0.001}, "amplitude"),
        (quad_run_config, ("space", "metric"), "euclidean", "metric"),
        (quad_run_config, ("energy", "centre"), [1.0], "centre"),
        (quad_run_config, ("command", "run", "quadrature_nodes"), 2, "quadrature_nodes"),
        (quad_run_config, ("command", "run", "horizon"), 2.0, "horizon"),
        (quad_run_config, ("command",), {"sweep": {
            **SWEEP, "coupling": {"form": "eps_of_tau", "lambda": 2.0}}}, "lambda"),
        (quad_run_config, ("command",), {"sweep": {**SWEEP, "sweep_tolerance": 1.0}},
         "sweep_tolerance"),
        (quad_run_config, ("sede",), 1, "sede"),
        (dissipation_config, ("command", "check", "residual_tolerance"), 1e-6,
         "residual_tolerance"),
        (slope_cone_config, ("command", "check", "radius"), 0.5, "radius"),
    ], ids=["amplitude", "space_metric", "centre", "quadrature_nodes", "horizon",
            "lambda", "sweep_tolerance", "sede", "residual_tolerance", "radius"])
    def test_unknown_field_is_config_error(self, tmp_path, capsys, build, path, value,
                                           named):
        # a misspelled field must not run silently with the default
        doc = build(tmp_path / "out")
        set_field(doc, path, value)
        subcommand = next(iter(doc["command"]))
        assert main([subcommand, "--config", write_config(tmp_path, doc)]) == EXIT_CONFIG
        first = capsys.readouterr().err.splitlines()[0]
        assert first.startswith(f"config error: unknown field {named!r}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("build, path, value, named", [
        (quad_run_config, ("space", "dimension"), 1e9, "dimension"),
        (quad_run_config, ("space",), {"dimension": 10**9, "weights": [1.0],
                                       "metric_kind": "diagonal_weighted"}, "dimension"),
        (quad_run_config, ("space", "dimension"), 2, "dimension"),
        (slope_cone_config, ("command", "check", "probes"), {"count": 0}, "count"),
        (slope_cone_config, ("command", "check", "probes"), {"count": -1}, "count"),
        (slope_cone_config, ("command", "check", "probes"), {"count": 10**9}, "count"),
        (slope_cone_config, ("seed",), -1, "seed"),
        (quad_run_config, ("seed",), -1, "seed"),
        # a tolerance or an eps must be positive: a negative tolerance would
        # fail a check that ran, not the config
        (dissipation_config, ("command", "check", "residual_tol"), -1, "residual_tol"),
        (quad_run_config, ("command",), {"check": {
            "type": "apriori", "run": quad_run_config("out")["command"]["run"],
            "quad_tol": -1}}, "quad_tol"),
        (slope_cone_config, ("command", "check", "cone_tol"), -1, "cone_tol"),
        (slope_cone_config, ("command", "check", "eps"), -1, "eps"),
        (condition_h_config, ("command", "check", "h_tol"), -1, "h_tol"),
        (condition_h_config, ("command", "check", "seq_tol"), -1, "seq_tol"),
        (condition_h_config, ("command", "check", "sequence"),
         [[0.1, [1.0]], [-0.01, [1.0]]], "sequence"),
        (maximal_slope_config, ("command", "check", "check_tol"), -1, "check_tol"),
        (maximal_slope_config, ("command", "check", "monotone_tol"), -1, "monotone_tol"),
        (quad_run_config, ("command",), {"sweep": {**SWEEP, "sweep_tol": -1}},
         "sweep_tol"),
        # one step at the finest level (tau = 0.005) gives two curve samples,
        # and the metric derivative needs three
        (maximal_slope_config, ("command", "check", "params", "horizon_T"), 0.005,
         "horizon_T"),
    ], ids=["dimension_huge", "dimension_huge_weighted", "dimension_energy",
            "count_zero", "count_negative", "count_huge", "seed_slope_cone",
            "seed_run", "residual_tol", "quad_tol", "cone_tol", "slope_cone_eps",
            "h_tol", "seq_tol", "sequence_eps", "check_tol", "monotone_tol",
            "sweep_tol", "maximal_slope_one_step"])
    def test_out_of_range_is_config_error(self, tmp_path, build, path, value, named):
        # refused before anything of that size is built: a space of 10^9
        # coordinates or 10^9 probes would take gigabytes
        doc = build(tmp_path / "out")
        set_field(doc, path, value)
        proc = run_cli(tmp_path, doc, timeout=20)
        assert proc.returncode == EXIT_CONFIG
        first = proc.stderr.splitlines()[0]
        assert first.startswith(f"config error: field {named!r}")
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("levels, alpha", [([0.1], -1e300), ([0.1, 0.01], -300)],
                             ids=["first", "second"])
    def test_coupling_overflow_is_config_error(self, tmp_path, levels, alpha):
        # a level^alpha beyond float64, at the first level or a later one
        doc = maximal_slope_config(tmp_path / "out")
        doc["command"]["check"].update(levels=levels, coupling={
            "form": "eps_of_tau", "alpha": alpha})
        proc = run_cli(tmp_path, doc)
        assert proc.returncode == EXIT_CONFIG
        first = proc.stderr.splitlines()[0]
        assert first.startswith("config error:") and "alpha" in first
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_coupling_to_infinite_eps_is_config_error(self, tmp_path, capsys):
        # 1e300 * 0.01^-10 overflows to an eps of inf, which a report
        # would write as the non-JSON literal Infinity
        doc = maximal_slope_config(tmp_path / "out")
        doc["command"]["check"].update(levels=[0.01], coupling={
            "form": "eps_of_tau", "lam": 1e300, "alpha": -10})
        assert main(["check", "--config", write_config(tmp_path, doc)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: check.params config invalid: eps must be finite, got inf\n")
        assert not (tmp_path / "out").exists()

    def test_step_count_must_be_finite(self, tmp_path):
        # 0.5 / 1e-320 overflows to inf, which no number of steps reaches
        doc = quad_run_config(tmp_path / "out", tau=1e-320, T=0.5)
        proc = run_cli(tmp_path, doc)
        assert proc.returncode == EXIT_CONFIG
        first = proc.stderr.splitlines()[0]
        assert first.startswith("config error:")
        assert "horizon_T / tau" in first and "finite" in first
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_run_size_is_capped(self, tmp_path):
        # 0.5 / 1e-300 steps is a finite count that no run finishes
        doc = quad_run_config(tmp_path / "out", tau=1e-300, T=0.5)
        proc = run_cli(tmp_path, doc)
        assert proc.returncode == EXIT_CONFIG
        first = proc.stderr.splitlines()[0]
        assert first.startswith("config error:")
        for name in ("horizon_T", "tau", "quadrature_nodes_per_step"):
            assert name in first
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_max_iters_must_be_positive(self, tmp_path):
        doc = quad_run_config(tmp_path / "out", prox_settings={
            "mode": "multistart_numeric", "max_iters": 0})
        proc = run_cli(tmp_path, doc)
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr.startswith("config error:")
        assert "max_iters must be >= 1" in proc.stderr.splitlines()[0]

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
        (quad_run_config, ("command", "run", "prox_settings"), {"max_iters": 2.5}),
        (quad_run_config, ("command", "run", "prox_settings"), {"max_iters": 1e6 + 0.5}),
        (slope_cone_config, ("command", "check", "probes"), {"count": 10.5}),
        (slope_cone_config, ("command", "check", "probes"), {"count": False}),
    ], ids=["dimension", "dimension_bool", "seed", "quadrature_nodes_per_step",
            "quadrature_nodes_bool", "max_iters_small", "max_iters", "count",
            "count_bool"])
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
        doc["command"]["run"]["prox_settings"] = {"max_iters": 1e6}
        doc["command"]["run"]["quadrature_nodes_per_step"] = 2.0
        parsed = ExperimentConfig.from_dict(doc)
        params = parsed.args["run"]
        assert (parsed.seed, parsed.space.dimension) == (3, 1)
        assert (params.prox_settings.max_iters, params.quadrature_nodes_per_step) == \
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

    @pytest.mark.parametrize("name, value, message", [
        ("initial_energy_bound_S", -1, "must be non-negative, got -1.0"),
        ("initial_distance_bound_Sprime", -1, "must be non-negative, got -1.0"),
        ("tau_star", -1, "must be positive, got -1.0"),
        ("tau_star", 0, "must be positive, got 0.0"),
    ], ids=["S_negative", "Sprime_negative", "tau_star_negative", "tau_star_zero"])
    def test_bad_scheme_bound_names_its_field(self, tmp_path, name, value, message):
        doc = quad_run_config(tmp_path / "out")
        doc["command"]["run"][name] = value
        proc = run_cli(tmp_path, doc)
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr == f"config error: run config invalid: {name} {message}\n"
        assert not (tmp_path / "out").exists()

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

    def test_solver_error_is_the_only_stderr_line(self, tmp_path):
        # x^2/0 is nan at 0: numpy's RuntimeWarning must not precede the line
        doc = quad_run_config(tmp_path / "out", tau=0.05)
        doc["energy"] = {"kind": "custom_smooth", "expression": "x^2/0"}
        proc = run_cli(tmp_path, doc)
        assert proc.returncode == EXIT_SOLVER
        assert proc.stderr.startswith("solver error:")
        assert proc.stderr.count("\n") == 1

    def test_zero_power_of_x_is_one(self, tmp_path):
        # the power rule's 0 x^(-1) would make the gradient nan at x = 0
        doc = quad_run_config(tmp_path / "out", tau=0.05, T=0.1)
        doc["energy"] = {"kind": "custom_smooth", "expression": "x^0 + x^2"}
        doc["command"]["run"]["initial_point"] = [0.0]
        assert main(["run", "--config", write_config(tmp_path, doc), "--quiet"]) == EXIT_OK
        rows = list(csv.DictReader((tmp_path / "out" / "trajectory.csv").open()))
        assert {float(row["energy"]) for row in rows} == {1.0}

    def test_output_path_under_a_file_is_config_error(self, tmp_path):
        (tmp_path / "afile").write_text("")
        proc = run_cli(tmp_path, quad_run_config(tmp_path / "out"),
                       "--out", str(tmp_path / "afile" / "sub"))
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr.startswith("config error: cannot create output directory")
        assert proc.stderr.count("\n") == 1

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


class TestCommandLine:
    @pytest.mark.parametrize("argv", [(), ("run",), ("bogus", "--config", "x.json")],
                             ids=["no_arguments", "run_without_config", "bogus"])
    def test_usage_error_exits_1(self, argv):
        # bad input from outside the program, like a bad config: 2 is the
        # solver's code
        proc = cli_process(*argv)
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr.startswith("usage:")
        assert "Traceback" not in proc.stderr

    def test_help_exits_0_and_names_the_commands(self):
        proc = cli_process("--help")
        assert proc.returncode == EXIT_OK
        for command in ("run", "sweep", "check"):
            assert command in proc.stdout

    def test_reused_parser_keeps_no_option(self, tmp_path, capsys, monkeypatch):
        # two calls in one process: the parser that the first builds serves
        # the second, which must see neither its --out nor a missing --quiet
        built = []
        monkeypatch.setattr(cli, "_parser", functools.cache(
            lambda: built.append(1) or cli.build_parser()))
        cfg = write_config(tmp_path, quad_run_config(tmp_path / "configured"))
        elsewhere = tmp_path / "elsewhere"
        assert main(["run", "--config", cfg, "--out", str(elsewhere)]) == EXIT_OK
        assert capsys.readouterr().out.startswith("run: ")
        assert main(["run", "--config", cfg, "--quiet"]) == EXIT_OK
        assert capsys.readouterr().out == ""
        assert (tmp_path / "configured" / "trajectory.csv").is_file()
        assert sorted(p.name for p in elsewhere.iterdir()) == [
            "dissipation.json", "interpolant.csv", "trajectory.csv"]
        assert built == [1]


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
        assert report["comparison_to_reference"] is None

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

    @pytest.mark.parametrize("eps", [0, -1])
    def test_slope_cone_eps_must_be_positive(self, tmp_path, capsys, eps):
        doc = check_config(tmp_path / "out", "slope_cone", {"eps": eps, "x": [1.5]})
        assert main(["check", "--config", write_config(tmp_path, doc)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: field 'eps' must be positive, got {eps}\n")
        assert not (tmp_path / "out").exists()

    def test_condition_h(self, tmp_path):
        cfg = write_config(tmp_path, condition_h_config(tmp_path / "out"))
        assert main(["check", "--config", cfg, "--quiet"]) == EXIT_OK

    @pytest.mark.parametrize("sequence, says", [
        ([[0.1, [0.5]], [0.05, [0.9]]], "distance 0.4 from 'limit_v'"),
        ([[0.1, [0.5]], [0.05, [0.7]], [0.02, [0.5]]], "not decreasing"),
    ], ids=["terminal", "rising"])
    def test_non_convergent_sequence_is_config_error(self, tmp_path, capsys,
                                                     sequence, says):
        # nothing was solved: the input is at fault
        doc = check_config(tmp_path / "out", "condition_h",
                           {"sequence": sequence, "limit_v": [0.5]})
        doc["energy"] = {"kind": "wiggly",
                         "base": {"kind": "quadratic", "weights": [1.0],
                                  "center": [0.0]}}
        assert main(["check", "--config", write_config(tmp_path, doc)]) == EXIT_CONFIG
        first = capsys.readouterr().err.splitlines()[0]
        assert first.startswith("config error:")
        assert "'sequence'" in first and "'limit_v'" in first and says in first
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("build", [condition_h_config, maximal_slope_config],
                             ids=["condition_h", "maximal_slope"])
    def test_energy_without_limit_family_is_config_error(self, tmp_path, capsys,
                                                         monkeypatch, build):
        # both checks compare against the limit as eps -> 0, which a
        # custom_smooth energy does not declare: refused before any solve
        monkeypatch.setattr("maxslope.regimes.run_sweep",
                            lambda *args, **kwargs: pytest.fail("sweep ran"))
        doc = build(tmp_path / "out")
        doc["energy"] = {"kind": "custom_smooth", "expression": "0.5*x^2"}
        assert main(["check", "--config", write_config(tmp_path, doc)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.splitlines()[0].startswith("config error:")
        assert "'custom_smooth'" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_maximal_slope(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, maximal_slope_config(out))
        assert main(["check", "--config", cfg, "--quiet"]) == EXIT_OK
        report = self.read_report(out, "maximal_slope")
        assert report["report"]["sweep"]["cauchy_flag"] is True
        assert report["report"]["maximal_slope"]["excluded_times"] == []

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
        brute = max(abs(dissipation_identity(interp, i, j).residual)
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


class TestConfigFuzz:
    """Every field of every command's config, replaced, dropped or joined
    by an unknown one: the CLI exits 0-3 without a traceback, and a command
    that fails (exit 1 or 2) leaves no output directory.

    The values are a fixed pool.  Its only small positive numbers are 0.5
    and 1e-320, so that a drawn run has a few hundred steps at most or is
    refused before it starts: tau = 1e-320 needs more steps than the run
    cap allows.
    """

    QUAD = {"kind": "quadratic", "weights": [1.0], "center": [0.0]}
    RUN = {"eps": 1.0, "tau": 0.05, "horizon_T": 0.2, "initial_point": [1.0],
           "initial_energy_bound_S": 10.0, "initial_distance_bound_Sprime": 10.0,
           "prox_settings": {"mode": "multistart_numeric", "local_tol": 1e-9,
                             "max_iters": 1000},
           "quadrature_nodes_per_step": 2, "tau_star": 1.0}
    SWEEP = {"coupling": {"form": "eps_of_tau", "lam": 1.0, "alpha": 1.0},
             "levels": [0.1, 0.05],
             "params": {k: v for k, v in RUN.items() if k not in ("eps", "tau")}}
    COMMANDS = (
        {"run": RUN},
        {"sweep": {**SWEEP, "sweep_tol": 1e-2}},
        {"check": {"type": "dissipation", "run": RUN, "residual_tol": 1e-8}},
        {"check": {"type": "apriori", "run": RUN, "quad_tol": 1e-8}},
        {"check": {"type": "slope_cone", "eps": 1.0, "x": [1.5],
                   "probes": {"count": 20, "radius": 2.0}, "cone_tol": 1e-9}},
        {"check": {"type": "condition_h", "sequence": [[0.1, [1.0]], [0.01, [1.0]]],
                   "limit_v": [1.0], "h_tol": 1e-3, "seq_tol": 1e-2}},
        {"check": {"type": "maximal_slope", **SWEEP, "check_tol": 5e-3,
                   "waive_condition_h": False, "monotone_tol": 1e-9}},
    )
    ENERGIES = (
        QUAD,
        {"kind": "wiggly", "base": QUAD, "amplitude_scale": 1.0},
        {"kind": "convex_perturbed", "base": QUAD},
        {"kind": "custom_smooth", "expression": "0.5*x^2 + eps*cos(x/eps)"},
    )
    VALUES = st.sampled_from([
        None, True, False, 0, 1, -1, 2, 0.5, 1e-320, 1e300, -1e300,
        math.nan, math.inf, -math.inf, "", "x", "wiggly", "euclidean",
        "diagonal_weighted", "multistart_numeric", "tau_of_eps", "dissipation",
        [], [0.5], [0.5, -0.5], [[0.1, [1.0]]], {}, {"kind": "quadratic"},
        "0.5", "41", {"1": 0}, 10**400]
    ).map(lambda value: json.loads(json.dumps(value)))   # a copy to mutate

    @staticmethod
    def paths(node, prefix=()):
        """The path of every value under ``node``, by key or list index."""
        items = (node.items() if isinstance(node, dict)
                 else enumerate(node) if isinstance(node, list) else ())
        for key, value in items:
            yield prefix + (key,)
            yield from TestConfigFuzz.paths(value, prefix + (key,))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_config_exits_cleanly(self, data):
        doc = json.loads(json.dumps({
            "space": {"dimension": 1, "metric_kind": "diagonal_weighted",
                      "weights": [1.0], "base_point": [0.0]},
            "energy": data.draw(st.sampled_from(self.ENERGIES), label="energy"),
            "command": data.draw(st.sampled_from(self.COMMANDS), label="command"),
            "output_dir": "unused", "seed": 0}))
        subcommand = next(iter(doc["command"]))
        for _ in range(data.draw(st.integers(1, 3), label="mutations")):
            *parents, key = data.draw(st.sampled_from(list(self.paths(doc))),
                                      label="path")
            parent = doc
            for step in parents:
                parent = parent[step]
            action = data.draw(st.sampled_from(["replace", "drop", "unknown"]),
                               label="action")
            if action == "replace":
                parent[key] = data.draw(self.VALUES, label="value")
            elif isinstance(parent, dict) and action == "drop":
                del parent[key]
            elif isinstance(parent, dict):
                parent["unknown_field"] = data.draw(self.VALUES, label="value")
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            err = io.StringIO()
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = main([subcommand, "--config", write_config(Path(tmp), doc),
                             "--out", str(out), "--quiet"])
            assert code in (EXIT_OK, EXIT_CONFIG, EXIT_SOLVER, EXIT_CHECK_FAILED)
            assert "Traceback" not in err.getvalue()
            if code in (EXIT_CONFIG, EXIT_SOLVER):
                assert err.getvalue().startswith(("config error:", "solver error:"))
                assert not out.exists()
