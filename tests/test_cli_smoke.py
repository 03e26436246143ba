"""CLI smoke cases, each run as a user runs it: a cold ``python -m
maxslope.cli`` process on a config file, checked by its exit code and
what it writes: the first stderr line, the absence of a traceback and of
the output directory for a config error, the artifacts for a run."""

import csv
import json
import re

import pytest

from test_cli import cli_process, run_cli

QUAD = {"kind": "quadratic", "weights": [1.0], "center": [0.0]}
WIGGLY = {"kind": "wiggly", "base": QUAD}
QUAD_2D = {"kind": "quadratic", "weights": [1.0, 2.0], "center": [0.0, 0.0]}
LINE = {"dimension": 1}
WEIGHTED_PLANE = {"dimension": 2, "metric_kind": "diagonal_weighted", "weights": [4.0, 1.0]}
RUN = {"eps": 1.0, "tau": 0.1, "horizon_T": 0.5, "initial_point": [1.0]}
PINNING = {"eps": 0.05, "tau": 0.0025, "horizon_T": 1.0, "initial_point": [0.5]}


def wiggly_9d(metric_weights=None, energy_weights=(1.0,) * 9):
    """The 9D pinning run: u0_j = 0.5 - 0.1 j and centres 0.1 j, each
    coordinate in its own wells, for half the 1D run's horizon."""
    space = {"dimension": 9}
    if metric_weights is not None:
        space.update(metric_kind="diagonal_weighted", weights=list(metric_weights))
    base = {"kind": "quadratic", "weights": list(energy_weights),
            "center": [0.1 * j for j in range(9)]}
    energy = {"kind": "wiggly", "base": base}
    return {"space": space, "energy": energy, "command": {"run": {
        **PINNING, "horizon_T": 0.5, "initial_point": [0.5 - 0.1 * j for j in range(9)]}}}


def run_config(energy=QUAD, **run):
    return {"space": LINE, "energy": energy, "command": {"run": {**RUN, **run}}}


def check_config(energy, space=LINE, **check):
    return {"space": space, "energy": energy, "command": {"check": check}}


def condition_h_config(energy, sequence):
    return check_config(energy, type="condition_h", sequence=sequence, limit_v=[0.5])


def slope_cone_config(probes):
    return check_config(QUAD, type="slope_cone", x=[0.5], probes=probes)


# a horizon_T literal of more than the 4300 digits Python converts to int
LONG_LITERAL = json.dumps(run_config(horizon_T=0)).replace('"horizon_T": 0',
                                                          '"horizon_T": ' + "1" * 5001)

# name: (config, exit code, regex that the first stderr line matches)
CONFIG_ERRORS = {
    "bad": ({**run_config(), "output_dir": 5}, 1, r"^config error:"),
    "inf": (run_config(horizon_T=float("inf")), 1, r"^config error:"),
    "tiny_tau": (run_config(tau=1e-320), 1, r"^config error:"),
    "huge_run": (run_config(tau=1e-300), 1,
                 r"^config error:.*quadrature_nodes_per_step"),
    "misspelled": (run_config({**WIGGLY, "amplitude": 0.001}, eps=0.05, tau=0.0025,
                              horizon_T=0.1, initial_point=[0.5]),
                   1, r"^config error:.*'amplitude'"),
    "condition_h_divergent": (condition_h_config(WIGGLY, [[0.1, [0.5]], [0.05, [0.9]]]),
                              1, r"^config error:"),
    "custom_condition_h": (condition_h_config(
        {"kind": "custom_smooth", "expression": "0.5*x^2"},
        [[0.1, [0.5]], [0.05, [0.5]]]), 1, r"^config error:"),
    "negative_radius": (slope_cone_config({"radius": -1.0}), 1,
                        r"^config error: field 'probes\.radius'"),
    "zero_radius": (slope_cone_config({"radius": 0}), 1,
                    r"^config error: field 'probes\.radius'"),
    # 2 radius overflows
    "huge_radius": (slope_cone_config({"radius": 1e308}), 1,
                    r"^config error: field 'probes\.radius'"),
    "long_literal": (LONG_LITERAL, 1,
                     r"^config error: config file \S+config\.json has a number "
                     r"literal too long"),
    "deep_nesting": ("[" * 100_000 + "]" * 100_000, 1,
                     r"^config error: config file \S+config\.json nests too deeply"),
}


@pytest.mark.parametrize("name", CONFIG_ERRORS)
def test_config_error_smoke(tmp_path, name):
    doc, code, first_line = CONFIG_ERRORS[name]     # inf is written as Infinity
    proc = run_cli(tmp_path, doc, "--out", str(tmp_path / "smoke_out"), timeout=60)
    assert proc.returncode == code, proc.stderr
    assert re.search(first_line, proc.stderr.splitlines()[0])
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "smoke_out").exists()


def test_config_directory_smoke(tmp_path):
    # open() raises IsADirectoryError, an OSError other than FileNotFoundError
    proc = cli_process("run", "--config", str(tmp_path),
                       "--out", str(tmp_path / "smoke_out"))
    assert proc.returncode == 1, proc.stderr
    assert re.search(rf"^config error: cannot read config file {re.escape(str(tmp_path))}: ",
                     proc.stderr.splitlines()[0])
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "smoke_out").exists()


# subcommand: (config, the artifact that a directory of its name blocks)
BLOCKED_ARTIFACTS = {
    "run": (run_config(), "trajectory.csv"),
    "check": (check_config(QUAD, type="dissipation", run=RUN), "check_dissipation.json"),
}


@pytest.mark.parametrize("name", BLOCKED_ARTIFACTS)
def test_unwritable_artifact_smoke(tmp_path, name):
    doc, artifact = BLOCKED_ARTIFACTS[name]
    out = tmp_path / "smoke_out"
    (out / artifact).mkdir(parents=True)
    proc = run_cli(tmp_path, doc, "--out", str(out), timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.splitlines() == [
        f"config error: cannot write artifact {str(out / artifact)!r}: Is a directory"]


def report(out, name):
    return json.loads((out / name).read_text())


def written(*names):
    def check(out, proc):
        for name in names:
            assert (out / name).is_file(), name
    return check


def dissipation_residual_below(tol, interpolant_lines=None):
    def check(out, proc):
        residual = report(out, "dissipation.json")["consecutive_max_abs_residual"]
        assert residual < tol
        if interpolant_lines is not None:
            with open(out / "interpolant.csv") as fh:
                assert sum(1 for _ in fh) == interpolant_lines
    return check


def energy_never_rises(out, proc):
    with open(out / "trajectory.csv") as fh:
        energy = [float(row["energy"]) for row in csv.DictReader(fh)]
    assert not [i for i in range(1, len(energy)) if energy[i] > energy[i - 1]]


def min_slack_reported(out, proc):
    assert "min_slack" in report(out, "check_maximal_slope.json")["report"]["maximal_slope"]


def slope_cone_witness(out, proc):
    cone = report(out, "check_slope_cone.json")["report"]
    assert "min_residual" in cone
    assert len(cone["witness"]) == 2


def condition_h_refuted(out, proc):
    doc = report(out, "check_condition_h.json")
    assert doc["passed"] is False and doc["report"]["limit_v"] == [0.5]


def budget_error(out, proc):
    assert re.search(r"^solver error: prox failed at step 0: 1D prox Newton iteration "
                     r"did not converge", proc.stderr.splitlines()[0])
    assert not out.exists()


# tau_of_eps at eps = 0.2 and 2^-7: the common time grid steps by tau_0 =
# 0.04000000000000001, so its last node 25 tau_0 = 1.0000000000000002 passes
# the finest level's final time 2^14 * 2^-14 = 1.0 by an ulp
GRID_END_SWEEP = {"coupling": {"form": "tau_of_eps", "lam": 1.0, "alpha": 2.0},
                  "levels": [0.2, 0.0078125],
                  "params": {"horizon_T": 1.0, "initial_point": [0.5]}}


def sweep_past_final_time(out, proc):
    doc = report(out, "sweep_report.json")
    assert [lv["status"] for lv in doc["levels"]] == ["ok", "ok"]
    assert doc["time_grid"][-1] == 1.0000000000000002
    assert doc["levels"][1]["n_steps"] * 2.0 ** -14 == 1.0


def closed_form_dissipation(out, proc):
    doc = report(out, "check_dissipation.json")
    assert doc["passed"] is True and doc["report"]["n_pairs"] == 20100


# name: (config, extra arguments, exit code, check of (output directory, process))
RUNS = {
    "smoke": (check_config(QUAD, type="dissipation", run={**RUN, "horizon_T": 1.0}),
              [], 0, written("check_dissipation.json")),
    "smoke_run": (run_config(), ["--quiet"], 0,
                  written("trajectory.csv", "interpolant.csv", "dissipation.json")),
    "smoke_wiggly": (run_config(WIGGLY, **PINNING), ["--quiet"], 0,
                     dissipation_residual_below(1e-12)),
    # 1600 steps of 8 nodes: 12 800 node rows, in many interpolant blocks
    "smoke_wiggly_long": (run_config(WIGGLY, **{**PINNING, "horizon_T": 4.0}),
                          ["--quiet"], 0, dissipation_residual_below(1e-12, 1600 * 8 + 1)),
    "smoke_wiggly_9d": (wiggly_9d(), ["--quiet"], 0, dissipation_residual_below(1e-12)),
    "smoke_wiggly_9d_weighted": (wiggly_9d([1.0 + 0.5 * j for j in range(9)],
                                           [1.0 + 0.25 * j for j in range(9)]),
                                 ["--quiet"], 0, dissipation_residual_below(1e-12)),
    "smoke_sweep": ({"space": LINE, "energy": QUAD, "command": {"sweep": {
        "coupling": {"form": "eps_of_tau", "lam": 1.0, "alpha": 1.0},
        "levels": [0.04, 0.02], "params": {"horizon_T": 0.2, "initial_point": [1.0]}}}},
        ["--quiet"], 0,
        written("sweep_report.json", "trajectory_level_00.csv", "trajectory_level_01.csv")),
    "smoke_descent": ({"space": {"dimension": 2}, "energy": {"kind": "wiggly", "base": QUAD_2D},
                       "command": {"run": {**PINNING, "initial_point": [0.5, -0.3]}}},
                      ["--quiet"], 0, energy_never_rises),
    "smoke_maximal_slope": (check_config(
        {"kind": "quadratic", "weights": [1.0, 2.0], "center": [0.3, -0.2]},
        WEIGHTED_PLANE, type="maximal_slope",
        coupling={"form": "eps_of_tau", "lam": 1.0, "alpha": 1.0},
        levels=[0.02, 0.01, 0.005],
        params={"horizon_T": 1.0, "initial_point": [1.0, -0.8],
                "prox_settings": {"mode": "multistart_numeric"}}),
        ["--quiet"], 0, min_slack_reported),
    "smoke_slope_cone": (check_config({"kind": "wiggly", "base": QUAD_2D}, WEIGHTED_PLANE,
                                      type="slope_cone", eps=0.1, x=[0.4, -0.7]),
                         ["--quiet"], 3, slope_cone_witness),
    "smoke_condition_h": (condition_h_config(
        WIGGLY, [[0.1, [0.5]], [0.05, [0.5]], [0.02, [0.5]]]),
        ["--quiet"], 3, condition_h_refuted),
    "smoke_budget": (run_config(WIGGLY, **{**PINNING, "horizon_T": 0.1},
                                prox_settings={"max_iters": 1}),
                     [], 2, budget_error),
    "smoke_sweep_grid_end": ({"space": LINE, "energy": QUAD,
                              "command": {"sweep": GRID_END_SWEEP}},
                             ["--quiet"], 0, sweep_past_final_time),
    "smoke_maximal_slope_grid_end": (check_config(QUAD, type="maximal_slope",
                                                  **GRID_END_SWEEP),
                                     ["--quiet"], 0, min_slack_reported),
    "smoke_closed_dissipation": (check_config(
        {"kind": "convex_perturbed", "base": QUAD_2D}, WEIGHTED_PLANE, type="dissipation",
        run={"eps": 0.1, "tau": 0.005, "horizon_T": 1.0, "initial_point": [1.0, -0.5]}),
        ["--quiet"], 0, closed_form_dissipation),
}


@pytest.mark.parametrize("name", RUNS)
def test_run_smoke(tmp_path, name):
    doc, extra, code, check = RUNS[name]
    out = tmp_path / "smoke_out"
    proc = run_cli(tmp_path, doc, "--out", str(out), *extra, timeout=120)
    assert proc.returncode == code, proc.stderr
    check(out, proc)
