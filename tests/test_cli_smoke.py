"""CLI smoke cases, each run as a user runs it: a cold ``python -m
maxslope.cli`` process on a config file, checked by its exit code, its
first stderr line, the absence of a traceback and of the output
directory."""

import re

import pytest

from test_cli import run_cli

QUAD = {"kind": "quadratic", "weights": [1.0], "center": [0.0]}
WIGGLY = {"kind": "wiggly", "base": QUAD}
RUN = {"eps": 1.0, "tau": 0.1, "horizon_T": 0.5, "initial_point": [1.0]}


def run_config(energy=QUAD, **run):
    return {"space": {"dimension": 1}, "energy": energy,
            "command": {"run": {**RUN, **run}}}


def condition_h_config(energy, sequence):
    return {"space": {"dimension": 1}, "energy": energy,
            "command": {"check": {"type": "condition_h", "sequence": sequence,
                                  "limit_v": [0.5]}}}


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
}


@pytest.mark.parametrize("name", CONFIG_ERRORS)
def test_config_error_smoke(tmp_path, name):
    doc, code, first_line = CONFIG_ERRORS[name]     # inf is written as Infinity
    proc = run_cli(tmp_path, doc, "--out", str(tmp_path / "smoke_out"), timeout=60)
    assert proc.returncode == code, proc.stderr
    assert re.search(first_line, proc.stderr.splitlines()[0])
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "smoke_out").exists()
