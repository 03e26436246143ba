"""The import footprint is part of the contract: no path loads scipy or
sympy; the package needs numpy alone.

Each case runs in a fresh interpreter, because the test process itself has
long since imported both.  Nothing here measures time.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import maxslope

SRC = str(Path(maxslope.__file__).resolve().parents[1])
HEAVY = ("scipy", "scipy.optimize", "sympy")


def heavy_modules_after(code):
    """The heavy modules a fresh interpreter holds after running ``code``."""
    probe = (f"{code}\nimport json, sys\n"
             f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def cli_calls(tmp_path, *configs):
    """Code that runs ``cli.main`` in-process on each (subcommand, config)."""
    lines = ["from maxslope import cli"]
    for k, (subcommand, doc) in enumerate(configs):
        doc = {**doc, "output_dir": str(tmp_path / f"out{k}")}
        path = tmp_path / f"config{k}.json"
        path.write_text(json.dumps(doc))
        lines.append(f"assert cli.main([{subcommand!r}, '--config', {str(path)!r}, "
                     f"'--quiet']) == 0")
    return "\n".join(lines)


WIGGLY_RUN = {
    "space": {"dimension": 1},
    "energy": {"kind": "wiggly",
               "base": {"kind": "quadratic", "weights": [1.0], "center": [0.0]}},
    "command": {"run": {"eps": 0.1, "tau": 0.01, "horizon_T": 0.1,
                        "initial_point": [0.5]}},
}

WEIGHTED_2D_DISSIPATION = {
    "space": {"dimension": 2, "metric_kind": "diagonal_weighted",
              "weights": [4.0, 1.0]},
    "energy": {"kind": "convex_perturbed",
               "base": {"kind": "quadratic", "weights": [1.0, 2.0],
                        "center": [0.0, 0.0]}},
    "command": {"check": {
        "type": "dissipation",
        "run": {"eps": 0.1, "tau": 0.05, "horizon_T": 0.5,
                "initial_point": [1.0, -0.5]},
    }},
}

WIGGLY_2D_RUN = {
    "space": {"dimension": 2, "metric_kind": "diagonal_weighted",
              "weights": [4.0, 1.0]},
    "energy": {"kind": "wiggly",
               "base": {"kind": "quadratic", "weights": [1.0, 2.0],
                        "center": [0.0, 0.0]}},
    "command": {"run": {"eps": 0.1, "tau": 0.01, "horizon_T": 0.05,
                        "initial_point": [0.5, -0.3]}},
}

CUSTOM_RUN = {
    "space": {"dimension": 1},
    "energy": {"kind": "custom_smooth", "expression": "0.5*x^2 + eps*cos(x/eps)"},
    "command": {"run": {"eps": 0.1, "tau": 0.01, "horizon_T": 0.05,
                        "initial_point": [0.5]}},
}


def test_cli_import_loads_neither():
    assert heavy_modules_after("import maxslope.cli") == []


def test_closed_form_and_grid_zoom_runs_load_neither(tmp_path):
    code = cli_calls(tmp_path, ("run", WIGGLY_RUN),
                     ("check", WEIGHTED_2D_DISSIPATION))
    assert heavy_modules_after(code) == []


def test_no_path_loads_sympy(tmp_path):
    # custom expressions are compiled from their syntax tree, with and
    # without eps in them
    sweep = {**CUSTOM_RUN, "command": {"sweep": {
        "coupling": {"form": "tau_of_eps", "lam": 1.0, "alpha": 2.0},
        "levels": [0.1, 0.05],
        "params": {"horizon_T": 0.05, "initial_point": [0.5]}}}}
    run = {**CUSTOM_RUN, "energy": {"kind": "custom_smooth",
                                    "expression": "x^4 - x^2 + abs(x)/4"}}
    code = cli_calls(tmp_path, ("run", CUSTOM_RUN), ("sweep", sweep), ("run", run))
    assert heavy_modules_after(code) == []


def test_no_path_loads_scipy(tmp_path):
    # the nD numeric prox, called directly and under a CLI run
    code = """
from maxslope.energy import quadratic
from maxslope.metric import Point, SpaceDescriptor
from maxslope.prox import MULTISTART_NUMERIC, ProxSettings, prox
spec = quadratic(SpaceDescriptor(2), [4.0, 1.0], [1.0, -1.0])
prox(spec, 1.0, 0.5, Point((0.0, 0.0)), ProxSettings(mode=MULTISTART_NUMERIC))
""" + cli_calls(tmp_path, ("run", WIGGLY_2D_RUN))
    assert heavy_modules_after(code) == []
