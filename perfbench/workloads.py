"""The four benchmark workloads: generated configs and their paper invariants.

Each workload is one ``maxslope`` CLI config.  The workload seed perturbs
only the initial point, by a factor drawn from [0.9, 1.1] per coordinate,
so every seed runs the same amount of work and the same invariants hold.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    command: str           # CLI subcommand
    why: str
    artifacts: tuple[str, ...]
    schemas: dict          # artifact name -> schema file in src/maxslope/schemas
    build: Callable[[list[float]], dict]
    initial_point: tuple[float, ...]
    invariant: Callable[[Path], list[str]]

    def config(self, seed: int) -> dict:
        rng = random.Random(seed)
        u0 = [round(c * rng.uniform(0.9, 1.1), 12) for c in self.initial_point]
        return self.build(u0)


def _pinning_run(u0):
    return {
        "space": {"dimension": 1},
        "energy": {"kind": "wiggly",
                   "base": {"kind": "quadratic", "weights": [1.0], "center": [0.0]}},
        "command": {"run": {"eps": 0.05, "tau": 0.0025, "horizon_T": 1.0,
                            "initial_point": u0}},
    }


def _dissipation_check(u0):
    return {
        "space": {"dimension": 2, "metric_kind": "diagonal_weighted",
                  "weights": [4.0, 1.0]},
        "energy": {"kind": "convex_perturbed",
                   "base": {"kind": "quadratic", "weights": [1.0, 2.0],
                            "center": [0.0, 0.0]}},
        "command": {"check": {
            "type": "dissipation",
            "run": {"eps": 0.1, "tau": 0.005, "horizon_T": 1.0,
                    "initial_point": u0},
        }},
    }


def _custom_sweep(u0):
    return {
        "space": {"dimension": 1},
        "energy": {"kind": "custom_smooth",
                   "expression": "0.5*x^2 + eps*cos(x/eps) + 0.25*exp(-x^2)"},
        "command": {"sweep": {
            "coupling": {"form": "tau_of_eps", "lam": 1.0, "alpha": 2.0},
            "levels": [0.1, 0.05, 0.025, 0.0125],
            "params": {"horizon_T": 0.5, "initial_point": u0},
        }},
    }


def _numeric_2d_check(u0):
    return {
        "space": {"dimension": 2, "metric_kind": "diagonal_weighted",
                  "weights": [4.0, 1.0]},
        "energy": {"kind": "quadratic", "weights": [1.0, 2.0],
                   "center": [0.3, -0.2]},
        "command": {"check": {
            "type": "maximal_slope",
            "coupling": {"form": "eps_of_tau", "lam": 1.0, "alpha": 1.0},
            "levels": [0.02, 0.01, 0.005],
            "params": {"horizon_T": 1.0, "initial_point": u0,
                       "prox_settings": {"mode": "multistart_numeric"}},
        }},
    }


# ---------------------------------------------------------------------------
# Paper invariants, one per workload.  Each takes the output directory and
# returns a list of error strings (empty when the invariant holds).
# ---------------------------------------------------------------------------

# Consecutive-step dissipation residual allowed on pinning_run (the seed
# commit reads about 3e-9 there).
PINNING_RESIDUAL_TOL = 1e-6
# Round-off allowed when checking that energy does not increase along a
# trajectory; the prox step guarantees it exactly in exact arithmetic.
ENERGY_INCREASE_TOL = 1e-12


def _load(out: Path, name: str) -> dict:
    with open(out / name, encoding="utf-8") as fh:
        return json.load(fh)


def _pinning_invariant(out: Path) -> list[str]:
    d = _load(out, "dissipation.json")
    errors = []
    if d["n_steps"] != 400:
        errors.append(f"pinning_run: n_steps={d['n_steps']}, expected 400")
    for key, value in (("consecutive_max_abs_residual",
                        d["consecutive_max_abs_residual"]),
                       ("full_range.residual", abs(d["full_range"]["residual"]))):
        if not value < PINNING_RESIDUAL_TOL:
            errors.append(f"pinning_run: {key}={value!r} not below "
                          f"{PINNING_RESIDUAL_TOL}")
    return errors


def _dissipation_invariant(out: Path) -> list[str]:
    d = _load(out, "check_dissipation.json")
    errors = []
    if d["passed"] is not True:
        errors.append("dissipation_check: check did not pass")
    n = 200
    if d["report"].get("n_pairs") != n * (n + 1) // 2:
        errors.append(f"dissipation_check: n_pairs={d['report'].get('n_pairs')}, "
                      f"expected N(N+1)/2={n * (n + 1) // 2}")
    return errors


def _sweep_invariant(out: Path) -> list[str]:
    d = _load(out, "sweep_report.json")
    errors = [f"custom_sweep: level {k} status {lv.get('status')!r}"
              for k, lv in enumerate(d["levels"]) if lv.get("status") != "ok"]
    for k in range(len(d["levels"])):
        with open(out / f"trajectory_level_{k:02d}.csv", encoding="utf-8") as fh:
            energies = [float(row["energy"]) for row in csv.DictReader(fh)]
        rise = max((b - a for a, b in zip(energies, energies[1:])), default=0.0)
        if not energies or rise > ENERGY_INCREASE_TOL:
            errors.append(f"custom_sweep: energy rises by {rise!r} along level {k}")
    return errors


def _maximal_slope_invariant(out: Path) -> list[str]:
    d = _load(out, "check_maximal_slope.json")
    errors = []
    if d["passed"] is not True:
        errors.append("numeric_2d_check: check did not pass")
    slack = d["report"].get("maximal_slope", {}).get("min_slack")
    if not isinstance(slack, (int, float)):
        errors.append(f"numeric_2d_check: min_slack not reported ({slack!r})")
    return errors


WORKLOADS = {w.name: w for w in (
    Workload(
        name="pinning_run", command="run",
        why="wiggly 1D run at eps=0.05, tau=eps^2: build_interpolant and the "
            "numeric 1D prox do the work; diagnostics and regimes are idle",
        artifacts=("trajectory.csv", "interpolant.csv", "dissipation.json"),
        schemas={"dissipation.json": "dissipation.json"},
        build=_pinning_run, initial_point=(0.5,),
        invariant=_pinning_invariant),
    Workload(
        name="dissipation_check", command="check",
        why="closed-form 2D prox and 20100 all-pairs dissipation checks: "
            "import and diagnostics dominate; a numeric-prox change must not show",
        artifacts=("check_dissipation.json",),
        schemas={"check_dissipation.json": "check_report.json"},
        build=_dissipation_check, initial_point=(1.0, -0.5),
        invariant=_dissipation_invariant),
    Workload(
        name="custom_sweep", command="sweep",
        why="4-level sweep on the sympy-lambdified custom_smooth path: the only "
            "user of the expression compiler and of plain run_sweep",
        artifacts=("sweep_report.json",) + tuple(
            f"trajectory_level_{k:02d}.csv" for k in range(4)),
        schemas={"sweep_report.json": "sweep_report.json"},
        build=_custom_sweep, initial_point=(0.5,),
        invariant=_sweep_invariant),
    Workload(
        name="numeric_2d_check", command="check",
        why="maximal-slope pipeline with multistart L-BFGS-B prox in 2D: the only "
            "user of scipy.optimize and of the slope layer",
        artifacts=("check_maximal_slope.json",),
        schemas={"check_maximal_slope.json": "check_report.json"},
        build=_numeric_2d_check, initial_point=(1.0, -0.8),
        invariant=_maximal_slope_invariant),
)}
