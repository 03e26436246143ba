"""Command-line entry point: ``maxslope run|sweep|check --config PATH``.

Exit codes: 0 success (for ``check``: the check passed), 1 config error,
2 solver failure, 3 check ran and failed.  All artifacts are written with
stable key order and round-trip float formatting so that identical
configs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from . import diagnostics, regimes, scheme as scheme_mod, slope as slope_mod
from .config import (
    CHECK_TYPES,
    ExperimentConfig,
    parse_coupling,
    parse_levels,
    parse_scheme_params,
)
from .energy import gamma_limit
from .errors import ConfigError, MaxslopeError
from .metric import Point
from .scheme import build_interpolant, run_scheme

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_CHECK_FAILED = 3


def write_json(obj: dict, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _ensure_outdir(cfg: ExperimentConfig, override: str | None) -> Path:
    out = Path(override) if override else cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_run(cfg: ExperimentConfig, out: Path, quiet: bool) -> int:
    params = parse_scheme_params(cfg.payload, cfg.space, context="run")
    traj = run_scheme(cfg.energy, params)
    interp = build_interpolant(cfg.energy, traj, params.prox_settings,
                               params.quadrature_nodes_per_step)
    scheme_mod.trajectory_to_csv(traj, out / "trajectory.csv")
    scheme_mod.interpolant_to_csv(interp, out / "interpolant.csv")

    full = diagnostics.dissipation_identity(cfg.energy, traj, interp,
                                            0, traj.n_steps)
    consec = [
        diagnostics.dissipation_identity(cfg.energy, traj, interp, i, i + 1)
        for i in range(traj.n_steps)
    ]
    write_json(
        {
            "n_steps": traj.n_steps,
            "full_range": full.to_dict(),
            "consecutive_max_abs_residual": max(
                (abs(r.residual) for r in consec), default=0.0),
        },
        out / "dissipation.json",
    )
    if not quiet:
        print(f"run: {traj.n_steps} steps, final energy "
              f"{traj.step_energies[-1]!r}, artifacts in {out}")
    return EXIT_OK


def cmd_sweep(cfg: ExperimentConfig, out: Path, quiet: bool) -> int:
    coupling = parse_coupling(cfg.payload, "sweep")
    levels = parse_levels(cfg.payload, "sweep")
    eps0, tau0 = coupling.resolve(levels[0])
    base = parse_scheme_params({**cfg.payload.get("params", {}),
                                "eps": eps0, "tau": tau0},
                               cfg.space, context="sweep.params")
    sweep_tol = float(cfg.payload.get("sweep_tol", 1e-2))
    report = regimes.run_sweep(cfg.energy, coupling, levels, base,
                               sweep_tol=sweep_tol)
    for k, level in enumerate(report.levels):
        if level.trajectory is not None:
            scheme_mod.trajectory_to_csv(level.trajectory,
                                         out / f"trajectory_level_{k:02d}.csv")
    write_json(report.to_dict(), out / "sweep_report.json")
    if not quiet:
        ok = sum(1 for lv in report.levels if lv.status == "ok")
        print(f"sweep: {ok}/{len(report.levels)} levels ok, "
              f"cauchy={report.cauchy_flag}, artifacts in {out}")
    return EXIT_OK


def _check_dissipation(cfg: ExperimentConfig, payload: dict) -> tuple[bool, dict]:
    params = parse_scheme_params(payload.get("run", {}), cfg.space,
                                 context="check.run")
    tol = float(payload.get("residual_tol", 1e-8))
    traj = run_scheme(cfg.energy, params)
    interp = build_interpolant(cfg.energy, traj, params.prox_settings,
                               params.quadrature_nodes_per_step)
    if traj.n_steps <= 200:
        pairs = list(itertools.combinations(range(traj.n_steps + 1), 2))
    else:
        pairs = [(i, i + 1) for i in range(traj.n_steps)] + [(0, traj.n_steps)]
    reports = [diagnostics.dissipation_identity(cfg.energy, traj, interp, i, j)
               for i, j in pairs]
    worst = max(reports, key=lambda r: abs(r.residual))
    passed = abs(worst.residual) < tol
    return passed, {
        "residual_tol": tol,
        "n_pairs": len(reports),
        "max_abs_residual": abs(worst.residual),
        "worst_pair": worst.to_dict(),
    }


def _check_apriori(cfg: ExperimentConfig, payload: dict) -> tuple[bool, dict]:
    params = parse_scheme_params(payload.get("run", {}), cfg.space,
                                 context="check.run")
    traj = run_scheme(cfg.energy, params)
    interp = build_interpolant(cfg.energy, traj, params.prox_settings,
                               params.quadrature_nodes_per_step)
    report = diagnostics.apriori_bounds(
        cfg.energy, traj, interp,
        quad_tol=float(payload.get("quad_tol", 1e-8)))
    passed = all([report.dist_bound_ok, report.energy_bound_ok,
                  report.tilde_closeness_ok, report.velocity_energy_ok,
                  report.g_energy_ok])
    return passed, report.to_dict()


def _check_slope_cone(cfg: ExperimentConfig, payload: dict) -> tuple[bool, dict]:
    eps = float(payload.get("eps", 1.0))
    if "x" not in payload:
        raise ConfigError("check config missing field 'x'")
    x = Point(tuple(payload["x"]))
    probes_cfg = payload.get("probes", {})
    count = int(probes_cfg.get("count", 1000))
    radius = float(probes_cfg.get("radius", 2.0))
    cone_tol = float(payload.get("cone_tol", 1e-9))
    rng = np.random.default_rng(cfg.seed)
    n = cfg.space.dimension
    offsets = rng.uniform(-radius, radius, size=(count, n))
    probes = [Point.from_array(x.array + off) for off in offsets]
    residuals = slope_mod.check_slope_cone(cfg.energy, eps, x, probes)
    min_res = min(residuals)
    witness = probes[int(np.argmin(residuals))]
    passed = min_res >= -cone_tol
    return passed, {
        "eps": eps,
        "x": list(x.coords),
        "cone_tol": cone_tol,
        "n_probes": count,
        "min_residual": min_res,
        "witness": list(witness.coords),
    }


def _check_condition_h(cfg: ExperimentConfig, payload: dict) -> tuple[bool, dict]:
    raw_seq = payload.get("sequence")
    if not raw_seq:
        raise ConfigError("check config missing field 'sequence'")
    if "limit_v" not in payload:
        raise ConfigError("check config missing field 'limit_v'")
    seq = [(float(e), Point(tuple(coords))) for e, coords in raw_seq]
    limit_v = Point(tuple(payload["limit_v"]))
    report = slope_mod.check_condition_h(
        cfg.energy, gamma_limit(cfg.energy), seq, limit_v,
        h_tol=float(payload.get("h_tol", 1e-3)),
        seq_tol=float(payload.get("seq_tol", 1e-2)),
    )
    return report.passed, report.to_dict()


def _check_maximal_slope(cfg: ExperimentConfig, payload: dict) -> tuple[bool, dict]:
    coupling = parse_coupling(payload, "check")
    levels = parse_levels(payload, "check")
    eps0, tau0 = coupling.resolve(levels[0])
    base = parse_scheme_params({**payload.get("params", {}),
                                "eps": eps0, "tau": tau0},
                               cfg.space, context="check.params")
    check_tol = float(payload.get("check_tol", 5e-3))
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = regimes.maximal_slope_pipeline(
            cfg.energy, coupling, levels, base,
            waive_condition_h=bool(payload.get("waive_condition_h", False)),
            monotone_tol=float(payload.get("monotone_tol", 1e-9)),
        )
    passed = result.maximal_slope.passed(check_tol)
    d = result.to_dict()
    d["check_tol"] = check_tol
    return passed, d


_CHECKERS = {
    "dissipation": _check_dissipation,
    "apriori": _check_apriori,
    "slope_cone": _check_slope_cone,
    "condition_h": _check_condition_h,
    "maximal_slope": _check_maximal_slope,
}


def cmd_check(cfg: ExperimentConfig, out: Path, quiet: bool) -> int:
    ctype = cfg.payload.get("type")
    if ctype not in CHECK_TYPES:
        raise ConfigError(
            f"check config field 'type' must be one of {CHECK_TYPES}, got {ctype!r}"
        )
    passed, report = _CHECKERS[ctype](cfg, cfg.payload)
    write_json({"check": ctype, "passed": passed, "report": report},
               out / f"check_{ctype}.json")
    if not quiet:
        print(f"check {ctype}: {'PASS' if passed else 'FAIL'}, report in {out}")
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxslope",
        description="Minimizing-movement laboratory: schemes, sweeps and checks.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in ("run", "sweep", "check"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--out", default=None, help="override output directory")
        p.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = ExperimentConfig.from_file(args.config)
        if cfg.command != args.subcommand:
            raise ConfigError(
                f"config declares command {cfg.command!r} but subcommand "
                f"{args.subcommand!r} was invoked"
            )
        out = _ensure_outdir(cfg, args.out)
        handler = {"run": cmd_run, "sweep": cmd_sweep, "check": cmd_check}
        return handler[cfg.command](cfg, out, args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MaxslopeError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
