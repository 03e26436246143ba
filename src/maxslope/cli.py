"""Command-line entry point: ``maxslope run|sweep|check --config PATH``.

Exit codes: 0 success (for ``check``: the check passed), 1 config error,
2 solver failure, 3 check ran and failed.  All artifacts are written with
stable key order and round-trip float formatting so that identical
configs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import diagnostics, regimes, scheme as scheme_mod, slope as slope_mod
from .config import (
    CHECK_TYPES,
    ExperimentConfig,
    expect_mapping,
    parse_field,
    parse_int,
    parse_point,
    parse_scheme_params,
    parse_sweep,
    require,
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


def _run_with_interpolant(cfg: ExperimentConfig, payload, context: str):
    params = parse_scheme_params(payload, cfg.space, context)
    traj = run_scheme(cfg.energy, params)
    return traj, build_interpolant(cfg.energy, traj, params.prox_settings,
                                   params.quadrature_nodes_per_step)


def cmd_run(cfg: ExperimentConfig, out: Path, quiet: bool) -> int:
    traj, interp = _run_with_interpolant(cfg, cfg.payload, "run")
    out.mkdir(parents=True, exist_ok=True)
    scheme_mod.trajectory_to_csv(traj, out / "trajectory.csv")
    scheme_mod.interpolant_to_csv(interp, out / "interpolant.csv")

    full = diagnostics.dissipation_identity(cfg.energy, traj, interp,
                                            0, traj.n_steps)
    write_json(
        {
            "n_steps": traj.n_steps,
            "full_range": full.to_dict(),
            "consecutive_max_abs_residual": float(
                np.abs(diagnostics.step_residuals(traj, interp)).max()),
        },
        out / "dissipation.json",
    )
    if not quiet:
        print(f"run: {traj.n_steps} steps, final energy "
              f"{float(traj.step_energies[-1])!r}, artifacts in {out}")
    return EXIT_OK


def cmd_sweep(cfg: ExperimentConfig, out: Path, quiet: bool) -> int:
    coupling, levels, base = parse_sweep(cfg.payload, cfg.space, "sweep")
    sweep_tol = parse_field(float, cfg.payload.get("sweep_tol", 1e-2), "sweep_tol")
    report = regimes.run_sweep(cfg.energy, coupling, levels, base,
                               sweep_tol=sweep_tol)
    out.mkdir(parents=True, exist_ok=True)
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
    tol = parse_field(float, payload.get("residual_tol", 1e-8), "residual_tol")
    traj, interp = _run_with_interpolant(cfg, payload.get("run", {}), "check.run")
    # the residual over steps i..j is R[j] - R[i], so the worst of all N(N+1)/2
    # pairs spans R's minimum and maximum; a constant R keeps the pair (0, 1)
    R = np.concatenate([[0.0], np.cumsum(diagnostics.step_residuals(traj, interp))])
    i, j = sorted((int(R.argmin()), int(R.argmax())))
    worst = diagnostics.dissipation_identity(cfg.energy, traj, interp,
                                             i, max(j, i + 1))
    passed = abs(worst.residual) < tol
    return passed, {
        "residual_tol": tol,
        "n_pairs": traj.n_steps * (traj.n_steps + 1) // 2,
        "max_abs_residual": abs(worst.residual),
        "worst_pair": worst.to_dict(),
    }


def _check_apriori(cfg: ExperimentConfig, payload: dict) -> tuple[bool, dict]:
    traj, interp = _run_with_interpolant(cfg, payload.get("run", {}), "check.run")
    report = diagnostics.apriori_bounds(
        cfg.energy, traj, interp,
        quad_tol=parse_field(float, payload.get("quad_tol", 1e-8), "quad_tol"))
    passed = all([report.dist_bound_ok, report.energy_bound_ok,
                  report.tilde_closeness_ok, report.velocity_energy_ok,
                  report.g_energy_ok])
    return passed, report.to_dict()


def _check_slope_cone(cfg: ExperimentConfig, payload: dict) -> tuple[bool, dict]:
    eps = parse_field(float, payload.get("eps", 1.0), "eps")
    x = parse_point(require(payload, "x", "check"), cfg.space, "x")
    probes_cfg = expect_mapping(payload.get("probes", {}), "probes")
    count = parse_int(probes_cfg.get("count", 1000), "count")
    radius = parse_field(float, probes_cfg.get("radius", 2.0), "radius")
    cone_tol = parse_field(float, payload.get("cone_tol", 1e-9), "cone_tol")
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
    raw_seq = require(payload, "sequence", "check")
    if not (isinstance(raw_seq, list) and raw_seq
            and all(isinstance(pair, list) and len(pair) == 2 for pair in raw_seq)):
        raise ConfigError("check config field 'sequence' must be a nonempty "
                          "list of [eps, point] pairs")
    seq = [(parse_field(float, e, "sequence"), parse_point(v, cfg.space, "sequence"))
           for e, v in raw_seq]
    limit_v = parse_point(require(payload, "limit_v", "check"), cfg.space, "limit_v")
    report = slope_mod.check_condition_h(
        cfg.energy, gamma_limit(cfg.energy), seq, limit_v,
        h_tol=parse_field(float, payload.get("h_tol", 1e-3), "h_tol"),
        seq_tol=parse_field(float, payload.get("seq_tol", 1e-2), "seq_tol"),
    )
    return report.passed, report.to_dict()


def _check_maximal_slope(cfg: ExperimentConfig, payload: dict) -> tuple[bool, dict]:
    coupling, levels, base = parse_sweep(payload, cfg.space, "check")
    check_tol = parse_field(float, payload.get("check_tol", 5e-3), "check_tol")
    waive = payload.get("waive_condition_h", False)
    if not isinstance(waive, bool):
        raise ConfigError("check config field 'waive_condition_h' must be true or false")
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = regimes.maximal_slope_pipeline(
            cfg.energy, coupling, levels, base,
            waive_condition_h=waive,
            monotone_tol=parse_field(float, payload.get("monotone_tol", 1e-9),
                                     "monotone_tol"),
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
    out.mkdir(parents=True, exist_ok=True)
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
        # each command creates it just before writing, so that a command
        # that fails leaves no directory behind
        out = Path(args.out) if args.out else cfg.output_dir
        handler = {"run": cmd_run, "sweep": cmd_sweep, "check": cmd_check}
        return handler[cfg.command](cfg, out, args.quiet)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MaxslopeError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
