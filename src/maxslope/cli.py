"""Command-line entry point: ``maxslope run|sweep|check --config PATH``.

Exit codes: 0 success (for ``check``: the check passed) or ``--help``;
1 config error or command-line usage error (argparse's ``usage:`` line and
message go to stderr); 2 solver failure; 3 check ran and failed.  All
artifacts are written with stable key order and round-trip float
formatting so that identical configs produce byte-identical files.  An
artifact that cannot be written, like an output directory that cannot be
made, is a config error that names it.

A cold process pays only for what its command runs.  Imported before
numpy, this module asks numpy's OpenBLAS for one thread (below; a set
``OPENBLAS_NUM_THREADS`` overrides it) and keeps the garbage collector
off the heap that its imports make: unless the process has disabled it,
the collector is paused while they run and then enabled again over a
frozen heap, so that it collects only the command's own objects.  The
handlers that call ``regimes`` or ``slope`` import them, so that a cold
``run`` or ``check dissipation|apriori`` process never loads them, and
the expression compiler (``maxslope.expression``) and the prox's grid
route (``maxslope.grid``) load only for a ``custom_smooth`` energy and
for a coordinate row that takes the grid route.
"""

from __future__ import annotations

import gc
import os
import sys

# numpy's OpenBLAS starts a worker thread at import, which spins for the
# life of the process; the package's BLAS calls (an 8x8 eigvalsh, stacked
# (1, n) @ (n, 1) and the interpolant's (N, K) @ (K,) products) are too
# small to use it.  A cold command process therefore asks for one thread
# before numpy loads.  CPU time of a cold `python -m maxslope.cli` on the
# perfbench workloads at seed 0, two threads -> one (medians of 20 shuffled
# runs each; 2-core VM, Python 3.11.7, numpy 2.4.6): dissipation_check
# 382 -> 247 ms, pinning_run 400 -> 272 ms, numeric_2d_check 394 -> 259 ms,
# at the same wall time.  A user's own OPENBLAS_NUM_THREADS wins, and a
# process that imported numpy first (library use, tests, a benchmark
# harness) is left as it is, so the processes it starts do not inherit
# the setting.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# The same cold process keeps the cyclic garbage collector off its import
# heap: after numpy and the package load, about 22 000 objects are tracked,
# one full collection over them takes 6-10 ms, and interpreter shutdown
# runs several.  So the collector pauses while the modules below import,
# and gc.freeze() then moves everything they made to the permanent
# generation, which neither the command's own collections nor shutdown's
# traverse; the command's own objects are collected as before.  Median
# wall time of a cold `python -m maxslope.cli` on the perfbench workloads
# against no change, 40 shuffled runs a side (2-core VM, Python 3.11.7,
# numpy 2.4.6): pausing then freezing -12 % (pinning_run), -20 %
# (dissipation_check), -13 % (numeric_2d_check); freezing alone -4, -13,
# -15 %; pausing alone, which leaves the whole heap to the first
# collection after it, +5, -5, +3 %.  A user's gc.disable() stays in
# force, and a process that imported numpy first is left as it is.
_GC_PAUSED = "numpy" not in sys.modules and gc.isenabled()
if _GC_PAUSED:
    gc.disable()

import argparse
import functools
import json
from pathlib import Path

import numpy as np

from . import diagnostics, scheme as scheme_mod
from .config import ExperimentConfig
from .energy import gamma_limit
from .errors import CapabilityAbsentError, ConfigError, MaxslopeError
from .scheme import build_interpolant, run_scheme

if _GC_PAUSED:
    gc.freeze()
    gc.enable()

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_CHECK_FAILED = 3


def write_json(obj: dict, path: Path) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2)   # one write, not one per token
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _make_outdir(out: Path) -> None:
    """Create the output directory; a path that cannot be one is a config
    error."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {str(out)!r}: "
                          f"{exc.strerror or exc}") from exc


def _write(writer, obj, path: Path) -> None:
    """``writer(obj, path)``; an artifact that cannot be written is a config
    error that names it, as an output directory that cannot be made is."""
    try:
        writer(obj, path)
    except OSError as exc:
        raise ConfigError(f"cannot write artifact {str(path)!r}: "
                          f"{exc.strerror or exc}") from exc


def _run_with_interpolant(cfg: ExperimentConfig, params):
    traj = run_scheme(cfg.energy, params)
    return traj, build_interpolant(cfg.energy, traj, params.prox_settings,
                                   params.quadrature_nodes_per_step)


def cmd_run(cfg: ExperimentConfig, out: Path, quiet: bool) -> int:
    traj, interp = _run_with_interpolant(cfg, cfg.args["run"])
    _make_outdir(out)
    _write(scheme_mod.trajectory_to_csv, traj, out / "trajectory.csv")
    _write(scheme_mod.interpolant_to_csv, interp, out / "interpolant.csv")

    full = diagnostics.dissipation_identity(interp, 0, traj.n_steps)
    _write(
        write_json,
        {
            "n_steps": traj.n_steps,
            "full_range": full.to_dict(),
            "consecutive_max_abs_residual": float(
                np.abs(diagnostics.step_residuals(interp)).max()),
        },
        out / "dissipation.json",
    )
    if not quiet:
        print(f"run: {traj.n_steps} steps, final energy "
              f"{float(traj.step_energies[-1])!r}, artifacts in {out}")
    return EXIT_OK


def cmd_sweep(cfg: ExperimentConfig, out: Path, quiet: bool) -> int:
    from .regimes import run_sweep

    args = cfg.args
    report = run_sweep(cfg.energy, args["coupling"], args["levels"], args["params"],
                       **args["options"])
    _make_outdir(out)
    for k, level in enumerate(report.levels):
        if level.trajectory is not None:
            _write(scheme_mod.trajectory_to_csv, level.trajectory,
                   out / f"trajectory_level_{k:02d}.csv")
    _write(write_json, report.to_dict(), out / "sweep_report.json")
    if not quiet:
        ok = sum(1 for lv in report.levels if lv.status == "ok")
        print(f"sweep: {ok}/{len(report.levels)} levels ok, "
              f"cauchy={report.cauchy_flag}, artifacts in {out}")
    return EXIT_OK


def _check_dissipation(cfg: ExperimentConfig, args: dict) -> tuple[bool, dict]:
    tol = args["residual_tol"]
    traj, interp = _run_with_interpolant(cfg, args["run"])
    # the residual over steps i..j is R[j] - R[i], so the worst of all N(N+1)/2
    # pairs spans R's minimum and maximum; a constant R keeps the pair (0, 1)
    R = np.concatenate([[0.0], np.cumsum(diagnostics.step_residuals(interp))])
    i, j = sorted((int(R.argmin()), int(R.argmax())))
    worst = diagnostics.dissipation_identity(interp, i, max(j, i + 1))
    passed = abs(worst.residual) < tol
    return passed, {
        "residual_tol": tol,
        "n_pairs": traj.n_steps * (traj.n_steps + 1) // 2,
        "max_abs_residual": abs(worst.residual),
        "worst_pair": worst.to_dict(),
    }


def _check_apriori(cfg: ExperimentConfig, args: dict) -> tuple[bool, dict]:
    _, interp = _run_with_interpolant(cfg, args["run"])
    report = diagnostics.apriori_bounds(interp, **args["options"])
    passed = all([report.dist_bound_ok, report.energy_bound_ok,
                  report.tilde_closeness_ok, report.velocity_energy_ok,
                  report.g_energy_ok])
    return passed, report.to_dict()


def _check_slope_cone(cfg: ExperimentConfig, args: dict) -> tuple[bool, dict]:
    from .slope import check_slope_cone

    eps, x, cone_tol = args["eps"], args["x"], args["cone_tol"]
    count, radius = args["probes"]["count"], args["probes"]["radius"]
    rng = np.random.default_rng(cfg.seed)
    probes = x + rng.uniform(-radius, radius, size=(count, cfg.space.dimension))
    residuals = check_slope_cone(cfg.energy, eps, x, probes)
    k = int(np.argmin(residuals))
    min_res = float(residuals[k])
    return min_res >= -cone_tol, {
        "eps": eps,
        "x": x.tolist(),
        "cone_tol": cone_tol,
        "n_probes": count,
        "min_residual": min_res,
        "witness": probes[k].tolist(),
    }


def _limit_family(cfg: ExperimentConfig, ctype: str) -> None:
    """``check ctype`` compares against the limit energy as eps -> 0; an
    energy kind without one makes the config an error."""
    try:
        gamma_limit(cfg.energy)
    except CapabilityAbsentError as exc:
        raise ConfigError(f"check {ctype} compares against the limit family as "
                          f"eps -> 0, which energy kind {cfg.energy.kind!r} does "
                          f"not declare") from exc


def _check_condition_h(cfg: ExperimentConfig, args: dict) -> tuple[bool, dict]:
    from .slope import check_condition_h

    _limit_family(cfg, "condition_h")
    report = check_condition_h(
        cfg.energy, args["sequence"], args["limit_v"], **args["options"])
    return report.passed, report.to_dict()


def _check_maximal_slope(cfg: ExperimentConfig, args: dict) -> tuple[bool, dict]:
    import warnings

    from .regimes import maximal_slope_pipeline

    _limit_family(cfg, "maximal_slope")     # before the sweep
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = maximal_slope_pipeline(
            cfg.energy, args["coupling"], args["levels"], args["params"],
            **args["options"])
    passed = result.maximal_slope.passed(args["check_tol"])
    d = result.to_dict()
    d["check_tol"] = args["check_tol"]
    return passed, d


_CHECKERS = {
    "dissipation": _check_dissipation,
    "apriori": _check_apriori,
    "slope_cone": _check_slope_cone,
    "condition_h": _check_condition_h,
    "maximal_slope": _check_maximal_slope,
}


def cmd_check(cfg: ExperimentConfig, out: Path, quiet: bool) -> int:
    ctype = cfg.args["type"]
    passed, report = _CHECKERS[ctype](cfg, cfg.args)
    _make_outdir(out)
    _write(write_json, {"check": ctype, "passed": passed, "report": report},
           out / f"check_{ctype}.json")
    if not quiet:
        print(f"check {ctype}: {'PASS' if passed else 'FAIL'}, report in {out}")
    return EXIT_OK if passed else EXIT_CHECK_FAILED


class _Parser(argparse.ArgumentParser):
    """argparse's parser, with a usage error exiting EXIT_CONFIG: bad input
    from outside the program, like a bad config."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    """One flat parser: the subcommand is the first positional."""
    parser = _Parser(
        prog="maxslope",
        description="Minimizing-movement laboratory: schemes, sweeps and checks.",
    )
    parser.add_argument("subcommand", choices=("run", "sweep", "check"),
                        help="the command that the config declares")
    parser.add_argument("--config", required=True, help="JSON experiment config")
    parser.add_argument("--out", default=None, help="override output directory")
    parser.add_argument("--quiet", action="store_true",
                        help="print no summary line")
    return parser


# built by the first main call, not at import, and reused by later calls
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
        # a non-finite value ends in one error line where it matters, so
        # numpy's floating-point warnings are not printed
        with np.errstate(all="ignore"):
            return handler[cfg.command](cfg, out, args.quiet)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MaxslopeError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
