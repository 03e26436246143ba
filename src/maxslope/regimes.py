"""Coupled eps-tau sweeps probing the pinning / flow dichotomy.

A coupling law ties the oscillation scale eps and the time step tau
together; driving both to zero along a level grid and comparing the
resulting trajectories on a common time grid gives an empirical handle on
which limit motion the scheme selects.  "Up to subsequences" is replaced
by a Cauchy criterion across levels: with deterministic tie-breaking the
full sequence converges in every scenario exercised here.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np

from .diagnostics import MONOTONE_TOL, MaximalSlopeReport, maximal_slope_check
from .energy import EnergySpec, gamma_limit
from .errors import ConfigError, MaxslopeError
from .metric import distances
from .scheme import DiscreteTrajectory, SchemeParams, piecewise_constant_many, run_scheme
from .slope import ConditionHReport, check_condition_h

TAU_OF_EPS = "tau_of_eps"
EPS_OF_TAU = "eps_of_tau"


class _CouplingFields(NamedTuple):
    form: str
    lam: float = 1.0
    alpha: float = 1.0


class CouplingLaw(_CouplingFields):
    """Power-law coupling between the two small parameters: a sweep's
    ``coupling`` object in a config, which ``config`` builds; checked on
    every construction.

    ``tau_of_eps``: levels are eps values, tau = lam * eps**alpha.
    ``eps_of_tau``: levels are tau values, eps = lam * tau**alpha.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.form not in (TAU_OF_EPS, EPS_OF_TAU):
            raise ValueError(f"unknown coupling form {self.form!r}")
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        for name in ("lam", "alpha"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        return self

    def resolve(self, level: float) -> tuple[float, float]:
        """Level value -> (eps, tau)."""
        level = float(level)
        if level <= 0:
            raise ValueError("level values must be positive")
        try:
            scaled = self.lam * level ** self.alpha
        except OverflowError:
            raise ValueError(f"lam * level**alpha overflows at level {level:g} "
                             f"with alpha {self.alpha:g}") from None
        return (level, scaled) if self.form == TAU_OF_EPS else (scaled, level)


class LevelResult(NamedTuple):
    eps: float
    tau: float
    status: str                     # "ok" | "error"
    trajectory: DiscreteTrajectory | None = None
    error: str | None = None

    def summary(self) -> dict:
        d = {"eps": self.eps, "tau": self.tau, "status": self.status}
        if self.trajectory is not None:
            traj = self.trajectory
            d["n_steps"] = traj.n_steps
            d["final_point"] = traj.coords[-1].tolist()
            d["final_energy"] = float(traj.step_energies[-1])
            d["total_path_length"] = float(sum(traj.step_distances.tolist()))
        if self.error is not None:
            d["error"] = self.error
        return d


class SweepReport(NamedTuple):
    """Per-level trajectories plus cross-level convergence diagnostics.

    ``pairwise_sup_distances[k]`` is the sup over the common time grid of
    the distance between levels k and k+1; the Cauchy flag requires those
    to be non-increasing with the last one below the sweep tolerance.  A
    sweep compares with no reference curve; ``to_dict`` keeps the key
    ``comparison_to_reference`` as null for the report schema.
    """

    levels: tuple[LevelResult, ...]
    time_grid: tuple[float, ...]
    pairwise_sup_distances: tuple[float, ...]
    cauchy_flag: bool
    limit_candidate: DiscreteTrajectory | None

    def to_dict(self) -> dict:
        return {
            "levels": [lv.summary() for lv in self.levels],
            "time_grid": list(self.time_grid),
            "pairwise_sup_distances": [
                s if math.isfinite(s) else None
                for s in self.pairwise_sup_distances
            ],
            "cauchy_flag": self.cauchy_flag,
            "limit_candidate_level": next(
                (k for k in range(len(self.levels) - 1, -1, -1)
                 if self.levels[k].status == "ok"), None),
            "comparison_to_reference": None,
        }


def run_sweep(spec: EnergySpec, coupling: CouplingLaw, level_grid,
              base_params: SchemeParams, sweep_tol: float = 1e-2) -> SweepReport:
    """One trajectory per level; levels run independently.

    ``level_grid`` must decrease strictly; a level failure is recorded and
    the sweep continues.  The common time grid is the step nodes of the
    coarsest level.
    """
    levels = [float(v) for v in level_grid]
    if not levels:
        raise ValueError("level grid must be nonempty")
    if any(b >= a for a, b in zip(levels, levels[1:])):
        raise ValueError("level grid must be strictly decreasing")
    pairs = [coupling.resolve(v) for v in levels]

    def run_level(pair):
        eps, tau = pair
        try:
            # through the constructor, which checks the level's eps and tau
            params = SchemeParams(**{**base_params._asdict(), "eps": eps, "tau": tau})
            return LevelResult(eps=eps, tau=tau, status="ok",
                               trajectory=run_scheme(spec, params))
        except (MaxslopeError, ValueError) as exc:
            return LevelResult(eps=eps, tau=tau, status="error", error=str(exc))

    results = [run_level(p) for p in pairs]

    horizon = min(
        (lv.trajectory.final_time for lv in results if lv.trajectory is not None),
        default=base_params.horizon_T,
    )
    tau0 = pairs[0][1]
    n0 = int(math.floor(horizon / tau0 + 1e-9))
    grid = np.arange(n0 + 1) * tau0

    def on_grid(traj):
        # the last node n0 tau0 may pass a level's final time n tau by
        # round-off or by the 1e-9 slack of n0: it stands for that time
        return piecewise_constant_many(traj, np.minimum(grid, traj.final_time))

    sups = [
        math.inf if a.trajectory is None or b.trajectory is None
        else float(distances(spec.domain, on_grid(a.trajectory),
                             on_grid(b.trajectory)).max())
        for a, b in zip(results, results[1:])
    ]
    cauchy = bool(
        sups
        and all(math.isfinite(s) for s in sups)
        and all(b <= a + 1e-12 for a, b in zip(sups, sups[1:]))
        and sups[-1] < sweep_tol
    )

    limit = next((lv.trajectory for lv in reversed(results)
                  if lv.trajectory is not None), None)
    return SweepReport(
        levels=tuple(results),
        time_grid=tuple(grid.tolist()),
        pairwise_sup_distances=tuple(sups),
        cauchy_flag=cauchy,
        limit_candidate=limit,
    )


class PipelineResult(NamedTuple):
    sweep: SweepReport
    maximal_slope: MaximalSlopeReport
    condition_h: ConditionHReport | None
    condition_h_waived: bool

    def to_dict(self) -> dict:
        return {
            "sweep": self.sweep.to_dict(),
            "maximal_slope": self.maximal_slope.to_dict(),
            "condition_h": None if self.condition_h is None
            else self.condition_h.to_dict(),
            "condition_h_waived": self.condition_h_waived,
        }


def maximal_slope_pipeline(spec: EnergySpec, coupling: CouplingLaw, levels,
                           base_params: SchemeParams,
                           waive_condition_h: bool = False,
                           monotone_tol: float = MONOTONE_TOL) -> PipelineResult:
    """Sweep, then test the limit candidate against the limit energy.

    Condition-(H) evidence is gathered on the constant sample sequence
    v_n = initial point with eps running down the level grid; families
    that oscillate there fail the evidence, which is attached (and warned
    about) rather than blocking the maximal-slope check — seeing that
    check fail for such families is the point.
    """
    limit_spec = gamma_limit(spec)
    evidence = None
    if not waive_condition_h:
        eps_levels = [coupling.resolve(v)[0] for v in levels]
        v = base_params.initial_point.array
        evidence = check_condition_h(spec, [(e, v) for e in eps_levels], v)
        if not evidence.passed:
            warnings.warn(
                "condition-(H) evidence failed on the sampled sequence; the "
                "maximal-slope conclusion is not expected to hold for this family",
                stacklevel=2,
            )
    else:
        warnings.warn("condition-(H) evidence explicitly waived", stacklevel=2)

    sweep = run_sweep(spec, coupling, levels, base_params)
    if sweep.limit_candidate is None:
        raise MaxslopeError("sweep produced no successful level")
    traj = sweep.limit_candidate
    if traj.n_steps < 2:
        # the metric derivative needs three samples, so two steps
        raise ConfigError(
            f"field 'horizon_T' = {base_params.horizon_T!r} leaves the finest level "
            f"that ran (tau = {traj.tau!r}) {traj.n_steps} step(s), fewer than the "
            f"2 that the maximal-slope check needs")
    report = maximal_slope_check(limit_spec, np.arange(traj.n_steps + 1) * traj.tau,
                                 traj.coords, monotone_tol=monotone_tol)
    return PipelineResult(
        sweep=sweep,
        maximal_slope=report,
        condition_h=evidence,
        condition_h_waived=waive_condition_h,
    )
