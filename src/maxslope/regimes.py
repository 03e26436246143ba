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
from dataclasses import dataclass, replace
from typing import Callable

from .diagnostics import MaximalSlopeReport, maximal_slope_check, trajectory_as_curve
from .energy import EnergySpec, gamma_limit
from .errors import ConfigError, MaxslopeError
from .metric import Point, as_floats, distance
from .scheme import DiscreteTrajectory, SchemeParams, piecewise_constant, run_scheme
from .slope import ConditionHReport, check_condition_h

TAU_OF_EPS = "tau_of_eps"
EPS_OF_TAU = "eps_of_tau"


@dataclass(frozen=True)
class CouplingLaw:
    """Power-law coupling between the two small parameters.

    ``tau_of_eps``: levels are eps values, tau = lam * eps**alpha.
    ``eps_of_tau``: levels are tau values, eps = lam * tau**alpha.
    """

    form: str
    lam: float = 1.0
    alpha: float = 1.0

    def __post_init__(self):
        if self.form not in (TAU_OF_EPS, EPS_OF_TAU):
            raise ValueError(f"unknown coupling form {self.form!r}")
        if self.lam <= 0:
            raise ValueError("lam must be positive")

    def resolve(self, level: float) -> tuple[float, float]:
        """Level value -> (eps, tau)."""
        level = float(level)
        if level <= 0:
            raise ValueError("level values must be positive")
        if self.form == TAU_OF_EPS:
            return level, self.lam * level ** self.alpha
        return self.lam * level ** self.alpha, level

    def to_dict(self) -> dict:
        return {"form": self.form, "lam": self.lam, "alpha": self.alpha}

    @classmethod
    def from_dict(cls, d: dict) -> "CouplingLaw":
        try:
            form = d["form"]
        except KeyError as exc:
            raise ConfigError("coupling config missing field 'form'") from exc
        return cls(form=form, lam=as_floats([d.get("lam", 1.0)], "lam")[0],
                   alpha=as_floats([d.get("alpha", 1.0)], "alpha")[0])


@dataclass(frozen=True)
class LevelResult:
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


@dataclass(frozen=True)
class SweepReport:
    """Per-level trajectories plus cross-level convergence diagnostics.

    ``pairwise_sup_distances[k]`` is the sup over the common time grid of
    the distance between levels k and k+1; the Cauchy flag requires those
    to be non-increasing with the last one below the sweep tolerance.
    """

    levels: tuple[LevelResult, ...]
    time_grid: tuple[float, ...]
    pairwise_sup_distances: tuple[float, ...]
    cauchy_flag: bool
    limit_candidate: DiscreteTrajectory | None
    comparison_to_reference: float | None = None

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
            "comparison_to_reference": self.comparison_to_reference,
        }


def run_sweep(spec: EnergySpec, coupling: CouplingLaw, level_grid,
              base_params: SchemeParams, sweep_tol: float = 1e-2,
              reference: Callable[[float], Point] | None = None) -> SweepReport:
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
            params = replace(base_params, eps=eps, tau=tau)
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
    grid = tuple(k * tau0 for k in range(n0 + 1))

    sups = []
    for a, b in zip(results, results[1:]):
        if a.trajectory is None or b.trajectory is None:
            sups.append(math.inf)
            continue
        sups.append(max(
            distance(spec.domain, piecewise_constant(a.trajectory, t),
                     piecewise_constant(b.trajectory, t))
            for t in grid
        ))
    cauchy = bool(
        sups
        and all(math.isfinite(s) for s in sups)
        and all(b <= a * 1.0 + 1e-12 for a, b in zip(sups, sups[1:]))
        and sups[-1] < sweep_tol
    )

    limit = next((lv.trajectory for lv in reversed(results)
                  if lv.trajectory is not None), None)
    report = SweepReport(
        levels=tuple(results),
        time_grid=grid,
        pairwise_sup_distances=tuple(sups),
        cauchy_flag=cauchy,
        limit_candidate=limit,
    )
    if reference is not None and limit is not None:
        report = replace(report,
                         comparison_to_reference=compare_to_reference(report, reference))
    return report


def compare_to_reference(report: SweepReport,
                         reference: Callable[[float], Point]) -> float:
    """Sup distance over the common grid between the finest level and a
    reference curve."""
    traj = report.limit_candidate
    if traj is None:
        raise ValueError("sweep produced no successful level to compare")
    space = traj.space
    return max(
        distance(space, piecewise_constant(traj, t), reference(t))
        for t in report.time_grid
    )


@dataclass(frozen=True)
class PipelineResult:
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
                           monotone_tol: float = 1e-9) -> PipelineResult:
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
        seq = [(e, base_params.initial_point) for e in eps_levels]
        evidence = check_condition_h(spec, limit_spec, seq,
                                     base_params.initial_point)
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
    curve = trajectory_as_curve(sweep.limit_candidate)
    report = maximal_slope_check(limit_spec, curve, spec.domain,
                                 monotone_tol=monotone_tol)
    return PipelineResult(
        sweep=sweep,
        maximal_slope=report,
        condition_h=evidence,
        condition_h_waived=waive_condition_h,
    )
