"""Identity and bound checks on trajectories and limit curves.

Covers the exact dissipation identity of the variational interpolant,
the a-priori bound suite behind it, metric-derivative estimation for
sampled curves, the maximal-slope inequality checker, and the
energy-monotonicity check along limit curves.  All a.e. statements are
asserted on sample grids only; grids avoid step nodes where the relevant
functions jump.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import EnergySpec, evaluate
from .errors import CoverageGapError
from .metric import Point, SpaceDescriptor, distance, squared_distance
from .scheme import (
    DiscreteTrajectory,
    VariationalInterpolant,
    g_squared_integral,
)
from .slope import DEFAULT_RADII, estimate_slope, slope_value


# ---------------------------------------------------------------------------
# Dissipation identity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DissipationReport:
    """Both sides of the interpolant dissipation identity over steps i..j.

    lhs = energy(u^i) - energy(u^j); the two integrals are half the
    squared discrete speed (exact: the speed is piecewise constant) and
    half the squared scaled displacement g (per-step Gauss quadrature).
    """

    i: int
    j: int
    lhs: float
    velocity_integral: float
    g_integral: float
    residual: float

    def to_dict(self) -> dict:
        return {
            "i": self.i,
            "j": self.j,
            "lhs": self.lhs,
            "velocity_integral": self.velocity_integral,
            "g_integral": self.g_integral,
            "residual": self.residual,
        }


def dissipation_identity(spec: EnergySpec, traj: DiscreteTrajectory,
                         interpolant: VariationalInterpolant,
                         i: int, j: int) -> DissipationReport:
    if not (0 <= i < j <= traj.n_steps):
        raise CoverageGapError(f"need 0 <= i < j <= {traj.n_steps}, got ({i}, {j})")
    if interpolant.parent is not traj:
        raise CoverageGapError("interpolant was built for a different trajectory")
    lhs = traj.step_energies[i] - traj.step_energies[j]
    d = np.asarray(traj.step_distances[i:j])
    velocity_integral = 0.5 * float((d * d).sum()) / traj.tau
    g_integral = 0.5 * g_squared_integral(interpolant, i, j)
    return DissipationReport(
        i=i, j=j, lhs=lhs,
        velocity_integral=velocity_integral,
        g_integral=g_integral,
        residual=lhs - velocity_integral - g_integral,
    )


# ---------------------------------------------------------------------------
# A-priori bound suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AprioriReport:
    """Empirical constants and flags for the a-priori bound family.

    ``C`` is the smallest single constant making all five bounds hold on
    this run: d^2(u^i, u*) <= C, |energy(u^i)| <= C, d^2(interp, pwc) <=
    C*tau, and both halved square integrals <= energy drop <= C.  The two
    ``*_energy_ok`` flags compare the half-integrals against the actual
    drop (up to quadrature tolerance); the other flags record finiteness
    of their empirical constants.
    """

    C: float
    dist_bound_ok: bool
    energy_bound_ok: bool
    tilde_closeness_ok: bool
    velocity_energy_ok: bool
    g_energy_ok: bool
    dist_constant: float
    energy_constant: float
    tilde_constant: float
    energy_drop: float
    velocity_integral_total: float
    g_integral_total: float
    velocity_margin: float
    g_margin: float

    def to_dict(self) -> dict:
        return {
            "C": self.C,
            "dist_bound_ok": self.dist_bound_ok,
            "energy_bound_ok": self.energy_bound_ok,
            "tilde_closeness_ok": self.tilde_closeness_ok,
            "velocity_energy_ok": self.velocity_energy_ok,
            "g_energy_ok": self.g_energy_ok,
            "dist_constant": self.dist_constant,
            "energy_constant": self.energy_constant,
            "tilde_constant": self.tilde_constant,
            "energy_drop": self.energy_drop,
            "velocity_integral_total": self.velocity_integral_total,
            "g_integral_total": self.g_integral_total,
            "velocity_margin": self.velocity_margin,
            "g_margin": self.g_margin,
        }


def apriori_bounds(spec: EnergySpec, traj: DiscreteTrajectory,
                   interpolant: VariationalInterpolant,
                   horizon_T: float | None = None,
                   quad_tol: float = 1e-8) -> AprioriReport:
    space = traj.space
    u_star = space.base_point
    pts = traj.points
    dist_constant = max(squared_distance(space, p, u_star) for p in pts)
    energy_constant = max(abs(e) for e in traj.step_energies)

    # closeness of the two interpolants at the quadrature nodes
    tilde_constant = 0.0
    N, K = interpolant.node_times.shape
    for i in range(N):
        right = pts[i + 1]
        for k in range(K):
            d2 = squared_distance(space, interpolant.value_at(i, k), right)
            tilde_constant = max(tilde_constant, d2 / traj.tau)

    # half-integrals, matching the dissipation-report normalization; the
    # exact identity splits the energy drop into exactly these two terms,
    # so each one is bounded by the drop
    d = np.asarray(traj.step_distances)
    velocity_total = 0.5 * float((d * d).sum()) / traj.tau
    g_total = 0.5 * g_squared_integral(interpolant, 0, traj.n_steps)
    drop = traj.step_energies[0] - traj.step_energies[-1]

    velocity_margin = drop - velocity_total
    g_margin = drop - g_total
    C = max(dist_constant, energy_constant, tilde_constant, drop, 0.0)
    return AprioriReport(
        C=C,
        dist_bound_ok=math.isfinite(dist_constant),
        energy_bound_ok=math.isfinite(energy_constant),
        tilde_closeness_ok=math.isfinite(tilde_constant),
        velocity_energy_ok=velocity_margin >= -quad_tol,
        g_energy_ok=g_margin >= -quad_tol,
        dist_constant=dist_constant,
        energy_constant=energy_constant,
        tilde_constant=tilde_constant,
        energy_drop=drop,
        velocity_integral_total=velocity_total,
        g_integral_total=g_total,
        velocity_margin=velocity_margin,
        g_margin=g_margin,
    )


# ---------------------------------------------------------------------------
# Metric derivative of a sampled curve
# ---------------------------------------------------------------------------

def metric_derivative(samples, space: SpaceDescriptor) -> list[tuple[float, float]]:
    """Symmetric difference quotients d(v(t-h), v(t+h)) / (t+h - (t-h)).

    One-sided quotients at the two ends.  ``samples`` is a time-sorted
    list of (t, Point) with at least three entries and distinct times.
    """
    samples = list(samples)
    if len(samples) < 3:
        raise ValueError("need at least 3 samples")
    times = [float(t) for t, _ in samples]
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("sample times must be strictly increasing (no duplicates)")
    pts = [p for _, p in samples]
    out = []
    for k in range(len(samples)):
        if k == 0:
            lo, hi = 0, 1
        elif k == len(samples) - 1:
            lo, hi = k - 1, k
        else:
            lo, hi = k - 1, k + 1
        out.append(
            (times[k], distance(space, pts[lo], pts[hi]) / (times[hi] - times[lo]))
        )
    return out


# ---------------------------------------------------------------------------
# Maximal-slope inequality
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MaximalSlopeReport:
    """Per-interval slack of the energy-dissipation inequality.

    slack(s, t) = [phi(u(s)) - phi(u(t))] - 0.5 int |u'|^2 - 0.5 int slope^2.
    A curve of maximal slope has slack >= 0 on every interval with the
    energy along the curve non-increasing.
    """

    sample_times: tuple[float, ...]
    varphi_values: tuple[float, ...]
    per_interval: tuple[tuple[float, float, float, float, float], ...]
    monotone_ok: bool
    min_slack: float
    excluded_times: tuple[float, ...] = ()

    def passed(self, check_tol: float) -> bool:
        return self.monotone_ok and self.min_slack >= -check_tol

    def to_dict(self) -> dict:
        return {
            "sample_times": list(self.sample_times),
            "varphi_values": list(self.varphi_values),
            "per_interval": [
                {"s": s, "t": t, "lhs": lhs, "rhs": rhs, "slack": slack}
                for s, t, lhs, rhs, slack in self.per_interval
            ],
            "monotone_ok": self.monotone_ok,
            "min_slack": self.min_slack,
            "excluded_times": list(self.excluded_times),
        }


def _cumulative_trapezoid(y, times):
    """Trapezoid integrals of ``y`` from ``times[0]`` to each sample time,
    in the summation order of scipy's ``cumulative_trapezoid``."""
    return np.concatenate(
        [[0.0], np.cumsum(np.diff(times) * (y[1:] + y[:-1]) / 2.0)])


def maximal_slope_check(spec_limit: EnergySpec, curve, space: SpaceDescriptor,
                        slope_schedule=DEFAULT_RADII, interval_grid=None,
                        monotone_tol: float = 1e-9, limit_eps: float = 1.0,
                        use_exact_slope: bool = True) -> MaximalSlopeReport:
    """Check the energy-dissipation inequality along a sampled curve.

    ``curve`` is a time-sorted list of (t, Point).  Speed comes from
    symmetric difference quotients, slope from the limit energy's exact
    formula (or the sampled estimator when ``use_exact_slope`` is off,
    excluding nodes whose estimate does not converge), integrals from the
    trapezoid rule on the sample grid.  ``interval_grid`` is a list of
    (s, t) pairs, snapped to sample times; default is all pairs from an
    11-point uniform grid.
    """
    curve = [(float(t), p) for t, p in curve]
    times = np.array([t for t, _ in curve])
    speeds = np.array([v for _, v in metric_derivative(curve, space)])
    varphi = np.array([evaluate(spec_limit, limit_eps, p) for _, p in curve])

    excluded = []
    slopes = np.empty(len(curve))
    for k, (t, p) in enumerate(curve):
        if use_exact_slope:
            slopes[k] = slope_value(spec_limit, limit_eps, p,
                                    schedule=slope_schedule)
        else:
            est = estimate_slope(spec_limit, limit_eps, p, schedule=slope_schedule)
            if not est.converged:
                excluded.append(t)
                slopes[k] = math.nan
            else:
                slopes[k] = est.value
    if excluded:
        good = ~np.isnan(slopes)
        slopes[~good] = np.interp(times[~good], times[good], slopes[good])

    speed_cum = _cumulative_trapezoid(speeds * speeds, times)
    slope_cum = _cumulative_trapezoid(slopes * slopes, times)

    if interval_grid is None:
        grid_times = np.linspace(times[0], times[-1], 11)
        interval_grid = [(s, t) for a, s in enumerate(grid_times)
                         for t in grid_times[a + 1:]]

    def snap(t):
        return int(np.argmin(np.abs(times - t)))

    per_interval = []
    min_slack = math.inf
    for s, t in interval_grid:
        a, b = snap(s), snap(t)
        if a >= b:
            continue
        lhs = float(varphi[a] - varphi[b])
        rhs = 0.5 * float(speed_cum[b] - speed_cum[a]) \
            + 0.5 * float(slope_cum[b] - slope_cum[a])
        slack = lhs - rhs
        min_slack = min(min_slack, slack)
        per_interval.append((float(times[a]), float(times[b]), lhs, rhs, slack))

    monotone_ok = bool(np.all(np.diff(varphi) <= monotone_tol))
    return MaximalSlopeReport(
        sample_times=tuple(times.tolist()),
        varphi_values=tuple(varphi.tolist()),
        per_interval=tuple(per_interval),
        monotone_ok=monotone_ok,
        min_slack=min_slack,
        excluded_times=tuple(excluded),
    )


def energy_monotonicity_along_limit(spec_limit: EnergySpec, curve,
                                    check_tol: float = 1e-9,
                                    limit_eps: float = 1.0) -> tuple[bool, float]:
    """Is energy(u(t)) <= energy(u(0)) (within tol) at all sample times?

    Returns (verdict, worst margin) where margin = energy(u(0)) - energy(u(t))
    minimized over the samples (negative margin means an increase).
    """
    curve = list(curve)
    if not curve:
        raise ValueError("curve must be nonempty")
    e0 = evaluate(spec_limit, limit_eps, curve[0][1])
    worst = min(e0 - evaluate(spec_limit, limit_eps, p) for _, p in curve)
    return worst >= -check_tol, worst


def trajectory_as_curve(traj: DiscreteTrajectory) -> list[tuple[float, Point]]:
    """Broken-line view of a trajectory: its nodes as (t, point) samples."""
    return [(i * traj.tau, p) for i, p in enumerate(traj.points)]
