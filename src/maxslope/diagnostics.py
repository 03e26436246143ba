"""Identity and bound checks on trajectories and limit curves.

Covers the exact dissipation identity of the variational interpolant
(with the g^2 quadrature over its steps), the a-priori bound suite behind
it, metric-derivative estimation for sampled curves and the maximal-slope
inequality checker.  Each check on a run reads the trajectory as its
interpolant's ``parent``, and the limit curve's space as the limit
energy's ``domain``.  A sampled curve is a pair of arrays: its increasing
times (K,) and its points (K, n), as a trajectory's node times i * tau and
its ``coords``.  All a.e. statements are asserted on sample grids only;
grids avoid step nodes where the relevant functions jump.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from .energy import LIMIT_EPS, EnergySpec, eval_many, exact_slopes
from .errors import CoverageGapError
from .metric import SpaceDescriptor, distances, squared_distances
from .scheme import VariationalInterpolant

# Sample times of the maximal-slope check's interval grid: all pairs of an
# evenly spaced grid of this many times over the curve.
INTERVAL_GRID_POINTS = 11
# Round-off allowed in a rise of the limit energy between samples.
MONOTONE_TOL = 1e-9


# ---------------------------------------------------------------------------
# Dissipation identity
# ---------------------------------------------------------------------------

class DissipationReport(NamedTuple):
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
        return self._asdict()


def dissipation_identity(interpolant: VariationalInterpolant,
                         i: int, j: int) -> DissipationReport:
    traj = interpolant.parent
    if not (0 <= i < j <= traj.n_steps):
        raise CoverageGapError(f"need 0 <= i < j <= {traj.n_steps}, got ({i}, {j})")
    lhs = float(traj.step_energies[i] - traj.step_energies[j])
    d = traj.step_distances[i:j]
    velocity_integral = 0.5 * float((d * d).sum()) / traj.tau
    g = interpolant.g_values[i:j]
    g_integral = 0.5 * float((g * g @ interpolant.weights).sum())
    return DissipationReport(
        i=i, j=j, lhs=lhs,
        velocity_integral=velocity_integral,
        g_integral=g_integral,
        residual=lhs - velocity_integral - g_integral,
    )


def step_residuals(interpolant: VariationalInterpolant) -> np.ndarray:
    """``dissipation_identity(interpolant, i, i + 1).residual`` for every
    step i, bit for bit, as an (N,) array.  The identity telescopes: up to
    round-off the residual over steps i..j is the sum of entries i..j-1."""
    traj = interpolant.parent
    E, d, G = traj.step_energies, traj.step_distances, interpolant.g_values
    # stacked (1, K) @ (K,) products sum each step in dissipation_identity's
    # order; (G * G) @ w and einsum differ from it in the last bit
    g = 0.5 * np.matmul((G * G)[:, None, :], interpolant.weights)[:, 0]
    return E[:-1] - E[1:] - 0.5 * (d * d) / traj.tau - g


# ---------------------------------------------------------------------------
# A-priori bound suite
# ---------------------------------------------------------------------------

class AprioriReport(NamedTuple):
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
        return self._asdict()


def apriori_bounds(interpolant: VariationalInterpolant,
                   quad_tol: float = 1e-8) -> AprioriReport:
    traj = interpolant.parent
    space, X = traj.space, traj.coords
    dist_constant = float(squared_distances(space, X, space.base_point.array).max())
    energy_constant = float(np.abs(traj.step_energies).max())
    # closeness of the two interpolants at the quadrature nodes
    tilde_constant = float(
        (squared_distances(space, interpolant.values, X[1:, None, :]) / traj.tau).max())

    # half-integrals, matching the dissipation-report normalization; the
    # exact identity splits the energy drop into exactly these two terms,
    # so each one is bounded by the drop
    full = dissipation_identity(interpolant, 0, traj.n_steps)
    drop = full.lhs
    velocity_margin = drop - full.velocity_integral
    g_margin = drop - full.g_integral
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
        velocity_integral_total=full.velocity_integral,
        g_integral_total=full.g_integral,
        velocity_margin=velocity_margin,
        g_margin=g_margin,
    )


# ---------------------------------------------------------------------------
# Metric derivative of a sampled curve
# ---------------------------------------------------------------------------

def metric_derivative(times, coords, space: SpaceDescriptor) -> np.ndarray:
    """Symmetric difference quotients d(v(t-h), v(t+h)) / (t+h - (t-h)).

    One-sided quotients at the two ends.  ``times`` (K,) must increase
    strictly, with K >= 3; ``coords`` (K, n) holds the curve's points.
    Returns the (K,) quotients.
    """
    times, coords = np.asarray(times, dtype=float), np.asarray(coords, dtype=float)
    if len(times) < 3 or len(coords) != len(times):
        raise ValueError("need at least 3 samples, one point per time")
    if not (times[1:] > times[:-1]).all():
        raise ValueError("sample times must be strictly increasing (no duplicates)")
    k = np.arange(len(times))
    lo, hi = np.maximum(k - 1, 0), np.minimum(k + 1, len(times) - 1)
    return distances(space, coords[lo], coords[hi]) / (times[hi] - times[lo])


# ---------------------------------------------------------------------------
# Maximal-slope inequality
# ---------------------------------------------------------------------------

class MaximalSlopeReport(NamedTuple):
    """Per-interval slack of the energy-dissipation inequality.

    slack(s, t) = [phi(u(s)) - phi(u(t))] - 0.5 int |u'|^2 - 0.5 int slope^2.
    A curve of maximal slope has slack >= 0 on every interval with the
    energy along the curve non-increasing.  The slope is exact at every
    sample, so no time is excluded; ``to_dict`` keeps the key
    ``excluded_times`` as ``[]`` for the report schema.
    """

    sample_times: tuple[float, ...]
    varphi_values: tuple[float, ...]
    per_interval: tuple[tuple[float, float, float, float, float], ...]
    monotone_ok: bool
    min_slack: float

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
            "excluded_times": [],
        }


def _cumulative_trapezoid(y, times):
    """Trapezoid integrals of ``y`` from ``times[0]`` to each sample time,
    in the summation order of scipy's ``cumulative_trapezoid``."""
    return np.concatenate(
        [[0.0], np.cumsum(np.diff(times) * (y[1:] + y[:-1]) / 2.0)])


def maximal_slope_check(spec_limit: EnergySpec, times, coords,
                        monotone_tol: float = MONOTONE_TOL) -> MaximalSlopeReport:
    """Check the energy-dissipation inequality along a sampled curve.

    The curve is sampled at the increasing ``times`` (K,) with points
    ``coords`` (K, n) of the limit energy's space ``spec_limit.domain``.
    Speed comes from symmetric difference quotients in its metric,
    slope from the limit energy's exact formula, integrals from the
    trapezoid rule on the sample grid.  The intervals (s, t) are all pairs
    of ``INTERVAL_GRID_POINTS`` evenly spaced times, snapped to sample
    times.
    """
    times, coords = np.asarray(times, dtype=float), np.asarray(coords, dtype=float)
    speeds = metric_derivative(times, coords, spec_limit.domain)
    varphi = eval_many(spec_limit, LIMIT_EPS, coords)
    slopes = exact_slopes(spec_limit, LIMIT_EPS, coords)
    speed_cum = _cumulative_trapezoid(speeds * speeds, times)
    slope_cum = _cumulative_trapezoid(slopes * slopes, times)

    # interval ends: the sample nearest to each time of an even grid
    ends = [int(np.argmin(np.abs(times - t)))
            for t in np.linspace(times[0], times[-1], INTERVAL_GRID_POINTS)]
    per_interval = []
    min_slack = math.inf
    for a, b in itertools.combinations(ends, 2):
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
    )

