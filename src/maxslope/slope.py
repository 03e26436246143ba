"""Descending-slope estimation and the hypothesis checkers built on it.

The descending slope limsup_{y->x} (f(x) - f(y))^+ / d(x, y) is estimated
by sampling the spheres of the three finest radii of ``DEFAULT_RADII``
with a deterministic direction set, and returned as a float.  The
estimator bounds the slope from below; it appears on the dominated side
of every check that consumes it, so a lower bound is the safe direction.
``check_condition_h`` and ``check_slope_cone`` are falsification tools: a
pass on sampled data is evidence, a fail carries a concrete witness.
``check_condition_h`` compares a family with its own Gamma-limit,
``gamma_limit(family)``.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .energy import LIMIT_EPS, EnergySpec, eval_many, exact_slopes, gamma_limit
from .errors import SequenceNotConvergentError
from .metric import SpaceDescriptor, distances

DEFAULT_RADII = tuple(0.1 * 2.0 ** (-k) for k in range(13))
# Sampled directions per radius beyond the axes (2D ring, nD cloud).
DIRECTIONS_PER_RADIUS = 256
# Condition (H) takes the slope liminf over this many last sequence points.
LIMINF_TAIL = 3


@functools.cache
def _direction_set(space: SpaceDescriptor) -> np.ndarray:
    """Deterministic unit directions (unit in the space's metric), made
    once per space and read-only.

    1D: both signs.  2D: equally spaced angles plus the axes.  Higher
    dimensions: axes plus a fixed pseudorandom sphere sample; coverage is
    coarser there, which only weakens the lower bound.
    """
    n, per_radius = space.dimension, DIRECTIONS_PER_RADIUS
    if n == 1:
        dirs = np.array([[1.0], [-1.0]])
    elif n == 2:
        angles = 2.0 * math.pi * np.arange(per_radius) / per_radius
        ring = np.column_stack([np.cos(angles), np.sin(angles)])
        dirs = np.vstack([np.eye(2), -np.eye(2), ring])
    else:
        rng = np.random.default_rng(1234)  # fixed: reproducible direction set
        cloud = rng.standard_normal((per_radius, n))
        cloud /= np.linalg.norm(cloud, axis=1, keepdims=True)
        dirs = np.vstack([np.eye(n), -np.eye(n), cloud])
    norms = np.sqrt((space.metric_weights() * dirs * dirs).sum(axis=1))
    dirs = dirs / norms[:, None]
    dirs.flags.writeable = False
    return dirs


def estimate_slope(spec: EnergySpec, eps: float, x: np.ndarray) -> float:
    """Sampled descending slope at the coordinate row ``x`` (n,).

    Each of the three finest radii r of ``DEFAULT_RADII`` gives the
    supremum of (f(x) - f(y))^+ / r over the direction set scaled to
    metric radius r; the value is the largest of the three.  One
    ``eval_many`` call evaluates the probes of all three radii.
    """
    x = np.asarray(x, dtype=float)
    if eps <= 0:
        raise ValueError("eps must be positive")
    dirs = _direction_set(spec.domain)
    fx = float(eval_many(spec, eps, x[None, :])[0])
    radii = DEFAULT_RADII[-3:]
    probes = x + np.array(radii)[:, None, None] * dirs
    vals = eval_many(spec, eps, probes.reshape(-1, dirs.shape[1]))
    drops = (fx - vals).reshape(len(radii), -1).max(axis=1).tolist()
    return max(max(0.0, drop / r) for drop, r in zip(drops, radii))


# ---------------------------------------------------------------------------
# Condition (H): joint energy continuity + slope lower semicontinuity
# ---------------------------------------------------------------------------

class ConditionHReport(NamedTuple):
    """Empirical verdict on one sampled sequence (eps_n, v_n) -> v.

    ``passed`` iff the terminal energy gap is below ``h_tol`` and the
    tail-infimum of sampled slopes dominates the slope at the limit up to
    ``h_tol``.  A fail is a counter-witness; a pass is evidence only.
    """

    sequence: tuple[tuple[float, tuple[float, ...]], ...]
    limit_v: tuple[float, ...]
    energy_gap: float
    slope_liminf_estimate: float
    slope_at_limit: float
    passed: bool
    slopes_along_sequence: tuple[float, ...] = ()

    def to_dict(self) -> dict:
        return {
            "sequence": [[e, list(c)] for e, c in self.sequence],
            "limit_v": list(self.limit_v),
            "energy_gap": self.energy_gap,
            "slope_liminf_estimate": self.slope_liminf_estimate,
            "slope_at_limit": self.slope_at_limit,
            "passed": self.passed,
            "slopes_along_sequence": list(self.slopes_along_sequence),
        }


def check_condition_h(family: EnergySpec, sequence, limit_v,
                      h_tol: float = 1e-3,
                      seq_tol: float = 1e-2) -> ConditionHReport:
    """Refute (or fail to refute) the continuity condition on one sequence;
    a family without a Gamma-limit raises ``CapabilityAbsentError``.

    ``sequence`` is a list of (eps_n, v_n) with eps_n decreasing and v_n a
    coordinate row (n,); the rows must approach the row ``limit_v``:
    distances non-increasing within ``seq_tol`` slack and terminal
    distance below ``seq_tol``.
    """
    limit = gamma_limit(family)
    seq = [(float(e), np.asarray(v, dtype=float)) for e, v in sequence]
    if not seq:
        raise ValueError("sequence must be nonempty")
    limit_v = np.asarray(limit_v, dtype=float)
    dists = distances(family.domain, [v for _, v in seq], limit_v).tolist()
    if dists[-1] > seq_tol:
        raise SequenceNotConvergentError(
            f"the last point of 'sequence' is at distance {dists[-1]:g} from "
            f"'limit_v', more than seq_tol={seq_tol:g}"
        )
    if any(b > a + seq_tol for a, b in zip(dists, dists[1:])):
        raise SequenceNotConvergentError(
            f"the distances of 'sequence' to 'limit_v' are not decreasing "
            f"within seq_tol={seq_tol:g}"
        )

    slopes = tuple(estimate_slope(family, e, v) for e, v in seq)
    slope_liminf = min(slopes[-LIMINF_TAIL:])
    s_limit = estimate_slope(limit, LIMIT_EPS, limit_v)
    e_last, v_last = seq[-1]
    energy_gap = abs(float(eval_many(family, e_last, v_last[None, :])[0])
                     - float(eval_many(limit, LIMIT_EPS, limit_v[None, :])[0]))
    passed = energy_gap < h_tol and slope_liminf >= s_limit - h_tol
    return ConditionHReport(
        sequence=tuple((e, tuple(v.tolist())) for e, v in seq),
        limit_v=tuple(limit_v.tolist()),
        energy_gap=energy_gap,
        slope_liminf_estimate=slope_liminf,
        slope_at_limit=s_limit,
        passed=passed,
        slopes_along_sequence=slopes,
    )


# ---------------------------------------------------------------------------
# Slope Cone Property
# ---------------------------------------------------------------------------

def check_slope_cone(spec: EnergySpec, eps: float, x, probes) -> np.ndarray:
    """Residuals f(y) - f(x) + d(x, y) * slope(x) for each row y of the
    (m, n) array ``probes``, at the coordinate row ``x`` (n,); returns
    shape (m,).

    The cone property holds on the probes iff all residuals are >= 0 (up
    to the caller's tolerance).
    """
    x = np.asarray(x, dtype=float)
    fx = float(eval_many(spec, eps, x[None, :])[0])
    s = float(exact_slopes(spec, eps, x[None, :])[0])
    if not (math.isfinite(fx) and math.isfinite(s)):
        raise ValueError("cone check requires finite energy and slope at x")
    probes = np.asarray(probes, dtype=float)
    if not np.isfinite(probes).all():
        raise ValueError("probe points must be finite")
    return eval_many(spec, eps, probes) - fx + distances(spec.domain, x, probes) * s
