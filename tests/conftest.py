"""Shared fixtures, independent oracles and test-only helpers.

The oracles here (brute-force grid prox, central finite differences,
dense quadrature) deliberately bypass the package's own solvers so that
tests compare two independent routes to the same number.  The helpers
(trap points of an oscillatory energy, the distance of a sweep to a
reference curve) build test inputs and read test outputs; no command of
the package needs them.
"""

import math

import numpy as np
import pytest
from hypothesis import strategies as st

from maxslope.config import ExperimentConfig
from maxslope.energy import (
    WIGGLY,
    convex_perturbed,
    eval_many,
    gradient_many,
    quadratic,
    wiggly,
)
from maxslope.metric import Point, SpaceDescriptor, distances
from maxslope.scheme import piecewise_constant_many


@pytest.fixture
def line():
    return SpaceDescriptor(1)


@pytest.fixture
def plane():
    return SpaceDescriptor(2)


@pytest.fixture
def weighted_plane():
    return SpaceDescriptor(2, metric_kind="diagonal_weighted", weights=(4.0, 1.0))


@pytest.fixture
def quad_1d(line):
    return quadratic(line, [1.0], [0.0])


@pytest.fixture
def wiggly_1d(quad_1d):
    return wiggly(quad_1d)


@pytest.fixture
def perturbed_1d(quad_1d):
    return convex_perturbed(quad_1d)


def brute_force_prox_1d(spec, eps, delta, u, radius, step, metric_weight=1.0):
    """Grid argmin of energy(v) + m (v - u)^2 / (2 delta) over [u-R, u+R].

    Independent of the package prox: plain numpy argmin on a dense grid.
    ``metric_weight`` is the weight m of the line's metric.
    """
    grid = np.arange(u - radius, u + radius + step, step)
    obj = (eval_many(spec, eps, grid[:, None])
           + metric_weight * (grid - u) ** 2 / (2.0 * delta))
    return float(grid[np.argmin(obj)])


def prox_objective(spec, eps, deltas, U, V):
    """energy(v) + d^2(v, u) / (2 delta) at each row v of ``V``, from the
    matching row u of ``U`` and step size delta of ``deltas``: the resolvent
    objective, with the energy by ``eval_many``."""
    V = np.asarray(V, dtype=float)
    off = V - np.asarray(U, dtype=float)
    d2 = (spec.domain.metric_weights() * off * off).sum(axis=1)
    return eval_many(spec, eps, V) + d2 / (2.0 * np.asarray(deltas, dtype=float))


def finite_difference_gradient(spec, eps, x, step=1e-5):
    """Central differences, one coordinate at a time."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = step
        g[j] = (eval_many(spec, eps, (x + e)[None, :])[0]
                - eval_many(spec, eps, (x - e)[None, :])[0]) / (2.0 * step)
    return g


def nearest_stable_critical_point(spec, eps, x, span=None):
    """Nearest local minimizer of a 1D energy around the row ``x`` (1,),
    as a row (1,).

    Scans the gradient for sign changes with positive second difference and
    polishes the closest one by bisection.  Used to build trap-point
    sequences for the oscillation families.
    """
    if spec.domain.dimension != 1:
        raise ValueError("critical-point scan implemented for 1D only")
    x0 = float(x[0])
    if span is None:
        span = 8.0 * math.pi * eps if spec.kind == WIGGLY else max(1.0, abs(x0))
    grid = np.linspace(x0 - span, x0 + span, 20001)
    g = gradient_many(spec, eps, grid[:, None])[:, 0]
    sign_change = (g[:-1] < 0) & (g[1:] >= 0)  # minus-to-plus: local minimum
    idx = np.nonzero(sign_change)[0]
    if idx.size == 0:
        raise ValueError(f"no stable critical point within span {span:g} of {x0:g}")
    mids = 0.5 * (grid[idx] + grid[idx + 1])
    best = idx[int(np.argmin(np.abs(mids - x0)))]
    lo, hi = grid[best], grid[best + 1]
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gradient_many(spec, eps, np.array([[mid]]))[0, 0] < 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15 * max(1.0, abs(mid)):
            break
    return np.array([0.5 * (lo + hi)])


def compare_to_reference(report, reference):
    """Sup distance over the common grid between the finest level of the
    sweep ``report`` and a reference curve, given as the coordinates of its
    point at each time."""
    traj = report.limit_candidate
    if traj is None:
        raise ValueError("sweep produced no successful level to compare")
    expected = np.array([reference(t) for t in report.time_grid], dtype=float)
    return float(distances(traj.space, piecewise_constant_many(traj, report.time_grid),
                           expected).max())


def pt(*coords):
    return Point(tuple(float(c) for c in coords))


def parse_config(space=None, energy=None, command=None):
    """``ExperimentConfig.from_dict`` of a run config on a quadratic energy,
    with ``space``, ``energy`` or ``command`` in place of its own."""
    n = (space or {}).get("dimension", 1)
    return ExperimentConfig.from_dict({
        "space": space or {"dimension": n},
        "energy": energy or {"kind": "quadratic", "weights": [1.0] * n,
                             "center": [0.0] * n},
        "command": command or {"run": {"eps": 1.0, "tau": 0.01, "horizon_T": 0.1,
                                       "initial_point": [1.0] * n}}})


def grammar_expressions(numbers, depth=4):
    """Texts of custom_smooth grammar expressions nested at most ``depth``
    deep, with literals drawn from ``numbers``."""
    literal = numbers.map(lambda v: f"({v!r})" if v < 0 else repr(v))
    leaf = st.one_of(st.sampled_from(["x", "eps"]), literal)
    if depth == 0:
        return leaf
    inner = grammar_expressions(numbers, depth - 1)
    return st.one_of(
        leaf,
        st.builds("({} {} {})".format, inner,
                  st.sampled_from(["+", "-", "*", "/", "^", "**"]), inner),
        st.builds("{}({})".format,
                  st.sampled_from(["-", "+", "sin", "cos", "exp", "abs", "Abs"]), inner),
    )
