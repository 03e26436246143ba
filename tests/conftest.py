"""Shared fixtures and independent oracles.

The oracles here (brute-force grid prox, central finite differences,
dense quadrature) deliberately bypass the package's own solvers so that
tests compare two independent routes to the same number.
"""

import numpy as np
import pytest
from hypothesis import strategies as st

from maxslope.config import ExperimentConfig
from maxslope.energy import eval_many, quadratic, wiggly, convex_perturbed
from maxslope.metric import Point, SpaceDescriptor


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
