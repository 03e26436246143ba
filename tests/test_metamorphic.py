"""Metamorphic relations of the minimizing movement.

The scheme sees only the energy and the metric, so a map that carries one
energy-metric pair into another carries the run of the first into the run
of the second (Ambrosio-Gigli-Savare, Gradient Flows, ch. 2).  These tests
compare the two runs of each relation, so they need no second solver.
"""

import numpy as np
import pytest

from maxslope.energy import quadratic, wiggly
from maxslope.metric import SpaceDescriptor
from maxslope.prox import ProxSettings
from maxslope.scheme import SchemeParams, build_interpolant, run_scheme

from conftest import pt


def run(spec, eps, tau, T, u0):
    traj = run_scheme(spec, SchemeParams(eps=eps, tau=tau, horizon_T=T,
                                         initial_point=pt(*u0)))
    return traj, build_interpolant(spec, traj, ProxSettings())


def plane_wiggly(metric_weights, weights, center):
    space = SpaceDescriptor(2, metric_kind="diagonal_weighted", weights=metric_weights)
    return wiggly(quadratic(space, weights, center))


# (eps, tau, T): pinned, with the last 25 steps at a fixed point, and the
# flat flow tau >> eps
@pytest.mark.parametrize("eps, tau, T", [(0.05, 0.0025, 3.0), (0.01, 0.1, 1.0)])
def test_swapping_coordinates_swaps_the_run(eps, tau, T):
    # each coordinate row is solved alone, and a sum of two floats does not
    # depend on their order, so the swap holds bit for bit
    traj, interp = run(plane_wiggly((4.0, 1.0), [1.0, 2.0], [0.3, -0.2]),
                       eps, tau, T, (0.5, 0.7))
    swapped, swapped_interp = run(plane_wiggly((1.0, 4.0), [2.0, 1.0], [-0.2, 0.3]),
                                  eps, tau, T, (0.7, 0.5))
    assert swapped.coords.tobytes() == traj.coords[:, ::-1].tobytes()
    assert swapped.step_energies.tobytes() == traj.step_energies.tobytes()
    assert swapped.step_distances.tobytes() == traj.step_distances.tobytes()
    assert swapped_interp.values.tobytes() == interp.values[..., ::-1].tobytes()
    assert swapped_interp.g_values.tobytes() == interp.g_values.tobytes()


def test_doubling_the_coordinate_doubles_the_run():
    """x = 2y carries x^2/2 + eps cos(x/eps) into 4 (y^2/2 + (1/2)(eps/2)
    cos(y/(eps/2))), the energy of centre 0, amplitude_scale 1/2 and eps/2,
    at the same tau: the y-run is half the x-run.  The trajectory and its
    distances halve and its energies quarter, bit for bit.  The node
    problems stop their iterations at round-off of their own values, so the
    interpolant agrees to round-off: 2.8e-17 for the values and 2.7e-14 for
    g were the largest gaps measured."""
    base = quadratic(SpaceDescriptor(1), [1.0], [0.0])
    traj, interp = run(wiggly(base), 0.05, 0.0025, 1.0, (0.5,))
    half, half_interp = run(wiggly(base, amplitude_scale=0.5), 0.025, 0.0025, 1.0, (0.25,))
    assert half.coords.tobytes() == (traj.coords / 2).tobytes()
    assert half.step_distances.tobytes() == (traj.step_distances / 2).tobytes()
    assert half.step_energies.tobytes() == (traj.step_energies / 4).tobytes()
    assert np.abs(half_interp.values - interp.values / 2).max() <= 5.6e-17
    assert np.abs(half_interp.g_values - interp.g_values / 2).max() <= 5.4e-14
