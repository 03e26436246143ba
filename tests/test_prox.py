import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxslope.energy import convex_perturbed, custom_smooth, evaluate, quadratic
from maxslope.errors import BudgetExhaustedError, EvaluationError, InvalidDeltaError
from maxslope.metric import SpaceDescriptor, distance
from maxslope.prox import (
    MULTISTART_NUMERIC,
    ProxSettings,
    _multistart_nd,
    prox,
    prox_batch,
    prox_selection,
)

from conftest import brute_force_prox_1d, pt


DEFAULTS = ProxSettings()
NUMERIC = ProxSettings(mode=MULTISTART_NUMERIC)


class TestExactPaths:
    def test_quadratic_closed_form(self, quad_1d):
        res = prox(quad_1d, 1.0, 1.0, pt(1.0), DEFAULTS)
        assert res.certified_exact
        assert res.minimizer.coords == (0.5,)
        assert math.isclose(res.moved_distance, 0.5)

    def test_quadratic_matches_grid_oracle(self, quad_1d):
        res = prox(quad_1d, 1.0, 0.3, pt(2.0), DEFAULTS)
        oracle = brute_force_prox_1d(quad_1d, 1.0, 0.3, 2.0,
                                     radius=3.0, step=1e-5)
        assert abs(res.minimizer.coords[0] - oracle) < 2e-5

    def test_quadratic_weighted_metric(self, weighted_plane):
        spec = quadratic(weighted_plane, [1.0, 1.0], [0.0, 0.0])
        res = prox(spec, 1.0, 1.0, pt(1.0, 1.0), DEFAULTS)
        # per coordinate: (m u) / (m + delta w) with m = (4, 1), w = (1, 1)
        assert math.isclose(res.minimizer.coords[0], 4.0 / 5.0)
        assert math.isclose(res.minimizer.coords[1], 1.0 / 2.0)

    def test_perturbed_soft_threshold_to_zero(self, perturbed_1d):
        # from u = 0.1 with a strong kink the minimizer lands exactly at 0
        res = prox(perturbed_1d, 0.5, 1.0, pt(0.1), DEFAULTS)
        assert res.certified_exact
        assert res.minimizer.coords == (0.0,)

    def test_perturbed_matches_grid_oracle(self, perturbed_1d):
        res = prox(perturbed_1d, 0.1, 0.5, pt(1.5), DEFAULTS)
        oracle = brute_force_prox_1d(perturbed_1d, 0.1, 0.5, 1.5,
                                     radius=2.0, step=1e-5)
        assert abs(res.minimizer.coords[0] - oracle) < 2e-5


class TestNumericSearch:
    def test_quadratic_numeric_agrees_with_exact(self, quad_1d):
        exact = prox(quad_1d, 1.0, 0.7, pt(1.3), DEFAULTS)
        numeric = prox(quad_1d, 1.0, 0.7, pt(1.3), NUMERIC)
        assert not numeric.certified_exact
        assert numeric.value <= exact.value + 10 * DEFAULTS.local_tol
        assert abs(numeric.minimizer.coords[0] - exact.minimizer.coords[0]) < 1e-5

    def test_wiggly_against_fine_grid_oracle(self, wiggly_1d):
        res = prox(wiggly_1d, 0.1, 0.001, pt(0.05), DEFAULTS)
        oracle = brute_force_prox_1d(wiggly_1d, 0.1, 0.001, 0.05,
                                     radius=0.05, step=1e-7)
        assert abs(res.minimizer.coords[0] - oracle) < 1e-4

    def test_constant_energy_stays_put(self, line):
        spec = custom_smooth(line, "0 * x")
        res = prox(spec, 1.0, 0.5, pt(3.0), DEFAULTS)
        assert abs(res.minimizer.coords[0] - 3.0) < 1e-8
        assert res.moved_distance < 1e-8

    def test_symmetric_double_well_tie_break(self, line):
        # x^4 - x^2 from u = 0: both wells tie; lexicographic order picks
        # the negative root deterministically.
        spec = custom_smooth(line, "x^4 - x^2")
        res = prox(spec, 1.0, 100.0, pt(0.0), DEFAULTS)
        # stationarity 4 v^3 - 2 v + v / delta = 0 away from the origin
        root = -math.sqrt((2.0 - 1.0 / 100.0) / 4.0)
        assert abs(res.minimizer.coords[0] - root) < 1e-3
        assert res.near_ties  # the mirror-image well is reported

    def test_2d_multistart(self, plane):
        spec = quadratic(plane, [4.0, 1.0], [1.0, -1.0])
        numeric = prox(spec, 1.0, 0.5, pt(0.0, 0.0), NUMERIC)
        exact = prox(spec, 1.0, 0.5, pt(0.0, 0.0), DEFAULTS)
        assert numeric.value <= exact.value + 10 * DEFAULTS.local_tol
        assert distance(plane, numeric.minimizer, exact.minimizer) < 1e-5


    def test_nd_value_is_the_ranked_objective(self, weighted_plane):
        # Candidates are ranked by energy + d^2 / (2 delta) as the reported
        # value computes it, and the value is the row's lowest of them.  At
        # these base points L-BFGS-B's own res.fun differs from that in the
        # last bit for some candidate (scipy 1.17).
        spec = convex_perturbed(quadratic(weighted_plane, [1.0, 2.0], [0.3, -0.2]))
        U = np.array([[-0.573427911842217, -0.6904896434975996],
                      [0.308546715723349, 0.4653631919741408],
                      [-1.446325737309074, 0.23991054169228443]])
        deltas = np.full(len(U), 0.05)
        mw = weighted_plane.metric_weights()
        rows, C, cvals, cenergies = _multistart_nd(spec, 0.1, deltas, U, mw, NUMERIC)
        off = C - U[rows]
        assert np.array_equal(cvals, cenergies + (mw * off * off).sum(axis=1)
                              / (2.0 * deltas[rows]))
        batch = prox_batch(spec, 0.1, deltas, U, NUMERIC)
        for b in range(len(U)):
            assert batch.values[b] == cvals[rows == b].min()


class TestInvariants:
    def test_descent_property(self, wiggly_1d):
        for u in (0.0, 0.3, 1.1, -2.0):
            res = prox(wiggly_1d, 0.07, 0.01, pt(u), DEFAULTS)
            assert res.energy_at_min <= evaluate(wiggly_1d, 0.07, pt(u)) + 1e-12

    def test_prox_inequality_against_probes(self, wiggly_1d, line):
        res = prox(wiggly_1d, 0.1, 0.05, pt(0.8), DEFAULTS)
        rng = np.random.default_rng(5)
        probes = rng.uniform(-3.0, 3.0, 1000)
        for y in probes:
            rival = (evaluate(wiggly_1d, 0.1, pt(y))
                     + (y - 0.8) ** 2 / (2 * 0.05))
            assert res.value <= rival + 1e-6

    def test_displacement_shrinks_with_delta(self, wiggly_1d):
        moved = [prox(wiggly_1d, 0.1, d, pt(0.9), DEFAULTS).moved_distance
                 for d in (0.4, 0.2, 0.1, 0.05, 0.025)]
        assert all(b <= a + 1e-9 for a, b in zip(moved, moved[1:]))

    @settings(max_examples=50, deadline=None)
    @given(u=st.floats(-3.0, 3.0), delta=st.floats(0.01, 0.9))
    def test_quadratic_value_never_above_staying(self, u, delta):
        line = SpaceDescriptor(1)
        spec = quadratic(line, [1.0], [0.0])
        res = prox(spec, 1.0, delta, pt(u), DEFAULTS)
        assert res.value <= evaluate(spec, 1.0, pt(u)) + 1e-12


class TestFailureModes:
    def test_nonpositive_delta(self, quad_1d):
        with pytest.raises(InvalidDeltaError):
            prox(quad_1d, 1.0, 0.0, pt(1.0), DEFAULTS)

    def test_delta_at_tau_star(self, quad_1d):
        with pytest.raises(InvalidDeltaError):
            prox(quad_1d, 1.0, 1.0, pt(1.0), DEFAULTS, tau_star=1.0)

    def test_budget_exhausted(self, wiggly_1d):
        tight = ProxSettings(max_iters=10)
        with pytest.raises(BudgetExhaustedError):
            prox(wiggly_1d, 0.01, 0.001, pt(0.5), tight)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_nonfinite_search_window_fails_at_once(self, line):
        # The gradient 1e310 overflows, so the 1D window would be infinite:
        # every grid point is NaN and the zoom would only end at its budget.
        spec = quadratic(line, [1e10], [0.0])
        with pytest.raises(EvaluationError, match=r"u=1e\+300 with delta=0.1"):
            prox(spec, 1.0, 0.1, pt(1e300), NUMERIC)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            ProxSettings(mode="guess")


class TestSelection:
    def test_lowest_value_wins(self, line):
        chosen = prox_selection([(np.array([2.0]), 1.0),
                                 (np.array([1.0]), 0.5)],
                                pt(0.0), line, 1e-9)
        assert chosen.coords == (1.0,)

    def test_tie_prefers_closer_point(self, line):
        chosen = prox_selection([(np.array([2.0]), 1.0),
                                 (np.array([-1.0]), 1.0)],
                                pt(0.0), line, 1e-9)
        assert chosen.coords == (-1.0,)

    def test_full_tie_is_lexicographic(self, line):
        chosen = prox_selection([(np.array([1.0]), 1.0),
                                 (np.array([-1.0]), 1.0)],
                                pt(0.0), line, 1e-9)
        assert chosen.coords == (-1.0,)

    def test_empty_rejected(self, line):
        with pytest.raises(ValueError):
            prox_selection([], pt(0.0), line, 1e-9)

    def test_settings_roundtrip(self):
        s = ProxSettings(starts=5, local_tol=1e-8)
        assert ProxSettings.from_dict(s.to_dict()) == s
