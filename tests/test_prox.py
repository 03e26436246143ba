import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxslope.energy import (
    convex_perturbed,
    coordinate_values,
    curvature_floors,
    custom_smooth,
    eval_many,
    quadratic,
    wiggly,
)
from maxslope.errors import BudgetExhaustedError, EvaluationError, InvalidDeltaError
from maxslope.metric import SpaceDescriptor, distances
from maxslope.prox import (MULTISTART_NUMERIC, ProxSettings, _candidates, _select, _zoom_1d,
                           prox_batch)

from conftest import brute_force_prox_1d, parse_config, prox_objective


DEFAULTS = ProxSettings()
NUMERIC = ProxSettings(mode=MULTISTART_NUMERIC)
LINE = SpaceDescriptor(1)
WEIGHTED_PLANE = SpaceDescriptor(2, metric_kind="diagonal_weighted", weights=(4.0, 1.0))


def prox_one(spec, eps, delta, u, settings):
    """The B = 1 ``prox_batch`` solve from the coordinate row ``u``."""
    return prox_batch(spec, eps, [delta], [u], settings)


def value_one(spec, eps, delta, u, res):
    """The objective at the minimizer of the B = 1 solve ``res``."""
    return prox_objective(spec, eps, [delta], [u], res.minimizers)[0]


# (spec, eps, deltas, U, settings) of batches over every route of the
# numeric search
SEARCH_SETUPS = {
    "nd_convex_perturbed": (
        convex_perturbed(quadratic(WEIGHTED_PLANE, [1.0, 2.0], [0.3, -0.2])), 0.1,
        [0.05] * 3, [[-0.573427911842217, -0.6904896434975996],
                     [0.308546715723349, 0.4653631919741408],
                     [-1.446325737309074, 0.23991054169228443]], NUMERIC),
    "newton_1d": (quadratic(LINE, [2.0], [0.3]), 1.0, [0.01, 0.1, 0.5],
                  [[1.2], [-0.7], [0.3]], NUMERIC),
    # curvature 1e-8 + 1 / 1e6: the guard of the first row is a near tie
    "newton_1d_kept_guard": (quadratic(LINE, [1e-8], [0.3]), 1.0, [1e6, 0.1],
                             [[0.0], [0.5]], NUMERIC),
    # 1 - 1 / 0.05 + 1 / 0.1 < 0: past the curvature floor, the bracket route
    "grid_wiggly": (wiggly(quadratic(LINE, [1.0], [0.0])), 0.05, [0.1, 0.2, 0.1],
                    [[0.5], [-1.1], [0.0]], DEFAULTS),
    # convex with a kink: the Newton route, some rows landing on the kink
    "grid_convex_perturbed": (convex_perturbed(quadratic(LINE, [1.0], [0.0])), 0.1,
                              [0.5, 0.01, 0.1], [[1.5], [0.05], [-0.3]], NUMERIC),
    # the bracket route on a scan of the heuristic window
    "custom_smooth": (custom_smooth(LINE, "0.5*x^2 + eps*cos(x/eps) + 0.25*exp(-x^2)"),
                      0.05, [0.0025, 0.1], [[0.5], [-0.8]], DEFAULTS),
    # from u = 0 each coordinate's guard is within local_tol of its
    # minimizer, inside the tie gap
    "flat_2d_guards": (quadratic(SpaceDescriptor(2), [1e-8, 1e-8], [0.025, 0.025]), 1.0,
                       [1e6, 1.0], [[0.0, 0.0], [0.3, -0.2]], NUMERIC),
    # four corners tie (row 1), or two (row 2); row 0 takes the Newton route
    "mirror_wells": (wiggly(quadratic(WEIGHTED_PLANE, [1.0, 2.0], [0.0, 0.0])), 0.1,
                     [1e-4, 1.0, 1.0], [[0.4, -0.3], [1e-11, -1e-11], [0.6, 1e-11]],
                     NUMERIC),
}


class TestExactPaths:
    def test_quadratic_closed_form(self, quad_1d):
        res = prox_one(quad_1d, 1.0, 1.0, [1.0], DEFAULTS)
        assert res.minimizers[0].tolist() == [0.5]
        assert math.isclose(res.moved[0], 0.5)

    def test_quadratic_matches_grid_oracle(self, quad_1d):
        res = prox_one(quad_1d, 1.0, 0.3, [2.0], DEFAULTS)
        oracle = brute_force_prox_1d(quad_1d, 1.0, 0.3, 2.0,
                                     radius=3.0, step=1e-5)
        assert abs(res.minimizers[0, 0] - oracle) < 2e-5

    def test_quadratic_weighted_metric(self, weighted_plane):
        spec = quadratic(weighted_plane, [1.0, 1.0], [0.0, 0.0])
        res = prox_one(spec, 1.0, 1.0, [1.0, 1.0], DEFAULTS)
        # per coordinate: (m u) / (m + delta w) with m = (4, 1), w = (1, 1)
        assert math.isclose(res.minimizers[0, 0], 4.0 / 5.0)
        assert math.isclose(res.minimizers[0, 1], 1.0 / 2.0)

    def test_perturbed_soft_threshold_to_zero(self, perturbed_1d):
        # from u = 0.1 with a strong kink the minimizer lands exactly at 0
        res = prox_one(perturbed_1d, 0.5, 1.0, [0.1], DEFAULTS)
        assert res.minimizers[0].tolist() == [0.0]

    def test_perturbed_matches_grid_oracle(self, perturbed_1d):
        res = prox_one(perturbed_1d, 0.1, 0.5, [1.5], DEFAULTS)
        oracle = brute_force_prox_1d(perturbed_1d, 0.1, 0.5, 1.5,
                                     radius=2.0, step=1e-5)
        assert abs(res.minimizers[0, 0] - oracle) < 2e-5


class TestNumericSearch:
    def test_quadratic_numeric_agrees_with_exact(self, quad_1d):
        exact = prox_one(quad_1d, 1.0, 0.7, [1.3], DEFAULTS)
        numeric = prox_one(quad_1d, 1.0, 0.7, [1.3], NUMERIC)
        assert (value_one(quad_1d, 1.0, 0.7, [1.3], numeric)
                <= value_one(quad_1d, 1.0, 0.7, [1.3], exact) + 10 * DEFAULTS.local_tol)
        assert abs(numeric.minimizers[0, 0] - exact.minimizers[0, 0]) < 1e-5

    def test_wiggly_against_fine_grid_oracle(self, wiggly_1d):
        res = prox_one(wiggly_1d, 0.1, 0.001, [0.05], DEFAULTS)
        oracle = brute_force_prox_1d(wiggly_1d, 0.1, 0.001, 0.05,
                                     radius=0.05, step=1e-7)
        assert abs(res.minimizers[0, 0] - oracle) < 1e-4

    def test_constant_energy_stays_put(self, line):
        spec = custom_smooth(line, "0 * x")
        res = prox_one(spec, 1.0, 0.5, [3.0], DEFAULTS)
        assert abs(res.minimizers[0, 0] - 3.0) < 1e-8
        assert res.moved[0] < 1e-8

    def test_symmetric_double_well_tie_break(self, line):
        # x^4 - x^2 from u = 0: both wells tie; lexicographic order picks
        # the negative root deterministically.
        spec = custom_smooth(line, "x^4 - x^2")
        res = prox_one(spec, 1.0, 100.0, [0.0], DEFAULTS)
        # stationarity 4 v^3 - 2 v + v / delta = 0 away from the origin
        root = -math.sqrt((2.0 - 1.0 / 100.0) / 4.0)
        assert abs(res.minimizers[0, 0] - root) < 1e-3
        assert res.near_tie[0]  # the mirror-image well is reported

    def test_2d_multistart(self, plane):
        spec = quadratic(plane, [4.0, 1.0], [1.0, -1.0])
        numeric = prox_one(spec, 1.0, 0.5, [0.0, 0.0], NUMERIC)
        exact = prox_one(spec, 1.0, 0.5, [0.0, 0.0], DEFAULTS)
        assert (value_one(spec, 1.0, 0.5, [0.0, 0.0], numeric)
                <= value_one(spec, 1.0, 0.5, [0.0, 0.0], exact) + 10 * DEFAULTS.local_tol)
        assert distances(plane, numeric.minimizers[0], exact.minimizers[0]) < 1e-5

    @pytest.mark.parametrize("setup", SEARCH_SETUPS)
    def test_nd_value_is_the_ranked_objective(self, setup):
        # Each coordinate row ranks its candidates by its own objective
        # phi_j(x) + m_j (x - u_j)^2 / (2 delta), to the bit, and the
        # minimizer is the rows' choices.  The nD objective is the sum of
        # the rows' objectives, so at the minimizer it is the sum of the
        # values ranked, and no candidate ranks lower: the chosen point with
        # one coordinate swapped for any other candidate of that
        # coordinate's row is no lower, both up to the round-off of the sum.
        spec, eps, deltas, U, settings = SEARCH_SETUPS[setup]
        deltas, U = np.array(deltas), np.array(U)
        B, n = U.shape
        mw = spec.domain.metric_weights()
        batch = prox_batch(spec, eps, deltas, U, settings)
        # the B n coordinate rows: row r = n b + j is problem b's coordinate j
        cols = np.arange(B * n) % n
        d, u, m = np.repeat(deltas, n), U.ravel(), mw[cols]
        kappa = curvature_floors(spec, eps)
        newton = np.zeros(B * n, dtype=bool) if kappa is None else kappa[cols] + m / d > 0
        a, g = np.flatnonzero(newton), np.flatnonzero(~newton)
        # the candidates of a Newton row: its minimizer and its guard v = u,
        # one of them its choice and the other its near tie if it keeps one;
        # of a bracket row: those that the bracket route ranks, with their
        # values
        x_a, tie_a, tie_x = (_zoom_1d(spec, eps, cols[a], d[a], u[a], m[a], settings)
                             if a.size else (u[a], a, u[a]))
        r_g, x_g, v_g = (_candidates(spec, eps, cols[g], d[g], u[g], m[g], settings, newton[g])
                         if g.size else (g, u[g], u[g]))
        r = np.concatenate([a, a[tie_a], a, g[r_g]])
        x = np.concatenate([x_a, tie_x, u[a], x_g])
        b, j = r // n, cols[r]
        off = x - u[r]
        v = coordinate_values(spec, eps, j, x) + m[r] * off * off / (2.0 * d[r])
        assert np.array_equal(v_g, v[r.size - r_g.size:])
        chosen = _select(r, x, v, u, m)
        assert x[chosen].tobytes() == batch.minimizers.tobytes()
        for row in range(B * n):
            assert v[chosen][row] == v[r == row].min()
        value = prox_objective(spec, eps, deltas, U, batch.minimizers)
        round_off = 1e-12 * (1.0 + np.abs(value))
        assert (np.abs(value - v[chosen].reshape(B, n).sum(axis=1)) <= round_off).all()
        swapped = batch.minimizers[b]
        swapped[np.arange(r.size), j] = x
        assert (prox_objective(spec, eps, deltas[b], U[b], swapped)
                >= value[b] - round_off[b]).all()


class TestInvariants:
    def test_descent_property(self, wiggly_1d):
        for u in (0.0, 0.3, 1.1, -2.0):
            res = prox_one(wiggly_1d, 0.07, 0.01, [u], DEFAULTS)
            energy = eval_many(wiggly_1d, 0.07, res.minimizers)[0]
            assert energy <= eval_many(wiggly_1d, 0.07, [[u]])[0] + 1e-12

    def test_prox_inequality_against_probes(self, wiggly_1d, line):
        res = prox_one(wiggly_1d, 0.1, 0.05, [0.8], DEFAULTS)
        value = value_one(wiggly_1d, 0.1, 0.05, [0.8], res)
        rng = np.random.default_rng(5)
        probes = rng.uniform(-3.0, 3.0, 1000)
        for y in probes:
            rival = (eval_many(wiggly_1d, 0.1, [[y]])[0]
                     + (y - 0.8) ** 2 / (2 * 0.05))
            assert value <= rival + 1e-6

    def test_displacement_shrinks_with_delta(self, wiggly_1d):
        moved = [prox_one(wiggly_1d, 0.1, d, [0.9], DEFAULTS).moved[0]
                 for d in (0.4, 0.2, 0.1, 0.05, 0.025)]
        assert all(b <= a + 1e-9 for a, b in zip(moved, moved[1:]))

    @settings(max_examples=50, deadline=None)
    @given(u=st.floats(-3.0, 3.0), delta=st.floats(0.01, 0.9))
    def test_quadratic_value_never_above_staying(self, u, delta):
        line = SpaceDescriptor(1)
        spec = quadratic(line, [1.0], [0.0])
        res = prox_one(spec, 1.0, delta, [u], DEFAULTS)
        assert value_one(spec, 1.0, delta, [u], res) <= eval_many(spec, 1.0, [[u]])[0] + 1e-12


class TestFailureModes:
    def test_nonpositive_delta(self, quad_1d):
        with pytest.raises(InvalidDeltaError):
            prox_one(quad_1d, 1.0, 0.0, [1.0], DEFAULTS)

    def test_budget_exhausted(self, wiggly_1d):
        # 1 + 1 / delta < 1 / eps: not certified convex, so the bracket route
        # runs, whose cell ends and iterates count: 7 in all
        tight = ProxSettings(max_iters=3)
        with pytest.raises(BudgetExhaustedError):
            prox_one(wiggly_1d, 0.01, 0.02, [0.5], tight)

    def test_newton_budget_exhausted(self, wiggly_1d):
        # 1 + 1 / delta > 1 / eps: the Newton route, whose iterates count
        # against the budget; three are too few from u = 0.5
        with pytest.raises(BudgetExhaustedError, match="Newton"):
            prox_one(wiggly_1d, 0.01, 0.001, [0.5], ProxSettings(max_iters=3))
        res = prox_one(wiggly_1d, 0.01, 0.001, [0.5], ProxSettings(max_iters=20))
        assert res.moved[0] > 0

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_nonfinite_search_window_fails_at_once(self, line):
        # The gradient 1e310 overflows, so the 1D window would be infinite:
        # every iterate would be NaN and end only at the budget.
        spec = quadratic(line, [1e10], [0.0])
        with pytest.raises(EvaluationError, match=r"u=1e\+300 with delta=0.1"):
            prox_one(spec, 1.0, 0.1, [1e300], NUMERIC)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            ProxSettings(mode="guess")

    @pytest.mark.parametrize("field, value, message", [
        ("max_iters", 0, "max_iters must be >= 1"),
        ("local_tol", math.nan, "local_tol must be finite"),
        ("local_tol", math.inf, "local_tol must be finite"),
        ("local_tol", 0.0, "local_tol must be finite and positive"),
    ])
    def test_bad_budget_or_tolerance_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            ProxSettings(**{field: value})


class TestSelection:
    """The ordering rule ``prox_batch`` applies to each row's candidates."""

    @staticmethod
    def select(candidates, u, space):
        """The chosen point among (point, objective) candidates of one problem."""
        x = np.array([c for c, _ in candidates], dtype=float)
        values = np.array([v for _, v in candidates])
        rows = np.zeros(len(candidates), dtype=int)
        chosen = _select(rows, x, values, np.array(u, dtype=float), space.metric_weights())
        return (x[chosen[0]],)

    def test_lowest_value_wins(self, line):
        chosen = self.select([(2.0, 1.0), (1.0, 0.5)], [0.0], line)
        assert chosen == (1.0,)

    def test_tie_prefers_closer_point(self, line):
        chosen = self.select([(2.0, 1.0), (-1.0, 1.0)], [0.0], line)
        assert chosen == (-1.0,)

    def test_full_tie_is_lexicographic(self, line):
        chosen = self.select([(1.0, 1.0), (-1.0, 1.0)], [0.0], line)
        assert chosen == (-1.0,)

    def test_settings_roundtrip(self):
        # the config object that the settings were written as
        s = ProxSettings(local_tol=1e-8, max_iters=5000)
        run = {"eps": 1.0, "tau": 0.01, "horizon_T": 0.1, "initial_point": [1.0],
               "prox_settings": {"mode": "exact_if_available", "local_tol": 1e-8,
                                 "max_iters": 5000}}
        assert parse_config(command={"run": run}).args["run"].prox_settings == s
