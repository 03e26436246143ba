import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxslope.energy import (
    convex_perturbed,
    custom_smooth,
    eval_many,
    exact_slopes,
    quadratic,
    wiggly,
)
from maxslope.errors import CapabilityAbsentError, SequenceNotConvergentError
from maxslope.metric import SpaceDescriptor
from maxslope.slope import (
    DEFAULT_RADII,
    _direction_set,
    check_condition_h,
    check_slope_cone,
    estimate_slope,
)

from conftest import nearest_stable_critical_point


class TestEstimateSlope:
    def test_quadratic_matches_exact(self, quad_1d):
        est = estimate_slope(quad_1d, 1.0, [2.0])
        assert abs(est - 2.0) < 1e-3

    def test_zero_at_minimum(self, quad_1d):
        est = estimate_slope(quad_1d, 1.0, [0.0])
        assert est < 1e-4

    def test_underestimates_convex(self, quad_1d):
        # sampled sups approach |f'| from below for a convex energy
        est = estimate_slope(quad_1d, 1.0, [2.0])
        assert est <= 2.0 + 1e-12

    def test_weighted_metric(self, weighted_plane):
        spec = quadratic(weighted_plane, [1.0, 1.0], [0.0, 0.0])
        est = estimate_slope(spec, 1.0, [2.0, 0.0])
        # dual-norm slope is 1 when the heavy axis carries the gradient
        assert abs(est - 1.0) < 1e-3

    def test_custom_energy(self, line):
        spec = custom_smooth(line, "x^4")
        est = estimate_slope(spec, 1.0, [1.0])
        assert abs(est - 4.0) < 1e-2

    def test_custom_quadratic_matches_exact(self, line):
        spec = custom_smooth(line, "x^2 / 2")
        assert abs(estimate_slope(spec, 1.0, [2.0]) - 2.0) < 1e-3

    def test_wiggly_trap_has_small_slope(self, wiggly_1d):
        trap = nearest_stable_critical_point(wiggly_1d, 0.1, [0.5])
        est = estimate_slope(wiggly_1d, 0.1, trap)
        assert est < 1e-2

    def test_3d_estimate_lies_just_below_the_exact_slope(self):
        # n >= 3 samples the axes and a fixed cloud of directions, which
        # misses the gradient's by a small angle: 0.32651 against 0.32787
        space = SpaceDescriptor(3, metric_kind="diagonal_weighted", weights=(4.0, 1.0, 2.0))
        spec = quadratic(space, [1.0] * 3, [0.0] * 3)
        x = np.array([0.5, 0.2, 0.1])
        exact = exact_slopes(spec, 1.0, x[None, :])[0]
        est = estimate_slope(spec, 1.0, x)
        assert exact * (1.0 - 1e-2) <= est <= exact

    @staticmethod
    def reference_slope(spec, eps, x):
        """The estimate as one ``eval_many`` call per radius, from a
        direction set built afresh."""
        x = np.asarray(x, dtype=float)
        dirs = _direction_set.__wrapped__(spec.domain)
        fx = float(eval_many(spec, eps, x[None, :])[0])
        sups = []
        for r in DEFAULT_RADII[-3:]:
            vals = eval_many(spec, eps, x + r * dirs)
            sups.append(max(0.0, float((fx - vals).max()) / r))
        return max(sups)

    @pytest.mark.parametrize("family", ["quadratic", "wiggly", "convex_perturbed"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_matches_the_per_radius_loop(self, family, n, data):
        # all radii in one call give each radius's supremum bit for bit,
        # on the 1D pair, the 2D ring and the nD cloud
        if data.draw(st.booleans(), label="weighted"):
            space = SpaceDescriptor(n, metric_kind="diagonal_weighted", weights=tuple(
                data.draw(st.lists(st.floats(0.25, 4.0), min_size=n, max_size=n),
                          label="metric")))
        else:
            space = SpaceDescriptor(n)
        spec = quadratic(space, data.draw(st.lists(st.floats(0.5, 2.0), min_size=n,
                                                   max_size=n), label="weights"),
                         data.draw(st.lists(st.floats(-0.5, 0.5), min_size=n, max_size=n),
                                   label="center"))
        if family != "quadratic":
            spec = (wiggly if family == "wiggly" else convex_perturbed)(spec)
        eps = data.draw(st.sampled_from([1e-3, 0.05, 0.1, 1.0]), label="eps")
        x = data.draw(st.lists(st.sampled_from([0.0, -0.0]) | st.floats(-1.0, 1.0),
                               min_size=n, max_size=n), label="x")
        est = estimate_slope(spec, eps, x)
        assert float.hex(est) == float.hex(self.reference_slope(spec, eps, x))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_direction_set_is_built_once_and_read_only(self, n):
        space = SpaceDescriptor(n, metric_kind="diagonal_weighted",
                                weights=tuple(1.0 + j for j in range(n)))
        dirs = _direction_set(space)
        assert _direction_set(SpaceDescriptor(*space)) is dirs
        assert np.array_equal(dirs, _direction_set.__wrapped__(space))
        assert not dirs.flags.writeable

    def test_default_schedule_shape(self):
        assert len(DEFAULT_RADII) == 13
        assert DEFAULT_RADII[0] == 0.1
        assert all(math.isclose(a / b, 2.0) for a, b in
                   zip(DEFAULT_RADII, DEFAULT_RADII[1:]))


class TestConditionH:
    def test_wiggly_traps_refute(self, wiggly_1d):
        # stable critical points of the oscillatory family sit near 0.5
        # with vanishing slope, while the limit has slope ~0.5 there
        seq = []
        for e in (0.1, 0.05, 0.02, 0.01):
            seq.append((e, nearest_stable_critical_point(wiggly_1d, e, [0.5])))
        report = check_condition_h(wiggly_1d, seq, [0.5], seq_tol=0.15)
        assert not report.passed
        assert report.slope_liminf_estimate < 0.5 - 1e-3

    def test_perturbed_family_passes(self, perturbed_1d):
        seq = [(e, [1.0]) for e in (0.1, 0.01, 1e-3, 1e-4)]
        report = check_condition_h(perturbed_1d, seq, [1.0])
        assert report.passed
        assert report.energy_gap < 1e-3

    def test_divergent_sequence_rejected(self, wiggly_1d):
        seq = [(0.1, [0.5]), (0.05, [2.0])]
        with pytest.raises(SequenceNotConvergentError):
            check_condition_h(wiggly_1d, seq, [0.5])

    def test_empty_sequence_rejected(self, wiggly_1d):
        with pytest.raises(ValueError):
            check_condition_h(wiggly_1d, [], [0.0])

    def test_family_without_a_limit_rejected(self, line):
        family = custom_smooth(line, "0.5*x^2 + eps*cos(x/eps)")
        with pytest.raises(CapabilityAbsentError):
            check_condition_h(family, [(0.1, [0.5])], [0.5])

    def test_report_roundtrips_to_dict(self, perturbed_1d):
        seq = [(e, [1.0]) for e in (0.1, 1e-4)]
        report = check_condition_h(perturbed_1d, seq, [1.0])
        d = report.to_dict()
        assert d["passed"] is True
        assert len(d["sequence"]) == 2


class TestSlopeCone:
    def probes(self, lo, hi, n=200, seed=2):
        rng = np.random.default_rng(seed)
        return rng.uniform(lo, hi, (n, 1))

    def test_convex_quadratic_holds(self, quad_1d):
        residuals = check_slope_cone(quad_1d, 1.0, [1.5],
                                     self.probes(-4.0, 4.0))
        assert min(residuals) >= -1e-9

    def test_convex_perturbed_holds(self, perturbed_1d):
        residuals = check_slope_cone(perturbed_1d, 0.3, [-0.7],
                                     self.probes(-4.0, 4.0))
        assert min(residuals) >= -1e-9

    def test_wiggly_trap_violates(self, wiggly_1d):
        trap = nearest_stable_critical_point(wiggly_1d, 0.1, [0.8])
        residuals = check_slope_cone(wiggly_1d, 0.1, trap,
                                     self.probes(-2.0, 2.0))
        # a trap has near-zero slope but far lower energy elsewhere
        assert min(residuals) < -1e-3

    def test_exact_slope_at_x(self, quad_1d):
        residuals = check_slope_cone(quad_1d, 1.0, [1.0], [[0.0]])
        # f(0) - f(1) + d(1, 0) |f'(1)| = 0 - 0.5 + 1
        assert math.isclose(residuals[0], 0.5)
