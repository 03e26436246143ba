import inspect
import math

import numpy as np
import pytest

from maxslope.config import ExperimentConfig
from maxslope.diagnostics import (
    AprioriReport,
    DissipationReport,
    MaximalSlopeReport,
    apriori_bounds,
    dissipation_identity,
    maximal_slope_check,
    metric_derivative,
    step_residuals,
)
from maxslope.energy import WellPosednessCertificate, convex_perturbed, quadratic, wiggly
from maxslope.errors import CoverageGapError
from maxslope.metric import SpaceDescriptor, squared_distances
from maxslope.prox import ProxBatch, ProxSettings
from maxslope.regimes import LevelResult, PipelineResult, SweepReport
from maxslope.scheme import (
    SchemeParams,
    VariationalInterpolant,
    build_interpolant,
    run_scheme,
)
from maxslope.slope import ConditionHReport

from conftest import pt


SETTINGS = ProxSettings()


def make_run(spec, eps=1.0, tau=0.1, T=1.0, u0=1.0, nodes=8):
    params = SchemeParams(eps=eps, tau=tau, horizon_T=T, initial_point=pt(u0),
                          tau_star=1.0 if tau < 0.125 else 8.0 * tau + 1.0)
    traj = run_scheme(spec, params)
    interp = build_interpolant(spec, traj, SETTINGS, nodes_per_step=nodes)
    return traj, interp


class TestDissipationIdentity:
    def test_one_step_closed_form(self, quad_1d):
        # for the unit quadratic from u = 1 with step tau:
        # drop = tau (2 + tau) / (2 (1 + tau)^2)
        # speed part = tau / (2 (1 + tau)^2),  g part = tau / (2 (1 + tau))
        tau = 0.1
        traj, interp = make_run(quad_1d, tau=tau, T=tau)
        rep = dissipation_identity(interp, 0, 1)
        assert math.isclose(rep.lhs, tau * (2 + tau) / (2 * (1 + tau) ** 2))
        assert math.isclose(rep.velocity_integral, tau / (2 * (1 + tau) ** 2))
        assert math.isclose(rep.g_integral, tau / (2 * (1 + tau)), rel_tol=1e-10)
        assert abs(rep.residual) < 1e-12

    def test_all_pairs_small(self, quad_1d):
        traj, interp = make_run(quad_1d, tau=0.1, T=1.0)
        worst = max(
            abs(dissipation_identity(interp, i, j).residual)
            for i in range(traj.n_steps) for j in range(i + 1, traj.n_steps + 1)
        )
        assert worst < 1e-8

    def test_weighted_2d(self, weighted_plane):
        spec = quadratic(weighted_plane, [1.0, 2.0], [0.0, 0.0])
        params = SchemeParams(eps=1.0, tau=0.1, horizon_T=1.0,
                              initial_point=pt(1.0, -1.0), tau_star=2.0)
        traj = run_scheme(spec, params)
        interp = build_interpolant(spec, traj, SETTINGS)
        rep = dissipation_identity(interp, 0, traj.n_steps)
        assert abs(rep.residual) < 1e-8
        # denser quadrature agrees, so 8 nodes already resolve g^2
        dense = build_interpolant(spec, traj, SETTINGS, nodes_per_step=64)
        rep64 = dissipation_identity(dense, 0, traj.n_steps)
        assert abs(rep.g_integral - rep64.g_integral) < 1e-10

    def test_oscillatory_family(self, wiggly_1d):
        traj, interp = make_run(wiggly_1d, eps=0.2, tau=0.05, T=0.5, u0=1.0)
        rep = dissipation_identity(interp, 0, traj.n_steps)
        assert abs(rep.residual) < 1e-6

    def test_range_validated(self, quad_1d):
        traj, interp = make_run(quad_1d, tau=0.1, T=0.5)
        with pytest.raises(CoverageGapError):
            dissipation_identity(interp, 3, 3)
        with pytest.raises(CoverageGapError):
            dissipation_identity(interp, 0, traj.n_steps + 1)


def wiggly_1d_run():
    spec = wiggly(quadratic(SpaceDescriptor(1), [1.0], [0.0]))
    return (spec,) + make_run(spec, eps=0.05, tau=0.0025, T=0.5, u0=0.9)


def weighted_2d_run():
    space = SpaceDescriptor(2, metric_kind="diagonal_weighted", weights=(4.0, 1.0),
                            base_point=pt(0.5, 0.25))
    spec = convex_perturbed(quadratic(space, [1.0, 2.0], [0.1, -0.3]))
    params = SchemeParams(eps=0.1, tau=0.01, horizon_T=1.0,
                          initial_point=pt(1.0, -0.7))
    traj = run_scheme(spec, params)
    return spec, traj, build_interpolant(spec, traj, SETTINGS)


class TestStepResiduals:
    @pytest.mark.parametrize("build", [wiggly_1d_run, weighted_2d_run],
                             ids=["wiggly_1d", "weighted_2d"])
    def test_equals_per_step_identity(self, build):
        spec, traj, interp = build()
        r = step_residuals(interp)
        assert r.shape == (traj.n_steps,)
        expected = [dissipation_identity(interp, i, i + 1).residual
                    for i in range(traj.n_steps)]
        assert r.tolist() == expected


def apriori_reference(traj, interpolant, quad_tol=1e-8):
    """The a-priori suite as a loop over points and quadrature nodes, one
    one-row ``squared_distances`` per pair, as ``apriori_bounds`` computed
    it before it became array expressions."""
    space, pts = traj.space, traj.coords
    dist_constant = max(float(squared_distances(space, p, space.base_point.array))
                        for p in pts)
    energy_constant = max(abs(e) for e in traj.step_energies)
    tilde_constant = 0.0
    N, K = interpolant.node_times.shape
    for i in range(N):
        for k in range(K):
            d2 = float(squared_distances(space, interpolant.values[i, k], pts[i + 1]))
            tilde_constant = max(tilde_constant, d2 / traj.tau)
    d = np.asarray(traj.step_distances)
    velocity_total = 0.5 * float((d * d).sum()) / traj.tau
    g_total = 0.5 * float((interpolant.g_values ** 2 @ interpolant.weights).sum())
    drop = traj.step_energies[0] - traj.step_energies[-1]
    return {
        "C": max(dist_constant, energy_constant, tilde_constant, drop, 0.0),
        "dist_bound_ok": math.isfinite(dist_constant),
        "energy_bound_ok": math.isfinite(energy_constant),
        "tilde_closeness_ok": math.isfinite(tilde_constant),
        "velocity_energy_ok": drop - velocity_total >= -quad_tol,
        "g_energy_ok": drop - g_total >= -quad_tol,
        "dist_constant": dist_constant,
        "energy_constant": energy_constant,
        "tilde_constant": tilde_constant,
        "energy_drop": drop,
        "velocity_integral_total": velocity_total,
        "g_integral_total": g_total,
        "velocity_margin": drop - velocity_total,
        "g_margin": drop - g_total,
    }


class TestAprioriBounds:
    @pytest.mark.parametrize("build", [wiggly_1d_run, weighted_2d_run],
                             ids=["wiggly_1d", "weighted_2d"])
    def test_matches_per_node_reference(self, build):
        spec, traj, interp = build()
        assert apriori_bounds(interp).to_dict() == \
            apriori_reference(traj, interp)

    def test_quadratic_run(self, quad_1d):
        traj, interp = make_run(quad_1d, tau=0.05, T=1.0)
        rep = apriori_bounds(interp)
        assert rep.dist_bound_ok and rep.energy_bound_ok
        assert rep.tilde_closeness_ok
        assert rep.velocity_energy_ok and rep.g_energy_ok
        assert rep.dist_constant == 1.0      # farthest point is u0
        assert rep.energy_constant == 0.5
        assert rep.C >= rep.energy_drop > 0

    def test_constant_stable_under_refinement(self, quad_1d):
        cs = []
        for tau in (0.1, 0.05, 0.025):
            traj, interp = make_run(quad_1d, tau=tau, T=1.0)
            cs.append(apriori_bounds(interp).C)
        assert max(cs) <= 2.0 * min(cs)

    def test_integrals_below_drop(self, wiggly_1d):
        traj, interp = make_run(wiggly_1d, eps=0.2, tau=0.02, T=0.5, u0=1.0)
        rep = apriori_bounds(interp)
        assert rep.velocity_margin >= -1e-8
        assert rep.g_margin >= -1e-8


class TestMetricDerivative:
    def test_exponential_decay_speed(self, line):
        ts = np.linspace(0.0, 1.0, 2001)
        coords = [[math.exp(-t)] for t in ts]
        vals = dict(zip(ts, metric_derivative(ts, coords, line)))
        # |u'|(0.5) = e^{-0.5}
        assert abs(vals[0.5] - math.exp(-0.5)) < 1e-6

    def test_matches_discrete_velocity_on_broken_line(self, quad_1d, line):
        traj, _ = make_run(quad_1d, tau=0.1, T=0.5)
        # refine each step linearly: within a step the broken-line speed
        # equals the discrete speed exactly
        times, coords = [], []
        for i in range(traj.n_steps):
            a, b = traj.coords[i, 0], traj.coords[i + 1, 0]
            for frac in (0.0, 0.25, 0.5, 0.75):
                times.append((i + frac) * traj.tau)
                coords.append([a + frac * (b - a)])
        times.append(traj.final_time)
        coords.append(traj.coords[-1])
        deriv = dict(zip(times, metric_derivative(times, coords, line)))
        t_mid = 0.05  # interior of step 0, symmetric quotient stays inside
        assert math.isclose(deriv[t_mid], traj.step_distances[0] / traj.tau,
                            rel_tol=1e-12)

    def test_needs_three_samples(self, line):
        with pytest.raises(ValueError):
            metric_derivative([0.0, 1.0], [[0.0], [1.0]], line)

    def test_needs_one_point_per_time(self, line):
        with pytest.raises(ValueError):
            metric_derivative([0.0, 1.0, 2.0], [[0.0], [1.0]], line)

    def test_rejects_duplicate_times(self, line):
        with pytest.raises(ValueError):
            metric_derivative([0.0, 0.0, 1.0], [[0.0], [1.0], [2.0]], line)


class TestMaximalSlopeCheck:
    def gradient_flow_curve(self, n=1601, T=2.0):
        ts = np.linspace(0.0, T, n)
        return ts, [[math.exp(-t)] for t in ts]

    def test_exact_gradient_flow_passes(self, quad_1d):
        report = maximal_slope_check(quad_1d, *self.gradient_flow_curve())
        assert report.monotone_ok
        assert report.passed(5e-3)
        assert abs(report.min_slack) < 1e-4

    def test_too_fast_curve_fails(self, quad_1d):
        # doubling the speed breaks the inequality
        ts = np.linspace(0.0, 1.0, 801)
        coords = [[math.exp(-2.0 * t)] for t in ts]
        report = maximal_slope_check(quad_1d, ts, coords)
        assert not report.passed(5e-3)
        assert report.min_slack < -0.05

    def test_energy_increase_flagged(self, quad_1d):
        ts = np.linspace(0.0, 1.0, 101)
        coords = [[1.0 + t] for t in ts]
        report = maximal_slope_check(quad_1d, ts, coords)
        assert not report.monotone_ok

    def test_weighted_gradient_flow_passes(self, weighted_plane):
        # the gradient flow of sum_j w_j (x_j - b_j)^2 / 2 in the metric with
        # weights m is x_j(t) = b_j + (x0_j - b_j) exp(-(w_j / m_j) t); its
        # speed and slope agree only in that metric, so a Euclidean speed
        # would leave a slack far from 0
        w, b, x0 = np.array([1.0, 2.0]), np.array([0.3, -0.2]), np.array([1.0, -0.8])
        spec = quadratic(weighted_plane, w, b)
        ts = np.linspace(0.0, 2.0, 1601)
        coords = b + (x0 - b) * np.exp(-np.outer(ts, w / weighted_plane.metric_weights()))
        report = maximal_slope_check(spec, ts, coords)
        assert report.monotone_ok
        assert report.passed(5e-3)
        assert abs(report.min_slack) < 1e-4

    def test_report_dict_shape(self, quad_1d):
        report = maximal_slope_check(quad_1d, *self.gradient_flow_curve(201, 1.0))
        d = report.to_dict()
        assert {"s", "t", "lhs", "rhs", "slack"} == set(d["per_interval"][0])
        assert len(d["per_interval"]) == 55  # all pairs of an 11-point grid


# Every result record, and those whose to_dict is their fields as they are
RECORDS = (ExperimentConfig, DissipationReport, AprioriReport, MaximalSlopeReport,
           WellPosednessCertificate, ProxBatch, LevelResult, SweepReport,
           PipelineResult, VariationalInterpolant, ConditionHReport)
FIELD_DICTS = (DissipationReport, AprioriReport)


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: record.__name__)
def test_result_record_is_immutable_and_dicts_are_plain(record):
    fields = list(inspect.signature(record).parameters)
    values = {name: k for k, name in enumerate(fields)}
    built = record(**values)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(built, name, -1)
    assert [getattr(built, name) for name in fields] == list(values.values())
    if record in FIELD_DICTS:
        # a record itself would reach write_json as a JSON array
        d = built.to_dict()
        assert type(d) is dict and list(d.items()) == list(values.items())
