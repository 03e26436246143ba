import math

import numpy as np
import pytest

from maxslope.energy import eval_many
from maxslope.regimes import (
    CouplingLaw,
    maximal_slope_pipeline,
    run_sweep,
)
from maxslope.scheme import SchemeParams, run_scheme

from conftest import compare_to_reference, parse_config, pt


def base_params(u0=1.0, T=1.0):
    # eps and tau placeholders; the sweep replaces them per level
    return SchemeParams(eps=1.0, tau=0.01, horizon_T=T, initial_point=pt(u0))


class TestCouplingLaw:
    def test_tau_of_eps(self):
        law = CouplingLaw("tau_of_eps", lam=0.5, alpha=2.0)
        eps, tau = law.resolve(0.1)
        assert eps == 0.1
        assert math.isclose(tau, 0.5 * 0.01)

    def test_eps_of_tau(self):
        law = CouplingLaw("eps_of_tau", lam=2.0, alpha=1.0)
        eps, tau = law.resolve(0.01)
        assert tau == 0.01
        assert math.isclose(eps, 0.02)

    def test_unknown_form(self):
        with pytest.raises(ValueError):
            CouplingLaw("eps_times_tau")

    @pytest.mark.parametrize("name, value", [("lam", math.nan), ("lam", math.inf),
                                             ("alpha", math.nan), ("alpha", -math.inf)])
    def test_non_finite_parameter_names_its_field(self, name, value):
        # a nan alpha would resolve every level to a nan tau
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value!r}$"):
            CouplingLaw("tau_of_eps", **{name: value})

    def test_nonpositive_level(self):
        with pytest.raises(ValueError):
            CouplingLaw("tau_of_eps").resolve(0.0)

    def test_roundtrip_dict(self):
        law = CouplingLaw("eps_of_tau", lam=3.0, alpha=0.5)
        # the config object that the law was written as
        sweep = {"coupling": {"form": "eps_of_tau", "lam": 3.0, "alpha": 0.5},
                 "levels": [0.01], "params": {"horizon_T": 0.1, "initial_point": [1.0]}}
        assert parse_config(command={"sweep": sweep}).args["coupling"] == law


class TestRunSweep:
    def test_identity_coupling_reduces_to_single_runs(self, quad_1d):
        # each level must reproduce a plain scheme run with the same
        # (eps, tau) bit for bit
        law = CouplingLaw("tau_of_eps", lam=0.1, alpha=1.0)
        report = run_sweep(quad_1d, law, [0.4, 0.2, 0.1], base_params())
        for lv in report.levels:
            assert lv.status == "ok"
            solo = run_scheme(quad_1d, SchemeParams(
                eps=lv.eps, tau=lv.tau, horizon_T=1.0, initial_point=pt(1.0)))
            assert np.array_equal(lv.trajectory.coords, solo.coords)

    def test_refinement_is_cauchy(self, quad_1d):
        law = CouplingLaw("eps_of_tau", lam=1.0, alpha=1.0)
        report = run_sweep(quad_1d, law, [0.04, 0.02, 0.01, 0.005],
                           base_params())
        assert report.cauchy_flag
        sups = report.pairwise_sup_distances
        assert all(b <= a + 1e-12 for a, b in zip(sups, sups[1:]))

    def test_reference_comparison(self, quad_1d):
        law = CouplingLaw("eps_of_tau", lam=1.0, alpha=1.0)
        report = run_sweep(quad_1d, law, [0.02, 0.01, 0.005], base_params())
        # implicit Euler converges to the gradient flow e^{-t}
        assert compare_to_reference(report, lambda t: [math.exp(-t)]) < 2e-2

    def test_offset_reference_is_far(self, quad_1d):
        law = CouplingLaw("eps_of_tau", lam=1.0, alpha=1.0)
        report = run_sweep(quad_1d, law, [0.02, 0.01], base_params())
        assert compare_to_reference(report, lambda t: [math.exp(-t) + 0.5]) > 0.4

    def test_failing_level_recorded(self, quad_1d):
        # level 0.2 gives tau = 0.2 >= tau_star / 8, an invalid scheme run
        law = CouplingLaw("eps_of_tau", lam=1.0, alpha=1.0)
        report = run_sweep(quad_1d, law, [0.2, 0.01], base_params())
        assert report.levels[0].status == "error"
        assert report.levels[1].status == "ok"
        assert not report.cauchy_flag
        d = report.to_dict()
        assert d["pairwise_sup_distances"] == [None]
        assert d["limit_candidate_level"] == 1

    def test_empty_levels_rejected(self, quad_1d):
        with pytest.raises(ValueError):
            run_sweep(quad_1d, CouplingLaw("tau_of_eps"), [], base_params())

    def test_nonmonotone_levels_rejected(self, quad_1d):
        with pytest.raises(ValueError):
            run_sweep(quad_1d, CouplingLaw("tau_of_eps"), [0.1, 0.2],
                      base_params())


class TestPipeline:
    def test_quadratic_limit_is_maximal_slope(self, quad_1d):
        law = CouplingLaw("eps_of_tau", lam=1.0, alpha=1.0)
        result = maximal_slope_pipeline(quad_1d, law, [0.02, 0.01, 0.005],
                                        base_params())
        assert result.condition_h is not None
        assert result.condition_h.passed
        assert not result.condition_h_waived
        assert result.sweep.cauchy_flag
        assert result.maximal_slope.passed(5e-3)

    def test_limit_curve_is_sampled_at_the_step_nodes(self, quad_1d):
        law = CouplingLaw("eps_of_tau", lam=1.0, alpha=1.0)
        result = maximal_slope_pipeline(quad_1d, law, [0.02, 0.01], base_params())
        traj = result.sweep.limit_candidate
        times = result.maximal_slope.sample_times
        assert times == tuple(i * traj.tau for i in range(traj.n_steps + 1))
        assert math.isclose(times[-1], traj.final_time)
        assert result.maximal_slope.varphi_values[0] == eval_many(
            quad_1d, 1.0, traj.coords[:1])[0]

    def test_oscillatory_family_warns(self, wiggly_1d):
        # at a pinned point the slopes collapse, so the evidence fails
        law = CouplingLaw("tau_of_eps", lam=0.1, alpha=2.0)
        params = SchemeParams(eps=1.0, tau=0.01, horizon_T=0.2,
                              initial_point=pt(0.5))
        with pytest.warns(UserWarning, match="condition"):
            result = maximal_slope_pipeline(wiggly_1d, law,
                                            [0.1, 0.05, 0.025], params)
        assert result.condition_h is not None
        assert not result.condition_h.passed

    def test_waiver_skips_evidence(self, quad_1d):
        law = CouplingLaw("eps_of_tau", lam=1.0, alpha=1.0)
        with pytest.warns(UserWarning, match="waived"):
            result = maximal_slope_pipeline(quad_1d, law, [0.02, 0.01],
                                            base_params(),
                                            waive_condition_h=True)
        assert result.condition_h is None
        assert result.condition_h_waived

    def test_result_serializes(self, quad_1d):
        import json
        law = CouplingLaw("eps_of_tau", lam=1.0, alpha=1.0)
        result = maximal_slope_pipeline(quad_1d, law, [0.02, 0.01],
                                        base_params())
        json.dumps(result.to_dict())
