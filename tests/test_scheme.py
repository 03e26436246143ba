import csv
import hashlib
import io
import itertools
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxslope import prox, scheme, search
from maxslope.cli import EXIT_SOLVER, main
from maxslope.energy import convex_perturbed, custom_smooth, eval_many, quadratic, wiggly
from maxslope.errors import (
    BudgetExhaustedError,
    DimensionMismatchError,
    EvaluationError,
    MaxslopeError,
)
from maxslope.metric import SpaceDescriptor
from maxslope.prox import MULTISTART_NUMERIC, ProxSettings, prox_batch
from maxslope.scheme import (
    SchemeParams,
    SchemeStepError,
    build_interpolant,
    gauss_legendre,
    interpolant_to_csv,
    piecewise_constant_many,
    run_scheme,
    trajectory_to_csv,
)
from maxslope.slope import estimate_slope

from conftest import pt


SETTINGS = ProxSettings()


def quad_params(tau=0.05, T=0.2, u0=1.0, **kw):
    return SchemeParams(eps=1.0, tau=tau, horizon_T=T,
                        initial_point=pt(u0), **kw)


@pytest.fixture
def quad_traj(quad_1d):
    return run_scheme(quad_1d, quad_params())


class TestRunScheme:
    def test_closed_form_iterates(self, quad_1d):
        # each step contracts by 1 / (1 + tau)
        traj = run_scheme(quad_1d, quad_params(tau=0.1, T=0.3))
        r = 1.0 / 1.1
        expected = [1.0, r, r ** 2, r ** 3]
        for x, e in zip(traj.coords[:, 0], expected):
            assert math.isclose(x, e, rel_tol=1e-12)

    def test_step_count_rounds_up(self, quad_1d):
        traj = run_scheme(quad_1d, quad_params(tau=0.06, T=0.2))
        assert traj.n_steps == 4
        assert math.isclose(traj.final_time, 0.24)

    def test_energies_decrease(self, wiggly_1d):
        traj = run_scheme(wiggly_1d, SchemeParams(
            eps=0.1, tau=0.02, horizon_T=0.5, initial_point=pt(0.5)))
        assert all(b <= a + 1e-12 for a, b in
                   zip(traj.step_energies, traj.step_energies[1:]))

    def test_tau_regime_guard(self):
        with pytest.raises(ValueError):
            quad_params(tau=0.2, tau_star=1.0)

    def test_declared_energy_bound_checked(self, quad_1d):
        params = quad_params(u0=2.0, initial_energy_bound_S=1.0)
        with pytest.raises(ValueError):
            run_scheme(quad_1d, params)

    def test_declared_distance_bound_checked(self, quad_1d):
        params = quad_params(u0=2.0, initial_distance_bound_Sprime=1.0)
        with pytest.raises(ValueError):
            run_scheme(quad_1d, params)

    @pytest.mark.parametrize("name", ["eps", "tau", "horizon_T"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_parameter_names_its_field(self, name, value):
        fields = {"eps": 1.0, "tau": 0.05, "horizon_T": 0.2, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value!r}$"):
            SchemeParams(initial_point=pt(1.0), **fields)

    def test_initial_point_of_another_dimension_rejected(self, quad_1d):
        params = SchemeParams(eps=1.0, tau=0.05, horizon_T=0.2,
                              initial_point=pt(1.0, 0.0))
        with pytest.raises(DimensionMismatchError):
            run_scheme(quad_1d, params)



WEIGHTED_PLANE = SpaceDescriptor(2, metric_kind="diagonal_weighted", weights=(4.0, 1.0))
WEIGHTED_9D = SpaceDescriptor(9, metric_kind="diagonal_weighted",
                              weights=(0.25, 1.0, 4.0) * 3)
# (spec, params) of runs over every prox path: the closed form
# (weighted_2d_convex_perturbed), the bracket route, a one-row _zoom_1d
# call a step (custom_smooth, and coordinate 0 of wiggly_2d_one_grid_row),
# and the Newton kernel on floats (the others)
RUNS = {
    "wiggly_1d": (wiggly(quadratic(SpaceDescriptor(1), [1.0], [0.0])), SchemeParams(
        eps=0.05, tau=0.0025, horizon_T=0.25, initial_point=pt(0.5))),
    "weighted_2d_convex_perturbed": (
        convex_perturbed(quadratic(WEIGHTED_PLANE, [1.0, 2.0], [0.0, 0.0])),
        SchemeParams(eps=0.1, tau=0.005, horizon_T=0.5, initial_point=pt(1.0, -0.5))),
    "custom_smooth": (custom_smooth(
        SpaceDescriptor(1), "0.5*x^2 + eps*cos(x/eps) + 0.25*exp(-x^2)"),
        SchemeParams(eps=0.05, tau=0.0025, horizon_T=0.1, initial_point=pt(0.5))),
    "numeric_2d": (quadratic(WEIGHTED_PLANE, [1.0, 2.0], [0.3, -0.2]), SchemeParams(
        eps=0.01, tau=0.01, horizon_T=0.05, initial_point=pt(1.0, -0.8),
        prox_settings=ProxSettings(mode=MULTISTART_NUMERIC))),
    "wiggly_2d": (wiggly(quadratic(WEIGHTED_PLANE, [1.0, 2.0], [0.0, 0.0])),
                  SchemeParams(eps=0.05, tau=0.0025, horizon_T=0.25,
                               initial_point=pt(0.5, -0.3))),
    # the fast coordinates reach their centres, where their guards lie
    # within local_tol of their minimizers
    "multistart_9d": (quadratic(WEIGHTED_9D,
                                [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 1.0, 2.0, 0.5],
                                [0.1 * j - 0.4 for j in range(9)]), SchemeParams(
        eps=0.05, tau=0.01, horizon_T=1.0,
        initial_point=pt(0.5, -0.1, 0.2, 0.7, -0.6, 0.3, 0.05, -0.9, 0.35),
        prox_settings=ProxSettings(mode=MULTISTART_NUMERIC))),
    # coordinate 0 on the bracket route (1 - 1 / 0.05 + 1 / 0.1 < 0),
    # coordinate 1 on the Newton route (30 - 1 / 0.05 + 1 / 0.1 > 0)
    "wiggly_2d_one_grid_row": (
        wiggly(quadratic(SpaceDescriptor(2), [1.0, 30.0], [0.0, 0.0])), SchemeParams(
            eps=0.05, tau=0.1, horizon_T=1.0, initial_point=pt(0.5, -0.3))),
    # the pinning run, at a fixed point of the step from step 335 on
    "pinned_1d": (wiggly(quadratic(SpaceDescriptor(1), [1.0], [0.0])), SchemeParams(
        eps=0.05, tau=0.0025, horizon_T=1.0, initial_point=pt(0.5))),
    # coordinate 1 starts at its centre and stays there: its guard is its
    # minimizer, at distance 0, which the Newton row settles by _precedes
    "centred_3d": (quadratic(SpaceDescriptor(3, metric_kind="diagonal_weighted",
                                             weights=(4.0, 1.0, 2.0)),
                             [1.0, 2.0, 4.0], [0.3, -0.2, 0.1]), SchemeParams(
        eps=0.05, tau=0.01, horizon_T=1.0, initial_point=pt(1.0, -0.2, 0.5),
        prox_settings=ProxSettings(mode=MULTISTART_NUMERIC))),
}


def scalar_prox_run(spec, params):
    """The scheme as a loop of B = 1 ``prox_batch`` calls that appends one
    row per step, as a reference for ``run_scheme``'s preallocated arrays."""
    u = params.initial_point.array
    coords, energies, dists = [u], [eval_many(spec, params.eps, u[None, :])[0]], []
    for _ in range(math.ceil(params.horizon_T / params.tau)):
        res = prox_batch(spec, params.eps, [params.tau], [u], params.prox_settings)
        u = res.minimizers[0]
        coords.append(u)
        energies.append(eval_many(spec, params.eps, res.minimizers)[0])
        dists.append(res.moved[0])
    return np.array(coords), np.array(energies), np.array(dists)


def first_repeated_step(coords):
    """The first step p whose base point u^p repeats bit for bit up to the
    last base point u^{N-1}, found row by row as a reference."""
    rows = [list(map(float.hex, row)) for row in coords[:-1].tolist()]
    p = len(rows) - 1
    while p > 0 and rows[p - 1] == rows[-1]:
        p -= 1
    return p


def count_calls(monkeypatch):
    """Wrap each kernel of ``scheme.stepper`` and ``scheme.prox_batch``;
    return the list of (coordinate, u) steps taken and the list of row
    counts solved."""
    steps, rows = [], []
    stepper, batch = scheme.stepper, scheme.prox_batch

    def counted(j, kernel):
        def counted_kernel(x):
            steps.append((j, x))
            return kernel(x)
        return counted_kernel

    def counted_stepper(*args):
        return [counted(j, kernel) for j, kernel in enumerate(stepper(*args))]

    def counted_batch(spec, eps, deltas, U, settings):
        rows.append(len(deltas))
        return batch(spec, eps, deltas, U, settings)
    monkeypatch.setattr(scheme, "stepper", counted_stepper)
    monkeypatch.setattr(scheme, "prox_batch", counted_batch)
    return steps, rows


class TestFixedPoint:
    """A step is a function of u alone, so once it returns its input bit
    for bit it returns it at every later step: ``run_scheme`` stops
    stepping there, and ``build_interpolant`` solves the nodes of the steps
    up to it."""

    def test_pinned_run_equals_every_step_solved(self, monkeypatch):
        # the reference takes all 400 steps with prox.stepper and solves all
        # N K nodes with prox_batch
        spec, params = RUNS["pinned_1d"]
        kernels = prox.stepper(spec, params.eps, params.tau, params.prox_settings)
        coords = [params.initial_point.array.tolist()]
        for _ in range(400):
            coords.append([step(x) for step, x in zip(kernels, coords[-1])])
        coords = np.array(coords)
        p = first_repeated_step(coords)
        assert p < 399                          # 335 with numpy 2.4 on x86-64
        deltas = np.tile(0.5 * params.tau * (gauss_legendre(8)[0] + 1.0), 400)
        want = prox_batch(spec, params.eps, deltas, np.repeat(coords[:-1], 8, axis=0),
                          SETTINGS)
        steps, rows = count_calls(monkeypatch)
        traj = run_scheme(spec, params)
        interp = build_interpolant(spec, traj, SETTINGS)
        assert len(steps) == p + 1
        assert sum(rows) == (p + 1) * 8
        assert traj.coords.tobytes() == coords.tobytes()
        assert interp.values.tobytes() == want.minimizers.tobytes()
        assert interp.g_values.tobytes() == (want.tie_moved / deltas).tobytes()

    def test_signed_zeros_are_different_points(self, quad_1d, monkeypatch):
        # 0.0 == -0.0, so a fixed point found by == would end the run after
        # its first step and solve the nodes of that step alone
        steps, rows = count_calls(monkeypatch)

        def flip_zeros(*args):
            def step(x):
                steps.append((0, x))
                return -x
            return [step]
        monkeypatch.setattr(scheme, "stepper", flip_zeros)
        traj = run_scheme(quad_1d, quad_params(u0=0.0))
        assert len(steps) == traj.n_steps == 4
        assert np.signbit(traj.coords[:, 0]).tolist() == [False, True, False, True, False]
        build_interpolant(quad_1d, traj, SETTINGS)
        assert sum(rows) == traj.n_steps * 8


class TestRunSize:
    """(N + 1)(n + 2) + N K (n + 2) + K^2 floats must fit in MAX_RUN_FLOATS
    = 10^8.  The parameters are only built, so no test here allocates a run
    or the K x K matrix of the Gauss rule."""

    @pytest.mark.parametrize("steps, nodes, dim, fits", [
        (16_666_666, 1, 1, True),       # 6 N + 4 = 10^8
        (16_666_667, 1, 1, False),
        (2_777_775, 8, 2, True),        # 36 N + 68 = 99 999 968
        (2_777_776, 8, 2, False),
        (1, 9_998, 1, True),            # K^2 + 3 K + 6 = 99 990 004
        (1, 9_999, 1, False),
    ])
    def test_cap_boundary(self, steps, nodes, dim, fits):
        assert scheme.MAX_RUN_FLOATS == 10**8

        def params():
            return SchemeParams(eps=1.0, tau=1.0, horizon_T=float(steps),
                                initial_point=pt(*[0.5] * dim),
                                quadrature_nodes_per_step=nodes, tau_star=16.0)
        if fits:
            params()
        else:
            with pytest.raises(ValueError, match="quadrature_nodes_per_step"):
                params()

    def test_overflowing_counts_fail_the_cap(self):
        for T, nodes in ((1e300, 8), (1.0, 10**400)):
            with pytest.raises(ValueError, match="horizon_T / tau"):
                SchemeParams(eps=1.0, tau=1e-3, horizon_T=T, initial_point=pt(0.5),
                             quadrature_nodes_per_step=nodes)


class TestArrayTrajectory:
    @pytest.mark.parametrize("name", RUNS)
    def test_equals_scalar_prox_loop(self, name):
        spec, params = RUNS[name]
        traj = run_scheme(spec, params)
        coords, energies, dists = scalar_prox_run(spec, params)
        assert np.array_equal(traj.coords, coords)
        assert np.array_equal(traj.step_energies, energies)
        assert np.array_equal(traj.step_distances, dists)

    @pytest.mark.parametrize("name", [*RUNS, "wiggly_2d_grid"])
    def test_energies_and_distances_are_prox_batchs(self, name):
        """``run_scheme`` takes the distances from the points after its loop;
        each step's must be, sign bits included, the distance moved that
        ``prox_batch`` gives for that step, whichever route took it.
        ``prox_batch`` reports no energy: ``test_equals_scalar_prox_loop``
        checks the energies.  On ``wiggly_2d_grid`` coordinate 1 takes the
        bracket route (2 - 1 / 0.05 + 1 / 0.1 < 0)."""
        spec, params = RUNS.get(name) or (
            wiggly(quadratic(WEIGHTED_PLANE, [1.0, 2.0], [0.0, 0.0])),
            SchemeParams(eps=0.05, tau=0.1, horizon_T=1.0, initial_point=pt(0.5, -0.3)))
        traj = run_scheme(spec, params)
        for i in range(traj.n_steps):
            res = prox_batch(spec, params.eps, [params.tau], traj.coords[i:i + 1],
                             params.prox_settings)
            assert float.hex(float(res.moved[0])) == float.hex(
                float(traj.step_distances[i]))

    @pytest.mark.parametrize("name", ["wiggly_2d", "multistart_9d", "centred_3d"])
    def test_stepper_takes_newton_steps_on_floats(self, name, monkeypatch):
        # Each coordinate row settles its guard on floats, so no step of a
        # run on the Newton route calls prox_batch or the array search
        # _zoom_1d, which a bracket-route kernel looks up in maxslope.search
        # at each call; multistart_9d keeps guards within local_tol of the
        # minimizer
        calls = []

        def counted(real):
            def call(*args, **kwargs):
                calls.append(1)
                return real(*args, **kwargs)
            return call
        monkeypatch.setattr(prox, "prox_batch", counted(prox.prox_batch))
        monkeypatch.setattr(search, "_zoom_1d", counted(search._zoom_1d))
        spec, params = RUNS[name]
        assert run_scheme(spec, params).n_steps == 100
        assert not calls

    def test_convex_coordinate_of_a_bracket_run_steps_on_floats(self):
        # only the bracket-route coordinate calls the array search, once a
        # step until it stops; the run is still the prox_batch loop's
        spec, params = RUNS["wiggly_2d_one_grid_row"]
        with mock.patch("maxslope.search._zoom_1d", wraps=search._zoom_1d) as zoomed:
            traj = run_scheme(spec, params)
        cols = [call.args[2].tolist() for call in zoomed.call_args_list]
        assert 0 < len(cols) <= traj.n_steps == 10
        assert cols == [[0]] * len(cols)
        coords, _, _ = scalar_prox_run(spec, params)
        assert traj.coords.tobytes() == coords.tobytes()

    def test_centred_run_keeps_its_trajectory(self):
        # sha256 of the little-endian coords, energies and distances of the
        # run when all of its steps went through prox_batch; a quadratic's
        # Newton steps use + - * / and sqrt only, so any IEEE platform
        # gives these bytes
        traj = run_scheme(*RUNS["centred_3d"])
        digest = hashlib.sha256()
        for arr in (traj.coords, traj.step_energies, traj.step_distances):
            digest.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        assert digest.hexdigest() == (
            "43d266a91e9bc8d4866ea01bd7728a4a9ef973c6f57ea1ae7d10bceeeeb59fff")
        assert (traj.coords[:, 1] == -0.2).all()

    def test_arrays_are_read_only(self, quad_traj):
        for arr in (quad_traj.coords, quad_traj.step_energies,
                    quad_traj.step_distances):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        with pytest.raises(ValueError):
            quad_traj.coords[:, 0] *= 2.0

    @staticmethod
    def nan_at_third_step(monkeypatch):
        # a closed-form 1D run takes every step by its one kernel
        calls = []
        real = scheme.stepper

        def fake(*args):
            def nan_kernel(kernel):
                def step(x):
                    v = kernel(x)
                    calls.append(1)
                    return math.nan if len(calls) == 3 else v
                return step
            return [nan_kernel(kernel) for kernel in real(*args)]
        monkeypatch.setattr(scheme, "stepper", fake)

    def test_non_finite_step_is_step_error(self, quad_1d, monkeypatch):
        self.nan_at_third_step(monkeypatch)
        with pytest.raises(SchemeStepError, match="prox failed at step 2") as info:
            run_scheme(quad_1d, quad_params())
        assert info.value.step_index == 2
        assert isinstance(info.value.cause, EvaluationError)
        assert np.isnan(info.value.cause.point).all()

    def test_non_finite_step_exits_2(self, quad_1d, monkeypatch, tmp_path, capsys):
        self.nan_at_third_step(monkeypatch)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "space": {"dimension": 1},
            "energy": {"kind": "quadratic", "weights": [1.0], "center": [0.0]},
            "command": {"run": {"eps": 1.0, "tau": 0.05, "horizon_T": 0.2,
                                "initial_point": [1.0]}},
            "output_dir": str(tmp_path / "out")}))
        assert main(["run", "--config", str(cfg)]) == EXIT_SOLVER
        assert capsys.readouterr().err.startswith(
            "solver error: prox failed at step 2: prox minimizer [nan] is not finite")

def reference_run(spec, params, faults):
    """The scheme as a loop of vector ``prox_batch`` steps, the coordinates
    of a step in order, as a reference for ``run_scheme``'s failures.
    Coordinate j raises at step i where ``faults[j, i]`` is "raise" and
    returns nan where it is "nan".  Returns the rows u^0, u^1, ... up to
    the failing step, and that step's ``SchemeStepError``, else None."""
    u = params.initial_point.array.tolist()
    rows = [u]
    for i in range(math.ceil(params.horizon_T / params.tau)):
        try:
            for j in range(len(u)):
                if faults.get((j, i)) == "raise":
                    raise EvaluationError(f"coordinate {j} fails at step {i}")
            v = prox_batch(spec, params.eps, [params.tau], [u],
                           params.prox_settings).minimizers[0].tolist()
            v = [math.nan if faults.get((j, i)) == "nan" else x for j, x in enumerate(v)]
            if not all(map(math.isfinite, v)):
                raise EvaluationError(f"prox minimizer {v} is not finite",
                                      point=np.array(v))
        except MaxslopeError as exc:
            return rows, SchemeStepError(i, exc)
        rows.append(v)
        u = v
    return rows, None


def faulty_stepper(faults):
    """``scheme.stepper`` whose kernel j raises at its call i where
    ``faults[j, i]`` is "raise" and returns nan where it is "nan"."""
    real = scheme.stepper

    def faulty(j, kernel):
        calls = itertools.count()

        def step(x):
            i = next(calls)
            kind = faults.get((j, i))
            if kind == "raise":
                raise EvaluationError(f"coordinate {j} fails at step {i}")
            v = kernel(x)
            return math.nan if kind == "nan" else v
        return step

    def make(*args):
        return [faulty(j, kernel) for j, kernel in enumerate(real(*args))]
    return make


def hex_rows(rows):
    return [[float.hex(float(x)) for x in row] for row in rows]


class TestFailureOrder:
    """Each coordinate steps alone, yet a run fails as the loop of vector
    steps fails: at the earliest step at which some coordinate raises or
    returns a non-finite value, a raise before a non-finite value and the
    lowest coordinate first, naming the whole point of a non-finite step."""

    @staticmethod
    def assert_run_matches(spec, params, faults):
        """``run_scheme`` with ``faults`` injected gives the reference's
        coordinates bit for bit, or its error: the same step index, type
        and text, and a non-finite step's point bit for bit.  Returns the
        reference's rows and error."""
        rows, error = reference_run(spec, params, faults)
        with mock.patch.object(scheme, "stepper", faulty_stepper(faults)):
            if error is None:
                traj = run_scheme(spec, params)
                n_steps = len(rows) - 1
                assert hex_rows(traj.coords[:n_steps + 1]) == hex_rows(rows)
                return rows, error
            with pytest.raises(SchemeStepError) as info:
                run_scheme(spec, params)
        found = info.value
        assert found.step_index == error.step_index
        assert str(found) == str(error)
        assert type(found.cause) is type(error.cause)
        assert str(found.cause) == str(error.cause)
        if getattr(error.cause, "point", None) is not None:
            assert hex_rows([found.cause.point]) == hex_rows([error.cause.point])
        return rows, error

    @staticmethod
    def own_stops(spec, params):
        """The step at which each coordinate first returns its input bit
        for bit, in the run without faults (the step count if never): its
        kernel is called at no later step."""
        rows, _ = reference_run(spec, params, {})
        bits = hex_rows(rows)
        n_steps = math.ceil(params.horizon_T / params.tau)
        return [next((i for i in range(len(bits) - 1) if bits[i + 1][j] == bits[i][j]),
                     n_steps) for j in range(len(bits[0]))]

    @pytest.mark.parametrize("n", [1, 2, 3, 9])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_matches_the_vector_loop(self, n, data):
        family = data.draw(st.sampled_from(
            ["quadratic", "convex_perturbed", "wiggly"] + ["custom_smooth"] * (n == 1)),
            label="family")
        exact = data.draw(st.booleans(), label="exact")
        if data.draw(st.booleans(), label="weighted"):
            space = SpaceDescriptor(n, metric_kind="diagonal_weighted", weights=tuple(
                data.draw(st.lists(st.sampled_from([0.25, 1.0, 4.0]) | st.floats(0.1, 10.0),
                                   min_size=n, max_size=n), label="metric")))
        else:
            space = SpaceDescriptor(n)
        center = data.draw(st.lists(st.sampled_from([0.0, -0.0]) | st.floats(-0.5, 0.5),
                                    min_size=n, max_size=n), label="center")
        u0 = [c + d for c, d in zip(center, data.draw(
            st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n), label="offsets"))]
        for j, value in data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from(
                ["centre", 0.0, -0.0])), max_size=3), label="special"):
            u0[j] = center[j] if value == "centre" else value
        if family == "custom_smooth":
            spec = custom_smooth(space, "0.5*x^2 + eps*cos(x/eps)")
        else:
            spec = quadratic(space, data.draw(st.lists(st.floats(0.5, 2.0), min_size=n,
                                                       max_size=n), label="weights"), center)
            spec = spec if family == "quadratic" else (
                wiggly(spec) if family == "wiggly" else convex_perturbed(spec))
        tau = data.draw(st.sampled_from([0.0025, 0.01, 0.05, 0.1]), label="tau")
        max_iters = data.draw(st.sampled_from([200_000, 1, 2, 3, 5, 8]), label="max_iters")
        params = SchemeParams(
            eps=data.draw(st.sampled_from([0.05, 0.1, 0.3]), label="eps"), tau=tau,
            horizon_T=tau * data.draw(st.integers(1, 6), label="steps"),
            initial_point=pt(*u0), initial_energy_bound_S=1e6,
            initial_distance_bound_Sprime=1e6,
            prox_settings=ProxSettings(mode=prox.EXACT_IF_AVAILABLE if exact
                                       else MULTISTART_NUMERIC, max_iters=max_iters))
        # an injected raise only where no step fails on its own, whose
        # order against it the reference, one vector step, cannot tell
        kinds = ["nan", "raise"] if max_iters == 200_000 else ["nan"]
        stops = self.own_stops(spec, params)
        faults = {(j, i): kind for j, i, kind in data.draw(st.lists(st.tuples(
            st.integers(0, n - 1), st.integers(0, 5), st.sampled_from(kinds)), max_size=3),
            label="faults") if i <= stops[j]}
        self.assert_run_matches(spec, params, faults)

    PLANE = quadratic(SpaceDescriptor(2), [1.0, 2.0], [0.0, 0.0])
    PARAMS = SchemeParams(eps=1.0, tau=0.1, horizon_T=0.6, initial_point=pt(1.0, -0.5))

    def test_raise_wins_over_nan_at_one_step(self):
        _, error = self.assert_run_matches(self.PLANE, self.PARAMS,
                                           {(0, 2): "nan", (1, 2): "raise"})
        assert str(error) == "prox failed at step 2: coordinate 1 fails at step 2"

    def test_earlier_nan_names_the_whole_point(self):
        # coordinate 0 runs first and raises at step 3; coordinate 1's nan
        # at step 2 is earlier, and its error holds coordinate 0's u^3
        _, error = self.assert_run_matches(self.PLANE, self.PARAMS,
                                           {(1, 2): "nan", (0, 3): "raise"})
        rows, _ = reference_run(self.PLANE, self.PARAMS, {})
        assert error.step_index == 2
        assert str(error.cause) == f"prox minimizer {[rows[3][0], math.nan]} is not finite"
        assert error.cause.point[0] == rows[3][0] != rows[2][0]

    def test_lowest_of_two_raises_wins(self):
        _, error = self.assert_run_matches(self.PLANE, self.PARAMS,
                                           {(0, 1): "raise", (1, 1): "raise"})
        assert str(error) == "prox failed at step 1: coordinate 0 fails at step 1"

    @pytest.mark.parametrize("max_iters, step", [(1, 0), (4, 20)])
    def test_budget_runs_out(self, max_iters, step):
        # a Newton-route wiggly run that first needs more than 4 iterates
        # in some coordinate at step 20
        spec = wiggly(quadratic(SpaceDescriptor(2), [1.0, 1.0], [0.0, 0.0]))
        params = SchemeParams(eps=0.05, tau=0.01, horizon_T=0.4, initial_point=pt(1.0, 0.2),
                              prox_settings=ProxSettings(max_iters=max_iters))
        _, error = self.assert_run_matches(spec, params, {})
        assert error.step_index == step
        assert isinstance(error.cause, BudgetExhaustedError)


class TestPiecewiseConstant:
    def test_value_at_zero_is_initial(self, quad_traj):
        assert np.array_equal(piecewise_constant_many(quad_traj, 0.0),
                              quad_traj.coords[0])

    def test_right_closed_at_node(self, quad_traj):
        # t = tau belongs to the first interval, so the value is u^1
        assert np.array_equal(piecewise_constant_many(quad_traj, 0.05),
                              quad_traj.coords[1])

    def test_just_past_node(self, quad_traj):
        assert np.array_equal(piecewise_constant_many(quad_traj, 0.050001),
                              quad_traj.coords[2])

    def test_negative_time_rejected(self, quad_traj):
        with pytest.raises(ValueError):
            piecewise_constant_many(quad_traj, -0.01)

    def test_past_horizon_rejected(self, quad_traj):
        with pytest.raises(ValueError):
            piecewise_constant_many(quad_traj, quad_traj.final_time + 1.0)

    @staticmethod
    def one_time_row(traj, t):
        """The per-time step search the rows replace, as a reference."""
        if t <= 0:
            return 0
        i = int(math.ceil(t / traj.tau)) - 1
        while i > 0 and t <= i * traj.tau:
            i -= 1
        return min(i, traj.n_steps - 1) + 1

    def test_rows_match_the_one_time_search(self, quad_1d):
        # the sweep's common grid (multiples of a coarser tau) read on a
        # finer level, with node times and their round-off neighbours
        traj = run_scheme(quad_1d, quad_params(tau=0.01, T=0.5))
        grid = np.arange(26) * 0.02
        times = np.concatenate([grid, np.nextafter(grid, 1.0)[:-1],
                                np.nextafter(grid, -1.0)[1:], np.arange(51) * 0.01])
        rows = piecewise_constant_many(traj, times)
        for t, row in zip(times, rows):
            assert np.array_equal(row, traj.coords[self.one_time_row(traj, float(t))])


class TestVelocityAndInterpolant:
    def test_discrete_velocity_closed_form(self, quad_1d):
        traj = run_scheme(quad_1d, quad_params(tau=0.1, T=0.1))
        # first step moves 1 - 1/1.1 = 1/11 over tau = 0.1
        assert math.isclose(traj.step_distances[0] / traj.tau, (1.0 / 11.0) / 0.1)

    def test_variational_interpolate_closed_form(self, quad_1d):
        traj = run_scheme(quad_1d, quad_params(tau=0.1, T=0.1))
        interp = build_interpolant(quad_1d, traj, SETTINGS)
        # prox of u0 = 1 at delta = t: 1 / (1 + t) on the first step
        for t, v in zip(interp.node_times[0], interp.values[0, :, 0]):
            assert math.isclose(v, 1.0 / (1.0 + t), rel_tol=1e-12)

    def test_g_closed_form(self, quad_1d):
        traj = run_scheme(quad_1d, quad_params(tau=0.1, T=0.1))
        interp = build_interpolant(quad_1d, traj, SETTINGS)
        # d(prox_delta(1), 1) / delta = 1 / (1 + delta) for the unit quadratic
        for delta, g in zip(interp.node_times[0], interp.g_values[0]):
            assert math.isclose(g, 1.0 / (1.0 + delta), rel_tol=1e-12)

    def test_g_dominates_slope_along_interpolant(self, wiggly_1d):
        traj = run_scheme(wiggly_1d, SchemeParams(
            eps=0.2, tau=0.05, horizon_T=0.2, initial_point=pt(1.0)))
        interp = build_interpolant(wiggly_1d, traj, SETTINGS)
        for v, g in zip(interp.values.reshape(-1, 1), interp.g_values.ravel()):
            slope = estimate_slope(wiggly_1d, 0.2, v)
            assert g >= slope - 1e-3


class TestGaussLegendre:
    def test_is_numpys_rule_bit_for_bit(self):
        # numpy.polynomial is the independent oracle; no command imports it
        for K in range(1, 129):
            nodes, weights = gauss_legendre(K)
            want_nodes, want_weights = np.polynomial.legendre.leggauss(K)
            assert nodes.tobytes() == want_nodes.tobytes(), K
            assert weights.tobytes() == want_weights.tobytes(), K

    def test_arrays_are_read_only(self):
        for arr in gauss_legendre(8):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0

    def test_second_call_returns_the_cached_arrays(self):
        first, second = gauss_legendre(5), gauss_legendre(5)
        assert first[0] is second[0] and first[1] is second[1]

    def test_needs_a_node(self):
        with pytest.raises(ValueError, match="K must be >= 1"):
            gauss_legendre(0)


class TestBuildInterpolant:
    def test_nodes_inside_open_intervals(self, quad_1d, quad_traj):
        interp = build_interpolant(quad_1d, quad_traj, SETTINGS)
        tau = quad_traj.tau
        for i in range(quad_traj.n_steps):
            assert np.all(interp.node_times[i] > i * tau)
            assert np.all(interp.node_times[i] < (i + 1) * tau)

    def test_weights_integrate_constants(self, quad_1d, quad_traj):
        interp = build_interpolant(quad_1d, quad_traj, SETTINGS)
        assert math.isclose(float(interp.weights.sum()), quad_traj.tau)

    def test_interpolant_energy_monotone_within_step(self, wiggly_1d):
        traj = run_scheme(wiggly_1d, SchemeParams(
            eps=0.2, tau=0.05, horizon_T=0.1, initial_point=pt(1.0)))
        interp = build_interpolant(wiggly_1d, traj, SETTINGS)
        for i in range(traj.n_steps):
            vals = eval_many(wiggly_1d, 0.2, interp.values[i]).tolist()
            assert all(b <= a + 1e-10 for a, b in zip(vals, vals[1:]))


    def test_run_of_no_step_has_no_node(self, quad_1d):
        # horizon_T / tau rounds to 0 steps, which no node problem follows
        traj = run_scheme(quad_1d, SchemeParams(eps=1.0, tau=1e300, horizon_T=1e-300,
                                                initial_point=pt(1.0), tau_star=1e302))
        interp = build_interpolant(quad_1d, traj, SETTINGS)
        assert traj.n_steps == 0
        assert interp.values.shape == (0, 8, 1) and interp.g_values.shape == (0, 8)

    @pytest.mark.parametrize("name", ["wiggly", "pinned", "wiggly_9d", "closed_form_2d",
                                      "custom_smooth"])
    def test_block_size_leaves_the_nodes_alone(self, name, monkeypatch):
        """Node problems are independent, so the block size may change only
        the speed: 1600 Newton rows, 3200 Newton rows of a run pinned from
        step 335 on, 1600 Newton-route problems of 9 coordinate rows, 1600
        closed-form rows of 2D problems and 160 bracket-route rows come out
        bit for bit the same, from blocks of 7 rows, which end inside steps,
        to one block of all N K problems."""
        if name in ("wiggly", "pinned"):
            spec, eps, tau, T, u0 = (wiggly(quadratic(SpaceDescriptor(1), [1.0], [0.0])),
                                     0.05, 0.0025, 0.5 if name == "wiggly" else 1.0,
                                     [0.5])
        elif name == "wiggly_9d":
            spec, eps, tau, T, u0 = (wiggly(quadratic(
                SpaceDescriptor(9), [1.0] * 9, [0.1 * j for j in range(9)])),
                0.05, 0.0025, 0.5, [0.5 - 0.1 * j for j in range(9)])
        elif name == "closed_form_2d":
            spec, eps, tau, T, u0 = (convex_perturbed(quadratic(
                SpaceDescriptor(2, metric_kind="diagonal_weighted", weights=(4.0, 1.0)),
                [1.0, 2.0], [0.0, 0.0])), 0.1, 0.005, 0.5, [1.0, -0.5])
        else:
            spec, eps, tau, T, u0 = (custom_smooth(
                SpaceDescriptor(1), "0.5*x^2 + eps*cos(x/eps) + 0.25*exp(-x^2)"),
                0.1, 0.01, 0.2, [0.5])
        traj = run_scheme(spec, SchemeParams(eps=eps, tau=tau, horizon_T=T,
                                             initial_point=pt(*u0)))
        assert (first_repeated_step(traj.coords) < traj.n_steps - 1) == (name == "pinned")
        found = set()
        rows = traj.n_steps * 8 * len(u0)
        for block in (7, 64, 512, 4096, 100_000, rows):
            monkeypatch.setattr(scheme, "INTERPOLANT_BLOCK", block)
            interp = build_interpolant(spec, traj, SETTINGS)
            found.add((interp.values.tobytes(), interp.g_values.tobytes()))
        assert len(found) == 1
        if rows <= 4096:
            # a run whose nodes fit in one block of 4096 rows sizes its node
            # pattern by its nodes, whatever the block: the least of three
            # traced peaks each, after the calls above made every cache
            peaks = {4096: math.inf, 100_000: math.inf}
            for _ in range(3):
                for block in peaks:
                    monkeypatch.setattr(scheme, "INTERPOLANT_BLOCK", block)
                    tracemalloc.start()
                    build_interpolant(spec, traj, SETTINGS)
                    peaks[block] = min(peaks[block], tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            assert peaks[100_000] <= peaks[4096]

class TestDeterminism:
    def test_rerun_is_bit_identical(self, wiggly_1d):
        params = SchemeParams(eps=0.1, tau=0.02, horizon_T=0.3,
                              initial_point=pt(0.5))
        a = run_scheme(wiggly_1d, params)
        b = run_scheme(wiggly_1d, params)
        assert np.array_equal(a.coords, b.coords)
        assert np.array_equal(a.step_energies, b.step_energies)


class TestCsv:
    def test_trajectory_rows(self, quad_1d, tmp_path):
        traj = run_scheme(quad_1d, quad_params(tau=0.1, T=0.2))
        path = tmp_path / "traj.csv"
        trajectory_to_csv(traj, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["i", "t", "x0", "energy", "step_distance"]
        assert len(rows) == traj.n_steps + 2
        assert rows[1][0] == "0"
        assert float(rows[1][4]) == 0.0
        assert math.isclose(float(rows[2][2]), 1.0 / 1.1, rel_tol=1e-12)

    def test_interpolant_rows(self, quad_1d, tmp_path):
        traj = run_scheme(quad_1d, quad_params(tau=0.1, T=0.1))
        interp = build_interpolant(quad_1d, traj, SETTINGS, nodes_per_step=4)
        path = tmp_path / "interp.csv"
        interpolant_to_csv(interp, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "x0", "g_value"]
        assert len(rows) == 1 + traj.n_steps * 4
        ts = [float(r[0]) for r in rows[1:]]
        assert ts == sorted(ts)

    SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-5, 0.1]

    @staticmethod
    def csv_writer_bytes(header, rows):
        """The bytes ``csv.writer`` writes for a header and rows."""
        with io.StringIO(newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
            return fh.getvalue().encode("utf-8")

    @pytest.mark.parametrize("chunk", [2, 1024])
    def test_trajectory_bytes_are_csv_writers(self, tmp_path, monkeypatch, chunk):
        # every special value in every column, across chunk boundaries
        monkeypatch.setattr(scheme, "_CSV_CHUNK", chunk)
        n, values = 2, self.SPECIAL
        coords = np.array([[values[(i + j) % 8] for j in range(n)] for i in range(9)])
        traj = scheme.DiscreteTrajectory(
            space=SpaceDescriptor(n), coords=coords, tau=0.1, eps=1.0,
            step_distances=np.array(values[3:] + values[:3][::-1])[:8],
            step_energies=np.array(values + [1.0]))
        path = tmp_path / "traj.csv"
        trajectory_to_csv(traj, path)
        rows = [[i, i * 0.1, *coords[i].tolist(), traj.step_energies[i].item(),
                 0.0 if i == 0 else traj.step_distances[i - 1].item()]
                for i in range(9)]
        assert path.read_bytes() == self.csv_writer_bytes(
            ["i", "t", "x0", "x1", "energy", "step_distance"], rows)

    @pytest.mark.parametrize("chunk", [3, 1024])
    def test_interpolant_bytes_are_csv_writers(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(scheme, "_CSV_CHUNK", chunk)
        traj = run_scheme(quadratic(SpaceDescriptor(1), [1.0], [0.0]),
                          quad_params(tau=0.1, T=0.2))
        values = np.array(self.SPECIAL).reshape(2, 4, 1)
        interp = scheme.VariationalInterpolant(
            parent=traj, node_times=np.array(self.SPECIAL[::-1]).reshape(2, 4),
            weights=np.full(4, 0.025), values=values,
            g_values=np.roll(self.SPECIAL, 3).reshape(2, 4))
        path = tmp_path / "interp.csv"
        interpolant_to_csv(interp, path)
        rows = [[t, x, g] for t, x, g in zip(interp.node_times.ravel().tolist(),
                                             values.ravel().tolist(),
                                             interp.g_values.ravel().tolist())]
        assert path.read_bytes() == self.csv_writer_bytes(["t", "x0", "g_value"], rows)
