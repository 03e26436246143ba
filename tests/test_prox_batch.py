"""The batched resolvent engine against a plain-loop reference, its own
B = 1 case and the dense-grid oracle."""

import itertools
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from maxslope.cli import EXIT_OK, EXIT_SOLVER, main
from maxslope.energy import (
    EnergySpec,
    convex_cells,
    convex_perturbed,
    coordinate_curvatures,
    curvature_floors,
    custom_smooth,
    energy_floors,
    eval_many,
    gradient_many,
    quadratic,
    wiggly,
)
from maxslope.errors import (
    BudgetExhaustedError,
    DimensionMismatchError,
    EvaluationError,
    InvalidDeltaError,
)
from maxslope.metric import SpaceDescriptor, distances
from maxslope.prox import MULTISTART_NUMERIC, ProxSettings, prox_batch, stepper
from maxslope.scheme import SchemeParams, build_interpolant, run_scheme
from maxslope.search import _members, _newton_1d, _newton_row, _precedes, _select, _zoom_1d

from conftest import brute_force_prox_1d, prox_objective, pt

DEFAULTS = ProxSettings()
NUMERIC = ProxSettings(mode=MULTISTART_NUMERIC)
LINE = SpaceDescriptor(1)
WEIGHTED_PLANE = SpaceDescriptor(2, metric_kind="diagonal_weighted",
                                 weights=(4.0, 1.0))

# (spec, eps, settings, coordinate range) per family
FAMILIES = {
    "wiggly": (wiggly(quadratic(LINE, [1.0], [0.0])), 0.05, DEFAULTS, 1.5),
    "convex_perturbed": (convex_perturbed(quadratic(LINE, [1.0], [0.0])), 0.1,
                         NUMERIC, 1.5),
    "custom_smooth": (custom_smooth(
        LINE, "0.5*x^2 + eps*cos(x/eps) + 0.25*exp(-x^2)"), 0.05, DEFAULTS, 1.5),
    "double_well": (custom_smooth(LINE, "x^4 - x^2"), 1.0, DEFAULTS, 1.0),
    "weighted_2d_quadratic": (quadratic(WEIGHTED_PLANE, [1.0, 2.0], [0.3, -0.2]),
                              1.0, DEFAULTS, 1.5),
    "weighted_2d_convex_perturbed": (convex_perturbed(
        quadratic(WEIGHTED_PLANE, [1.0, 2.0], [0.0, 0.0])), 0.1, DEFAULTS, 1.5),
}


def assert_row_matches_scalar(batch, b, spec, eps, delta, u, prox_settings):
    """Row ``b`` of a batch is bit for bit the B = 1 solve of its problem."""
    res = prox_batch(spec, eps, [delta], [u], prox_settings)
    assert tuple(batch.minimizers[b]) == tuple(res.minimizers[0])
    assert batch.moved[b] == res.moved[0]
    ties = [tuple(p) for p in batch.tie_points[batch.tie_rows == b]]
    assert ties == [tuple(t) for t in res.tie_points]
    assert batch.near_tie[b] == bool(len(res.tie_points))
    largest = max([res.moved[0]]
                  + [distances(spec.domain, t, u) for t in res.tie_points])
    assert batch.tie_moved[b] == largest


def reference_prox_1d(spec, eps, delta, u, prox_settings):
    """The 1D resolvent one problem at a time, as plain loops: the window,
    its brackets of F(v) = phi'(v) + c (v - u), c = m / delta, and the
    safeguarded Newton iteration on each, from where F's chord crosses 0
    (from u on the window).  The one bracket is the window
    where the curvature floor certifies the objective convex, else each of
    the family's convex cells where F rises through 0, or, for a family
    without cells, each - to + sign change of F on a 257-point scan, with
    the window ends where F points outward as candidates too.

    Returns the minimizer, its distance from u and the near ties; the
    batched engine must reproduce all three bit for bit.
    """
    mw = spec.domain.metric_weights()
    m = float(mw[0])
    tol = prox_settings.local_tol
    c = m / delta

    def objective(xs):
        diff = xs[:, None] - u
        return (eval_many(spec, eps, xs[:, None])
                + (mw * diff * diff).sum(axis=1) / (2.0 * delta))

    def dist(a, b):
        d = np.array([a - b])
        return math.sqrt(float(np.dot(mw * d, d)))

    def slope(xs):
        return gradient_many(spec, eps, xs[:, None])[:, 0] + c * (xs - u)

    def curvature_at(x):
        return float(coordinate_curvatures(spec, eps, np.zeros(1, dtype=int),
                                           np.array([x]))[1][0])

    def chord(a, b, fa, fb):
        # the start on [a, b]: where the chord of F crosses 0
        return a + (fa / (fa - fb) if fb > fa else 0.0) * (b - a)

    def rtsafe(x, lo, hi):
        step_old = step = hi - lo
        while True:
            f = float(slope(np.array([x]))[0])
            df = curvature_at(x) + c
            if f < 0:
                lo = x
            else:
                hi = x
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = float(np.float64(f) / df)     # inf or nan where F' = 0
            newton = x - ratio
            ok = abs(ratio) <= 0.5 * step_old and lo <= newton <= hi
            half = 0.5 * (hi - lo)
            x = newton if ok else lo + half
            step_old, step = step, abs(ratio) if ok else half
            if step <= round_off:
                return x

    floors = energy_floors(spec, eps)
    if floors is None:
        g = gradient_many(spec, eps, np.array([[u]]))[0]
        radius = 2.0 * max(1.0, delta * float(np.sqrt((g * g).sum())))
    else:
        # |v - u| <= sqrt(2 delta (phi(u) - phi_low) / m), with round-off slack
        energy_u = float(eval_many(spec, eps, np.array([[u]]))[0])
        floor = float(floors[0])
        slack = 1e-12 * (1.0 + abs(energy_u) + abs(floor))
        radius = math.sqrt(2.0 * delta * (energy_u - floor + slack) / m)
    round_off = 4 * 2.0 ** -52 * max(1.0, abs(u) + radius)
    lo, hi = u - radius, u + radius
    kappas = curvature_floors(spec, eps)
    if kappas is not None and kappas[0] + m / delta > 0:
        starts, ends = [(u, lo, hi)], []
    elif (cells := convex_cells(spec, eps, np.zeros(1, dtype=int), *(
            np.array([v]) for v in (c, u, lo, hi, round_off)), tol)) is None:
        xs = np.linspace(lo, hi, 257)
        fs = slope(xs)
        starts = [(chord(a, b, fa, fb), a, b) for a, b, fa, fb in zip(xs, xs[1:], fs, fs[1:])
                  if fa < 0 and fb >= 0]
        ends = [lo] * bool(fs[0] >= 0) + [hi] * bool(fs[-1] < 0)
    else:
        count, arcs = cells
        ends = arcs(np.zeros(int(count[0]), dtype=int), np.arange(int(count[0])))
        starts = [(chord(a, b, fa, fb), a, b) for a, b in zip(*ends)
                  for fa, fb in [slope(np.array([a, b])).tolist()]
                  if a <= b and fa <= 0 and fb >= 0]
        ends = []
    points = [rtsafe(*start) for start in starts] + ends + [u]
    candidates = list(zip(points, objective(np.array(points)).tolist()))
    best = min(candidates,
               key=lambda c: (c[1], float((mw * (c[0] - u) ** 2).sum()), c[0]))[0]
    value = float(objective(np.array([best]))[0])
    ties = [c for c, v in candidates
            if v <= value + tol and dist(c, best) > 10.0 * math.sqrt(tol)]
    return best, dist(best, u), ties


def problems(dim, radius):
    point = st.lists(st.floats(-radius, radius), min_size=dim, max_size=dim)
    delta = st.sampled_from([1e-4, 2.5e-3, 0.01, 0.1, 0.5])
    return st.lists(st.tuples(point, delta), min_size=1, max_size=12)


class TestBatchEqualsScalar:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_mixed_batch_is_bitwise_scalar(self, family, data):
        spec, eps, prox_settings, radius = FAMILIES[family]
        rows = data.draw(problems(spec.domain.dimension, radius))
        U = np.array([u for u, _ in rows], dtype=float)
        deltas = np.array([d for _, d in rows])
        batch = prox_batch(spec, eps, deltas, U, prox_settings)
        for b, (u, delta) in enumerate(rows):
            assert_row_matches_scalar(batch, b, spec, eps, delta, u, prox_settings)

    def test_double_well_near_tie_sets_flag_and_g_max(self):
        # From u = 0 both wells of x^4 - x^2 tie; the row between two
        # ordinary problems must report the mirror well.
        spec, eps, prox_settings, _ = FAMILIES["double_well"]
        U = np.array([[0.7], [0.0], [-0.4]])
        deltas = np.array([0.1, 100.0, 0.1])
        batch = prox_batch(spec, eps, deltas, U, prox_settings)
        assert list(batch.near_tie) == [False, True, False]
        assert list(batch.tie_rows) == [1]
        root = math.sqrt((2.0 - 1.0 / 100.0) / 4.0)
        assert abs(batch.minimizers[1, 0] + root) < 1e-3
        assert abs(batch.tie_points[0, 0] - root) < 1e-3
        assert batch.tie_moved[1] == max(batch.moved[1], abs(batch.tie_points[0, 0]))
        for b in range(3):
            assert_row_matches_scalar(batch, b, spec, eps, deltas[b], U[b],
                                      prox_settings)

    def test_interpolant_nodes_are_scalar_solves(self):
        spec, eps, prox_settings, _ = FAMILIES["wiggly"]
        traj = run_scheme(spec, SchemeParams(eps=eps, tau=eps ** 2, horizon_T=0.1,
                                             initial_point=pt(0.5)))
        interp = build_interpolant(spec, traj, prox_settings)
        nodes, _ = np.polynomial.legendre.leggauss(interp.node_times.shape[1])
        for i in range(traj.n_steps):
            for k, delta in enumerate(0.5 * traj.tau * (nodes + 1.0)):
                u = traj.coords[i]
                res = prox_batch(spec, eps, [delta], [u], prox_settings)
                assert tuple(interp.values[i, k]) == tuple(res.minimizers[0])
                moved = max([res.moved[0]] + [
                    distances(spec.domain, t, u) for t in res.tie_points])
                assert interp.g_values[i, k] == moved / delta


class TestAgainstLoopReference:
    EXTRA = {
        "weighted_wiggly": (wiggly(quadratic(SpaceDescriptor(
            1, metric_kind="diagonal_weighted", weights=(3.0,)), [2.0], [0.3])),
            0.1, DEFAULTS, 1.5),
        # every row on the Newton route
        "numeric_quadratic": (quadratic(LINE, [2.0], [0.3]), 1.0, NUMERIC, 1.5),
        # Newton rows whose minimizer may lie on the kink of eps*|x|, with a
        # tiny local_tol
        "kink_roundoff": (FAMILIES["convex_perturbed"][0], 0.1, ProxSettings(
            mode=MULTISTART_NUMERIC, local_tol=1e-300), 0.05),
    }

    @pytest.mark.parametrize("family", ["wiggly", "weighted_wiggly", "kink_roundoff",
                                        "convex_perturbed", "custom_smooth",
                                        "double_well", "numeric_quadratic"])
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_batched_zoom_reproduces_the_loop(self, family, data):
        # wiggly rows at delta = 0.1 and 0.5 and every custom_smooth row take
        # the bracket route, the others the Newton route
        spec, eps, prox_settings, radius = (self.EXTRA.get(family)
                                            or FAMILIES[family])
        rows = data.draw(problems(1, radius))
        batch = prox_batch(spec, eps, [d for _, d in rows],
                           [u for u, _ in rows], prox_settings)
        for b, (u, delta) in enumerate(rows):
            best, moved, ties = reference_prox_1d(spec, eps, delta, u[0],
                                                  prox_settings)
            assert batch.minimizers[b, 0] == best
            assert batch.moved[b] == moved
            assert list(batch.tie_points[batch.tie_rows == b, 0]) == ties


class TestSeparable:
    """The numeric prox solves each coordinate as its own 1D problem; the
    dense-grid oracle checks 1D problems and each coordinate of 2D ones."""

    WEIGHTS, CENTER = (1.0, 2.0), (0.3, -0.2)
    WRAP = {"quadratic": lambda q: q, "wiggly": wiggly,
            "convex_perturbed": convex_perturbed}

    def spec(self, family, space, weights, center):
        return self.WRAP[family](quadratic(space, weights, center))

    @pytest.mark.parametrize("family", sorted(WRAP))
    @settings(max_examples=20, deadline=None)
    @given(eps=st.floats(0.05, 1.0), delta=st.floats(1e-3, 0.5),
           u=st.lists(st.floats(-1.5, 1.5), min_size=2, max_size=2))
    def test_weighted_2d_matches_per_coordinate_oracle(self, family, eps, delta, u):
        spec = self.spec(family, WEIGHTED_PLANE, self.WEIGHTS, self.CENTER)
        batch = prox_batch(spec, eps, [delta], [u], NUMERIC)
        step, oracle_value, slack = 1e-4, 0.0, 0.0
        for j, m in enumerate(WEIGHTED_PLANE.metric_weights()):
            line_spec = self.spec(family, LINE, [self.WEIGHTS[j]], [self.CENTER[j]])
            v = brute_force_prox_1d(line_spec, eps, delta, u[j], radius=3.0,
                                    step=step, metric_weight=m)
            oracle_value += (eval_many(line_spec, eps, [[v]])[0]
                             + m * (v - u[j]) ** 2 / (2.0 * delta))
            # the grid's best lies above the minimum by at most L h^2 / 8,
            # L the curvature bound, plus eps h next to the kink of eps |x|
            slack += (self.WEIGHTS[j] + m / delta + 1.0 / eps) * step ** 2 / 8 + eps * step
            if family != "wiggly":      # strictly convex: one minimizer
                assert abs(batch.minimizers[0, j] - v) <= step
        value = prox_objective(spec, eps, [delta], [u], batch.minimizers)[0]
        assert oracle_value - slack <= value
        assert value <= oracle_value + 2 * NUMERIC.local_tol

    @pytest.mark.parametrize("family, eps_range, route", [
        ("quadratic", (0.05, 1.0), "newton"),
        ("wiggly", (0.5, 1.0), "newton"),       # w - 1/eps + m/delta > 0
        ("wiggly", (0.02, 0.05), "brackets"),   # many wells in the window
        ("convex_perturbed", (0.05, 1.0), "newton"),    # convex, with a kink
    ])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_1d_value_matches_oracle(self, family, eps_range, route, data):
        eps = data.draw(st.floats(*eps_range))
        delta = data.draw(st.floats(0.1, 0.5) if route == "brackets"
                          else st.floats(1e-3, 0.5))
        u = data.draw(st.floats(-1.5, 1.5))
        w, m = self.WEIGHTS[0], 1.0
        spec = self.spec(family, LINE, [w], [self.CENTER[0]])
        kappas = curvature_floors(spec, eps)
        assert (route == "newton") == (kappas is not None and kappas[0] + m / delta > 0)
        batch = prox_batch(spec, eps, [delta], [[u]], NUMERIC)
        step = 1e-4
        v = brute_force_prox_1d(spec, eps, delta, u, radius=3.0, step=step)
        oracle_value = eval_many(spec, eps, [[v]])[0] + m * (v - u) ** 2 / (2.0 * delta)
        # values, not points: a near tie may pick either well
        slack = (w + m / delta + 1.0 / eps) * step ** 2 / 8 + eps * step
        value = prox_objective(spec, eps, [delta], [[u]], batch.minimizers)[0]
        assert oracle_value - slack <= value
        assert value <= oracle_value + 2 * NUMERIC.local_tol

    def test_mirror_wells_tie_as_a_product(self):
        # Near u = 0 each coordinate of this wiggly energy has two mirror
        # wells, so the four corners tie: the chosen one and three ties.  The
        # offset of u makes the wells differ by less than local_tol, but not
        # to the bit.
        spec = self.spec("wiggly", WEIGHTED_PLANE, self.WEIGHTS, (0.0, 0.0))
        eps, delta, u = 0.1, 1.0, np.array([1e-11, -1e-11])
        batch = prox_batch(spec, eps, [delta], [u], NUMERIC)
        assert list(batch.near_tie) == [True]
        # one tie per coordinate, each the minimizer with that coordinate
        # swapped; the corners are the product of the rows' {choice, tie}
        assert list(batch.tie_rows) == [0, 0]
        V = batch.minimizers[0]
        swapped = [np.flatnonzero(t != V).tolist() for t in batch.tie_points]
        assert swapped == [[0], [1]]
        found = np.array(list(itertools.product(*(
            [V[j], batch.tie_points[j, j]] for j in range(2)))))

        # Brute force: the local minima of a 2D grid whose value is within
        # the grid's resolution of its lowest.  Minimality bounds |v - u| in
        # the metric by sqrt(2 delta (phi(u) - inf phi) / m) <= 0.9 / sqrt(m).
        h = 2e-3
        mw = WEIGHTED_PLANE.metric_weights()
        axes = [np.arange(-0.9 / math.sqrt(m), 0.9 / math.sqrt(m) + h, h) for m in mw]
        X = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        off = X.reshape(-1, 2) - u
        obj = (eval_many(spec, eps, X.reshape(-1, 2))
               + (mw * off * off).sum(axis=1) / (2.0 * delta)).reshape(X.shape[:2])
        inner = obj[1:-1, 1:-1]
        is_min = np.ones(inner.shape, dtype=bool)
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                if di or dj:
                    is_min &= inner <= obj[1 + di:obj.shape[0] - 1 + di,
                                           1 + dj:obj.shape[1] - 1 + dj]
        is_min &= inner <= obj.min() + 1e-4
        oracle = X[1:-1, 1:-1][is_min]
        assert len(oracle) == 4

        def lexicographic(P):
            return P[np.lexsort(P.T[::-1])]
        assert np.abs(lexicographic(found) - lexicographic(oracle)).max() <= h
        reach = np.sqrt((mw * (oracle - u) ** 2).sum(axis=1)).max()
        assert abs(batch.tie_moved[0] - reach) <= h * math.sqrt(mw.sum())

    @pytest.mark.parametrize("family", ["quadratic", "convex_perturbed"])
    def test_trajectory_stays_near_the_closed_form(self, family):
        spec = self.spec(family, WEIGHTED_PLANE, self.WEIGHTS, self.CENTER)
        params = SchemeParams(eps=0.01, tau=0.005, horizon_T=1.0,
                              initial_point=pt(1.0, -0.8))
        exact = run_scheme(spec, params)
        # the records validate on construction, and _replace would skip that
        numeric = run_scheme(spec, SchemeParams(**{**params._asdict(),
                                                   "prox_settings": NUMERIC}))
        assert np.abs(numeric.coords - exact.coords).max() <= 1e-6


def coordinate_member(spec, j):
    """The 1D member of ``spec``'s family on coordinate ``j``, on the
    Euclidean line: ``spec`` at x is the sum of these at the x_j."""
    if spec.kind == "quadratic":
        return quadratic(LINE, [spec.weights[j]], [spec.center[j]])
    return EnergySpec(**{**spec._asdict(), "domain": LINE,
                         "base": coordinate_member(spec.base, j)})


def reference_separable(spec, eps, deltas, U, prox_settings):
    """The nD numeric resolvent as a loop over coordinates: coordinate j's
    B rows searched on their own as a 1D energy, each row settled by its
    route.  A problem's minimizer is its rows' choices, its tie points are
    the minimizer with one coordinate swapped to one of that row's ties,
    and its tie displacement is that of the farthest point of the product
    of its rows' {choice, ties}.

    Returns the minimizers, their distances from U, near-tie flags, tie
    rows, tie points and tie displacements; the one search over all B n
    coordinate rows must reproduce them bit for bit.
    """
    B, n = U.shape
    mw = spec.domain.metric_weights()
    V, reach, ties = np.empty((B, n)), np.empty((B, n)), []
    for j in range(n):
        u, m = U[:, j], np.full(B, mw[j])
        x, tie_rows, tie_x = _zoom_1d(coordinate_member(spec, j), eps,
                                      np.zeros(B, dtype=int), deltas, u, m, prox_settings)
        V[:, j] = x
        off = x - u
        reach[:, j] = m * off * off
        for b, point in zip(tie_rows, tie_x):
            ties.append((b, j, point))
            off = point - u[b]
            reach[b, j] = max(reach[b, j], m[b] * off * off)
    ties.sort(key=lambda tie: tie[:2])      # stable: candidate order within a row
    tie_rows = np.array([b for b, _, _ in ties], dtype=int)
    tie_points = V[tie_rows]
    for k, (_, j, point) in enumerate(ties):
        tie_points[k, j] = point
    diff = V - U
    moved = np.sqrt((mw * diff * diff).sum(axis=1))
    near_tie = np.zeros(B, dtype=bool)
    near_tie[tie_rows] = True
    return V, moved, near_tie, tie_rows, tie_points, np.sqrt(reach.sum(axis=1))


class TestAgainstCoordinateLoop:
    """The one search over the B n coordinate rows of a batch against the
    loop that searches each coordinate on its own, bit for bit."""

    WRAP = TestSeparable.WRAP

    @staticmethod
    def assert_matches_loop(spec, eps, deltas, U):
        batch = prox_batch(spec, eps, deltas, U, NUMERIC)
        V, moved, near_tie, tie_rows, tie_points, tie_moved = reference_separable(
            spec, eps, deltas, U, NUMERIC)
        assert np.array_equal(batch.minimizers, V)
        assert np.array_equal(batch.moved, moved)
        assert np.array_equal(batch.near_tie, near_tie)
        assert np.array_equal(batch.tie_rows, tie_rows)
        assert np.array_equal(batch.tie_points, tie_points)
        assert np.array_equal(batch.tie_moved, tie_moved)
        return batch

    @pytest.mark.parametrize("family", sorted(WRAP))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_matches_the_coordinate_loop(self, family, data):
        n = data.draw(st.sampled_from([2, 3]), label="n")
        if data.draw(st.booleans(), label="weighted"):
            space = SpaceDescriptor(n, metric_kind="diagonal_weighted", weights=tuple(
                data.draw(st.lists(st.sampled_from([0.25, 1.0, 4.0]),
                                   min_size=n, max_size=n), label="metric")))
        else:
            space = SpaceDescriptor(n)
        # centres and coordinates at 0 put a wiggly coordinate's wells in
        # mirror pairs that tie
        center = st.lists(st.one_of(st.just(0.0), st.floats(-0.5, 0.5)),
                          min_size=n, max_size=n)
        weights = data.draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n))
        spec = self.WRAP[family](quadratic(space, weights, data.draw(center)))
        eps = data.draw(st.sampled_from([0.02, 0.05, 0.1, 0.3]), label="eps")
        # steps on both sides of a / eps - w - m, so that wiggly batches mix
        # Newton and bracket rows
        problems = st.lists(st.tuples(
            st.lists(st.one_of(st.just(0.0), st.floats(-1.5, 1.5)),
                     min_size=n, max_size=n),
            st.sampled_from([1e-4, 2.5e-3, 0.01, 0.1, 1.0])), min_size=1, max_size=8)
        rows = data.draw(problems, label="problems")
        U = np.array([u for u, _ in rows], dtype=float)
        deltas = np.array([d for _, d in rows])
        self.assert_matches_loop(spec, eps, deltas, U)

    def test_mirror_wells_match_the_coordinate_loop(self):
        # The 2D double well of TestSeparable: near u = 0 each coordinate
        # has two mirror wells, so four corners tie (row 1), or two where
        # only one coordinate sits between wells (row 2).  Row 0 takes the
        # Newton route, the others the bracket route.
        spec = wiggly(quadratic(WEIGHTED_PLANE, [1.0, 2.0], [0.0, 0.0]))
        U = np.array([[0.4, -0.3], [1e-11, -1e-11], [0.6, 1e-11]])
        deltas = np.array([1e-4, 1.0, 1.0])
        batch = self.assert_matches_loop(spec, 0.1, deltas, U)
        assert list(batch.near_tie) == [False, True, True]
        # one tie per tied coordinate: both of row 1's, one of row 2's
        assert list(batch.tie_rows) == [1, 1, 2]

    def test_flat_rows_leave_their_guards_to_the_nd_ranking(self):
        # Curvature 1e-8 + 1 / 1e6 on both coordinates: from u = 0 each
        # coordinate's minimizer lies 0.99 center / 100 away, under 1e-9
        # below its guard.  The nD ranking of a separable problem is the
        # product of its rows' rankings, so each row settles its own guard by
        # the 1D rule.  At center 0.025 the minimizer is 2.5e-4 from u, inside
        # the tie gap 10 sqrt(local_tol) = 3.2e-4, so each row drops its
        # guard; at 0.05 it is 5e-4, so each row keeps its guard as a near
        # tie.  A guard lies at distance 0 from u, so it never raises
        # tie_moved.  Every row takes the Newton route.
        for center, ties in ((0.025, []), (0.05, [0, 0])):
            spec = quadratic(SpaceDescriptor(2), [1e-8, 1e-8], [center, center])
            U = np.array([[0.0, 0.0], [0.3, -0.2]])
            with mock.patch("maxslope.search._select",
                            side_effect=AssertionError("bracket route taken")):
                batch = self.assert_matches_loop(spec, 1.0, np.array([1e6, 1.0]), U)
            assert list(batch.tie_rows) == ties
            assert np.array_equal(batch.tie_moved, batch.moved)

    def test_both_routes_tie_in_one_batch(self):
        # Curvature floor 1e-8 - 1e-6 on both rows: row 0 (delta 3e5) is
        # certified convex and row 1 (delta 1e7) is not, so the bracket
        # route settles both, row 0 as the Newton route settles it alone,
        # and each keeps its guard v = u as a near tie.
        spec = wiggly(quadratic(LINE, [1e-8], [0.1]), amplitude_scale=1e-6)
        deltas, U = np.array([3e5, 1e7]), np.array([[0.0], [3.14159]])
        # one bracket-route ranking for the batch, one Newton-route
        # settling alone
        with mock.patch("maxslope.search._newton_1d", wraps=_newton_1d) as newton, \
                mock.patch("maxslope.search._select", wraps=_select) as select:
            batch = prox_batch(spec, 1.0, deltas, U, NUMERIC)
            assert (newton.call_count, select.call_count) == (0, 1)
            alone = prox_batch(spec, 1.0, deltas[:1], U[:1], NUMERIC)
            assert (newton.call_count, select.call_count) == (1, 1)
        for field in ("minimizers", "moved", "tie_points", "tie_moved"):
            assert getattr(batch, field)[:1].tobytes() == getattr(alone, field).tobytes()
        self.assert_matches_loop(spec, 1.0, deltas, U)
        # the Newton row to the bit, and its guard 0 as its tie
        hexes = [float.hex(float(a[0])) for a in (
            batch.minimizers[:, 0], batch.moved, batch.tie_points[:, 0], batch.tie_moved)]
        assert hexes == ["0x1.bf78d31edf414p-12", "0x1.bf78d31edf414p-12", "0x0.0p+0",
                         "0x1.bf78d31edf414p-12"]
        # the bracket row at its well's root, within the dense grid's
        # spacing, and its guard as its tie
        v = batch.minimizers[1, 0]
        assert abs(v - brute_force_prox_1d(spec, 1.0, 1e7, 3.14159, radius=0.1,
                                           step=1e-6)) <= 1e-6
        assert batch.tie_points[1, 0] == 3.14159
        assert batch.moved[1] == batch.tie_moved[1] == abs(v - 3.14159)
        assert list(batch.tie_rows) == [0, 1]
        assert list(batch.near_tie) == [True, True]


class TestNewtonRoute:
    """Rows whose objective the curvature floor certifies strictly convex:
    w + m / delta > 0 for a quadratic, w + m / delta - a / eps > 0 for wiggly."""

    @pytest.mark.parametrize("family", ["quadratic", "wiggly"])
    @settings(max_examples=40, deadline=None)
    @given(eps=st.floats(0.02, 1.0), delta=st.floats(1e-4, 0.5),
           u=st.floats(-1.5, 1.5), m=st.sampled_from([0.25, 1.0, 4.0]),
           w=st.floats(0.5, 2.0))
    def test_matches_dense_grid_and_is_stationary(self, family, eps, delta, u, m, w):
        space = SpaceDescriptor(1, metric_kind="diagonal_weighted", weights=(m,))
        spec = quadratic(space, [w], [0.3])
        if family == "wiggly":
            spec = wiggly(spec)
        mu = curvature_floors(spec, eps)[0] + m / delta     # objective'' >= mu
        assume(mu > 0)
        with mock.patch("maxslope.search._select",
                        side_effect=AssertionError("bracket route taken")):
            batch = prox_batch(spec, eps, [delta], [[u]], NUMERIC)
        v = batch.minimizers[0, 0]

        # stationarity at round-off: a few ulps of the terms of
        # F(v) = phi'(v) + m (v - u) / delta and of F' times |v|
        lipschitz = w + (1.0 / eps if family == "wiggly" else 0.0) + m / delta
        g = gradient_many(spec, eps, [[v]])[0, 0]
        pull = m * (v - u) / delta
        ulp = np.finfo(float).eps
        assert abs(g + pull) <= 8 * ulp * (abs(g) + abs(pull) + 1.0
                                           + lipschitz * max(1.0, abs(v)))

        # the dense grid over the certified window: its best point is within
        # (h / 2) sqrt(L / mu) of the minimizer and above it by at most
        # L h^2 / 8, L the objective's curvature bound
        phi_u = eval_many(spec, eps, [[u]])[0]
        radius = math.sqrt(2.0 * delta * (phi_u - energy_floors(spec, eps)[0]) / m)
        step = max(radius, 1e-9) / 2000
        oracle = brute_force_prox_1d(spec, eps, delta, u, radius=radius + 2 * step,
                                     step=step, metric_weight=m)
        oracle_value = eval_many(spec, eps, [[oracle]])[0] + m * (oracle - u) ** 2 / (2 * delta)
        assert abs(v - oracle) <= 0.5 * step * math.sqrt(lipschitz / mu) + 1e-12
        slack = 1e-12 * (1.0 + abs(oracle_value))
        value = prox_objective(spec, eps, [delta], [[u]], batch.minimizers)[0]
        assert oracle_value - lipschitz * step ** 2 / 8 - slack <= value
        assert value <= oracle_value + slack

    @pytest.mark.parametrize("u, center", [(0.0, 0.3), (0.2, -0.1), (-0.5, -0.2)])
    def test_flat_row_keeps_its_guard_as_a_near_tie(self, u, center):
        # Curvature 1e-8 + 1 / 1e6: the minimizer lies about 0.003 from u
        # but under 1e-9 below it, so the guard v = u is a near tie that
        # the kernel must hand on, bit for bit as the loop reference finds it.
        spec, delta = quadratic(LINE, [1e-8], [center]), 1e6
        with mock.patch("maxslope.search._select",
                        side_effect=AssertionError("bracket route taken")):
            batch = prox_batch(spec, 1.0, [delta], [[u]], NUMERIC)
        best, moved, ties = reference_prox_1d(spec, 1.0, delta, u, NUMERIC)
        assert ties == [u]
        assert batch.minimizers[0, 0] == best
        assert batch.moved[0] == moved
        assert list(batch.near_tie) == [True]
        assert list(batch.tie_points[:, 0]) == ties
        assert batch.tie_moved[0] == max(abs(best - u), *(abs(t - u) for t in ties))
        assert_row_matches_scalar(batch, 0, spec, 1.0, delta, [u], NUMERIC)

    def test_pinned_steps_skip_the_selection(self):
        # The pinning run's steps and its interpolant's nodes are all on
        # the Newton route, which settles each row itself, so nothing ranks
        # candidates, even where the minimizer and the guard v = u are
        # within local_tol of each other.
        spec, eps, _, _ = FAMILIES["wiggly"]
        with mock.patch("maxslope.search._select", wraps=_select) as select:
            traj = run_scheme(spec, SchemeParams(eps=eps, tau=eps ** 2, horizon_T=1.0,
                                                 initial_point=pt(0.5)))
            interp = build_interpolant(spec, traj, DEFAULTS)
        assert traj.n_steps == 400
        assert interp.values.shape[:2] == (400, 8)
        assert select.call_count == 0


class TestNewtonStepper:
    """The scheme's B = 1 stepper, its kernels on the closed forms, the
    Newton row kernel and the one-row bracket search, against
    ``prox_batch``, bit for bit, and its calls of ``_zoom_1d`` off the
    Newton route.  With ``TestArraySweep`` this keeps ``_newton_row``,
    plain float code, in step with the array kernel."""

    @staticmethod
    def assert_step_matches(spec, eps, delta, u, prox_settings):
        """The stepper's kernels' minimizer from ``u`` is ``prox_batch``'s,
        sign bits included.  A kernel that calls ``_zoom_1d``, looked up in
        ``maxslope.search``, is off the Newton route, and so is its
        coordinate's row.  Returns the minimizer and the number of such
        calls."""
        kernels = stepper(spec, eps, delta, prox_settings)
        u = [float(v) for v in u]
        with mock.patch("maxslope.search._zoom_1d", wraps=_zoom_1d) as zoomed:
            found = [step(x) for step, x in zip(kernels, u)]
        res = prox_batch(spec, eps, [delta], [u], prox_settings)
        assert list(map(float.hex, found)) == list(map(float.hex,
                                                       res.minimizers[0].tolist()))
        mw, kappa = spec.domain.metric_weights(), curvature_floors(spec, eps)
        if zoomed.call_count:
            assert kappa is None or not (kappa + mw / delta > 0).all()
            off = (np.ones(mw.size, dtype=bool) if kappa is None
                   else ~(kappa + mw / delta > 0))
            assert [call.args[2].tolist() for call in zoomed.call_args_list] == [
                [j] for j in np.flatnonzero(off).tolist()]
        return found, zoomed.call_count

    @pytest.mark.parametrize("family", ["quadratic", "wiggly", "closed_quadratic",
                                        "convex_perturbed"])
    @pytest.mark.parametrize("n", [1, 2, 3, 9])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_matches_prox_batch(self, family, n, data):
        if data.draw(st.booleans(), label="weighted"):
            space = SpaceDescriptor(n, metric_kind="diagonal_weighted", weights=tuple(
                data.draw(st.lists(st.sampled_from([0.25, 1.0, 4.0]) | st.floats(0.1, 10.0),
                                   min_size=n, max_size=n), label="metric")))
        else:
            space = SpaceDescriptor(n)
        center = data.draw(st.lists(st.sampled_from([0.0, -0.0]) | st.floats(-0.5, 0.5),
                                    min_size=n, max_size=n), label="center")
        weights = data.draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n),
                            label="weights")
        spec = quadratic(space, weights, center)
        if family == "wiggly":
            spec = wiggly(spec)
        elif family == "convex_perturbed":
            spec = convex_perturbed(spec)
        eps = data.draw(st.sampled_from([0.02, 0.05, 0.1, 0.3, 1.0]), label="eps")
        delta = data.draw(st.sampled_from([1e-4, 1e-3, 2.5e-3, 0.01, 0.1, 1.0])
                          | st.floats(1e-6, 100.0), label="delta")
        offsets = data.draw(st.lists(st.floats(0.01, 1.0) | st.floats(-1.0, -0.01),
                                     min_size=n, max_size=n), label="offsets")
        u = [c + d for c, d in zip(center, offsets)]
        # a coordinate at its centre has its minimizer at u: a guard tie on
        # the Newton route; one on the kink of eps |x| (+-0), or within eps of
        # it, has its minimizer at 0
        at = data.draw(st.none() | st.integers(0, n - 1), label="at")
        if at is not None:
            u[at] = data.draw(st.sampled_from([center[at], 0.0, -0.0])
                              | st.floats(-eps, eps), label="u_at")
        closed = family in ("closed_quadratic", "convex_perturbed")
        _, zoomed = self.assert_step_matches(spec, eps, delta, u,
                                             DEFAULTS if closed else NUMERIC)
        assert not (closed and zoomed)

    def test_1d_near_tie_stays_on_floats(self):
        # TestNewtonRoute's flat row: its guard is a near tie, which the row
        # settles by _precedes on floats; at distance 0 from u it cannot
        # raise tie_moved
        spec = quadratic(LINE, [1e-8], [0.3])
        found, zoomed = self.assert_step_matches(spec, 1.0, 1e6, [0.0], NUMERIC)
        assert zoomed == 0
        best, moved, ties = reference_prox_1d(spec, 1.0, 1e6, 0.0, NUMERIC)
        assert ties == [0.0]
        assert found == [best]
        res = prox_batch(spec, 1.0, [1e6], [[0.0]], NUMERIC)
        assert res.tie_moved[0] == moved

    def test_flat_2d_guard_falls_back(self):
        # TestAgainstCoordinateLoop's flat rows: from u = 0 each coordinate
        # row falls back on its own guard rule, settled by _precedes on
        # floats, so the step calls no prox_batch and takes the coordinate
        # loop's minimizer and tie_moved, whether the rows drop their guards
        # (center 0.025) or keep them as near ties (center 0.05).
        for center in (0.025, 0.05):
            spec = quadratic(SpaceDescriptor(2), [1e-8, 1e-8], [center, center])
            found, zoomed = self.assert_step_matches(spec, 1.0, 1e6, [0.0, 0.0],
                                                     NUMERIC)
            assert zoomed == 0
            V, moved, _, _, _, tie_moved = reference_separable(
                spec, 1.0, np.array([1e6]), np.array([[0.0, 0.0]]), NUMERIC)
            assert found == V[0].tolist()
            res = prox_batch(spec, 1.0, [1e6], [[0.0, 0.0]], NUMERIC)
            assert np.array_equal(res.tie_moved, tie_moved)
            assert np.array_equal(tie_moved, moved)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_9d_pinning_run_stays_on_floats(self, weighted):
        # The 9D wiggly runs of the smoke cases: each coordinate settles in
        # its wells, where its guard is within local_tol of its minimizer
        # but no near tie, so every scheme step runs on floats and the
        # interpolant's search finds no near tie.
        metric = [1.0 + 0.5 * j for j in range(9)] if weighted else [1.0] * 9
        spec = wiggly(quadratic(
            SpaceDescriptor(9, metric_kind="diagonal_weighted", weights=metric),
            [1.0 + 0.25 * j for j in range(9)] if weighted else [1.0] * 9,
            [0.1 * j for j in range(9)]))
        params = SchemeParams(eps=0.05, tau=0.0025, horizon_T=0.5,
                              initial_point=pt(*(0.5 - 0.1 * j for j in range(9))))
        with mock.patch("maxslope.prox.prox_batch", wraps=prox_batch) as batched, \
                mock.patch("maxslope.search._zoom_1d", wraps=_zoom_1d) as zoomed:
            traj = run_scheme(spec, params)
        assert traj.n_steps == 200
        assert batched.call_count == zoomed.call_count == 0
        searched = []

        def search(*args):
            found = _zoom_1d(*args)
            searched.append((found[1].size, args[4].size))     # near ties, rows
            return found
        with mock.patch("maxslope.search._zoom_1d", side_effect=search):
            build_interpolant(spec, traj, params.prox_settings)
        assert sum(rows for _, rows in searched) == 200 * 8 * 9
        assert all(ties == 0 for ties, _ in searched)

    def test_closed_form_minimizers_on_the_kink(self):
        # eps |x| pins both coordinates at 0 from u on the kink and from u
        # within the threshold
        spec = FAMILIES["weighted_2d_convex_perturbed"][0]
        for u in ([0.0, -0.0], [-0.0, 1e-4], [1e-4, -1e-4]):
            x, _ = self.assert_step_matches(spec, 0.1, 0.01, u, DEFAULTS)
            assert list(map(float.hex, x)) == [float.hex(0.0)] * 2
        # a step size so small that m / delta overflows: inf / inf is nan,
        # which np.where sends to 0
        with np.errstate(over="ignore", invalid="ignore"):
            x, _ = self.assert_step_matches(spec, 0.1, 1e-320, [1.0, -1.0], DEFAULTS)
        assert list(map(float.hex, x)) == [float.hex(0.0)] * 2
        # the quadratic keeps a -0.0 minimizer where numpy does
        spec = quadratic(SpaceDescriptor(2), [1.0, 2.0], [-0.0, 0.0])
        x, _ = self.assert_step_matches(spec, 1.0, 0.1, [-0.0, -0.0], DEFAULTS)
        assert list(map(float.hex, x)) == [float.hex(-0.0), float.hex(0.0)]

    @pytest.mark.parametrize("spec, eps, delta, prox_settings", [
        (FAMILIES["custom_smooth"][0], 0.05, 0.0025, DEFAULTS),     # no floor
        # 1 - 1 / 0.05 + 1 / 0.1 < 0: not convex, the bracket route
        (FAMILIES["wiggly"][0], 0.05, 0.1, DEFAULTS),
        (wiggly(quadratic(SpaceDescriptor(2), [1.0, 30.0], [0.0, 0.0])), 0.05,
         0.1, DEFAULTS),
    ], ids=["custom_smooth", "wiggly_grid", "wiggly_2d_one_grid_row"])
    def test_no_stepper_off_the_newton_route(self, spec, eps, delta, prox_settings):
        # a row off the Newton route is a one-row _zoom_1d call; in 2D the
        # other coordinate, on the Newton route, steps on floats
        u = [0.5] * spec.domain.dimension
        _, zoomed = self.assert_step_matches(spec, eps, delta, u, prox_settings)
        assert zoomed == 1

    @pytest.mark.parametrize("u", [0.5, 0.05, 0.0, -0.0, -0.3])
    def test_numeric_kink_steps_on_floats(self, u):
        # eps |x| is convex, so its numeric rows take the Newton route on
        # floats, from either side of the kink and from the kink itself,
        # and land within round-off of the closed form
        spec = FAMILIES["convex_perturbed"][0]
        found, zoomed = self.assert_step_matches(spec, 0.1, 0.01, [u], NUMERIC)
        assert zoomed == 0
        exact = prox_batch(spec, 0.1, [0.01], [[u]], DEFAULTS).minimizers[0, 0]
        assert abs(found[0] - exact) <= 1e-15

    def test_budget_error_is_prox_batch_error(self):
        spec, eps, _, _ = FAMILIES["wiggly"]
        budget = ProxSettings(max_iters=1)
        with pytest.raises(BudgetExhaustedError) as stepped:
            stepper(spec, eps, eps ** 2, budget)[0](0.5)
        with pytest.raises(BudgetExhaustedError) as batched:
            prox_batch(spec, eps, [eps ** 2], [[0.5]], budget)
        assert str(stepped.value) == str(batched.value) == (
            "1D prox Newton iteration did not converge within 1 evaluations "
            "(budget 1)")

    @pytest.mark.parametrize("spec, eps, delta, u, radius", [
        # phi(u) overflows to inf
        (quadratic(LINE, [1.0], [0.0]), 1.0, 0.1, 1e200, "inf"),
        # u / eps overflows, so cos(u / eps) is nan
        (FAMILIES["wiggly"][0], 1e-200, 1e-201, 1e150, "nan"),
    ], ids=["inf", "nan"])
    def test_window_error_is_prox_batch_error(self, spec, eps, delta, u, radius):
        with pytest.raises(EvaluationError) as stepped:
            stepper(spec, eps, delta, NUMERIC)[0](u)
        with pytest.raises(EvaluationError) as batched:
            prox_batch(spec, eps, [delta], [[u]], NUMERIC)
        assert str(stepped.value) == str(batched.value)
        assert str(stepped.value).endswith(f"is not finite (radius {radius})")
        assert list(stepped.value.point) == list(batched.value.point) == [u]


class TestArraySweep:
    """``_newton_1d`` advances all Newton rows of a ``prox_batch`` call
    together as arrays; each row must get what the float kernel
    ``_newton_row`` gives it alone.  ``_newton_row`` writes the window,
    the iterate and the near-tie test out again as plain float code, so
    this test and ``TestNewtonStepper`` are what keep the two copies in
    step.  On ``wiggly`` this rests on numpy's float64 sin and cos rounding
    as libm's: on a platform where they round apart, this test fails."""

    @staticmethod
    def kernel_rows(spec, eps, deltas, U, prox_settings):
        """``_newton_1d``'s decisions, by ``_newton_row`` one coordinate row
        at a time: each row's choice, and the rows and points of the near
        ties of the rows that keep one."""
        B, n = U.shape
        m = spec.domain.metric_weights().tolist()
        members = _members(spec, eps)
        chosen, tie_rows, tie_x = [], [], []
        for b in range(B):
            for j in range(n):
                ties = []
                chosen.append(_newton_row(members[j], float(deltas[b]), m[j],
                                          prox_settings.max_iters,
                                          prox_settings.local_tol)(float(U[b, j]), ties))
                if ties[0] is not None:
                    tie_rows.append(b * n + j)
                    tie_x.append(ties[0])
        return chosen, tie_rows, tie_x

    @staticmethod
    def pinned(spec, eps, delta, u, j):
        """Coordinate j's fixed point of the resolvent step from u, the
        bottom of the well a run at step size ``delta`` settles in."""
        member, m = _members(spec, eps)[j], float(spec.domain.metric_weights()[j])
        row = _newton_row(member, delta, m, 200, 1e-9)
        for _ in range(60):
            x = row(u)
            if x == u:
                break
            u = x
        return u

    @pytest.mark.parametrize("family", ["quadratic", "wiggly", "flat", "convex_perturbed"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_rows_match_the_float_kernel(self, family, n, data):
        if data.draw(st.booleans(), label="weighted"):
            space = SpaceDescriptor(n, metric_kind="diagonal_weighted", weights=tuple(
                data.draw(st.lists(st.sampled_from([0.25, 1.0, 4.0]) | st.floats(0.25, 10.0),
                                   min_size=n, max_size=n), label="metric")))
        else:
            space = SpaceDescriptor(n)
        center = data.draw(st.lists(st.sampled_from([0.0, -0.0]) | st.floats(-0.5, 0.5),
                                    min_size=n, max_size=n), label="center")
        if family == "flat":
            # curvature 1e-8 + m / 1e6: guards within local_tol of the
            # minimizer, near ties where it lies beyond the tie gap
            spec, eps = quadratic(space, [1e-8] * n, center), 1.0
            delta = st.sampled_from([1e6, 1e5])
        else:
            weights = data.draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n),
                                label="weights")
            spec = quadratic(space, weights, center)
            eps = data.draw(st.sampled_from([0.05, 0.1, 0.3, 1.0]), label="eps")
            if family == "wiggly":
                spec = wiggly(spec)
            elif family == "convex_perturbed":
                # eps |x| in numeric mode: F jumps up by 2 eps at the kink,
                # so iterates on either side of it take opposite branches
                spec = convex_perturbed(spec)
            # w - a / eps + m / delta > 0 for every m >= 0.25: the Newton route
            delta = st.sampled_from([1e-4, 1e-3, 2.5e-3, 0.01]) | st.floats(1e-6, 0.012)
        B = data.draw(st.integers(1, 300 // n), label="B")
        deltas = np.array(data.draw(st.lists(delta, min_size=B, max_size=B), label="deltas"))
        U = np.array(center) + np.array(data.draw(
            st.lists(st.floats(-1.0, 1.0), min_size=B * n, max_size=B * n),
            label="offsets")).reshape(B, n)
        # some coordinates at their centre, some pinned in a well, and on
        # the kink some at +-0
        kinds = ["centre", "pinned"] + (["kink"] if family == "convex_perturbed" else [])
        for b, j, kind in data.draw(st.lists(st.tuples(
                st.integers(0, B - 1), st.integers(0, n - 1),
                st.sampled_from(kinds)), max_size=8), label="special"):
            if kind == "kink":
                U[b, j] = data.draw(st.sampled_from([0.0, -0.0]), label="kink")
            else:
                U[b, j] = center[j] if kind == "centre" else self.pinned(
                    spec, eps, float(deltas[b]), float(U[b, j]), j)
        cols = np.arange(B * n) % n
        mw = spec.domain.metric_weights()
        with mock.patch("maxslope.search._select",
                        side_effect=AssertionError("bracket route taken")):
            found = _zoom_1d(spec, eps, cols, np.repeat(deltas, n), U.ravel(), mw[cols],
                             NUMERIC)
            batch = prox_batch(spec, eps, deltas, U, NUMERIC)
        # the choices and the near ties
        chosen, tie_rows, tie_x = self.kernel_rows(spec, eps, deltas, U, NUMERIC)
        assert list(map(float.hex, found[0].tolist())) == list(map(float.hex, chosen))
        assert found[1].tolist() == tie_rows
        assert list(map(float.hex, found[2].tolist())) == list(map(float.hex, tie_x))
        # prox_batch takes each row's choice
        assert list(map(float.hex, batch.minimizers.ravel().tolist())) == list(
            map(float.hex, chosen))

    @pytest.mark.parametrize("window_first", [True, False])
    def test_first_failing_row_raises(self, window_first):
        # Budget 1: the centred row 0.0 converges in its one iterate, 0.5
        # does not; phi(1e200) overflows, so its window is not finite.
        spec, budget = quadratic(LINE, [1.0], [0.0]), ProxSettings(
            mode=MULTISTART_NUMERIC, max_iters=1)
        failing = [1e200, 0.5] if window_first else [0.5, 1e200]
        U = np.array([[0.0], [failing[0]], [0.0], [failing[1]]])
        error = EvaluationError if window_first else BudgetExhaustedError
        with pytest.raises(error) as batched:
            prox_batch(spec, 1.0, np.full(4, 0.1), U, budget)
        # the first failing row's own error, as it fails alone and as the
        # float kernel fails
        with pytest.raises(error) as alone:
            prox_batch(spec, 1.0, [0.1], [[failing[0]]], budget)
        with pytest.raises(error) as stepped:
            stepper(spec, 1.0, 0.1, budget)[0](failing[0])
        assert str(batched.value) == str(alone.value) == str(stepped.value)
        if window_first:
            assert list(batched.value.point) == [1e200]
            assert str(batched.value).endswith("is not finite (radius inf)")
        else:
            assert str(batched.value) == ("1D prox Newton iteration did not converge "
                                          "within 1 evaluations (budget 1)")

class TestPrecedes:
    """The Newton route settles a row's minimizer against its guard by
    ``_precedes``, which must be ``_select``'s order for two candidates."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_select_on_two_candidates(self, data):
        u = data.draw(st.sampled_from([0.0, -0.5, 0.25]), label="u")
        m = data.draw(st.sampled_from([0.25, 1.0, 4.0]), label="m")
        # few distinct numbers, so that values, d^2 and coordinates tie
        value = st.sampled_from([0.0, -0.0, 1.0, 1.0 + 2.0 ** -52, math.nan, math.inf])
        point = st.sampled_from([u, u + 1e-3, u - 1e-3, u + 2.0 ** -40, 1.0])
        (va, a), (vb, b) = data.draw(st.tuples(value, point)), data.draw(
            st.tuples(value, point))
        chosen = _select(np.array([0, 0]), np.array([a, b]), np.array([va, vb]),
                         np.array([u]), np.array([m]))
        first = _precedes((va, m * ((a - u) * (a - u)), a),
                          (vb, m * ((b - u) * (b - u)), b))
        assert first == (chosen[0] == 0)


class TestAgainstGridOracle:
    @pytest.mark.parametrize("family", ["wiggly", "convex_perturbed", "custom_smooth"])
    def test_1d_rows_match_dense_grid(self, family):
        spec, eps, prox_settings, _ = FAMILIES[family]
        U = np.array([[0.05], [0.8], [-1.1]])
        deltas = np.array([1e-3, 2.5e-3, 1e-2])
        batch = prox_batch(spec, eps, deltas, U, prox_settings)
        step = 1e-6
        for b in range(3):
            oracle = brute_force_prox_1d(spec, eps, deltas[b], U[b, 0],
                                         radius=0.2, step=step)
            assert abs(batch.minimizers[b, 0] - oracle) <= step


class TestBracketRouteOracle:
    """The bracket route's choice against ``conftest.brute_force_prox_1d``
    over the window, to the dense grid's resolution: its best point lies
    above the minimum by at most L h^2 / 8, L the objective's curvature
    bound, plus ``jump`` h for a slope that jumps by ``jump`` (the kink),
    and the chosen value may exceed the minimum by a near tie's
    ``local_tol``."""

    @staticmethod
    def assert_matches_oracle(spec, eps, delta, u, radius, step, curvature,
                              prox_settings=DEFAULTS, jump=0.0):
        v = prox_batch(spec, eps, [delta], [[u]], prox_settings).minimizers[0, 0]
        oracle = brute_force_prox_1d(spec, eps, delta, u, radius=radius, step=step)
        value, oracle_value = (eval_many(spec, eps, [[x]])[0] + (x - u) ** 2 / (2 * delta)
                               for x in (v, oracle))
        slack = 1e-12 * (1.0 + abs(oracle_value))
        assert oracle_value - curvature * step ** 2 / 8 - jump * step - slack <= value
        assert value <= oracle_value + prox_settings.local_tol + slack
        return v, oracle

    @settings(max_examples=40, deadline=None)
    @given(eps=st.floats(-4.0, -1.0).map(lambda e: 10.0 ** e),
           ratio=st.floats(-1.0, 2.0).map(lambda e: 10.0 ** e), u=st.floats(-1.5, 1.5))
    def test_wiggly(self, eps, ratio, u):
        # delta = ratio eps lies on either side of the convexity threshold
        # 1 / (1 / eps - 1) ~ eps, and large steps put many wells in the
        # window
        spec, delta = FAMILIES["wiggly"][0], ratio * eps
        phi_u = eval_many(spec, eps, [[u]])[0]
        radius = math.sqrt(2.0 * delta * (phi_u + eps)) + eps
        self.assert_matches_oracle(spec, eps, delta, u, radius,
                                   min(eps / 20, radius / 1000), 1.0 + 1.0 / delta + 1.0 / eps)

    @settings(max_examples=40, deadline=None)
    @given(eps=st.floats(0.01, 1.0), delta=st.floats(1e-3, 1.0), u=st.floats(-1.5, 1.5),
           kink=st.floats(-1.0, 1.0) | st.none())
    def test_numeric_kink(self, eps, delta, u, kink):
        # from |u| <= eps delta the minimizer is the kink 0
        spec = FAMILIES["convex_perturbed"][0]
        if kink is not None:
            u = kink * eps * delta
        step = 1e-5
        v, oracle = self.assert_matches_oracle(spec, eps, delta, u, abs(u) + 0.1, step,
                                               1.0 + 1.0 / delta, NUMERIC, jump=2.0 * eps)
        assert abs(v - oracle) <= step
        if kink is not None:
            # within twice the kernel's round-off stop, 4 ulps of the
            # window's scale max(1, |u| + radius) < 4
            assert abs(v) <= 2 * 4 * (4 * 2.0 ** -52)

    @pytest.mark.parametrize("expression", ["x^4 - x^2",
                                            "0.5*x^2 + eps*cos(x/eps) + 0.25*exp(-x^2)"])
    @settings(max_examples=20, deadline=None)
    @given(level=st.sampled_from([0.1, 0.05, 0.025, 0.0125]), node=st.floats(0.01, 1.0),
           u=st.floats(-1.3, 1.3))
    def test_custom_smooth(self, expression, level, node, u):
        # the custom_sweep levels' steps tau = eps^2 and their interpolant
        # nodes; the double well at steps up to 100, where its wells tie,
        # in the heuristic window u +- 2 (delta |phi'(u)| <= 1), whose scan
        # resolves its wells (see test_wide_window_scan_misses_a_well)
        spec = custom_smooth(LINE, expression)
        if expression == "x^4 - x^2":
            delta = min(100.0 * node, 1.0 / max(abs(4.0 * u ** 3 - 2.0 * u), 1e-2))
        else:
            delta = node * level ** 2
        self.assert_matches_oracle(spec, level, delta, u, 2.0, 1e-5,
                                   12.0 * 3.5 ** 2 + 2.0 + 1.0 / delta + 1.0 / level)

    @pytest.mark.xfail(strict=True, reason=(
        "the scan certifies nothing: from u = 0.9 at delta = 100 the heuristic "
        "window is u +- 223, whose 257-point scan brackets both wells of "
        "x^4 - x^2 in one 1.7-wide bracket, and the iterate keeps the higher "
        "one at -0.703 over the minimizer at 0.708"))
    def test_wide_window_scan_misses_a_well(self):
        spec = custom_smooth(LINE, "x^4 - x^2")
        self.assert_matches_oracle(spec, 1.0, 100.0, 0.9, 2.0, 1e-5, 100.0)


class TestBudget:
    """The budget of a coordinate row's evaluations of phi' on the bracket
    route, which every custom_smooth row takes, and across the routes."""

    def test_interpolant_exceeding_budget_raises(self):
        spec, eps, _, _ = FAMILIES["custom_smooth"]
        traj = run_scheme(spec, SchemeParams(eps=eps, tau=eps ** 2, horizon_T=0.05,
                                             initial_point=pt(0.5)))
        with pytest.raises(BudgetExhaustedError):
            build_interpolant(spec, traj, ProxSettings(max_iters=10))

    def test_cli_reports_budget_as_solver_error(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(
            '{"space": {"dimension": 1},'
            ' "energy": {"kind": "custom_smooth",'
            ' "expression": "0.5*x^2 + eps*cos(x/eps) + 0.25*exp(-x^2)"},'
            ' "command": {"run": {"eps": 0.05, "tau": 0.0025, "horizon_T": 0.05,'
            ' "initial_point": [0.5], "prox_settings": {"max_iters": 10}}}}')
        assert main(["run", "--config", str(config), "--out",
                     str(tmp_path / "out"), "--quiet"]) == EXIT_SOLVER

    @staticmethod
    def smallest_budget(spec, eps, delta, u, start=1):
        """The smallest max_iters that one solve fits in."""
        budget = start
        while True:
            try:
                prox_batch(spec, eps, [delta], [[u]], ProxSettings(max_iters=budget))
                return budget
            except BudgetExhaustedError:
                budget += 1

    def test_budget_is_per_problem(self):
        # The smallest budget one solve fits in also fits a block of 64
        # copies of it, although the block evaluates 64 times as much; one
        # evaluation less fails for the block as it does for one solve.
        # At delta = 0.1, 1 + 1 / delta < 1 / eps: the bracket route.
        spec, eps, _, _ = FAMILIES["wiggly"]
        budget = self.smallest_budget(spec, eps, 0.1, 0.5)
        U = np.full((64, 1), 0.5)
        deltas = np.full(64, 0.1)
        batch = prox_batch(spec, eps, deltas, U, ProxSettings(max_iters=budget))
        assert (batch.minimizers == batch.minimizers[0]).all()
        with pytest.raises(BudgetExhaustedError):
            prox_batch(spec, eps, deltas, U, ProxSettings(max_iters=budget - 1))

    def test_budget_counts_the_scan_and_every_iterate(self):
        # A custom_smooth row scans 257 points of its window, then iterates
        # on each bracket the scan finds: the double well's two from u = 0
        # at delta = 100, each at least one iterate
        spec, eps, _, _ = FAMILIES["double_well"]
        budget = self.smallest_budget(spec, eps, 100.0, 0.0, start=257)
        assert budget >= 257 + 2
        res = prox_batch(spec, eps, [100.0], [[0.0]], ProxSettings(max_iters=budget))
        assert list(res.near_tie) == [True]
        with pytest.raises(BudgetExhaustedError, match=f"budget {budget - 1}"):
            prox_batch(spec, eps, [100.0], [[0.0]], ProxSettings(max_iters=budget - 1))

    @pytest.mark.parametrize("family", ["weighted_2d_quadratic", "wiggly", "double_well"])
    def test_a_budget_past_int64_is_no_budget(self, family):
        # a config may give max_iters as any JSON integer; numpy compares
        # counts with int64 at most
        spec, eps, _, _ = FAMILIES[family]
        U = np.full((2, spec.domain.dimension), 0.5)
        huge = prox_batch(spec, eps, [0.1, 0.2], U, ProxSettings(
            mode=MULTISTART_NUMERIC, max_iters=10 ** 400))
        usual = prox_batch(spec, eps, [0.1, 0.2], U, NUMERIC)
        assert huge.minimizers.tobytes() == usual.minimizers.tobytes()

    @pytest.mark.parametrize("bracket_first", [True, False])
    def test_first_failing_row_raises_across_routes(self, bracket_first):
        # Budget 3: the bracket row (delta 0.1) needs more; the Newton row
        # (delta 1e-4) from u = 1e200 has no finite window.  Whichever row
        # comes first raises its error.
        spec, eps, _, _ = FAMILIES["wiggly"]
        rows = [([0.5], 0.1), ([1e200], 1e-4)]
        if not bracket_first:
            rows.reverse()
        error = BudgetExhaustedError if bracket_first else EvaluationError
        with pytest.raises(error):
            prox_batch(spec, eps, [d for _, d in rows], [u for u, _ in rows],
                       ProxSettings(max_iters=3))


class TestWigglyCells:
    """A wiggly row at eps far below its step: the objective lies within
    a eps of its quadratic part, A (v - K / A)^2 / 2 up to a constant, so
    only the ~1 / sqrt(eps) cells within sqrt((4 a eps + 2 local_tol) / A)
    of K / A can hold its minimizer or a near tie, cut and iterated in
    blocks."""

    @staticmethod
    def peak_bytes(call):
        """The call's result, or the exception it raised, and the most
        memory it held at once, as tracemalloc counts numpy's buffers."""
        tracemalloc.start()
        try:
            try:
                result = call()
            except Exception as exc:        # noqa: BLE001 - returned to the test
                result = exc
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_global_minimizer_far_below_the_step(self):
        # eps = 1e-6, delta = 1 from u = 0.5: the window holds ~1.5e5 wells,
        # ~450 of them within reach of K / A = 0.25.  The dense grid spans
        # 3.5 times that reach, at 1/50 of a well's width.
        spec, eps, delta, u = FAMILIES["wiggly"][0], 1e-6, 1.0, 0.5
        v = prox_batch(spec, eps, [delta], [[u]], DEFAULTS).minimizers[0, 0]
        step = 2e-8
        grid = np.arange(0.25 - 5e-3, 0.25 + 5e-3, step)
        values = eval_many(spec, eps, grid[:, None]) + (grid - u) ** 2 / (2.0 * delta)
        oracle = values.min()
        value = eval_many(spec, eps, [[v]])[0] + (v - u) ** 2 / (2.0 * delta)
        slack = 1e-12 * (1.0 + abs(oracle))
        assert oracle - (2.0 + 1.0 / eps) * step ** 2 / 8 - slack <= value
        assert value <= oracle + DEFAULTS.local_tol + slack

    def test_run_far_below_the_step(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "space": {"dimension": 1},
            "energy": {"kind": "wiggly",
                       "base": {"kind": "quadratic", "weights": [1.0], "center": [0.0]}},
            "command": {"run": {"eps": 1e-6, "tau": 0.1, "horizon_T": 1.0,
                                "initial_point": [0.5]}}}))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out"),
                     "--quiet"]) == EXIT_OK

    @pytest.mark.parametrize("eps", [1e-12, 1e-300])
    def test_cells_past_the_budget_are_never_cut(self, eps):
        # At eps = 1e-12 each row's ~4e5 cells' ends alone pass the default
        # budget, and at 1e-300 its count passes int64: each row fails
        # before any cell is cut
        spec = FAMILIES["wiggly"][0]
        error, peak = self.peak_bytes(lambda: prox_batch(
            spec, eps, np.full(4, 1.0), np.full((4, 1), 0.5), DEFAULTS))
        assert isinstance(error, BudgetExhaustedError)
        assert peak < 2 ** 20

    def test_cells_are_cut_in_blocks(self):
        # eps = 1e-9: 16 rows of ~1.7e4 cells each, 2.7e5 in all, every
        # cell's root within local_tol of the row's least value, held in
        # a few tens of bytes each while each block of cells is iterated
        spec = FAMILIES["wiggly"][0]
        batch, peak = self.peak_bytes(lambda: prox_batch(
            spec, 1e-9, np.full(16, 1.0), np.full((16, 1), 0.5), DEFAULTS))
        assert (batch.minimizers == batch.minimizers[0]).all()
        assert abs(batch.minimizers[0, 0] - 0.25) <= 2.0 * math.sqrt(1e-9 / 2.0)
        assert peak < 32 * 2 ** 20


class TestScanBlocks:
    """``custom_smooth`` rows, which have no cells, are scanned
    ``brackets._SCAN_ROWS`` rows at a time: every block size gives every
    row its brackets in the same order, and so every row's result bit for
    bit, while the scan's memory stays bounded."""

    @staticmethod
    def rows(spec, eps):
        # steps from the pinning step to past the wells' spacing, from
        # points on both sides of the centre and on it, some with near ties
        u = np.concatenate([np.linspace(-1.5, 1.5, 37), [0.0, -0.0]])
        deltas = np.resize([eps ** 2, 0.1, 1.0], u.size)
        return deltas, u[:, None]

    @pytest.mark.parametrize("family", ["custom_smooth", "double_well", "quartic"])
    def test_block_size_leaves_the_rows_alone(self, monkeypatch, family):
        from maxslope import brackets

        if family == "quartic":
            # F points outward at both ends of most windows: brackets of
            # width 0 there
            spec, eps, prox_settings = custom_smooth(LINE, "x^2 - x^4"), 1.0, DEFAULTS
        else:
            spec, eps, prox_settings, _ = FAMILIES[family]
        deltas, U = self.rows(spec, eps)
        found = {}
        for block in (1, 7, 128, U.shape[0]):
            monkeypatch.setattr(brackets, "_SCAN_ROWS", block)
            batch = prox_batch(spec, eps, deltas, U, prox_settings)
            found[block] = [a.tobytes() for a in batch]
        assert all(f == found[1] for f in found.values())
        assert batch.near_tie.any()         # the ties' order is compared too

    def test_scan_memory_is_bounded_by_the_block(self):
        # 4096 rows in one call: scanned at once they hold about 33 MB
        spec, eps, prox_settings, _ = FAMILIES["custom_smooth"]
        U = np.linspace(-1.5, 1.5, 4096)[:, None]
        _, peak = TestWigglyCells.peak_bytes(lambda: prox_batch(
            spec, eps, np.full(4096, eps ** 2), U, prox_settings))
        assert peak < 8 * 2 ** 20


class TestInputs:
    def test_rows_must_fit_the_space(self):
        spec, eps, prox_settings, _ = FAMILIES["wiggly"]
        with pytest.raises(DimensionMismatchError):
            prox_batch(spec, eps, [0.1], np.zeros((1, 2)), prox_settings)

    def test_step_sizes_must_be_positive(self):
        spec, eps, prox_settings, _ = FAMILIES["weighted_2d_quadratic"]
        with pytest.raises(InvalidDeltaError):
            prox_batch(spec, eps, [0.1, 0.0], np.zeros((2, 2)), prox_settings)

    def test_one_step_size_per_row(self):
        spec, eps, prox_settings, _ = FAMILIES["wiggly"]
        with pytest.raises(ValueError):
            prox_batch(spec, eps, [0.1, 0.2], np.zeros((1, 1)), prox_settings)

    def test_at_least_one_problem(self):
        # so every row reaching the selection rule has a candidate
        spec, eps, prox_settings, _ = FAMILIES["wiggly"]
        with pytest.raises(ValueError, match="at least one point"):
            prox_batch(spec, eps, [], np.zeros((0, 1)), prox_settings)
