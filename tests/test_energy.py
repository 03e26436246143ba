import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, reject, settings
from hypothesis import strategies as st

from maxslope.energy import (
    EnergySpec,
    certify_well_posedness,
    convex_perturbed,
    coordinate_curvatures,
    coordinate_scalars,
    coordinate_values,
    curvature_floors,
    custom_smooth,
    energy_floors,
    eval_many,
    exact_slopes,
    gamma_limit,
    gradient_many,
    quadratic,
    wiggly,
)
from maxslope.errors import (
    CapabilityAbsentError,
    CertificateFailure,
    ConfigError,
    DimensionMismatchError,
    EvaluationError,
)
from maxslope.expression import compile_expression
from maxslope.metric import SpaceDescriptor

from conftest import (
    finite_difference_gradient,
    grammar_expressions,
    nearest_stable_critical_point,
    parse_config,
)


class TestEval:
    def test_quadratic_minimum(self, quad_1d):
        assert eval_many(quad_1d, 1.0, [[0.0]])[0] == 0.0

    def test_quadratic_value(self, quad_1d):
        # 0.5 * 1 * 2^2
        assert eval_many(quad_1d, 1.0, [[2.0]])[0] == 2.0

    def test_wiggly_at_origin(self, wiggly_1d):
        # 0.5 x^2 + eps cos(x/eps) at x = 0 gives eps
        assert math.isclose(eval_many(wiggly_1d, 0.1, [[0.0]])[0], 0.1)

    def test_perturbed_value(self, perturbed_1d):
        assert math.isclose(eval_many(perturbed_1d, 0.1, [[1.0]])[0], 0.6)

    def test_eps_must_be_positive(self, quad_1d):
        with pytest.raises(ValueError):
            eval_many(quad_1d, 0.0, [[1.0]])

    def test_rows_must_fit_the_space(self, quad_1d, plane):
        # a row of another length would broadcast against the weights
        spec = wiggly(quadratic(plane, [1.0, 2.0], [0.0, 0.0]))
        for kernel in (eval_many, gradient_many, exact_slopes):
            with pytest.raises(DimensionMismatchError):
                kernel(quad_1d, 1.0, [[1.0, 2.0]])
            with pytest.raises(DimensionMismatchError):
                kernel(spec, 0.1, [[1.0]])

    def test_quadratic_needs_positive_weights(self, line):
        with pytest.raises(ValueError):
            quadratic(line, [0.0], [0.0])

    def test_wiggly_needs_positive_amplitude(self, quad_1d):
        with pytest.raises(ValueError):
            wiggly(quad_1d, amplitude_scale=0.0)

    @pytest.mark.parametrize("fields, message", [
        ({"kind": "quadratic", "center": (0.0,)},
         "quadratic energy requires weights and center"),
        ({"kind": "quadratic", "weights": (1.0,)},
         "quadratic energy requires weights and center"),
        ({"kind": "quadratic", "weights": (1.0, 2.0), "center": (0.0,)},
         "quadratic weights length must equal dimension"),
        ({"kind": "quadratic", "weights": (1.0,), "center": (0.0, 1.0)},
         "quadratic center length must equal dimension"),
        ({"kind": "wiggly", "base": None}, "wiggly energy requires a quadratic base"),
        ({"kind": "convex_perturbed", "base": "custom"},
         "convex_perturbed energy requires a quadratic base"),
        ({"kind": "cubic"}, "unknown energy kind 'cubic'"),
    ], ids=["no_weights", "no_center", "weights_length", "center_length",
            "wiggly_without_base", "kinked_custom_base", "unknown_kind"])
    def test_construction_errors_name_their_field(self, line, fields, message):
        # the Python API's checks, which a config reaches only in part
        if fields.get("base") == "custom":
            fields = {**fields, "base": custom_smooth(line, "x^2")}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            EnergySpec(domain=line, **fields)

    def test_custom_smooth_is_one_dimensional(self, plane):
        with pytest.raises(ValueError, match="^custom_smooth energies are one-dimensional$"):
            custom_smooth(plane, "x^2")


def hexes(a):
    """The float.hex of each number of ``a``: equal lists are equal bit for
    bit, signs of zero included."""
    return [float.hex(v) for v in np.ravel(a).tolist()]


class TestCoordinates:
    SPACE = SpaceDescriptor(3, metric_kind="diagonal_weighted", weights=(4.0, 1.0, 2.0))
    BASE = quadratic(SPACE, [1.0, 2.0, 0.5], [0.3, -0.2, 1.0])

    @pytest.mark.parametrize("spec", [BASE, wiggly(BASE, amplitude_scale=0.5),
                                      convex_perturbed(BASE)],
                             ids=["quadratic", "wiggly", "convex_perturbed"])
    def test_energy_is_the_sum_of_its_coordinates(self, spec):
        X = np.random.default_rng(1).uniform(-2.0, 2.0, (50, 3))
        # row j of X.T holds points of coordinate j's member phi_j
        parts = coordinate_values(spec, 0.1, np.arange(3), X.T.copy())
        assert parts.shape == (3, 50)
        assert np.allclose(parts.sum(axis=0), eval_many(spec, 0.1, X),
                           rtol=1e-14, atol=1e-14)
        # phi_j' is gradient_many's column j, which depends on x_j alone
        slope = gradient_many(spec, 0.1, X).T
        others = np.random.default_rng(5).uniform(-2.0, 2.0, (50, 3))
        for j in range(3):
            Y = others.copy()
            Y[:, j] = X[:, j]
            assert hexes(gradient_many(spec, 0.1, Y)[:, j]) == hexes(slope[j])
        if curvature_floors(spec, 0.1) is not None:     # a closed-form curvature
            first, _ = coordinate_curvatures(spec, 0.1, np.arange(3), X.T.copy())
            assert hexes(first) == hexes(slope)
        # rows in any order, flat or in blocks, give each row its own member
        cols = np.array([2, 0, 1, 0, 2])
        block = np.random.default_rng(4).uniform(-2.0, 2.0, (5, 4))
        for r, j in enumerate(cols):
            assert np.array_equal(coordinate_values(spec, 0.1, cols, block)[r],
                                  coordinate_values(spec, 0.1, np.full(4, j), block[r]))
        assert np.array_equal(coordinate_values(spec, 0.1, cols, block[:, 0]),
                              coordinate_values(spec, 0.1, cols, block)[:, 0])

    def test_a_1d_energy_is_its_own_coordinate(self, line):
        spec = custom_smooth(line, "x^4 - x^2")
        X = np.linspace(-2.0, 2.0, 12).reshape(3, 4)
        cols = np.zeros(3, dtype=int)
        assert np.array_equal(coordinate_values(spec, 1.0, cols, X),
                              eval_many(spec, 1.0, X.reshape(-1, 1)).reshape(3, 4))
        # phi_0' on column rows, in one block or row by row, as the bracket
        # route takes it for its windows
        slope = gradient_many(spec, 1.0, X.reshape(-1, 1)).reshape(3, 4)
        for r in range(3):
            assert hexes(gradient_many(spec, 1.0, X[r][:, None])[:, 0]) == hexes(slope[r])
        assert hexes(gradient_many(spec, 1.0, X[:, 0][:, None])[:, 0]) == hexes(slope[:, 0])

    @pytest.mark.parametrize("family", ["quadratic", "wiggly", "convex_perturbed"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_scalar_members_match_the_row_evaluators_bitwise(self, family, data):
        """The Newton route runs on coordinate_scalars, the array kernel and
        the window on the row evaluators; both must see the same numbers.

        For ``wiggly`` this rests on the platform: libm's sin/cos (``math``)
        must round as numpy's vector sin/cos do.  They agreed in every draw
        on numpy 2.4.6 on an x86-64 CPU with AVX-512.  Where they differ at
        a point, that point is held to a few ulps of the trig term instead,
        and the float kernel may then differ from the array kernel in the
        last bits.
        """
        n = data.draw(st.integers(1, 3), label="n")
        if data.draw(st.booleans(), label="weighted"):
            space = SpaceDescriptor(n, metric_kind="diagonal_weighted", weights=tuple(
                data.draw(st.lists(st.floats(0.25, 4.0), min_size=n, max_size=n))))
            weights = data.draw(st.lists(st.floats(1e-3, 10.0), min_size=n, max_size=n))
        else:
            space, weights = SpaceDescriptor(n), [1.0] * n
        center = data.draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n))
        spec = quadratic(space, weights, center)
        if family == "wiggly":
            spec = wiggly(spec, amplitude_scale=data.draw(st.floats(0.1, 3.0)))
        elif family == "convex_perturbed":
            spec = convex_perturbed(spec)
        eps = data.draw(st.floats(1e-3, 1.0), label="eps")
        # a long row goes through numpy's vector loops, a short one may not
        k = data.draw(st.sampled_from([1, 3, 64]), label="k")
        X = np.array(data.draw(st.lists(st.floats(-50.0, 50.0), min_size=n * k,
                                        max_size=n * k))).reshape(n, k)
        cols = np.arange(n)
        values = coordinate_values(spec, eps, cols, X)
        # phi' of each coordinate on column rows: row j of X is coordinate j
        slopes = gradient_many(spec, eps, X.T).T
        # the Newton route's array sweep evaluates (phi', phi'') by rows
        first, second = (np.broadcast_to(d, X.shape)
                         for d in coordinate_curvatures(spec, eps, cols, X))
        assert hexes(first) == hexes(slopes)
        # where libm and numpy round sin or cos differently
        t = X / eps
        libm_differs = ((np.sin(t) != np.vectorize(math.sin)(t))
                        | (np.cos(t) != np.vectorize(math.cos)(t)))
        a = spec.amplitude_scale if family == "wiggly" else 0.0
        for j in range(n):
            value, derivatives = coordinate_scalars(spec, eps, j)
            for x, v, g, g1, g2, differs in zip(
                    X[j].tolist(), values[j].tolist(), slopes[j].tolist(),
                    first[j].tolist(), second[j].tolist(), libm_differs[j].tolist()):
                if differs and family == "wiggly":
                    assert abs(value(x) - v) <= 4 * math.ulp(max(abs(v), a * eps))
                    assert abs(derivatives(x)[0] - g) <= 4 * math.ulp(max(abs(g), a))
                    assert abs(derivatives(x)[1] - g2) <= 4 * math.ulp(max(abs(g2), a / eps))
                else:
                    assert value(x) == v
                    assert float.hex(derivatives(x)[0]) == float.hex(g)
                    # the array sweep's (phi', phi''), sign bits included
                    assert list(map(float.hex, derivatives(x))) == [float.hex(g1),
                                                                    float.hex(g2)]


class TestGradient:
    def test_quadratic(self, quad_1d):
        assert gradient_many(quad_1d, 1.0, [[2.0]])[0].tolist() == [2.0]

    def test_wiggly_at_origin(self, wiggly_1d):
        # x - sin(x/eps) vanishes at 0
        assert gradient_many(wiggly_1d, 0.1, [[0.0]])[0].tolist() == [0.0]

    def test_quadratic_2d_at_minimum(self, plane):
        spec = quadratic(plane, [4.0, 1.0], [1.0, 0.0])
        assert gradient_many(spec, 1.0, [[1.0, 0.0]])[0].tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("case", ["quad2d", "wiggly", "custom"])
    def test_matches_finite_differences(self, case, plane, line):
        if case == "quad2d":
            spec, eps, dim = quadratic(plane, [4.0, 1.5], [0.5, -1.0]), 1.0, 2
        elif case == "wiggly":
            spec, eps, dim = wiggly(quadratic(line, [1.0], [0.0])), 0.5, 1
        else:
            spec, eps, dim = custom_smooth(line, "x^4 - x^2 + eps*sin(x)"), 0.3, 1
        rng = np.random.default_rng(7)
        X = rng.uniform(-2.0, 2.0, size=(100, dim))
        for x in X:
            g = gradient_many(spec, eps, x[None, :])[0]
            fd = finite_difference_gradient(spec, eps, x)
            scale = max(1.0, float(np.linalg.norm(fd)))
            assert np.linalg.norm(g - fd) <= 1e-6 * scale


class TestFloors:
    """The energy and curvature floors that certify the numeric prox."""

    SPACE = SpaceDescriptor(2)
    BASE = quadratic(SPACE, [1.0, 3.0], [0.3, -0.2])
    FAMILIES = {"quadratic": BASE, "wiggly": wiggly(BASE, amplitude_scale=0.5),
                "convex_perturbed": convex_perturbed(BASE)}

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_energy_floor_is_below_every_value(self, family):
        spec, eps = self.FAMILIES[family], 0.05
        X = np.random.default_rng(2).uniform(-3.0, 3.0, (20000, 2))
        floors = energy_floors(spec, eps)
        assert floors.sum() <= eval_many(spec, eps, X).min()
        parts = coordinate_values(spec, eps, np.arange(2), X.T.copy())
        assert (floors <= parts.min(axis=1)).all()
        # the base's floor 0 less the amplitude a eps
        assert list(floors) == [-0.5 * eps if family == "wiggly" else 0.0] * 2

    @pytest.mark.parametrize("family", ["quadratic", "wiggly"])
    def test_curvature_matches_differences_and_its_floor(self, family):
        spec, eps, h = self.FAMILIES[family], 0.05, 1e-6
        X = np.random.default_rng(3).uniform(-2.0, 2.0, (200, 2))
        for j, floor in enumerate(curvature_floors(spec, eps)):
            _, derivatives = coordinate_scalars(spec, eps, j)
            for x in X[:, j].tolist():
                curvature = derivatives(x)[1]
                fd = (derivatives(x + h)[0] - derivatives(x - h)[0]) / (2 * h)
                assert abs(curvature - fd) <= 1e-3
                assert floor <= curvature

    def test_families_without_floors(self, line):
        custom = custom_smooth(line, "x^2")
        assert energy_floors(custom, 1.0) is None
        assert curvature_floors(custom, 1.0) is None
        with pytest.raises(CapabilityAbsentError):
            coordinate_scalars(custom, 0.1, 0)
        # the kink of eps |x| only adds a jump up of phi': the base's floors
        kinked = self.FAMILIES["convex_perturbed"]
        assert list(energy_floors(kinked, 0.1)) == [0.0, 0.0]
        assert list(curvature_floors(kinked, 0.1)) == [1.0, 3.0]
        _, derivatives = coordinate_scalars(kinked, 0.1, 1)
        assert derivatives(0.5) == (3.0 * (0.5 + 0.2) + 0.1, 3.0)
        assert derivatives(0.0) == (3.0 * 0.2, 3.0)


class TestGammaLimit:
    def test_quadratic_is_its_own_limit(self, quad_1d):
        assert gamma_limit(quad_1d) is quad_1d

    def test_wiggly_limit_is_base(self, quad_1d, wiggly_1d):
        limit = gamma_limit(wiggly_1d)
        assert limit == quad_1d
        # pointwise convergence cross-check
        for x in (-1.3, 0.0, 0.7, 2.0):
            gaps = [abs(eval_many(wiggly_1d, e, [[x]])[0] - eval_many(limit, e, [[x]])[0])
                    for e in (1e-1, 1e-2, 1e-3)]
            assert all(b < a or a == 0.0 for a, b in zip(gaps, gaps[1:]))
            assert gaps[-1] <= 1e-3

    def test_perturbed_limit_is_base(self, quad_1d, perturbed_1d):
        assert gamma_limit(perturbed_1d) == quad_1d

    def test_custom_has_no_declared_limit(self, line):
        with pytest.raises(CapabilityAbsentError):
            gamma_limit(custom_smooth(line, "x^2"))

    def test_wiggly_uniform_envelope(self, wiggly_1d):
        rng = np.random.default_rng(3)
        X = rng.uniform(-5, 5, size=(200, 1))
        limit = gamma_limit(wiggly_1d)
        for eps in (0.3, 0.05, 0.007):
            gap = np.abs(eval_many(wiggly_1d, eps, X) - eval_many(limit, eps, X))
            assert gap.max() <= wiggly_1d.amplitude_scale * eps + 1e-15


class TestContinuitySampling:
    def test_small_moves_small_change(self, wiggly_1d):
        rng = np.random.default_rng(11)
        xs = rng.uniform(-2, 2, 50)
        for eps in (0.5, 0.05):
            changes = []
            for h in (1e-2, 1e-4, 1e-6):
                changes.append(max(
                    abs(eval_many(wiggly_1d, eps, [[x + h]])[0]
                        - eval_many(wiggly_1d, eps, [[x]])[0]) for x in xs))
            assert changes[0] > changes[1] > changes[2]
            assert changes[-1] < 1e-4


class TestExactSlope:
    def test_quadratic(self, quad_1d):
        assert exact_slopes(quad_1d, 1.0, [[2.0]])[0] == 2.0

    def test_weighted_metric_dual_norm(self, weighted_plane):
        spec = quadratic(weighted_plane, [1.0, 1.0], [0.0, 0.0])
        # gradient (2, 0); metric weight 4 on the first axis -> slope 1
        assert math.isclose(exact_slopes(spec, 1.0, [[2.0, 0.0]])[0], 1.0)

    def test_perturbed_kink_minimal_subgradient(self, perturbed_1d):
        # at x = 0 the subgradient interval [-eps, eps] contains 0
        assert exact_slopes(perturbed_1d, 0.5, [[0.0]])[0] == 0.0

    def test_perturbed_away_from_kink(self, perturbed_1d):
        assert math.isclose(exact_slopes(perturbed_1d, 0.1, [[1.0]])[0], 1.1)

    @staticmethod
    def one_point_slope(spec, eps, x):
        """The per-point formula the rows replace, as a reference."""
        mw = spec.domain.metric_weights()
        base = spec.base if spec.kind == "convex_perturbed" else spec
        g = gradient_many(base, eps, x[None, :])[0]
        if spec.kind == "convex_perturbed":
            g = np.where(x != 0.0, g + eps * np.sign(x),
                         np.sign(g) * np.maximum(0.0, np.abs(g) - eps))
        return math.sqrt(float((g * g / mw).sum()))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 3),
           kind=st.sampled_from(["quadratic", "wiggly", "convex_perturbed", "custom"]))
    def test_rows_match_the_one_point_formula(self, data, dim, kind):
        weights = data.draw(st.lists(st.floats(0.1, 10.0), min_size=dim, max_size=dim))
        space = SpaceDescriptor(dim, metric_kind="diagonal_weighted",
                                weights=tuple(weights))
        base = quadratic(space, [1.0] * dim, [0.3] * dim)
        spec = {"quadratic": base, "wiggly": wiggly(base),
                "convex_perturbed": convex_perturbed(base),
                "custom": custom_smooth(SpaceDescriptor(1), "0.5*x^2 + eps*cos(x/eps)")
                }[kind]
        n = spec.domain.dimension
        coord = st.one_of(st.just(0.0), st.floats(-3.0, 3.0))
        X = np.array(data.draw(st.lists(st.lists(coord, min_size=n, max_size=n),
                                        min_size=1, max_size=8)))
        eps = data.draw(st.floats(0.01, 1.0))
        rows = exact_slopes(spec, eps, X)
        for k, x in enumerate(X):
            assert rows[k] == self.one_point_slope(spec, eps, x) \
                == exact_slopes(spec, eps, x[None, :])[0]


class TestCertificate:
    def test_quadratic_nonnegative(self, quad_1d):
        cert = certify_well_posedness(quad_1d, [1.0], 200)
        assert cert.tau_star == 1.0
        assert cert.c_star >= 0.0
        assert cert.checked_eps_grid == (1.0,)

    def test_wiggly_amplitude_bound(self, wiggly_1d):
        cert = certify_well_posedness(wiggly_1d, [1e-1, 1e-2, 1e-3], 200)
        assert cert.c_star >= -1.0  # energy bounded below by -eps >= -1

    @pytest.mark.parametrize("tau_star", [0.5, 2.0, 100.0])
    def test_linear_energy_certifies(self, line, tau_star):
        # -x + x^2 / (2 tau_star) has its minimum -tau_star / 2 at x = tau_star,
        # which the radial shells sample to within 10 %
        cert = certify_well_posedness(custom_smooth(line, "-x"), [1.0], 200,
                                      tau_star=tau_star)
        assert -0.5 * tau_star <= cert.c_star <= -0.45 * tau_star

    def test_quartic_descent_fails_at_the_largest_radius(self, line):
        # -x^4 falls faster than any d^2 / (2 tau_star) rises
        spec = custom_smooth(line, "-x^4")
        with pytest.raises(CertificateFailure) as exc_info:
            certify_well_posedness(spec, [1.0], 200, tau_star=2.0, max_radius=1e3)
        eps, witness = exc_info.value.witness
        assert eps == 1.0
        assert abs(witness[0]) == pytest.approx(1e3)

    def test_empty_grid_rejected(self, quad_1d):
        with pytest.raises(ValueError):
            certify_well_posedness(quad_1d, [], 100)


def round_off(sympy, expr, at):
    """``expr``'s float64 value at the symbol values ``at`` and its round-off
    scale: a first-order bound on the rounding error in units of the unit
    round-off (running error analysis, Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 3).  The scale is inf for a node this does not
    know, and for a sign whose argument is within round-off of 0."""
    if expr in at:
        return at[expr], 0.0
    if not expr.args:                   # a number, or the imaginary unit
        try:
            return np.float64(float(expr)), abs(float(expr))
        except TypeError:
            return np.nan, np.inf
    v, s = zip(*(round_off(sympy, arg, at) for arg in expr.args))
    with np.errstate(all="ignore"):
        if expr.is_Add:
            return sum(v), sum(s) + sum(map(abs, v))
        if expr.is_Mul:
            value = math.prod(v)
            return value, abs(value) + sum(
                s[i] * math.prod(abs(w) for j, w in enumerate(v) if j != i)
                for i in range(len(v)))
        if expr.is_Pow:
            (a, b), (sa, sb) = v, s
            value = a ** b
            return value, (abs(value) + abs(b * a ** (b - 1)) * sa
                           + abs(value * np.log(abs(a))) * sb)
        if isinstance(expr, (sympy.sin, sympy.cos)):
            return getattr(np, type(expr).__name__)(v[0]), 1.0 + s[0]
        if isinstance(expr, sympy.exp):
            return np.exp(v[0]), np.exp(v[0]) * (1.0 + s[0])
        if isinstance(expr, sympy.log):
            return np.log(v[0]), 1.0 + s[0] / abs(v[0])
        if isinstance(expr, sympy.Abs):
            return abs(v[0]), s[0]
        if isinstance(expr, sympy.sign):
            return np.sign(v[0]), 0.0 if abs(v[0]) > 1e-9 * max(1.0, s[0]) else np.inf
    return np.nan, np.inf


class TestCustomExpressions:
    def test_parse_error(self, line):
        with pytest.raises(ConfigError):
            custom_smooth(line, "x +* 2")

    def test_unknown_symbol(self, line):
        with pytest.raises(ConfigError):
            custom_smooth(line, "x + y")

    @pytest.mark.parametrize("expression", [
        "__import__('os').getpid()*0 + x^2",    # arbitrary Python
        "x.real",                               # attribute access
        "log(x)",                               # function outside the grammar
        "pi*x",                                 # constant outside the grammar
        "sin(x, eps)",                          # two arguments
        "True*x",
    ])
    def test_grammar_rejects(self, line, expression):
        with pytest.raises(ConfigError, match="only numbers, x, eps"):
            custom_smooth(line, expression)

    def test_deep_nesting_is_config_error(self, line):
        with pytest.raises(ConfigError, match="recursion"):
            custom_smooth(line, "-" * 5000 + "x")

    @pytest.mark.parametrize("expression", [
        "0 * x", "-x", "x^2", "x^4", "x^2 / 2", "x^4 - x^2",
        "x^4 - x^2 + eps*sin(x)", "exp(1000*x)",
        "0.5*x^2 + eps*cos(x/eps) + 0.25*exp(-x^2)",
        "+abs(x) - Abs(x - 1.5e-3) ** 2",
    ])
    def test_grammar_admits(self, line, expression):
        spec = custom_smooth(line, expression)
        assert np.isfinite(eval_many(spec, 0.5, [[0.25]])[0])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(expression=grammar_expressions(
               st.just(0.0) | st.floats(0.125, 4.0, width=32)
               | st.floats(-4.0, -0.125, width=32)).filter(
               lambda text: re.search(r"\bx\b", text)),
           x=st.floats(0.01, 2.0) | st.floats(-2.0, -0.01), eps=st.floats(0.05, 2.0),
           finite=st.just(False))
    @example(expression="0.5*x^2 + eps*cos(x/eps) + 0.25*exp(-x^2)", x=0.6, eps=0.05,
             finite=True)
    @example(expression="2.5*(3*x)^3 - x/(1 + x^2) + eps*sin(-x)", x=-0.8, eps=0.3,
             finite=True)
    @example(expression="cos(cos(x)) * abs(x - 0.5) + x^x + eps^(2*x)", x=1.3, eps=0.7,
             finite=False)
    # a literal exponent 0 is the constant 1, with no 0 x^(-1) in the derivative
    @example(expression="x^0 + x^2", x=0.0, eps=0.5, finite=True)
    @example(expression="3*(x - 1)^(1 - 1) - x*eps^0", x=1.0, eps=0.5, finite=True)
    def test_matches_sympy(self, expression, x, eps, finite):
        """The value and derivative agree with sympy's, where both are finite.

        Sympy sorts and merges terms and folds constants, so the two round
        differently: the tolerance is 1e-9 relative to the larger of the
        value and sympy's round-off scale (see ``round_off``), plus four
        times our own round-off.  Ours may be non-finite where sympy's
        cancels a term (x^0.5 - x^0.5 at x < 0), except in the examples
        marked ``finite``."""
        sympy = pytest.importorskip("sympy")
        X, E = sympy.Symbol("x", real=True), sympy.Symbol("eps", positive=True)
        try:
            expr = sympy.sympify(expression.replace("^", "**"), rational=False,
                                 locals={"x": X, "eps": E, "abs": sympy.Abs,
                                         "Abs": sympy.Abs})
        except ZeroDivisionError:       # sympy's 0.0/0.0
            reject()
        assume(not expr.has(sympy.zoo, sympy.nan, sympy.oo, -sympy.oo))
        spec = custom_smooth(SpaceDescriptor(1), expression)
        compiled = compile_expression(expression)
        for ours, fn, theirs in ((eval_many, compiled[0], expr),
                                 (gradient_many, compiled[1], sympy.diff(expr, X))):
            for point in (x, 0.37, -1.21, 1.73):
                ref, scale = round_off(sympy, theirs, {X: np.float64(point),
                                                       E: np.float64(eps)})
                try:
                    value = float(np.ravel(ours(spec, eps, np.array([[point]])))[0])
                except EvaluationError:
                    assert not finite, (ours.__name__, point)
                    continue
                # our own round-off, which terms that sympy cancels (the
                # derivative of x/x) can leave: against the same lambda in
                # extended precision, on platforms with one
                with np.errstate(all="ignore"):
                    extended = float(np.ravel(fn(np.array([point], dtype=np.longdouble),
                                                 np.longdouble(eps)))[0])
                own = np.nan_to_num(abs(value - extended), nan=0.0, posinf=0.0)
                if np.isfinite(ref) and np.isfinite(scale):
                    tol = 1e-9 * max(1.0, abs(ref), scale) + 4 * own
                    assert abs(value - ref) <= tol, (ours.__name__, point, value, ref)

    @pytest.mark.parametrize("expression", [
        "x^4 - x^2", "0.5*x^2 + eps*cos(x/eps) + 0.25*exp(-x^2)",
        "x^x + abs(x - 0.5)^3", "exp(sin(x)) / (1 + x^2) - eps*x",
    ])
    def test_curvature_matches_sympy(self, line, expression):
        """The Newton iterate's phi'' of a custom expression, the compiled
        derivative tree differentiated once more, against sympy's."""
        sympy = pytest.importorskip("sympy")
        X, E = sympy.Symbol("x", real=True), sympy.Symbol("eps", positive=True)
        expr = sympy.sympify(expression.replace("^", "**"), rational=False,
                             locals={"x": X, "eps": E, "abs": sympy.Abs})
        # abs'' is 0 off its kink, where no point lies
        second = sympy.lambdify((X, E), sympy.diff(expr, X, 2).replace(
            sympy.DiracDelta, lambda arg: sympy.S.Zero), "math")
        spec, points = custom_smooth(line, expression), np.linspace(0.1, 1.9, 7)
        slope, curvature = coordinate_curvatures(spec, 0.05, np.zeros(7, dtype=int),
                                                 points)
        assert np.array_equal(slope, gradient_many(spec, 0.05, points[:, None])[:, 0])
        for x, ours in zip(points.tolist(), curvature.tolist()):
            theirs = second(x, 0.05)
            assert abs(ours - theirs) <= 1e-9 * max(1.0, abs(theirs))

    def test_caret_power(self, line):
        spec = custom_smooth(line, "x^2 / 2")
        assert eval_many(spec, 1.0, [[3.0]])[0] == 4.5

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_nonfinite_value_reported(self, line):
        spec = custom_smooth(line, "exp(1000*x)")
        with pytest.raises(EvaluationError):
            eval_many(spec, 1.0, [[10.0]])

    def test_custom_requires_1d(self, plane):
        with pytest.raises(ValueError):
            custom_smooth(plane, "x^2")

    def test_roundtrip_dict(self, wiggly_1d):
        # the config object that the energy was written as
        d = {"kind": "wiggly", "amplitude_scale": 1.0,
             "base": {"kind": "quadratic", "weights": [1.0], "center": [0.0]}}
        assert parse_config(energy=d).energy == wiggly_1d


class TestCriticalPoints:
    def test_wiggly_trap_is_stationary(self, wiggly_1d):
        trap = nearest_stable_critical_point(wiggly_1d, 0.1, [0.5])
        x = trap[0]
        assert abs(x - math.sin(x / 0.1)) < 1e-10
        assert abs(x - 0.5) < 4 * math.pi * 0.1

    def test_quadratic_min_found(self, quad_1d):
        trap = nearest_stable_critical_point(quad_1d, 1.0, [0.3])
        assert abs(trap[0]) < 1e-12
