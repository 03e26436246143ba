import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, reject, settings
from hypothesis import strategies as st

from maxslope.energy import (
    EnergySpec,
    _compile_expression,
    certify_well_posedness,
    convex_perturbed,
    coordinate,
    custom_smooth,
    eval_many,
    evaluate,
    exact_slope,
    gamma_limit,
    gradient,
    gradient_many,
    nearest_stable_critical_point,
    quadratic,
    wiggly,
)
from maxslope.errors import (
    CapabilityAbsentError,
    CertificateFailure,
    ConfigError,
    EvaluationError,
)
from maxslope.metric import SpaceDescriptor

from conftest import finite_difference_gradient, grammar_expressions, pt


class TestEval:
    def test_quadratic_minimum(self, quad_1d):
        assert evaluate(quad_1d, 1.0, pt(0.0)) == 0.0

    def test_quadratic_value(self, quad_1d):
        # 0.5 * 1 * 2^2
        assert evaluate(quad_1d, 1.0, pt(2.0)) == 2.0

    def test_wiggly_at_origin(self, wiggly_1d):
        # 0.5 x^2 + eps cos(x/eps) at x = 0 gives eps
        assert math.isclose(evaluate(wiggly_1d, 0.1, pt(0.0)), 0.1)

    def test_perturbed_value(self, perturbed_1d):
        assert math.isclose(evaluate(perturbed_1d, 0.1, pt(1.0)), 0.6)

    def test_eps_must_be_positive(self, quad_1d):
        with pytest.raises(ValueError):
            evaluate(quad_1d, 0.0, pt(1.0))

    def test_quadratic_needs_positive_weights(self, line):
        with pytest.raises(ValueError):
            quadratic(line, [0.0], [0.0])

    def test_wiggly_needs_positive_amplitude(self, quad_1d):
        with pytest.raises(ValueError):
            wiggly(quad_1d, amplitude_scale=0.0)


class TestCoordinates:
    SPACE = SpaceDescriptor(3, metric_kind="diagonal_weighted", weights=(4.0, 1.0, 2.0))
    BASE = quadratic(SPACE, [1.0, 2.0, 0.5], [0.3, -0.2, 1.0])

    @pytest.mark.parametrize("spec", [BASE, wiggly(BASE, amplitude_scale=0.5),
                                      convex_perturbed(BASE)],
                             ids=["quadratic", "wiggly", "convex_perturbed"])
    def test_energy_is_the_sum_of_its_coordinates(self, spec):
        X = np.random.default_rng(1).uniform(-2.0, 2.0, (50, 3))
        parts = [coordinate(spec, j) for j in range(3)]
        assert all(p.kind == spec.kind and p.domain == SpaceDescriptor(1) for p in parts)
        total = sum(eval_many(p, 0.1, X[:, j:j + 1]) for j, p in enumerate(parts))
        assert np.allclose(total, eval_many(spec, 0.1, X), rtol=1e-14, atol=1e-14)

    def test_a_1d_energy_is_its_own_coordinate(self, line):
        spec = custom_smooth(line, "x^4 - x^2")
        assert coordinate(spec, 0) is spec


class TestGradient:
    def test_quadratic(self, quad_1d):
        assert gradient(quad_1d, 1.0, pt(2.0)).coords == (2.0,)

    def test_wiggly_at_origin(self, wiggly_1d):
        # x - sin(x/eps) vanishes at 0
        assert gradient(wiggly_1d, 0.1, pt(0.0)).coords == (0.0,)

    def test_quadratic_2d_at_minimum(self, plane):
        spec = quadratic(plane, [4.0, 1.0], [1.0, 0.0])
        assert gradient(spec, 1.0, pt(1.0, 0.0)).coords == (0.0, 0.0)

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
            g = gradient(spec, eps, pt(*x)).array
            fd = finite_difference_gradient(spec, eps, x)
            scale = max(1.0, float(np.linalg.norm(fd)))
            assert np.linalg.norm(g - fd) <= 1e-6 * scale


class TestGammaLimit:
    def test_quadratic_is_its_own_limit(self, quad_1d):
        assert gamma_limit(quad_1d) is quad_1d

    def test_wiggly_limit_is_base(self, quad_1d, wiggly_1d):
        limit = gamma_limit(wiggly_1d)
        assert limit == quad_1d
        # pointwise convergence cross-check
        for x in (-1.3, 0.0, 0.7, 2.0):
            gaps = [abs(evaluate(wiggly_1d, e, pt(x)) - evaluate(limit, e, pt(x)))
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
                    abs(evaluate(wiggly_1d, eps, pt(x + h))
                        - evaluate(wiggly_1d, eps, pt(x))) for x in xs))
            assert changes[0] > changes[1] > changes[2]
            assert changes[-1] < 1e-4


class TestExactSlope:
    def test_quadratic(self, quad_1d):
        assert exact_slope(quad_1d, 1.0, pt(2.0)) == 2.0

    def test_weighted_metric_dual_norm(self, weighted_plane):
        spec = quadratic(weighted_plane, [1.0, 1.0], [0.0, 0.0])
        # gradient (2, 0); metric weight 4 on the first axis -> slope 1
        assert math.isclose(exact_slope(spec, 1.0, pt(2.0, 0.0)), 1.0)

    def test_perturbed_kink_minimal_subgradient(self, perturbed_1d):
        # at x = 0 the subgradient interval [-eps, eps] contains 0
        assert exact_slope(perturbed_1d, 0.5, pt(0.0)) == 0.0

    def test_perturbed_away_from_kink(self, perturbed_1d):
        assert math.isclose(exact_slope(perturbed_1d, 0.1, pt(1.0)), 1.1)


class TestCertificate:
    def test_quadratic_nonnegative(self, quad_1d):
        cert = certify_well_posedness(quad_1d, [1.0], 200)
        assert cert.tau_star == 1.0
        assert cert.c_star >= 0.0
        assert cert.checked_eps_grid == (1.0,)

    def test_wiggly_amplitude_bound(self, wiggly_1d):
        cert = certify_well_posedness(wiggly_1d, [1e-1, 1e-2, 1e-3], 200)
        assert cert.c_star >= -1.0  # energy bounded below by -eps >= -1

    def test_linear_energy_fails_for_large_tau_star(self, line):
        spec = custom_smooth(line, "-x")
        with pytest.raises(CertificateFailure) as exc_info:
            certify_well_posedness(spec, [1.0], 200, tau_star=2.0)
        eps, witness = exc_info.value.witness
        assert eps == 1.0
        assert abs(witness.coords[0]) >= 100.0

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
        assert np.isfinite(evaluate(spec, 0.5, pt(0.25)))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(expression=grammar_expressions(
               st.just(0.0) | st.floats(0.125, 4.0, width=32)
               | st.floats(-4.0, -0.125, width=32)).filter(
               lambda text: re.search(r"\bx\b", text)),
           x=st.floats(0.01, 2.0) | st.floats(-2.0, -0.01), eps=st.floats(0.05, 2.0))
    @example(expression="0.5*x^2 + eps*cos(x/eps) + 0.25*exp(-x^2)", x=0.6, eps=0.05)
    @example(expression="2.5*(3*x)^3 - x/(1 + x^2) + eps*sin(-x)", x=-0.8, eps=0.3)
    @example(expression="cos(cos(x)) * abs(x - 0.5) + x^x + eps^(2*x)", x=1.3, eps=0.7)
    def test_matches_sympy(self, expression, x, eps):
        """The value and derivative agree with sympy's, where both are finite.

        Sympy sorts and merges terms and folds constants, so the two round
        differently: the tolerance is 1e-9 relative to the larger of the
        value and sympy's round-off scale (see ``round_off``), plus four
        times our own round-off."""
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
        compiled = _compile_expression(expression)
        for ours, fn, theirs in ((eval_many, compiled[0], expr),
                                 (gradient_many, compiled[1], sympy.diff(expr, X))):
            for point in (x, 0.37, -1.21, 1.73):
                ref, scale = round_off(sympy, theirs, {X: np.float64(point),
                                                       E: np.float64(eps)})
                try:
                    value = float(np.ravel(ours(spec, eps, np.array([[point]])))[0])
                except EvaluationError:
                    continue    # e.g. x^0.5 - x^0.5 at x < 0, which sympy cancels
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

    def test_caret_power(self, line):
        spec = custom_smooth(line, "x^2 / 2")
        assert evaluate(spec, 1.0, pt(3.0)) == 4.5

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_nonfinite_value_reported(self, line):
        spec = custom_smooth(line, "exp(1000*x)")
        with pytest.raises(EvaluationError):
            evaluate(spec, 1.0, pt(10.0))

    def test_custom_requires_1d(self, plane):
        with pytest.raises(ValueError):
            custom_smooth(plane, "x^2")

    def test_roundtrip_dict(self, line, wiggly_1d):
        d = wiggly_1d.to_dict()
        assert EnergySpec.from_dict(d, line) == wiggly_1d


class TestCriticalPoints:
    def test_wiggly_trap_is_stationary(self, wiggly_1d):
        trap = nearest_stable_critical_point(wiggly_1d, 0.1, pt(0.5))
        x = trap.coords[0]
        assert abs(x - math.sin(x / 0.1)) < 1e-10
        assert abs(x - 0.5) < 4 * math.pi * 0.1

    def test_quadratic_min_found(self, quad_1d):
        trap = nearest_stable_critical_point(quad_1d, 1.0, pt(0.3))
        assert abs(trap.coords[0]) < 1e-12
