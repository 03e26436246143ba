"""Parameterized energy families and their closed-form capabilities.

The built-in zoo:

* ``quadratic``          0.5 * sum_i w_i (x_i - b_i)^2
* ``wiggly``             base(x) + a * eps * sum_i cos(x_i / eps)
* ``convex_perturbed``   base(x) + eps * sum_i |x_i|
* ``custom_smooth``      a 1D expression in ``x`` and ``eps``

Every kind is finite everywhere; the extended-real branch of the slope
definition exists in the type system but is unreachable for built-ins.
Optional capabilities (gradient, exact descending slope, limit family as
eps -> 0) raise :class:`CapabilityAbsentError` when a kind lacks them.
"""

from __future__ import annotations

import ast
import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    CapabilityAbsentError,
    CertificateFailure,
    ConfigError,
    EvaluationError,
)
from .metric import Point, SpaceDescriptor, as_floats

QUADRATIC = "quadratic"
WIGGLY = "wiggly"
CONVEX_PERTURBED = "convex_perturbed"
CUSTOM_SMOOTH = "custom_smooth"

COS_XI_OVER_EPS = "cos_xi_over_eps"
EPS_ABS = "eps_abs"


@dataclass(frozen=True)
class EnergySpec:
    """One member of the energy zoo, tied to its ambient space.

    Only the fields relevant to ``kind`` are populated; use the factory
    functions below instead of constructing directly.
    """

    kind: str
    domain: SpaceDescriptor
    weights: tuple[float, ...] | None = None      # quadratic
    center: tuple[float, ...] | None = None       # quadratic
    base: "EnergySpec | None" = None              # wiggly / convex_perturbed
    amplitude_scale: float = 1.0                  # wiggly
    oscillation: str = COS_XI_OVER_EPS            # wiggly
    perturbation: str = EPS_ABS                   # convex_perturbed
    expression: str | None = None                 # custom_smooth

    def __post_init__(self):
        if self.kind == QUADRATIC:
            if self.weights is None or self.center is None:
                raise ValueError("quadratic energy requires weights and center")
            w = as_floats(self.weights, "quadratic weights")
            if len(w) != self.domain.dimension:
                raise ValueError("quadratic weights length must equal dimension")
            if any(v <= 0 for v in w):
                raise ValueError("quadratic weights must be strictly positive")
            c = as_floats(self.center, "quadratic center")
            if len(c) != self.domain.dimension:
                raise ValueError("quadratic center length must equal dimension")
            object.__setattr__(self, "weights", w)
            object.__setattr__(self, "center", c)
        elif self.kind in (WIGGLY, CONVEX_PERTURBED):
            if self.base is None or self.base.kind != QUADRATIC:
                raise ValueError(f"{self.kind} energy requires a quadratic base")
            if self.kind == WIGGLY:
                if self.amplitude_scale <= 0:
                    raise ValueError("amplitude_scale must be positive")
                if self.oscillation != COS_XI_OVER_EPS:
                    raise ValueError(f"unknown oscillation {self.oscillation!r}")
            elif self.perturbation != EPS_ABS:
                raise ValueError(f"unknown perturbation {self.perturbation!r}")
        elif self.kind == CUSTOM_SMOOTH:
            if self.domain.dimension != 1:
                raise ValueError("custom_smooth energies are one-dimensional")
            if not self.expression:
                raise ValueError("custom_smooth energy requires an expression")
            _compile_expression(self.expression)  # fail fast on parse errors
        else:
            raise ValueError(f"unknown energy kind {self.kind!r}")

    # -- config serialization -------------------------------------------------

    def to_dict(self) -> dict:
        d: dict = {"kind": self.kind}
        if self.kind == QUADRATIC:
            d["weights"] = list(self.weights)
            d["center"] = list(self.center)
        elif self.kind == WIGGLY:
            d["base"] = self.base.to_dict()
            d["amplitude_scale"] = self.amplitude_scale
            d["oscillation"] = self.oscillation
        elif self.kind == CONVEX_PERTURBED:
            d["base"] = self.base.to_dict()
            d["perturbation"] = self.perturbation
        else:
            d["expression"] = self.expression
        return d

    @classmethod
    def from_dict(cls, d: dict, domain: SpaceDescriptor) -> "EnergySpec":
        try:
            kind = d["kind"]
        except KeyError as exc:
            raise ConfigError("energy config missing field 'kind'") from exc
        if kind == QUADRATIC:
            for name in ("weights", "center"):
                if name not in d:
                    raise ConfigError(f"quadratic energy config missing field {name!r}")
            return quadratic(domain, d["weights"], d["center"])
        if kind == WIGGLY:
            if "base" not in d:
                raise ConfigError("wiggly energy config missing field 'base'")
            return wiggly(
                cls.from_dict(d["base"], domain),
                amplitude_scale=d.get("amplitude_scale", 1.0),
                oscillation=d.get("oscillation", COS_XI_OVER_EPS),
            )
        if kind == CONVEX_PERTURBED:
            if "base" not in d:
                raise ConfigError("convex_perturbed energy config missing field 'base'")
            return convex_perturbed(cls.from_dict(d["base"], domain))
        if kind == CUSTOM_SMOOTH:
            if "expression" not in d:
                raise ConfigError("custom_smooth energy config missing field 'expression'")
            return custom_smooth(domain, d["expression"])
        raise ConfigError(f"unknown energy kind {kind!r}")


def quadratic(domain: SpaceDescriptor, weights, center) -> EnergySpec:
    return EnergySpec(kind=QUADRATIC, domain=domain,
                      weights=tuple(weights), center=tuple(center))


def wiggly(base: EnergySpec, amplitude_scale: float = 1.0,
           oscillation: str = COS_XI_OVER_EPS) -> EnergySpec:
    return EnergySpec(kind=WIGGLY, domain=base.domain, base=base,
                      amplitude_scale=as_floats([amplitude_scale], "amplitude_scale")[0],
                      oscillation=oscillation)


def convex_perturbed(base: EnergySpec, perturbation: str = EPS_ABS) -> EnergySpec:
    return EnergySpec(kind=CONVEX_PERTURBED, domain=base.domain, base=base,
                      perturbation=perturbation)


def custom_smooth(domain: SpaceDescriptor, expression: str) -> EnergySpec:
    return EnergySpec(kind=CUSTOM_SMOOTH, domain=domain, expression=str(expression))


def coordinate(spec: EnergySpec, j: int) -> EnergySpec:
    """The 1D member of ``spec``'s family on coordinate ``j``, on the
    Euclidean line: ``spec`` at x is the sum of these at the x_j (a 1D
    energy, as every ``custom_smooth`` one is, is its own coordinate)."""
    if spec.domain.dimension == 1:
        return spec
    if spec.kind == QUADRATIC:
        return quadratic(SpaceDescriptor(1), [spec.weights[j]], [spec.center[j]])
    base = coordinate(spec.base, j)     # wiggly and convex_perturbed
    return replace(spec, domain=base.domain, base=base)


# ---------------------------------------------------------------------------
# Custom expression compilation (minimal grammar: numbers, the variables x
# and eps, + - * / ^ (or **), unary signs, and one-argument sin, cos, exp,
# abs / Abs).  One walk over the syntax tree admits a node only through its
# forward derivative rule (Griewank-Walther, Evaluating Derivatives, ch. 3),
# so the grammar and the differentiator are the same code.  The value and
# derivative trees it builds are compiled into lambdas over numpy; the text
# itself is never evaluated.
# ---------------------------------------------------------------------------

_VARIABLES = ("x", "eps")
_FUNCTIONS = ("sin", "cos", "exp", "abs", "Abs")
_BINARY_OPS = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply,
               ast.Div: np.divide, ast.Pow: np.power}
_UNARY_OPS = (ast.UAdd, ast.USub)
# The lambdas' globals: the grammar's functions, and sign and log for the
# derivatives.  eps arrives as a float64 scalar.
_NAMESPACE = {"__builtins__": {}, "sin": np.sin, "cos": np.cos, "exp": np.exp,
              "abs": np.abs, "sign": np.sign, "log": np.log}


# Trees are built through these, which fold a node whose operands are all
# literals into one literal, computed in float64 as numpy computes it at
# run time (10^400 is inf, (-8)^(1/3) nan, 0^-1 inf), so no arithmetic on
# literals alone is left to Python floats, which would raise or go complex.
# A derivative is a tree, or None where it is identically zero.

def _literal(a) -> bool:
    return isinstance(a, ast.Constant)


def _constant(value: float) -> ast.Constant:
    # a nonzero integral value as an int, which numpy raises to a power
    # faster; the result is the same
    return ast.Constant(int(value) if value.is_integer() and 0 < abs(value) < 2 ** 53
                        else value)


def _fold(function, *args) -> ast.Constant:
    with np.errstate(all="ignore"):
        return _constant(float(function(*(np.float64(a.value) for a in args))))


def _binop(a, op, b):
    if _literal(a) and _literal(b):
        return _fold(_BINARY_OPS[type(op)], a, b)
    if isinstance(op, ast.Pow) and _literal(b) and b.value == 1.0:
        return a
    return ast.BinOp(left=a, op=op, right=b)


def _call(function: str, a):
    if _literal(a):
        return _fold(_NAMESPACE[function], a)
    return ast.Call(func=ast.Name(id=function, ctx=ast.Load()), args=[a], keywords=[])


def _negated(a) -> bool:
    return isinstance(a, ast.UnaryOp) and isinstance(a.op, ast.USub)


def _neg(a):
    if a is None:
        return None
    if _literal(a):
        return _fold(np.negative, a)
    return a.operand if _negated(a) else ast.UnaryOp(op=ast.USub(), operand=a)


def _add(a, b):
    if a is None or b is None:
        return b if a is None else a
    return _binop(a, ast.Sub(), b.operand) if _negated(b) else _binop(a, ast.Add(), b)


def _sub(a, b):
    return _neg(b) if a is None else _add(a, _neg(b))


def _mul(a, b):
    """a * b in a derivative.  Signs move out and a factor 1 goes, which is
    exact; a literal times a literal-led product is folded, which may move
    the last bit."""
    if a is None or b is None:
        return None
    if _negated(a):
        return _neg(_mul(a.operand, b))
    if _negated(b):
        return _neg(_mul(a, b.operand))
    if _literal(b):
        a, b = b, a
    if _literal(a) and a.value == 1:
        return b
    if (_literal(a) and isinstance(b, ast.BinOp) and isinstance(b.op, ast.Mult)
            and _literal(b.left)):
        return _mul(_fold(np.multiply, a, b.left), b.right)
    return _binop(a, ast.Mult(), b)


def _div(a, b):
    return None if a is None else _binop(a, ast.Div(), b)


def _differentiate(text: str, node):
    """(value, d/dx) trees of the grammar expression ``node``.  Raise
    ConfigError at a node outside the grammar."""
    if isinstance(node, ast.Name) and node.id in _VARIABLES:
        return (ast.Name(id=node.id, ctx=ast.Load()),
                _constant(1.0) if node.id == "x" else None)
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        try:
            return _constant(float(node.value)), None
        except OverflowError:           # an integer literal beyond float64
            return _constant(math.inf), None
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, _UNARY_OPS):
        a, da = _differentiate(text, node.operand)
        return (a, da) if isinstance(node.op, ast.UAdd) else (_neg(a), _neg(da))
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY_OPS:
        a, da = _differentiate(text, node.left)
        b, db = _differentiate(text, node.right)
        value = _binop(a, node.op, b)
        if isinstance(node.op, ast.Add):
            return value, _add(da, db)
        if isinstance(node.op, ast.Sub):
            return value, _sub(da, db)
        if isinstance(node.op, ast.Mult):
            return value, _add(_mul(da, b), _mul(a, db))
        if isinstance(node.op, ast.Div):
            return value, _sub(_div(da, b), _div(_mul(a, db), _binop(b, ast.Mult(), b)))
        # a^b: b a^(b-1) a', and a^b log(a) b' where the exponent holds x
        power = _mul(b, _binop(a, ast.Pow(), _sub(b, _constant(1.0))))
        return value, _add(_mul(power, da), _mul(_mul(value, _call("log", a)), db))
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _FUNCTIONS and len(node.args) == 1
            and not node.keywords):
        a, da = _differentiate(text, node.args[0])
        function = node.func.id.lower()
        value = _call(function, a)
        outer = (_call("cos", a) if function == "sin" else
                 _neg(_call("sin", a)) if function == "cos" else
                 value if function == "exp" else _call("sign", a))
        return value, _mul(outer, da)       # sign(0) = 0, as in gradient_many
    raise ConfigError(
        f"energy expression {text!r} uses {ast.unparse(node)!r}; only "
        f"numbers, x, eps, + - * / ^ and one-argument "
        f"{', '.join(_FUNCTIONS)} are allowed"
    )


def _lambda(body) -> ast.Expression:
    args = ast.arguments(posonlyargs=[], args=[ast.arg("x"), ast.arg("eps")],
                         kwonlyargs=[], kw_defaults=[], defaults=[])
    return ast.fix_missing_locations(ast.Expression(ast.Lambda(args=args, body=body)))


@functools.lru_cache(maxsize=128)
def _compile_expression(text: str):
    """Check and differentiate a 1D expression; returns (value_fn, grad_fn),
    each a ``lambda x, eps`` over float64 arrays and scalars."""
    try:
        tree = ast.parse(text.replace("^", "**"), mode="eval")
        value, grad = _differentiate(text, tree.body)
        return tuple(eval(compile(_lambda(body), "<energy expression>", "eval"), _NAMESPACE)
                     for body in (value, ast.Constant(0.0) if grad is None else grad))
    except (SyntaxError, ValueError, RecursionError) as exc:   # the last: too deep
        raise ConfigError(f"cannot compile energy expression {text!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def eval_many(spec: EnergySpec, eps: float, X: np.ndarray) -> np.ndarray:
    """Evaluate the energy at each row of ``X`` (m, n); returns shape (m,)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if spec.kind == QUADRATIC:
        diff = X - np.asarray(spec.center)
        return 0.5 * (np.asarray(spec.weights) * diff * diff).sum(axis=1)
    if spec.kind == WIGGLY:
        osc = spec.amplitude_scale * eps * np.cos(X / eps).sum(axis=1)
        return eval_many(spec.base, eps, X) + osc
    if spec.kind == CONVEX_PERTURBED:
        return eval_many(spec.base, eps, X) + eps * np.abs(X).sum(axis=1)
    value_fn, _ = _compile_expression(spec.expression)
    out = np.asarray(value_fn(X[:, 0], np.float64(eps)), dtype=float)
    out = np.broadcast_to(out, (X.shape[0],)).copy()
    if not np.all(np.isfinite(out)):
        bad = X[~np.isfinite(out)][0]
        raise EvaluationError(
            f"expression {spec.expression!r} not finite at x={bad.tolist()}", point=bad
        )
    return out


def evaluate(spec: EnergySpec, eps: float, x: Point) -> float:
    """Energy value at a single point."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    spec.domain.validate_point(x)
    return float(eval_many(spec, eps, x.array[None, :])[0])


def gradient_many(spec: EnergySpec, eps: float, X: np.ndarray) -> np.ndarray:
    """(Sub)gradient rows for rows of ``X``; sign(0) taken as 0."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if spec.kind == QUADRATIC:
        return np.asarray(spec.weights) * (X - np.asarray(spec.center))
    if spec.kind == WIGGLY:
        return gradient_many(spec.base, eps, X) - spec.amplitude_scale * np.sin(X / eps)
    if spec.kind == CONVEX_PERTURBED:
        return gradient_many(spec.base, eps, X) + eps * np.sign(X)
    _, grad_fn = _compile_expression(spec.expression)
    g = np.asarray(grad_fn(X[:, 0], np.float64(eps)), dtype=float)
    g = np.broadcast_to(g, (X.shape[0],)).copy()
    if not np.all(np.isfinite(g)):
        bad = X[~np.isfinite(g)][0]
        raise EvaluationError(
            f"gradient of {spec.expression!r} not finite at x={bad.tolist()}", point=bad
        )
    return g[:, None]


def gradient(spec: EnergySpec, eps: float, x: Point) -> Point:
    """Gradient at a point, where the kind is smooth there."""
    spec.domain.validate_point(x)
    return Point.from_array(gradient_many(spec, eps, x.array[None, :])[0])


def exact_slope(spec: EnergySpec, eps: float, x: Point) -> float:
    """Closed-form descending slope in the space's metric.

    For smooth kinds this is the dual norm of the gradient; for the
    eps*|x| perturbation the minimal-norm subgradient is used at kinks.
    Raises :class:`CapabilityAbsentError` where no formula applies.
    """
    spec.domain.validate_point(x)
    mw = spec.domain.metric_weights()
    if spec.kind in (QUADRATIC, WIGGLY, CUSTOM_SMOOTH):
        g = gradient_many(spec, eps, x.array[None, :])[0]
        return float(math.sqrt(float((g * g / mw).sum())))
    if spec.kind == CONVEX_PERTURBED:
        a = gradient_many(spec.base, eps, x.array[None, :])[0]
        x_arr = x.array
        g = np.where(
            x_arr != 0.0,
            a + eps * np.sign(x_arr),
            np.sign(a) * np.maximum(0.0, np.abs(a) - eps),
        )
        return float(math.sqrt(float((g * g / mw).sum())))
    raise CapabilityAbsentError(f"no exact slope for kind {spec.kind!r}")


# The limit family does not depend on eps; it is evaluated at this value.
LIMIT_EPS = 1.0


def gamma_limit(spec: EnergySpec) -> EnergySpec:
    """Limit family as eps -> 0.

    The oscillatory and |x| perturbations vanish uniformly (their size is
    bounded by a constant times eps), so the limit is the base quadratic;
    a quadratic family is eps-independent and its own limit.
    """
    if spec.kind == QUADRATIC:
        return spec
    if spec.kind in (WIGGLY, CONVEX_PERTURBED):
        return spec.base
    raise CapabilityAbsentError(
        f"kind {spec.kind!r} declares no limit family"
    )


# ---------------------------------------------------------------------------
# Well-posedness certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WellPosednessCertificate:
    """Empirical coercivity certificate.

    Records tau_star and c_star such that, on every sampled point v and
    every eps of the checked grid,

        energy(v) + d(v, u*) / (2 * tau_star) >= c_star.
    """

    tau_star: float
    c_star: float
    compactness_note: str
    checked_eps_grid: tuple[float, ...]


_COMPACTNESS_NOTE = (
    "finite-dimensional space with coercive built-in energies: bounded "
    "sublevel sets are automatically precompact; recorded, not sampled"
)


def certify_well_posedness(spec: EnergySpec, eps_grid, sample_budget: int,
                           tau_star: float = 1.0,
                           max_radius: float = 1e3,
                           seed: int = 0) -> WellPosednessCertificate:
    """Sample the coercivity bound on radial shells around u*.

    Fails loudly (with a witness) when the penalized objective keeps
    decreasing out to the largest sampled radius, the sampled signature of
    an objective unbounded below.
    """
    eps_grid = tuple(float(e) for e in eps_grid)
    if not eps_grid:
        raise ValueError("eps_grid must be nonempty")
    if tau_star <= 0:
        raise ValueError("tau_star must be positive")
    space = spec.domain
    n = space.dimension
    rng = np.random.default_rng(seed)
    n_shells = max(8, int(math.sqrt(sample_budget)))
    per_shell = max(2 * n, sample_budget // n_shells)
    radii = np.geomspace(1e-3, max_radius, n_shells)
    u_star = space.base_point.array

    global_min = math.inf
    for eps in eps_grid:
        shell_mins = []
        shell_argmins = []
        for r in radii:
            dirs = np.vstack([np.eye(n), -np.eye(n),
                              rng.standard_normal((per_shell, n))])
            norms = np.sqrt((space.metric_weights() * dirs * dirs).sum(axis=1))
            dirs = dirs / norms[:, None]
            Y = u_star + r * dirs
            vals = eval_many(spec, eps, Y) + r / (2.0 * tau_star)
            k = int(np.argmin(vals))
            shell_mins.append(float(vals[k]))
            shell_argmins.append(Y[k])
        tail = shell_mins[-3:]
        if tail[-1] == min(shell_mins) and tail[0] > tail[1] > tail[2]:
            witness = (eps, Point.from_array(shell_argmins[-1]))
            raise CertificateFailure(
                "penalized energy still decreasing at radius "
                f"{radii[-1]:g} for eps={eps:g}: objective appears unbounded "
                f"below for tau_star={tau_star:g}",
                witness=witness,
            )
        center_val = float(eval_many(spec, eps, u_star[None, :])[0])
        global_min = min(global_min, center_val, *shell_mins)

    return WellPosednessCertificate(
        tau_star=float(tau_star),
        c_star=float(global_min),
        compactness_note=_COMPACTNESS_NOTE,
        checked_eps_grid=eps_grid,
    )


# ---------------------------------------------------------------------------
# Critical-point helper for oscillatory landscapes (1D)
# ---------------------------------------------------------------------------

def nearest_stable_critical_point(spec: EnergySpec, eps: float, x: Point,
                                  span: float | None = None) -> Point:
    """Nearest local minimizer of a 1D energy around ``x``.

    Scans the gradient for sign changes with positive second difference and
    polishes the closest one by bisection.  Used to build trap-point
    sequences for the oscillation families.
    """
    if spec.domain.dimension != 1:
        raise ValueError("critical-point scan implemented for 1D only")
    x0 = float(x.coords[0])
    if span is None:
        span = 8.0 * math.pi * eps if spec.kind == WIGGLY else max(1.0, abs(x0))
    grid = np.linspace(x0 - span, x0 + span, 20001)
    g = gradient_many(spec, eps, grid[:, None])[:, 0]
    sign_change = (g[:-1] < 0) & (g[1:] >= 0)  # minus-to-plus: local minimum
    idx = np.nonzero(sign_change)[0]
    if idx.size == 0:
        raise ValueError(f"no stable critical point within span {span:g} of {x0:g}")
    mids = 0.5 * (grid[idx] + grid[idx + 1])
    best = idx[int(np.argmin(np.abs(mids - x0)))]
    lo, hi = grid[best], grid[best + 1]
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gradient_many(spec, eps, np.array([[mid]]))[0, 0] < 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15 * max(1.0, abs(mid)):
            break
    return Point.of(0.5 * (lo + hi))
