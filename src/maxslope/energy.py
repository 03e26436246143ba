"""Parameterized energy families and their closed-form capabilities.

The built-in zoo:

* ``quadratic``          0.5 * sum_i w_i (x_i - b_i)^2
* ``wiggly``             base(x) + a * eps * sum_i cos(x_i / eps)
* ``convex_perturbed``   base(x) + eps * sum_i |x_i|
* ``custom_smooth``      a 1D expression in ``x`` and ``eps``, compiled by
                         ``maxslope.expression``, which loads only for it

Each energy is a sum over coordinates of 1D members phi_j, and each
built-in family defines its member once (see Members below).  Every
evaluator reads it: ``eval_many`` and ``gradient_many`` on rows of points,
for the numeric prox ``coordinate_values`` and ``coordinate_curvatures``
on (R, k) arrays of rows and ``coordinate_scalars`` on Python floats, and
``energy_floors`` and ``curvature_floors``.

Every kind is finite everywhere and has a closed-form descending slope.
Optional capabilities (limit family as eps -> 0, closed-form curvature)
raise :class:`CapabilityAbsentError` when a kind lacks them; the floors are
None where a kind has none.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .errors import (
    CapabilityAbsentError,
    CertificateFailure,
    DimensionMismatchError,
    EvaluationError,
)
from .metric import SpaceDescriptor, as_floats

QUADRATIC = "quadratic"
WIGGLY = "wiggly"
CONVEX_PERTURBED = "convex_perturbed"
CUSTOM_SMOOTH = "custom_smooth"


class _EnergyFields(NamedTuple):
    kind: str
    domain: SpaceDescriptor
    weights: tuple[float, ...] | None = None      # quadratic
    center: tuple[float, ...] | None = None       # quadratic
    base: EnergySpec | None = None                # wiggly / convex_perturbed
    amplitude_scale: float = 1.0                  # wiggly
    expression: str | None = None                 # custom_smooth


class EnergySpec(_EnergyFields):
    """One member of the energy zoo, tied to its ambient space, checked on
    every construction.

    Only the fields relevant to ``kind`` are populated; use the factory
    functions below, as ``config`` does for a config's energy object,
    instead of constructing directly.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.kind == QUADRATIC:
            if self.weights is None or self.center is None:
                raise ValueError("quadratic energy requires weights and center")
            w = as_floats(self.weights, "quadratic weights")
            if len(w) != self.domain.dimension:
                raise ValueError("quadratic weights length must equal dimension")
            if min(w) <= 0:
                raise ValueError("quadratic weights must be strictly positive")
            c = as_floats(self.center, "quadratic center")
            if len(c) != self.domain.dimension:
                raise ValueError("quadratic center length must equal dimension")
            return self._replace(weights=w, center=c)
        if self.kind in (WIGGLY, CONVEX_PERTURBED):
            if self.base is None or self.base.kind != QUADRATIC:
                raise ValueError(f"{self.kind} energy requires a quadratic base")
            if self.kind == WIGGLY and self.amplitude_scale <= 0:
                raise ValueError("amplitude_scale must be positive")
        elif self.kind == CUSTOM_SMOOTH:
            if self.domain.dimension != 1:
                raise ValueError("custom_smooth energies are one-dimensional")
            if not self.expression:
                raise ValueError("custom_smooth energy requires an expression")
            from .expression import compile_expression

            compile_expression(self.expression)   # fail fast on parse errors
        else:
            raise ValueError(f"unknown energy kind {self.kind!r}")
        return self


def quadratic(domain: SpaceDescriptor, weights, center) -> EnergySpec:
    return EnergySpec(kind=QUADRATIC, domain=domain,
                      weights=tuple(weights), center=tuple(center))


def wiggly(base: EnergySpec,
           amplitude_scale: float = EnergySpec._field_defaults["amplitude_scale"]
           ) -> EnergySpec:
    return EnergySpec(kind=WIGGLY, domain=base.domain, base=base,
                      amplitude_scale=as_floats([amplitude_scale], "amplitude_scale")[0])


def convex_perturbed(base: EnergySpec) -> EnergySpec:
    return EnergySpec(kind=CONVEX_PERTURBED, domain=base.domain, base=base)


def custom_smooth(domain: SpaceDescriptor, expression: str) -> EnergySpec:
    return EnergySpec(kind=CUSTOM_SMOOTH, domain=domain, expression=str(expression))


# ---------------------------------------------------------------------------
# Members.  spec(x) = sum_j phi_j(x_j) over 1D members on the line (a 1D
# energy, as every custom_smooth one is, is its own phi_0).  A built-in
# family's is phi_j(x) = 1/2 w_j (x - b_j)^2 + s term(x); _FAMILIES holds
# each family's term, written once over a numeric namespace ``xp`` (numpy
# for arrays of rows, ``math`` for one float), and its closed-form
# resolvent, and ``_member`` writes phi_j, phi_j' and phi_j'' over both.
# ---------------------------------------------------------------------------

# A family's s term(x) over one namespace: s, term, the term's parts of
# phi_j' and phi_j'' and of the energy and curvature floors (None at a kink)
_Term = namedtuple("_Term", "scale value slope curvature floor kappa")


def _wiggly(spec: EnergySpec, eps: float, xp) -> _Term:
    """a eps cos(x / eps), whose wells 2 pi eps apart pin the scheme."""
    a, sin, cos = spec.amplitude_scale, xp.sin, xp.cos
    minus_a, minus_a_over_eps = -a, -a / eps
    return _Term(a * eps, lambda x: cos(x / eps), lambda x: minus_a * sin(x / eps),
                 lambda x: minus_a_over_eps * cos(x / eps), -a * eps, minus_a_over_eps)


def _kink(spec: EnergySpec, eps: float, xp) -> _Term:
    """eps |x|; its slope takes sign(0) = 0 at the kink, by np.sign alone."""
    return _Term(eps, abs, lambda x: eps * np.sign(x), None, 0.0, None)


def _quadratic_resolvent(w, b, eps, delta, u, m, where):
    # stationarity per coordinate: w (v - b) + m (v - u) / delta = 0
    return (m * u + delta * w * b) / (m + delta * w)


def _kink_resolvent(w, b, eps, delta, u, m, where):
    a = m / delta
    # per coordinate: w (v - b) + a (v - u) + eps sign(v) = 0, else v = 0
    num = w * b + a * u
    den = w + a
    v_plus = (num - eps) / den
    v_minus = (num + eps) / den
    return where(v_plus > 0, v_plus, where(v_minus < 0, v_minus, 0.0))


# kind: (term, closed-form resolvent), None where the family has none
_FAMILIES = {QUADRATIC: (None, _quadratic_resolvent), WIGGLY: (_wiggly, None),
             CONVEX_PERTURBED: (_kink, _kink_resolvent)}


def base_quadratic(spec: EnergySpec) -> EnergySpec:
    """The quadratic base of a built-in family; a quadratic is its own."""
    return spec if spec.kind == QUADRATIC else spec.base


def resolvent(spec: EnergySpec):
    """The family's closed-form resolvent, or None: ``solve(w, b, eps, delta,
    u, m, where)``, the minimizer of phi(v) + m (v - u)^2 / (2 delta) for the
    member of weight w and centre b, on arrays (np.where) or floats."""
    return _FAMILIES.get(spec.kind, (None, None))[1]


def _term(spec: EnergySpec, eps: float, xp) -> _Term | None:
    """The built-in ``spec``'s family term over ``xp``, None for a quadratic."""
    make = _FAMILIES[spec.kind][0]
    return make and make(spec, float(eps), xp)


def _curved_term(spec: EnergySpec, eps: float, xp) -> _Term | None:
    """``_term`` of a family with a closed-form curvature."""
    if spec.kind != CUSTOM_SMOOTH:
        term = _term(spec, eps, xp)
        if term is None or term.curvature is not None:
            return term
    raise CapabilityAbsentError(f"no closed-form curvature for kind {spec.kind!r}")


def _member(w, b, term: _Term | None):
    """phi and x -> (phi'(x), phi''(x) or None at a kink) of the members of
    weights ``w`` and centres ``b``, on arrays or floats, picked once here."""
    if term is None:
        def value(x):
            diff = x - b
            return 0.5 * (w * diff * diff)

        def derivatives(x):
            return w * (x - b), w
        return value, derivatives
    s, t, slope, curvature = term[:4]

    def value(x):
        diff = x - b
        return 0.5 * (w * diff * diff) + s * t(x)

    def derivatives(x):
        return w * (x - b) + slope(x), curvature and w + curvature(x)
    return value, derivatives


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _rows(spec: EnergySpec, X) -> np.ndarray:
    """``X`` as (m, n) coordinate rows of ``spec``'s space."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1:] != (spec.domain.dimension,):
        raise DimensionMismatchError(
            f"points of shape {X.shape}, space has dim {spec.domain.dimension}")
    return X


def _expression(spec: EnergySpec, eps: float, X: np.ndarray, k: int, what: str):
    """The custom expression's value (k = 0) or derivative (k = 1) at the
    (m, 1) rows ``X``, shape (m,); EvaluationError where not finite."""
    from .expression import compile_expression

    out = np.asarray(compile_expression(spec.expression)[k](X[:, 0], np.float64(eps)),
                     dtype=float)
    # a copy: the expression ``x`` gives back a view of X
    out = out.copy() if out.shape == X.shape[:1] else np.full(X.shape[0], out)
    if not np.isfinite(out).all():
        bad = X[~np.isfinite(out)][0]
        raise EvaluationError(f"{what} not finite at x={bad.tolist()}", point=bad)
    return out


def eval_many(spec: EnergySpec, eps: float, X: np.ndarray) -> np.ndarray:
    """Evaluate the energy at each row of ``X`` (m, n); returns shape (m,).
    ``eps`` must be positive."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    X = _rows(spec, X)
    if spec.kind == CUSTOM_SMOOTH:
        return _expression(spec, eps, X, 0, f"expression {spec.expression!r}")
    (w, b), term = _parameters(spec), _term(spec, eps, np)
    diff = X - b
    value = 0.5 * (w * diff * diff).sum(axis=1)
    return value if term is None else value + term.scale * term.value(X).sum(axis=1)


def gradient_many(spec: EnergySpec, eps: float, X: np.ndarray) -> np.ndarray:
    """(Sub)gradient rows for rows of ``X``; sign(0) taken as 0."""
    X = _rows(spec, X)
    if spec.kind == CUSTOM_SMOOTH:
        return _expression(spec, eps, X, 1, f"gradient of {spec.expression!r}")[:, None]
    return _member(*_parameters(spec), _term(spec, eps, np))[1](X)[0]


def _parameters(spec: EnergySpec, cols=slice(None), columns=False):
    """The weights and centres of the members phi_cols[r] as arrays, or as
    (R, 1) columns, which broadcast against the rows of an (R, k) array."""
    quad = base_quadratic(spec)
    w, b = np.asarray(quad.weights)[cols], np.asarray(quad.center)[cols]
    return (w[:, None], b[:, None]) if columns else (w, b)


def coordinate_values(spec: EnergySpec, eps: float, cols, X) -> np.ndarray:
    """phi_cols[r] at each point of row r of ``X``, in the shape of ``X``."""
    if spec.kind == CUSTOM_SMOOTH:
        return eval_many(spec, eps, X.reshape(-1, 1)).reshape(X.shape)
    return _member(*_parameters(spec, cols, X.ndim == 2), _term(spec, eps, np))[0](X)


def coordinate_curvatures(spec: EnergySpec, eps: float, cols, X):
    """(phi', phi'') of phi_cols[r] at each point of row r of ``X``, for
    ``quadratic`` and ``wiggly``: ``coordinate_scalars``' derivatives on
    arrays, so on the same numbers where numpy's sin and cos round as
    libm's do."""
    term = _curved_term(spec, eps, np)
    return _member(*_parameters(spec, cols, X.ndim == 2), term)[1](X)


def coordinate_scalars(spec: EnergySpec, eps: float, j: int):
    """phi_j and x -> (phi_j'(x), phi_j''(x)) on one Python float, for the
    families with a closed-form curvature, ``quadratic`` and ``wiggly``:
    ``_member`` of coordinate j, as ``coordinate_values`` and
    ``coordinate_curvatures`` evaluate it on arrays."""
    quad, term = base_quadratic(spec), _curved_term(spec, eps, math)
    return _member(quad.weights[j], quad.center[j], term)


def energy_floors(spec: EnergySpec, eps: float) -> np.ndarray | None:
    """A lower bound of each coordinate member phi_j on the whole line, or
    None for ``custom_smooth``, which declares none: 0 for a quadratic,
    plus the term's floor (-a eps for ``wiggly``, 0 for
    ``convex_perturbed``).  Their sum bounds the energy."""
    if spec.kind == CUSTOM_SMOOTH:
        return None
    term = _term(spec, eps, np)
    return np.zeros(spec.domain.dimension) + (0.0 if term is None else term.floor)


def curvature_floors(spec: EnergySpec, eps: float) -> np.ndarray | None:
    """A lower bound of each phi_j'', or None where the family has none:
    ``convex_perturbed`` has a kink and ``custom_smooth`` declares none.
    It is w_j for a quadratic and w_j - a / eps for ``wiggly``."""
    if spec.kind == CUSTOM_SMOOTH:
        return None
    (weights, _), term = _parameters(spec), _term(spec, eps, np)
    if term is None:
        return weights
    return None if term.kappa is None else weights + term.kappa


def exact_slopes(spec: EnergySpec, eps: float, X: np.ndarray) -> np.ndarray:
    """Closed-form descending slope in the space's metric at each row of
    ``X`` (m, n); returns shape (m,).

    For smooth kinds this is the dual norm of the gradient; for the
    eps*|x| perturbation the minimal-norm subgradient is used at kinks.
    """
    X = _rows(spec, X)
    G = gradient_many(spec, eps, X)
    if spec.kind == CONVEX_PERTURBED:
        A = gradient_many(base_quadratic(spec), eps, X)
        G = np.where(X != 0.0, G, np.sign(A) * np.maximum(0.0, np.abs(A) - eps))
    return np.sqrt((G * G / spec.domain.metric_weights()).sum(axis=1))


# The limit family does not depend on eps; it is evaluated at this value.
LIMIT_EPS = 1.0


def gamma_limit(spec: EnergySpec) -> EnergySpec:
    """Limit family as eps -> 0.

    The oscillatory and |x| perturbations vanish uniformly (their size is
    bounded by a constant times eps), so the limit is the base quadratic;
    a quadratic family is eps-independent and its own limit.
    """
    if spec.kind == CUSTOM_SMOOTH:
        raise CapabilityAbsentError(f"kind {spec.kind!r} declares no limit family")
    return base_quadratic(spec)


# ---------------------------------------------------------------------------
# Well-posedness certification
# ---------------------------------------------------------------------------

class WellPosednessCertificate(NamedTuple):
    """Empirical coercivity certificate.

    Records tau_star and c_star such that, on every sampled point v and
    every eps of the checked grid,

        energy(v) + d^2(v, u*) / (2 * tau_star) >= c_star,

    the coercivity of Ambrosio-Gigli-Savare, Gradient Flows, Assumption
    2.1.2(b).
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
            vals = eval_many(spec, eps, Y) + r * r / (2.0 * tau_star)
            k = int(np.argmin(vals))
            shell_mins.append(float(vals[k]))
            shell_argmins.append(Y[k])
        tail = shell_mins[-3:]
        if tail[-1] == min(shell_mins) and tail[0] > tail[1] > tail[2]:
            witness = (eps, shell_argmins[-1])
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
