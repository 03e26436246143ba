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
for the numeric prox ``coordinate_values``, ``coordinate_slopes`` and
``coordinate_curvatures`` on (R, k) arrays of rows, ``coordinate_scalars``
on Python floats, ``energy_floors``, ``curvature_floors``, ``convex_cells``.

Every kind is finite everywhere and has a closed-form descending slope.
Optional capabilities (limit family as eps -> 0, a member on Python
floats) raise :class:`CapabilityAbsentError` when a kind lacks them; the
floors and cells are None where a kind has none.
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
# phi_j', phi_j'' and the two floors, and its ``convex_cells`` (None if convex)
_Term = namedtuple("_Term", "scale value slope curvature floor kappa cells")


def _wiggly(spec: EnergySpec, eps: float, xp) -> _Term:
    """a eps cos(x / eps), whose wells 2 pi eps apart pin the scheme."""
    a, sin, cos = spec.amplitude_scale, xp.sin, xp.cos
    minus_a, minus_a_over_eps = -a, -a / eps

    def cells(A, K, lo, hi, pad, margin):
        # With A = w + c and K = w b + c u, F(v) = A v - K - a sin(v / eps)
        # vanishes only where |A v - K| <= a, and F' = A - (a / eps)
        # cos(v / eps) >= 0 on the arcs v / eps in [2 pi k + theta,
        # 2 pi (k + 1) - theta], theta = arccos(eps A / a).  The objective
        # is its quadratic part A (v - K / A)^2 / 2 + const within a eps, so
        # a point within ``margin`` of its least value lies within
        # sqrt((4 a eps + 2 margin) / A) of K / A.  arccos is
        # sqrt-conditioned at 1, so the arcs' ends are padded by eps 2^-25
        # more, and one more arc at either end meets the rounding of k.
        theta = np.arccos(np.minimum(eps * A / a, 1.0))
        pad = pad + eps * 2.0 ** -25
        mid, reach = K / A, np.sqrt((4.0 * a * eps + 2.0 * margin) / A)
        low = np.maximum(np.maximum(lo, (K - a) / A), mid - reach)
        high = np.minimum(np.minimum(hi, (K + a) / A), mid + reach)
        first = np.floor(low / (2.0 * np.pi * eps)) - 2.0
        count = np.maximum(np.floor(high / (2.0 * np.pi * eps)) - first + 2.0, 0.0)

        def arcs(rows, i):
            turn, t = 2.0 * np.pi * (first[rows] + i), theta[rows]
            return (np.maximum(low[rows], eps * (turn + t)) - pad[rows],
                    np.minimum(high[rows], eps * (turn + 2.0 * np.pi - t)) + pad[rows])
        return count, arcs
    return _Term(a * eps, lambda x: cos(x / eps), lambda x: minus_a * sin(x / eps),
                 lambda x: minus_a_over_eps * cos(x / eps), -a * eps, minus_a_over_eps,
                 cells)


def _kink(spec: EnergySpec, eps: float, xp) -> _Term:
    """eps |x|: convex, with curvature 0 off the kink, where its slope
    eps sign(x) jumps up by 2 eps and takes sign(0) = 0."""
    return _Term(eps, abs, lambda x: (x > 0) * eps - (x < 0) * eps, lambda x: 0.0,
                 0.0, 0.0, None)


def _quadratic_resolvent(w, b, eps, delta, m, where):
    # stationarity per coordinate: w (v - b) + m (v - u) / delta = 0
    pull, den = delta * w * b, m + delta * w

    def solve(u):
        return (m * u + pull) / den
    return solve


def _kink_resolvent(w, b, eps, delta, m, where):
    a = m / delta
    # per coordinate: w (v - b) + a (v - u) + eps sign(v) = 0, else v = 0
    wb, den = w * b, w + a

    def solve(u):
        num = wb + a * u
        v_plus = (num - eps) / den
        v_minus = (num + eps) / den
        return where(v_plus > 0, v_plus, where(v_minus < 0, v_minus, 0.0))
    return solve


# kind: (term, closed-form resolvent), None where the family has none
_FAMILIES = {QUADRATIC: (None, _quadratic_resolvent), WIGGLY: (_wiggly, None),
             CONVEX_PERTURBED: (_kink, _kink_resolvent)}


def base_quadratic(spec: EnergySpec) -> EnergySpec:
    """The quadratic base of a built-in family; a quadratic is its own."""
    return spec if spec.kind == QUADRATIC else spec.base


def resolvent(spec: EnergySpec):
    """The family's closed-form resolvent, or None: ``solve(w, b, eps,
    delta, m, where)`` returns u -> the minimizer of phi(v) + m (v - u)^2 /
    (2 delta) for the member of weight w and centre b, on arrays (np.where)
    or floats.  What depends on u alone is left to u -> v, so that a run
    fixes the rest once per coordinate; the hoisted parts are the same
    operations in the same order, so an array and a float give the same
    bits."""
    return _FAMILIES.get(spec.kind, (None, None))[1]


def _term(spec: EnergySpec, eps: float, xp) -> _Term | None:
    """The built-in ``spec``'s family term over ``xp``, None for a quadratic."""
    make = _FAMILIES[spec.kind][0]
    return make and make(spec, float(eps), xp)


def _member(w, b, term: _Term | None):
    """phi and x -> (phi'(x), phi''(x)) of the members of weights ``w`` and
    centres ``b``, on arrays or floats, picked once here."""
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
        return w * (x - b) + slope(x), w + curvature(x)
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
    """The custom expression's value (k = 0), derivative (k = 1) or both
    derivatives (k = 2) at the (m, 1) rows ``X``, each of shape (m,):
    EvaluationError where the first is not finite, and a second derivative
    nan where it is not finite."""
    from .expression import compile_expression

    out = compile_expression(spec.expression)[k](X[:, 0], np.float64(eps))
    out = [np.asarray(o, dtype=float) for o in (out if k == 2 else (out,))]
    # copies: the expression ``x`` gives back a view of X
    out = [o.copy() if o.shape == X.shape[:1] else np.full(X.shape[0], o) for o in out]
    finite = np.isfinite(out[0])
    if not finite.all():
        bad = X[~finite][0]
        raise EvaluationError(f"{what} not finite at x={bad.tolist()}", point=bad)
    if k == 2:
        out[1][~np.isfinite(out[1])] = math.nan
    return out if k == 2 else out[0]


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


def coordinate_slopes(spec: EnergySpec, eps: float, cols, X) -> np.ndarray:
    """phi_cols[r]' at each point of row r of ``X``, in its shape: the first
    of ``coordinate_curvatures``, for a custom expression without phi''."""
    if spec.kind == CUSTOM_SMOOTH:
        return _expression(spec, eps, X.reshape(-1, 1), 1,
                           f"gradient of {spec.expression!r}").reshape(X.shape)
    return coordinate_curvatures(spec, eps, cols, X)[0]


def coordinate_curvatures(spec: EnergySpec, eps: float, cols, X):
    """(phi', phi'') of phi_cols[r] at each point of row r of ``X``.  For
    the built-in families these are ``coordinate_scalars``' derivatives on
    arrays, so on the same numbers where numpy's sin and cos round as
    libm's do; ``custom_smooth``'s phi'' is its expression's second
    derivative, nan where that is not finite."""
    if spec.kind == CUSTOM_SMOOTH:
        return tuple(d.reshape(X.shape) for d in _expression(
            spec, eps, X.reshape(-1, 1), 2, f"gradient of {spec.expression!r}"))
    return _member(*_parameters(spec, cols, X.ndim == 2), _term(spec, eps, np))[1](X)


def coordinate_scalars(spec: EnergySpec, eps: float, j: int):
    """phi_j and x -> (phi_j'(x), phi_j''(x)) on one Python float, for the
    built-in families: ``_member`` of coordinate j, as
    ``coordinate_values`` and ``coordinate_curvatures`` evaluate it on
    arrays."""
    if spec.kind == CUSTOM_SMOOTH:
        raise CapabilityAbsentError(f"kind {spec.kind!r} has no member on Python floats")
    quad = base_quadratic(spec)
    return _member(quad.weights[j], quad.center[j], _term(spec, eps, math))


def convex_cells(spec: EnergySpec, eps: float, cols, c, u, lo, hi, pad, margin):
    """The cells of the windows [lo_r, hi_r] of the objectives
    phi_cols[r](v) + c_r (v - u_r)^2 / 2 on which each is convex, padded
    by ``pad``, that hold every local minimizer within ``margin`` of the
    row's least value: for ``wiggly`` each row's count of cells, a float,
    and ``arcs(rows, i)``, the ends of cell i < count of each of the
    ``rows``, lower above upper where empty; None for ``custom_smooth``."""
    if spec.kind == CUSTOM_SMOOTH:
        return None
    (w, b), term = _parameters(spec, cols), _term(spec, eps, np)
    return term.cells(w + c, w * b + c * u, lo, hi, pad, margin)


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
    """A lower bound of each phi_j'', or None for ``custom_smooth``, which
    declares none: w_j for a quadratic and ``convex_perturbed`` (whose kink
    only adds a jump up of phi_j'), and w_j - a / eps for ``wiggly``."""
    if spec.kind == CUSTOM_SMOOTH:
        return None
    (weights, _), term = _parameters(spec), _term(spec, eps, np)
    return weights if term is None else weights + term.kappa


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
