"""Proximal (resolvent) map: minimize energy(v) + d^2(v, u) / (2 * delta).

One engine, ``prox_batch``, solves B independent problems (one step size
and one base point per row); the scalar ``prox`` is its B = 1 case.
Closed forms are used where they exist (quadratic and soft-threshold
perturbations against diagonal metrics) and are evaluated as single array
expressions over the rows.  Everything else is a numeric search in 1D,
run on each coordinate in nD, where the energies are sums over
coordinates and the metric is diagonal (the separable-sum rule of Parikh
and Boyd, Proximal Algorithms, 2014).  In 1D each row searches a window
that minimality certifies from the energy's floor, or a heuristic one for
``custom_smooth``, and takes one of two routes:

* the Newton route, where the energy's curvature floor makes the
  objective strictly convex: a safeguarded Newton iteration on its
  derivative, inside the window;
* the grid route everywhere else: a recursive grid zoom that advances
  every row's windows in one block per round.  ``ProxSettings.starts``
  and the stop rule of ``local_tol`` apply to this route only.

Selection among near-optimal minimizers is deterministic so that whole
trajectories are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import (
    CONVEX_PERTURBED,
    QUADRATIC,
    EnergySpec,
    coordinate,
    curvature_floor,
    curvature_many,
    energy_floor,
    eval_many,
    gradient_many,
)
from .errors import (
    BudgetExhaustedError,
    DimensionMismatchError,
    EvaluationError,
    InvalidDeltaError,
)
from .metric import Point

EXACT_IF_AVAILABLE = "exact_if_available"
MULTISTART_NUMERIC = "multistart_numeric"


@dataclass(frozen=True)
class ProxSettings:
    """Knobs for the numeric search; exact closed forms ignore them.

    ``starts`` and ``local_tol`` govern the grid route only: its first
    round shortlists ``starts`` brackets, and a bracket whose grid values
    spread by at most ``local_tol`` stops.  ``local_tol`` is also the
    near-tie margin of every numeric row.  ``max_iters`` caps the
    evaluations of each row (in nD of each coordinate of a row): grid
    points on the grid route, Newton iterates on the Newton route.
    """

    mode: str = EXACT_IF_AVAILABLE
    starts: int = 3
    local_tol: float = 1e-9
    max_iters: int = 200_000

    def __post_init__(self):
        if self.mode not in (EXACT_IF_AVAILABLE, MULTISTART_NUMERIC):
            raise ValueError(f"unknown prox mode {self.mode!r}")
        if self.starts < 1:
            raise ValueError("starts must be >= 1")
        if self.local_tol <= 0:
            raise ValueError("local_tol must be positive")

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "starts": self.starts,
            "local_tol": self.local_tol,
            "max_iters": self.max_iters,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ProxSettings":
        fields = ("mode", "starts", "local_tol", "max_iters")
        unknown = [name for name in d if name not in fields]
        if unknown:
            raise ValueError(f"unknown field {unknown[0]!r} "
                             f"(known: {', '.join(fields)})")
        return cls(
            mode=d.get("mode", EXACT_IF_AVAILABLE),
            starts=int(d.get("starts", 3)),
            local_tol=float(d.get("local_tol", 1e-9)),
            max_iters=int(d.get("max_iters", 200_000)),
        )


@dataclass(frozen=True)
class ProxResult:
    """Outcome of one resolvent solve.

    ``near_ties`` lists additional minimizers whose objective is within
    ``local_tol`` of the best one; a nonempty list flags that the scaled
    displacement bound downstream is only a conservative representative of
    the full minimizer set.
    """

    minimizer: Point
    value: float
    energy_at_min: float
    moved_distance: float
    certified_exact: bool
    near_ties: tuple[Point, ...] = ()


@dataclass(frozen=True)
class ProxBatch:
    """Outcome of B independent resolvent solves, one row per problem.

    ``tie_moved[b]`` is the largest displacement d(w, u_b) over the chosen
    minimizer and its near ties: the conservative representative of the
    displacement over the whole minimizer set.  ``near_tie[b]`` flags rows
    with at least one near tie; the ties themselves are the rows of
    ``tie_points``, with their problem index in ``tie_rows``, in candidate
    order.
    """

    minimizers: np.ndarray      # (B, n)
    values: np.ndarray          # (B,) objective at the minimizer
    energies: np.ndarray        # (B,) energy at the minimizer
    moved: np.ndarray           # (B,) d(minimizer, u)
    tie_moved: np.ndarray       # (B,)
    near_tie: np.ndarray        # (B,) bool
    certified_exact: bool
    tie_rows: np.ndarray        # (T,)
    tie_points: np.ndarray      # (T, n)


def prox(spec: EnergySpec, eps: float, delta: float, u: Point,
         settings: ProxSettings, tau_star: float | None = None) -> ProxResult:
    """One resolvent step from ``u`` with step size ``delta``: the B = 1
    case of ``prox_batch``."""
    if tau_star is not None and delta >= tau_star:
        raise InvalidDeltaError(
            f"delta={delta:g} must stay below the certified tau_star={tau_star:g}"
        )
    batch = prox_batch(spec, eps, np.array([delta], dtype=float),
                       u.array[None, :], settings)
    return ProxResult(
        minimizer=Point.from_array(batch.minimizers[0]),
        value=float(batch.values[0]),
        energy_at_min=float(batch.energies[0]),
        moved_distance=float(batch.moved[0]),
        certified_exact=batch.certified_exact,
        near_ties=tuple(Point.from_array(p) for p in batch.tie_points),
    )


def prox_batch(spec: EnergySpec, eps: float, deltas, U,
               settings: ProxSettings) -> ProxBatch:
    """Resolvent steps for every row: step ``deltas[b]`` from ``U[b]``.

    Rows are independent and each gets exactly the result it would get
    alone; ``settings.max_iters`` budgets each row separately.
    """
    deltas = np.asarray(deltas, dtype=float)
    U = np.asarray(U, dtype=float)
    space = spec.domain
    if U.ndim != 2 or U.shape[1] != space.dimension:
        raise DimensionMismatchError(
            f"points of shape {U.shape} do not fit a space of dimension "
            f"{space.dimension}"
        )
    if deltas.shape != (U.shape[0],) or not U.shape[0]:
        raise ValueError(
            f"need one step size per point and at least one point, got "
            f"{deltas.shape[0] if deltas.ndim else 'a scalar'} for {U.shape[0]}"
        )
    if not (deltas > 0).all():
        bad = deltas[~(deltas > 0)][0]
        raise InvalidDeltaError(f"delta must be positive, got {bad}")
    mw = space.metric_weights()
    B = U.shape[0]
    exact = settings.mode == EXACT_IF_AVAILABLE and spec.kind in (QUADRATIC,
                                                                  CONVEX_PERTURBED)
    if exact:
        V = _exact_minimizers(spec, eps, deltas, U, mw)
        energies = eval_many(spec, eps, V)
    else:
        search = _zoom_1d if space.dimension == 1 else _separable_nd
        rows, C, cvals, cenergies = search(spec, eps, deltas, U, mw, settings)
        chosen = _select(rows, C, cvals, U, mw)
        V, energies = C[chosen], cenergies[chosen]
    diff = V - U
    d2 = (mw * diff * diff).sum(axis=1)
    values = energies + d2 / (2.0 * deltas)     # as _objective computes it
    moved = np.sqrt(d2)

    tie_moved, near_tie = moved.copy(), np.zeros(B, dtype=bool)
    tie_rows, tie_points = np.zeros(0, dtype=int), V[:0]
    if not exact:
        tie = _near_ties(rows, C, cvals, chosen, values, mw, settings.local_tol)
        if tie.size:
            tie_rows, tie_points = rows[tie], C[tie]
            off = tie_points - U[tie_rows]
            np.maximum.at(tie_moved, tie_rows, np.sqrt((mw * off * off).sum(axis=1)))
            near_tie[tie_rows] = True
    return ProxBatch(
        minimizers=V, values=values, energies=energies, moved=moved,
        tie_moved=tie_moved, near_tie=near_tie, certified_exact=exact,
        tie_rows=tie_rows, tie_points=tie_points,
    )


def _objective(spec, eps, X, u, delta, m):
    """energy(x) + m (x - u)^2 / (2 delta), and energy(x), at the (B, k)
    points ``X`` on the line of metric weight ``m``; the columns ``u`` and
    ``delta`` hold each row's base point and step size."""
    energy = eval_many(spec, eps, X.reshape(-1, 1)).reshape(X.shape)
    diff = X - u
    return energy + m * diff * diff / (2.0 * delta), energy


def _near_ties(rows, C, cvals, chosen, values, mw, local_tol):
    """Candidates within ``local_tol`` of their row's optimum ``values`` and
    more than 10 sqrt(local_tol) away from its chosen minimizer, grouped by
    row in candidate order."""
    near = cvals <= values[rows] + local_tol
    near[chosen] = False
    tie = np.flatnonzero(near)
    if tie.size:
        off = C[tie] - C[chosen][rows[tie]]
        tie = tie[np.sqrt((mw * off * off).sum(axis=1)) > 10.0 * math.sqrt(local_tol)]
    return tie[np.argsort(rows[tie], kind="stable")]


def _select(rows, C, cvals, U, mw):
    """Index of the chosen candidate of each row, in row order.

    Ordering: lowest objective, then smallest d^2 to ``u``, then
    lexicographic coordinates.  Every row must have a candidate.
    """
    off = C - U[rows]
    d2 = (mw * off ** 2).sum(axis=1)
    keys = [C[:, j] for j in range(C.shape[1] - 1, -1, -1)] + [d2, cvals, rows]
    order = np.lexsort(keys)
    return order[np.searchsorted(rows[order], np.arange(U.shape[0]))]


# ---------------------------------------------------------------------------
# Exact paths
# ---------------------------------------------------------------------------

def _exact_minimizers(spec, eps, deltas, U, mw):
    delta = deltas[:, None]
    if spec.kind == QUADRATIC:
        w = np.asarray(spec.weights)
        b = np.asarray(spec.center)
        # stationarity per coordinate: w (v - b) + m (v - u) / delta = 0
        return (mw * U + delta * w * b) / (mw + delta * w)
    w = np.asarray(spec.base.weights)
    b = np.asarray(spec.base.center)
    a = mw / delta
    # per coordinate: w (v - b) + a (v - u) + eps sign(v) = 0, else v = 0
    num = w * b + a * U
    den = w + a
    v_plus = (num - eps) / den
    v_minus = (num + eps) / den
    return np.where(v_plus > 0, v_plus, np.where(v_minus < 0, v_minus, 0.0))


# ---------------------------------------------------------------------------
# Numeric search
# ---------------------------------------------------------------------------

_GRID_POINTS = 257
_GRID_STEPS = np.arange(_GRID_POINTS, dtype=float)


# Window of the energies without a floor (custom_smooth): u +- this times
# max(1, delta |grad phi(u)|), a heuristic that certifies nothing.
_FALLBACK_RADIUS = 2.0
# Round-off allowed in phi(u) - phi_low, relative to 1 + |phi(u)| + |phi_low|,
# when sizing the certified window.
_WINDOW_SLACK = 1e-12
# A Newton step this small relative to max(1, |u| + radius), the scale of
# the row's bracket, is at round-off.
_NEWTON_TOL = 4.0 * np.finfo(float).eps


def _zoom_1d(spec, eps, deltas, U, mw, settings):
    """Global 1D search of every row, on the Newton or the grid route.

    Every family with an energy floor phi_low searches the certified window
    |v - u| <= sqrt(2 delta (phi(u) - phi_low) / m), which minimality
    gives (Ambrosio-Gigli-Savare, Gradient Flows, ch. 2-3); ``custom_smooth``
    searches u +- 2 max(1, delta |grad phi(u)|).  A row whose objective has
    a positive curvature floor (phi'' >= kappa with kappa + m / delta > 0)
    is strictly convex there and takes ``_newton_1d``; every other row
    takes ``_grid_zoom_1d``.

    Returns the candidates' rows, points (C, 1), objective values and
    energies.  Each route gives its candidates in the order it found them,
    then the stay-put guard v = u of each of its rows, which keeps the
    descent property.
    """
    m, u = mw[0], U[:, 0]
    floor = energy_floor(spec, eps)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        if floor is None:
            g = gradient_many(spec, eps, U)
            radius = _FALLBACK_RADIUS * np.maximum(
                1.0, deltas * np.sqrt((g * g).sum(axis=1)))
        else:
            energy_u = eval_many(spec, eps, U)
            slack = _WINDOW_SLACK * (1.0 + np.abs(energy_u) + abs(floor))
            radius = np.sqrt(2.0 * deltas * (energy_u - floor + slack) / m)
        finite = np.isfinite((u + radius) - (u - radius))
    if not finite.all():
        b = np.flatnonzero(~finite)[0]
        raise EvaluationError(
            f"1D prox search window around u={u[b]:g} with delta={deltas[b]:g} "
            f"is not finite (radius {radius[b]:g})", point=U[b])
    kappa = curvature_floor(spec, eps)
    newton = (np.zeros(u.size, dtype=bool) if kappa is None
              else kappa + m / deltas > 0)
    found = []
    for route, take in ((_newton_1d, newton), (_grid_zoom_1d, ~newton)):
        if take.all():
            found.append(route(spec, eps, deltas, u, radius, m, settings))
        elif take.any():
            rows = np.flatnonzero(take)
            r, x, v, e = route(spec, eps, deltas[rows], u[rows], radius[rows],
                               m, settings)
            found.append((rows[r], x, v, e))
    rows, x, v, e = found[0] if len(found) == 1 else (
        np.concatenate(parts) for parts in zip(*found))
    return rows, x[:, None], v, e


def _newton_1d(spec, eps, deltas, u, radius, m, settings):
    """Safeguarded Newton iteration (rtsafe: Press et al., Numerical Recipes,
    3rd ed., section 9.4) on the objective's derivative
    F(v) = phi'(v) + c (v - u), c = m / delta, which the curvature floor
    makes increasing, inside the certified bracket u +- radius.

    A step that would leave the bracket, or that is more than half the
    step before last, is a bisection step instead.  A row stops once its
    step is at round-off on the scale max(1, |u| + radius) of its bracket,
    and is frozen from then on, so each row gets exactly what it gets
    alone.  Each iterate costs every live row one evaluation of phi' and
    phi'' against ``settings.max_iters``.  Returns the rows, points,
    objective values and energies of the minimizers, then of the guards.
    """
    B = u.size
    c = m / deltas
    tol = _NEWTON_TOL * np.maximum(1.0, np.abs(u) + radius)
    live, x, u_live, c_live = np.arange(B), u, u, c
    lo, hi = u - radius, u + radius
    step_old = step = hi - lo           # sizes of the last two steps
    out = np.empty(B)
    evals = 0
    while True:
        evals += 1
        if evals > settings.max_iters:
            raise BudgetExhaustedError(
                f"1D prox Newton iteration did not converge within "
                f"{settings.max_iters} evaluations (budget {settings.max_iters})")
        X = x[:, None]
        f = gradient_many(spec, eps, X)[:, 0] + c_live * (x - u_live)
        df = curvature_many(spec, eps, X)[:, 0] + c_live
        # F(x) < 0 puts the root above x, else at or below it (a nan F
        # shrinks the bracket towards lo, so the iteration still ends)
        below = f < 0
        lo = np.where(below, x, lo)
        hi = np.where(below, hi, x)
        newton_step = f / df
        newton = x - newton_step
        size = np.abs(newton_step)
        ok = (size <= 0.5 * step_old) & (lo <= newton) & (newton <= hi)
        half = 0.5 * (hi - lo)
        x = np.where(ok, newton, lo + half)
        step_old, step = step, np.where(ok, size, half)
        done = step <= tol
        if done.any():
            out[live[done]] = x[done]
            if done.all():
                break
            go = ~done
            live, x, lo, hi, step_old, step, u_live, c_live, tol = (
                arr[go] for arr in (live, x, lo, hi, step_old, step,
                                    u_live, c_live, tol))
    # the guard v = u rides along with the minimizers
    vals, energy = _objective(spec, eps, np.column_stack([out, u]), u[:, None],
                              deltas[:, None], m)
    rows = np.arange(B)
    return (np.concatenate([rows, rows]), np.concatenate([out, u]),
            vals.T.ravel(), energy.T.ravel())


def _grid_zoom_1d(spec, eps, deltas, u, radius, m, settings):
    """Recursive grid zoom on u +- radius with a shortlist of the best
    brackets.

    Each round samples an even grid on every live window of every row in
    one block, keeps the ``starts`` lowest local minima (later rounds: the
    lowest one) and zooms into their brackets, so progressively finer
    oscillation wells are resolved without an a-priori scale.  A bracket
    becomes a candidate once it has shrunk to round-off width or, after
    the first round, once its grid values spread by at most ``local_tol``.
    ``settings.max_iters`` bounds the grid points evaluated for each row.
    Returns the candidates' rows, points, objective values and energies,
    in the order they were found, then the guards.
    """
    B = u.size
    # Live windows: problem row, bounds, base point (W, 1), step (W, 1).
    live, lo, hi = np.arange(B), u - radius, u + radius
    uw, dw = u[:, None], deltas[:, None]
    # The guard rides along with the first round's grid.
    xs = _grid(lo, hi)
    vals, energy = _objective(spec, eps, np.concatenate([xs, uw], axis=1), uw, dw, m)
    guard = (np.arange(B), u, vals[:, -1], energy[:, -1])
    vals, energy = vals[:, :-1], energy[:, :-1]
    found, searched = [], []
    first_round = True
    while True:
        searched.append(live)
        _check_budget(searched, B, settings)
        h = xs[:, 1] - xs[:, 0]
        if first_round and settings.starts > 1:
            win, k = _shortlist(vals, settings.starts)
            if win.size > live.size:    # some window keeps several brackets
                live, lo, hi, h, uw, dw = (arr[win] for arr in (live, lo, hi, h, uw, dw))
        else:
            win, k = np.arange(live.size), _lowest_minimum(vals)
        x = xs[win, k]
        a = np.maximum(lo, x - h)
        b = np.minimum(hi, x + h)
        done = (b - a) <= 1e-14 * np.maximum(1.0, np.abs(x))
        if not first_round:
            done |= vals.max(axis=1) - vals.min(axis=1) <= settings.local_tol
        if done.any():
            wd, kd = win[done], k[done]
            found.append((live[done], x[done], vals[wd, kd], energy[wd, kd]))
            go = ~done
            live, a, b, uw, dw = live[go], a[go], b[go], uw[go], dw[go]
        if not live.size:
            break
        lo, hi = a, b
        first_round = False
        xs = _grid(lo, hi)
        vals, energy = _objective(spec, eps, xs, uw, dw, m)
    found.append(guard)
    return tuple(np.concatenate(parts) for parts in zip(*found))


def _check_budget(searched, B, settings):
    """Raise once a row has evaluated more than ``max_iters`` grid points.

    ``searched`` holds the rows of each round's windows.  A row has at most
    ``starts`` windows per round, so the count is only needed once that
    bound passes the budget; a row live in every round exceeds the budget
    after max_iters / 257 rounds, which bounds the search.
    """
    if len(searched) * settings.starts * _GRID_POINTS > settings.max_iters:
        evals = _GRID_POINTS * np.bincount(np.concatenate(searched), minlength=B)
        if evals.max() > settings.max_iters:
            raise BudgetExhaustedError(
                f"1D prox search used {evals.max()} evaluations "
                f"(budget {settings.max_iters})"
            )


def _grid(lo, hi):
    """``np.linspace(lo, hi, 257)`` for every window, bit for bit."""
    xs = _GRID_STEPS * ((hi - lo) / (_GRID_POINTS - 1))[:, None] + lo[:, None]
    xs[:, -1] = hi
    return xs


def _shortlist(vals, starts):
    """Windows and grid indices of each window's ``starts`` lowest interior
    local minima (ties by position), or of its lowest point if it has none."""
    is_min = _interior_minima(vals)
    cols = np.argsort(np.where(is_min, vals[:, 1:-1], np.inf),
                      axis=1, kind="stable")[:, :starts]
    win = np.arange(vals.shape[0])[:, None]
    keep = is_min[win, cols]
    cols += 1
    no_min = ~keep[:, 0]
    if no_min.any():
        cols[no_min, 0] = vals[no_min].argmin(axis=1)
        keep[no_min, 0] = True
    win, j = np.nonzero(keep)
    return win, cols[win, j]


def _lowest_minimum(vals):
    """``_shortlist`` with ``starts`` = 1, one grid index per window."""
    k = vals.argmin(axis=1)
    # A lowest grid point off the ends is the first lowest interior local
    # minimum, so only windows lowest at an end need the scan.
    edge = k % (_GRID_POINTS - 1) == 0
    if edge.any():
        is_min = _interior_minima(vals[edge])
        inner = np.where(is_min, vals[edge, 1:-1], np.inf).argmin(axis=1) + 1
        k[edge] = np.where(is_min.any(axis=1), inner, k[edge])
    return k


def _interior_minima(vals):
    """Mask of the grid points 1..-2 that are no higher than either neighbour."""
    inner = vals[:, 1:-1]
    return (inner <= vals[:, :-2]) & (inner <= vals[:, 2:])


def _separable_nd(spec, eps, deltas, U, mw, settings):
    """Each row's combinations of its coordinates' zoom candidates within
    ``local_tol`` of their coordinate's best, valued in nD as ``prox_batch``
    values the chosen one.  No other combination comes within ``local_tol``
    of the optimum: the coordinates' excesses over their best add up."""
    B, n = U.shape
    rows, points = np.arange(B), np.zeros((B, 0))
    for j in range(n):
        u, m = U[:, j:j + 1], mw[j:j + 1]
        r, x, v, _ = _zoom_1d(coordinate(spec, j), eps, deltas, u, m, settings)
        keep = np.flatnonzero(v <= v[_select(r, x, v, u, m)][r] + settings.local_tol)
        keep = keep[np.argsort(r[keep], kind="stable")]
        # Pair every combination so far with each kept candidate of its row.
        counts = np.bincount(r[keep], minlength=B)[rows]
        start = np.searchsorted(r[keep], rows) - np.cumsum(counts) + counts
        parent = np.repeat(np.arange(rows.size), counts)
        k = keep[np.repeat(start, counts) + np.arange(parent.size)]
        rows, points = rows[parent], np.column_stack([points[parent], x[k, 0]])
    energies = eval_many(spec, eps, points)
    off = points - U[rows]
    values = energies + (mw * off * off).sum(axis=1) / (2.0 * deltas[rows])
    return rows, points, values, energies
