"""Proximal (resolvent) map: minimize energy(v) + d^2(v, u) / (2 * delta).

One engine, ``prox_batch``, solves B independent problems (one step size
and one base point per row); the scalar ``prox`` is its B = 1 case.
Closed forms are used where they exist (quadratic and soft-threshold
perturbations against diagonal metrics) and are evaluated as single array
expressions over the rows.  Everything else goes through a deterministic
global search: a recursive grid zoom in 1D that advances every row's
windows in one block per round, and per-row multistart quasi-Newton
descent in higher dimensions.  Selection among near-optimal minimizers is
deterministic so that whole trajectories are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import (
    CONVEX_PERTURBED,
    QUADRATIC,
    EnergySpec,
    eval_many,
    gradient_many,
)
from .errors import (
    BudgetExhaustedError,
    DimensionMismatchError,
    EvaluationError,
    InvalidDeltaError,
)
from .metric import Point, SpaceDescriptor

EXACT_IF_AVAILABLE = "exact_if_available"
MULTISTART_NUMERIC = "multistart_numeric"


@dataclass(frozen=True)
class ProxSettings:
    """Knobs for the numeric search; exact closed forms ignore them."""

    mode: str = EXACT_IF_AVAILABLE
    starts: int = 3
    local_tol: float = 1e-9
    search_radius_factor: float = 2.0
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
            "search_radius_factor": self.search_radius_factor,
            "max_iters": self.max_iters,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ProxSettings":
        return cls(
            mode=d.get("mode", EXACT_IF_AVAILABLE),
            starts=int(d.get("starts", 3)),
            local_tol=float(d.get("local_tol", 1e-9)),
            search_radius_factor=float(d.get("search_radius_factor", 2.0)),
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
        search = _zoom_1d if space.dimension == 1 else _multistart_nd
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


def _objective(spec, eps, X, u, delta, mw):
    """energy(x) + d^2(x, u) / (2 delta), and energy(x), at the points ``X``.

    ``X`` is (B, k, n); ``u`` (B, 1, n) and ``delta`` (B, 1) hold each
    row's base point and step size.  Returns two (B, k) arrays.
    """
    energy = eval_many(spec, eps, X.reshape(-1, X.shape[2])).reshape(X.shape[:2])
    diff = X - u
    return energy + (mw * diff * diff).sum(axis=2) / (2.0 * delta), energy


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


def _zoom_1d(spec, eps, deltas, U, mw, settings):
    """Recursive grid zoom with a shortlist of the best brackets.

    Each round samples an even grid on every live window of every row in
    one block, keeps the ``starts`` lowest local minima (later rounds: the
    lowest one) and zooms into their brackets, so progressively finer
    oscillation wells are resolved without an a-priori scale.  A bracket
    becomes a candidate once it has shrunk to round-off width or, after
    the first round, once its grid values spread by at most ``local_tol``.
    ``settings.max_iters`` bounds the grid points evaluated for each row.

    Returns the candidates' rows, points (C, 1), objective values and
    energies, in the order they were found, ending with the stay-put guard
    v = u of every row: it keeps the descent property.
    """
    B = U.shape[0]
    g = gradient_many(spec, eps, U)
    radius = settings.search_radius_factor * np.maximum(
        1.0, deltas * np.sqrt((g * g).sum(axis=1)))
    # Live windows: problem row, bounds, base point (W, 1, 1), step (W, 1).
    live, lo, hi = np.arange(B), U[:, 0] - radius, U[:, 0] + radius
    bad = np.flatnonzero(~np.isfinite(hi - lo))
    if bad.size:
        b = bad[0]
        raise EvaluationError(
            f"1D prox search window around u={U[b, 0]:g} with delta={deltas[b]:g} "
            f"is not finite (radius {radius[b]:g})", U[b])
    uw, dw = U[:, None, :], deltas[:, None]
    # The guard rides along with the first round's grid.
    xs = _grid(lo, hi)
    vals, energy = _objective(spec, eps, np.concatenate([xs, U], axis=1)[:, :, None],
                              uw, dw, mw)
    guard = (np.arange(B), U[:, 0], vals[:, -1], energy[:, -1])
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
        vals, energy = _objective(spec, eps, xs[:, :, None], uw, dw, mw)
    found.append(guard)
    rows, x, v, e = (np.concatenate(parts) for parts in zip(*found))
    return rows, x[:, None], v, e


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


def _multistart_nd(spec, eps, deltas, U, mw, settings):
    """Per-row L-BFGS-B multistart from u and from axis offsets around it.

    Returns the candidates as ``_zoom_1d`` does, the guard v = u last.
    Candidate values are recomputed from their energies as ``prox_batch``
    computes the chosen row's value, so ranking and reporting agree.
    """
    from scipy import optimize

    n = spec.domain.dimension
    rows, points = [], []
    for row, (delta, u_arr) in enumerate(zip(deltas, U)):
        g = gradient_many(spec, eps, u_arr[None, :])[0]
        scale = max(1.0, float(np.sqrt((g * g).sum())))
        offsets = [np.zeros(n)]
        for k in range(1, settings.starts):
            r = delta * k * scale
            for j in range(n):
                e = np.zeros(n)
                e[j] = r
                offsets.append(e.copy())
                offsets.append(-e)
        d_row, u_row = deltas[row:row + 1, None], U[row:row + 1, None, :]

        def fun(x):
            return float(_objective(spec, eps, x[None, None, :], u_row, d_row, mw)[0][0, 0])

        def jac(x):
            return gradient_many(spec, eps, x[None, :])[0] + mw * (x - u_arr) / delta

        evals = 0
        for off in offsets:
            res = optimize.minimize(
                fun, u_arr + off, jac=jac, method="L-BFGS-B",
                options={"maxiter": 500, "ftol": settings.local_tol * 1e-2,
                         "gtol": 1e-12},
            )
            evals += int(res.nfev)
            rows.append(row)
            points.append(np.asarray(res.x, dtype=float))
        # Guard the descent property: v = u is always admissible.
        rows.append(row)
        points.append(u_arr)
        if evals > settings.max_iters:
            raise BudgetExhaustedError(
                f"prox search used {evals} evaluations (budget {settings.max_iters})"
            )
    rows, points = np.array(rows), np.array(points)
    energies = eval_many(spec, eps, points)
    off = points - U[rows]
    values = energies + (mw * off * off).sum(axis=1) / (2.0 * deltas[rows])
    return rows, points, values, energies


def prox_selection(candidates, u: Point, space: SpaceDescriptor,
                   local_tol: float) -> Point:
    """Deterministic representative of a near-optimal candidate set.

    Ordering: lowest objective, then smallest distance to ``u``, then
    lexicographic coordinates.  Candidates more than ``local_tol`` above
    the best objective are discarded first; since the objective leads the
    ordering, that cut never changes which candidate is chosen.
    """
    if not candidates:
        raise ValueError("candidate set must be nonempty")
    C = np.array([np.atleast_1d(np.asarray(c, dtype=float)) for c, _ in candidates])
    cvals = np.array([v for _, v in candidates], dtype=float)
    rows = np.zeros(len(candidates), dtype=int)
    chosen = _select(rows, C, cvals, u.array[None, :], space.metric_weights())
    return Point.from_array(C[chosen[0]])
