"""The grid route of the numeric resolvent: a deterministic recursive
grid zoom for the coordinate rows whose objective the curvature floor
does not certify convex.

``prox._zoom_1d`` imports this module when some row of a ``prox_batch``
call takes the grid route, so a process whose rows all take the Newton
route or a closed form never compiles it.  ``_grid_zoom_1d`` sizes its
rows' windows and advances them, in chunks of ``_GRID_CHUNK`` rows, one
block per round, and ranks each chunk's candidates by ``_select`` and
``_near_ties``.  Its first-round shortlist of ``_GRID_STARTS`` brackets,
the stop rule of ``local_tol`` and the heuristic window
``_FALLBACK_RADIUS`` of an energy without floors apply to this route
only.  It returns ``(x, tie_rows, tie_x)`` as ``prox._zoom_1d`` states it.
"""

from __future__ import annotations

import numpy as np

from .energy import coordinate_values, energy_floors, gradient_many
from .errors import BudgetExhaustedError
from .prox import _certified_window, _tie_gap, _window_error

_GRID_POINTS = 257
# Brackets the grid route's first round keeps per window.
_GRID_STARTS = 3
# Rows the grid route zooms together.  A chunk's work arrays are at most
# (_GRID_STARTS * 64, 257) floats, about 0.4 MB each, however many rows a
# prox_batch call brings: a block of all 3200 nodes of a 400-step 1D run
# in one zoom took +64 MB of peak memory.
_GRID_CHUNK = 64
_GRID_STEPS = np.arange(_GRID_POINTS, dtype=float)


# Window of the energies without floors: u +- this times
# max(1, delta |grad phi(u)|), a heuristic that certifies nothing.
_FALLBACK_RADIUS = 2.0


def _objective(spec, eps, X, cols, u, delta, m):
    """phi_j(x) + m (x - u)^2 / (2 delta) at the (R, k) points ``X``, where
    row r lies on coordinate j = cols[r]; the columns ``u``, ``delta`` and
    ``m`` hold each row's base point, step size and metric weight."""
    diff = X - u
    return coordinate_values(spec, eps, cols, X) + m * diff * diff / (2.0 * delta)


def _near_ties(rows, x, values, chosen, m, local_tol):
    """Candidates within ``local_tol`` of their row's optimum, the value of
    its ``chosen`` candidate, and more than ``_tie_gap(local_tol)`` away
    from that candidate in the row's metric weight ``m``, grouped by row in
    candidate order."""
    near = values <= values[chosen][rows] + local_tol
    near[chosen] = False
    tie = np.flatnonzero(near)
    if tie.size:
        off = x[tie] - x[chosen][rows[tie]]
        tie = tie[np.sqrt(m[rows[tie]] * off * off) > _tie_gap(local_tol)]
    return tie[np.argsort(rows[tie], kind="stable")]


def _select(rows, x, values, u, m):
    """Index of the chosen candidate of each row, in row order, among the
    candidates at the points ``x`` of the rows ``rows``, whose base points
    are ``u`` and metric weights ``m``.

    Ordering: lowest objective, then smallest m (x - u)^2, then smallest
    x, then candidate order; a nan key ranks last.  ``prox._precedes`` is
    this order for two candidates.  Every row must have a candidate.
    """
    off = x - u[rows]
    order = np.lexsort([x, m[rows] * (off * off), values, rows])
    return order[np.searchsorted(rows[order], np.arange(u.size))]


def _grid_zoom_1d(spec, eps, cols, deltas, u, m, settings):
    """``_grid_zoom_rows`` on each chunk of ``_GRID_CHUNK`` rows in turn,
    whose candidates ``_select`` and ``_near_ties`` rank row by row.
    Returns ``(x, tie_rows, tie_x)`` as ``_zoom_1d`` states it."""
    parts = []
    for s in range(0, u.size, _GRID_CHUNK):
        chunk = slice(s, s + _GRID_CHUNK)
        rows, x, values = _grid_zoom_rows(spec, eps, cols[chunk], deltas[chunk], u[chunk],
                                          m[chunk], settings)
        chosen = _select(rows, x, values, u[chunk], m[chunk])
        tie = _near_ties(rows, x, values, chosen, m[chunk], settings.local_tol)
        parts.append((x[chosen], rows[tie] + s, x[tie]))
    return tuple(np.concatenate(p) for p in zip(*parts))


def _grid_zoom_rows(spec, eps, cols, deltas, u, m, settings):
    """Recursive grid zoom on each row's window with a shortlist of the best
    brackets.

    The rows' windows are sized in one block, as ``_zoom_1d`` states them;
    one that is not finite raises ``EvaluationError``.  Each round samples
    an even grid on every live window of every row in one block, keeps the
    ``_GRID_STARTS`` lowest local minima (later rounds: the lowest one) and
    zooms into their brackets, so progressively finer
    oscillation wells are resolved without an a-priori scale.  A bracket
    becomes a candidate once it has shrunk to round-off width or, after
    the first round, once its grid values spread by at most ``local_tol``.
    ``settings.max_iters`` bounds the grid points evaluated for each row.
    Returns the candidates' rows, points and objective values (by
    ``_objective``), in the order they were found, then the guards.
    """
    floor = energy_floors(spec, eps)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        if floor is None:
            g = gradient_many(spec, eps, u[:, None])[:, 0]
            radius = _FALLBACK_RADIUS * np.maximum(1.0, deltas * np.sqrt(g * g))
        else:
            floor = floor[cols]
            energy_u = coordinate_values(spec, eps, cols, u)
            radius, _ = _certified_window(energy_u, floor, u, deltas, m, np.sqrt,
                                          np.where)
        finite = np.isfinite((u + radius) - (u - radius))
    if not finite.all():
        r = np.flatnonzero(~finite)[0]
        raise _window_error(u[r], deltas[r], radius[r])
    R = u.size
    # Live windows: row, bounds, and the row's coordinate, base point (W, 1),
    # step (W, 1) and metric weight (W, 1).
    live, lo, hi = np.arange(R), u - radius, u + radius
    params = (cols, u[:, None], deltas[:, None], m[:, None])
    # The guard rides along with the first round's grid.
    xs = _grid(lo, hi)
    vals = _objective(spec, eps, np.concatenate([xs, params[1]], axis=1), *params)
    guard = (live, u, vals[:, -1])
    vals = vals[:, :-1]
    found, searched = [], []
    first_round = True
    while True:
        searched.append(live)
        _check_budget(searched, R, settings)
        h = xs[:, 1] - xs[:, 0]
        if first_round:
            win, k = _shortlist(vals, _GRID_STARTS)
            if win.size > live.size:    # some window keeps several brackets
                live, lo, hi, h = (arr[win] for arr in (live, lo, hi, h))
                params = tuple(arr[win] for arr in params)
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
            found.append((live[done], x[done], vals[wd, kd]))
            go = ~done
            live, a, b = live[go], a[go], b[go]
            params = tuple(arr[go] for arr in params)
        if not live.size:
            break
        lo, hi = a, b
        first_round = False
        xs = _grid(lo, hi)
        vals = _objective(spec, eps, xs, *params)
    found.append(guard)
    return tuple(np.concatenate(parts) for parts in zip(*found))


def _check_budget(searched, R, settings):
    """Raise once a row has evaluated more than ``max_iters`` grid points.

    ``searched`` holds the rows of each round's windows.  A row has at most
    ``_GRID_STARTS`` windows per round, so the count is only needed once that
    bound passes the budget; a row live in every round exceeds the budget
    after max_iters / 257 rounds, which bounds the search.
    """
    if len(searched) * _GRID_STARTS * _GRID_POINTS > settings.max_iters:
        evals = _GRID_POINTS * np.bincount(np.concatenate(searched), minlength=R)
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
