"""Proximal (resolvent) map: minimize energy(v) + d^2(v, u) / (2 * delta).

One engine, ``prox_batch``, solves B independent problems (one step size
and one base point per row).  A closed form is used where the energy's
family has one (``energy.resolvent``), evaluated as a single array
expression over the rows.  Everything else is one search over the B n
coordinate rows of the B problems in n dimensions: every energy is a sum
over coordinates and the metric is diagonal, so each problem separates
into n 1D problems (the separable-sum rule of Parikh and Boyd, Proximal
Algorithms, 2014).  Each coordinate row searches a window that minimality
certifies from its coordinate's energy floor, or a heuristic one for an
energy without floors, and takes one of two routes:

* the Newton route, where the energy's curvature floor makes the
  objective strictly convex: a row's window and a safeguarded Newton
  iteration on the objective's derivative, each written once over a
  row's floats or arrays of rows.  ``_newton_1d`` advances all rows of a
  ``prox_batch`` call together as arrays; ``_newton_row`` runs the same
  code on one row's Python floats.  Each weighs the stay-put guard v = u
  itself, chooses the one of the minimizer and the guard that
  ``_precedes`` the other, and keeps the other as a near tie where it is
  one;
* the grid route everywhere else: the recursive grid zoom of
  ``maxslope.grid``, which ``_zoom_1d`` imports when some row takes it,
  so that a process whose rows never do never compiles it.

Each route settles its own rows and returns its decisions: every row's
chosen point in row order, and the rows' near ties grouped by row; no
objective value leaves a route.  Selection is deterministic so that whole
trajectories are reproducible.  A problem's minimizer set is the product
of its rows' sets, so ``prox_batch`` returns the rows' choices as the
minimizer and, for the De Giorgi interpolant, the largest displacement
over the product of the rows' near-tie sets (Ambrosio-Gigli-Savare,
Gradient Flows, Lemma 3.1.2), and no energy.

The scheme's steps are B = 1 problems, one after another, where numpy's
per-call cost would be most of a step.  ``stepper`` takes every such
step: on Python floats, a closed form evaluated per coordinate or every
coordinate by ``_newton_row``, and by calling ``prox_batch`` for every
step of a run that may take the grid route.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .energy import (
    EnergySpec,
    base_quadratic,
    coordinate_curvatures,
    coordinate_scalars,
    coordinate_values,
    curvature_floors,
    energy_floors,
    resolvent,
)
from .errors import (
    BudgetExhaustedError,
    DimensionMismatchError,
    EvaluationError,
    InvalidDeltaError,
)
EXACT_IF_AVAILABLE = "exact_if_available"
MULTISTART_NUMERIC = "multistart_numeric"


class _ProxFields(NamedTuple):
    mode: str = EXACT_IF_AVAILABLE
    local_tol: float = 1e-9
    max_iters: int = 200_000


class ProxSettings(_ProxFields):
    """Knobs for the numeric search, a config's ``prox_settings`` object,
    checked on every construction; exact closed forms ignore them.

    ``local_tol`` is the near-tie margin of every numeric row, and on the
    grid route a bracket whose grid values spread by at most it stops.
    ``max_iters`` caps the evaluations of each coordinate row (one per
    problem in 1D, n per problem in nD): grid points on the grid route,
    Newton iterates on the Newton route.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.mode not in (EXACT_IF_AVAILABLE, MULTISTART_NUMERIC):
            raise ValueError(f"unknown prox mode {self.mode!r}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not (math.isfinite(self.local_tol) and self.local_tol > 0):
            raise ValueError(f"local_tol must be finite and positive, "
                             f"got {self.local_tol!r}")
        return self


class ProxBatch(NamedTuple):
    """Outcome of B independent resolvent solves, one row per problem: the
    minimizers, and what the De Giorgi interpolant and the telemetry read
    of the minimizer sets.  It holds no objective value or energy: the
    scheme takes a trajectory's energies from its points.

    ``tie_moved[b]`` is the largest displacement d(w, u_b) over the product
    of the coordinate rows' sets of the chosen candidate and its near ties:
    the conservative representative of the displacement over the whole
    minimizer set.  ``near_tie[b]`` flags problems with at least one near
    tie in some coordinate row.  Each such tie is a row of ``tie_points``,
    the minimizer with that one coordinate swapped to the tie, with its
    problem index in ``tie_rows``, in (problem, coordinate, candidate)
    order.
    """

    minimizers: np.ndarray      # (B, n)
    moved: np.ndarray           # (B,) d(minimizer, u)
    tie_moved: np.ndarray       # (B,)
    near_tie: np.ndarray        # (B,) bool
    tie_rows: np.ndarray        # (T,)
    tie_points: np.ndarray      # (T, n)


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
    B, n = U.shape
    solve = _closed_form(spec, settings)
    r = np.zeros(0, dtype=int)          # the coordinate rows of the near ties
    if solve is not None:
        quad = base_quadratic(spec)
        V = solve(np.asarray(quad.weights), np.asarray(quad.center), eps,
                  deltas[:, None], U, mw, np.where)
    else:
        # row r = b n + j is problem b's coordinate j
        cols = np.arange(U.size) % n
        u, m = U.ravel(), mw[cols]
        x, r, tie_x = _zoom_1d(spec, eps, cols, np.repeat(deltas, n), u, m, settings)
        V = x.reshape(B, n)
    diff = V - U
    reach = mw * diff * diff
    moved = np.sqrt(reach.sum(axis=1))

    tie_moved, near_tie = moved.copy(), np.zeros(B, dtype=bool)
    tie_rows, tie_points = r // n, V[r // n]
    if r.size:
        tie_points[np.arange(r.size), r % n] = tie_x
        # the farthest point of the product: each row at its farthest
        off = tie_x - u[r]
        reach = reach.ravel()
        np.maximum.at(reach, r, m[r] * off * off)
        tie_moved = np.sqrt(reach.reshape(B, n).sum(axis=1))
        near_tie[tie_rows] = True
    return ProxBatch(minimizers=V, moved=moved, tie_moved=tie_moved, near_tie=near_tie,
                     tie_rows=tie_rows, tie_points=tie_points)


def stepper(spec: EnergySpec, eps: float, delta: float, settings: ProxSettings):
    """The resolvent step of one problem at step size ``delta``, for a run
    of B = 1 steps: a function of u, a list of n Python floats, that
    returns the minimizer, a list of n floats, bit for bit as
    ``prox_batch(spec, eps, [delta], [u], settings)`` returns it.

    * A closed form is ``resolvent`` on each coordinate's floats.
    * On the Newton route each coordinate row is one ``_newton_row``, which
      chooses between its minimizer and its stay-put guard by ``_precedes``.
    * Where some step may take the grid route (the family has no curvature
      floor, or some coordinate's kappa_j + m_j / delta is not positive)
      every step calls ``prox_batch``.
    """
    mw = spec.domain.metric_weights()
    solve, kappa = _closed_form(spec, settings), curvature_floors(spec, eps)
    if solve is None and (kappa is None or not (kappa + mw / delta > 0).all()):
        def batch_step(u):
            # looked up at each call, so that a wrapper of prox.prox_batch sees it
            return prox_batch(spec, eps, [delta], [u], settings).minimizers[0].tolist()
        return batch_step
    m = mw.tolist()
    if solve is not None:
        quad = base_quadratic(spec)
        members = list(zip(quad.weights, quad.center, m))

        def closed_step(u):
            return [solve(w, b, eps, delta, uj, mj, _where)
                    for uj, (w, b, mj) in zip(u, members)]
        return closed_step
    members = list(zip(_members(spec, eps), m))
    iterations, local_tol = range(settings.max_iters), settings.local_tol

    def newton_step(u):
        return [_newton_row(member, uj, delta, mj, iterations, local_tol)[0]
                for uj, (member, mj) in zip(u, members)]
    return newton_step


def _closed_form(spec, settings):
    """The ``resolvent`` by which ``prox_batch`` solves ``spec``'s problems."""
    return resolvent(spec) if settings.mode == EXACT_IF_AVAILABLE else None


def _tie_gap(local_tol):
    """The distance beyond which a candidate within ``local_tol`` of the
    optimum is a near tie of the chosen minimizer, not the same well."""
    return 10.0 * math.sqrt(local_tol)


def _precedes(a, b):
    """Whether candidate ``a`` = (objective, m (x - u)^2, x) of a row,
    listed before candidate ``b``, comes first in ``grid._select``'s order:
    key by key the lower first, a nan after any number and two nans equal,
    as numpy sorts them; a full tie goes to ``a``."""
    for p, q in zip(a, b):
        if p < q or (q != q and p == p):
            return True
        if q < p or (p != p and q == q):
            return False
    return True


def _where(condition, a, b):
    """np.where on one coordinate's floats; a comparison with nan is False
    in both, so a nan minimizer falls to the last branch."""
    return a if condition else b


# ---------------------------------------------------------------------------
# Numeric search
# ---------------------------------------------------------------------------

# Round-off allowed in phi(u) - phi_low, relative to 1 + |phi(u)| + |phi_low|,
# when sizing the certified window.
_WINDOW_SLACK = 1e-12
# A Newton step this small relative to max(1, |u| + radius), the scale of
# the row's bracket, is at round-off.  Four machine epsilons, as a Python
# float, which the rows iterate on.
_NEWTON_TOL = 4.0 * 2.0 ** -52


def _zoom_1d(spec, eps, cols, deltas, u, m, settings):
    """Global 1D search of every coordinate row, on the Newton or the grid
    route.

    Row r minimizes phi_j(v) + m (v - u)^2 / (2 delta) over the line, where
    j = cols[r], u = u[r], delta = deltas[r] and m = m[r].  Every family
    with energy floors phi_low searches the certified window
    |v - u| <= sqrt(2 delta (phi_j(u) - phi_low) / m), which minimality
    gives (Ambrosio-Gigli-Savare, Gradient Flows, ch. 2-3); a family
    without floors searches u +- 2 max(1, delta |phi'(u)|).  A row whose objective has a
    positive curvature floor (phi_j'' >= kappa_j with kappa_j + m / delta
    > 0) is strictly convex there and takes ``_newton_1d``; every other row
    takes ``grid._grid_zoom_1d``.  Each route sizes its rows' windows
    itself, by ``_certified_window`` where the family has floors, and every
    row also weighs the stay-put guard v = u, which keeps the descent
    property.

    Returns ``(x, tie_rows, tie_x)``, as each route returns them: every
    row's chosen point in row order, and the rows' near ties, row
    ``tie_rows[t]`` at ``tie_x[t]``, grouped by row in candidate order.
    """
    kappa = curvature_floors(spec, eps)     # a family with these has floors too
    newton = (np.zeros(u.size, dtype=bool) if kappa is None
              else kappa[cols] + m / deltas > 0)
    if newton.all():
        return _newton_1d(spec, eps, cols, deltas, u, m, settings)
    from .grid import _grid_zoom_1d     # compiled once some row takes the grid route

    if not newton.any():
        return _grid_zoom_1d(spec, eps, cols, deltas, u, m, settings)
    # each route on its own rows; a row's ties all come from its one route
    x, rows, ties = np.empty(u.size), [], []
    for route, r in ((_newton_1d, np.flatnonzero(newton)),
                     (_grid_zoom_1d, np.flatnonzero(~newton))):
        x[r], tie_rows, tie_x = route(spec, eps, cols[r], deltas[r], u[r], m[r], settings)
        rows.append(r[tie_rows])
        ties.append(tie_x)
    rows, ties = np.concatenate(rows), np.concatenate(ties)
    order = np.argsort(rows, kind="stable")
    return x, rows[order], ties[order]


def _window_error(u, delta, radius):
    """The error of a row whose search window u +- radius is not finite."""
    return EvaluationError(
        f"1D prox search window around u={u:g} with delta={delta:g} "
        f"is not finite (radius {radius:g})", point=np.array([u]))


def _certified_window(energy_u, floor, u, delta, m, sqrt, where):
    """The certified window u +- radius of a row with energy ``energy_u`` at
    its base point: radius = sqrt(2 delta (phi(u) - floor + slack) / m), nan
    where the square is negative or nan.  Also the size below which a Newton
    step is at round-off: ``_NEWTON_TOL`` on the scale max(1, |u| + radius)
    of the bracket.  One sequence of operations on a row's floats
    (``math.sqrt``, ``_where``) or on arrays of rows (``np.sqrt``,
    ``np.where``)."""
    slack = _WINDOW_SLACK * (1.0 + abs(energy_u) + abs(floor))
    square = 2.0 * delta * (energy_u - floor + slack) / m
    radius = sqrt(where(square >= 0.0, square, math.nan))
    scale = abs(u) + radius
    return radius, _NEWTON_TOL * where(scale > 1.0, scale, 1.0)


def _rtsafe_step(slope, curvature, c, u, x, lo, hi, step_old, step, where):
    """One iterate of safeguarded Newton (rtsafe: Press et al., Numerical
    Recipes, 3rd ed., section 9.4) on the root of the increasing
    F(v) = phi'(v) + c (v - u), from ``x`` with phi'(x) = ``slope`` and
    phi''(x) = ``curvature``, inside the bracket [lo, hi].

    A step that would leave the bracket, or that is more than half the
    step before last, is a bisection step instead.  ``step_old`` and
    ``step`` are the sizes of the last two steps.  Returns the next x, the
    bracket and the sizes of the last two steps.  One sequence of
    operations on a row's floats, with ``where`` = ``_where``, or on arrays
    of rows, with ``np.where``.
    """
    f = slope + c * (x - u)
    # F(x) < 0 puts the root above x, else at or below it (a nan F shrinks
    # the bracket towards lo, so the iteration still ends)
    below = f < 0
    lo = where(below, x, lo)
    hi = where(below, hi, x)
    newton_step = f / (curvature + c)
    newton = x - newton_step
    size = abs(newton_step)
    half = 0.5 * (hi - lo)
    take = (size <= 0.5 * step_old) & (lo <= newton) & (newton <= hi)
    return where(take, newton, lo + half), lo, hi, step, where(take, size, half)


def _budget_error(max_iters):
    """The error of a Newton row still moving after ``max_iters`` iterates."""
    return BudgetExhaustedError(
        f"1D prox Newton iteration did not converge within "
        f"{max_iters} evaluations (budget {max_iters})")


def _guard_ties(value_x, value_u, diff, m, local_tol, sqrt):
    """Whether a Newton row's minimizer x = u + ``diff`` and its guard v = u
    are near ties of each other, so that the row keeps both: their values
    are within ``local_tol`` of each other, and x is more than
    ``_tie_gap(local_tol)`` away from u.  On floats or arrays."""
    return ((value_x <= value_u + local_tol) & (value_u <= value_x + local_tol)
            & (sqrt(m * diff * diff) > _tie_gap(local_tol)))


def _members(spec, eps):
    """Each coordinate's (phi_j, x -> (phi_j'(x), phi_j''(x)), energy floor),
    the float kernel's view of a family with a curvature floor."""
    return [(*coordinate_scalars(spec, eps, j), floor)
            for j, floor in enumerate(energy_floors(spec, eps).tolist())]


def _newton_row(member, u, delta, m, iterations, local_tol):
    """The Newton route's whole work on one coordinate row, on Python
    floats: the kernel of B = 1 steps, where numpy's per-call cost would be
    most of the row.  ``_newton_1d`` runs the same window and iterate on
    arrays of rows and gives every row what this gives it.

    The row minimizes phi(v) + m (v - u)^2 / (2 delta), for the coordinate
    ``member`` = (phi, derivatives, floor) of ``_members``, whose curvature
    floor makes that strictly convex.  Its window is ``_certified_window``'s,
    as ``_zoom_1d`` states it; a window that is not finite raises
    ``EvaluationError``.

    ``_rtsafe_step`` then finds the root of the objective's derivative
    F(v) = phi'(v) + c (v - u), c = m / delta, inside the window, until its
    step is at round-off.  Each iterate costs one evaluation of phi' and
    phi'' against the budget ``iterations``, range(max_iters) of the
    settings, and ``BudgetExhaustedError`` ends a row that runs out.

    The row then weighs the stay-put guard v = u, which keeps the descent
    property, and chooses the one of the minimizer and the guard that
    ``_precedes`` the other.  Returns the chosen point, and the other one
    where ``_guard_ties``, else None.
    """
    phi, derivatives, floor = member
    try:
        energy_u = phi(u)
    except ValueError:              # cos of an infinite u / eps, nan in numpy
        energy_u = math.nan
    radius, tol = _certified_window(energy_u, floor, u, delta, m, math.sqrt, _where)
    x, lo, hi = u, u - radius, u + radius
    step_old = step = hi - lo       # sizes of the last two steps
    if not math.isfinite(step):
        raise _window_error(u, delta, radius)
    c = m / delta
    for _ in iterations:
        slope, curvature = derivatives(x)
        x, lo, hi, step_old, step = _rtsafe_step(slope, curvature, c, u, x, lo, hi,
                                                 step_old, step, _where)
        if step <= tol:
            break
    else:
        raise _budget_error(len(iterations))
    diff = x - u
    value_x = phi(x) + m * diff * diff / (2.0 * delta)
    value_u = energy_u + 0.0        # the guard's d^2 / (2 delta) is 0
    tie = _guard_ties(value_x, value_u, diff, m, local_tol, math.sqrt)
    if value_x < value_u or _precedes((value_x, m * (diff * diff), x),
                                      (value_u, 0.0, u)):   # common case inline
        return x, u if tie else None
    return u, x if tie else None


def _newton_1d(spec, eps, cols, deltas, u, m, settings):
    """``_newton_row`` on all rows at once: the same window, iterate and
    guard on float64 arrays, so each row gets what it gets alone.

    Every row takes its iterates together with the others and is frozen
    once its step is at round-off.  Of the rows that fail, the first in
    row order raises its error: ``EvaluationError`` for a window that is
    not finite, else ``BudgetExhaustedError`` for a row still moving after
    ``max_iters`` iterates.  A row chooses between its minimizer and its
    guard by their values and, where these neither differ nor order, by
    ``_precedes``, and keeps the other one as its near tie where
    ``_guard_ties``.  Returns ``(x, tie_rows, tie_x)`` as ``_zoom_1d``
    states it: each row's choice, and the other one of the rows that keep
    it.
    """
    # nan and inf as the float kernel meets them; a failing row is reported
    # below, and the values of the others do not depend on it
    with np.errstate(all="ignore"):
        energy_u = coordinate_values(spec, eps, cols, u)
        radius, tol = _certified_window(energy_u, energy_floors(spec, eps)[cols], u,
                                        deltas, m, np.sqrt, np.where)
        lo, hi = u - radius, u + radius
        step = hi - lo
        finite = np.isfinite(step)
        # The live rows: their iterate, bracket and last two step sizes,
        # and their coordinate, u, c = m / delta and round-off stop.
        live = np.flatnonzero(finite)
        state = [u[live], lo[live], hi[live], step[live], step[live]]
        row = [cols[live], u[live], (m / deltas)[live], tol[live]]
        x = u.copy()
        for _ in range(settings.max_iters):
            if not live.size:
                break
            j, u_live, c, stop = row
            slope, curvature = coordinate_curvatures(spec, eps, j, state[0])
            state = _rtsafe_step(slope, curvature, c, u_live, *state, np.where)
            done = state[4] <= stop
            if done.any():          # freeze these rows at their iterate
                x[live[done]] = state[0][done]
                go = ~done
                live = live[go]
                state = [a[go] for a in state]
                row = [a[go] for a in row]
        failed = np.concatenate([np.flatnonzero(~finite), live])
        if failed.size:
            r = failed.min()
            if finite[r]:
                raise _budget_error(settings.max_iters)
            raise _window_error(u[r].item(), deltas[r].item(), radius[r].item())
        diff = x - u
        value_x = coordinate_values(spec, eps, cols, x) + m * diff * diff / (2.0 * deltas)
        value_u = energy_u + 0.0
        tie = _guard_ties(value_x, value_u, diff, m, settings.local_tol, np.sqrt)
    # the clear cases by value, the others (equal values, a nan) by _precedes
    stay = value_u < value_x
    for r in np.flatnonzero(~(value_x < value_u) & ~stay).tolist():
        d = diff[r].item()
        stay[r] = not _precedes((value_x[r].item(), m[r].item() * (d * d), x[r].item()),
                                (value_u[r].item(), 0.0, u[r].item()))
    t = np.flatnonzero(tie)
    return np.where(stay, u, x), t, np.where(stay, x, u)[t]
