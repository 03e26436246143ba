"""The numeric search of the resolvent, for the coordinate rows to which
the energy's family gives no closed form.  ``maxslope.prox`` imports this
module at its first such row, so that a command whose rows all have a
closed form never loads it.

Each coordinate row searches a window that minimality certifies from its
coordinate's energy floor, or a heuristic one for an energy without
floors, for the roots of the objective's derivative on brackets, each by
one safeguarded Newton iteration (``_rtsafe_step``) on arrays of rows.  A
row takes one of two routes:

* the Newton route, where the energy's curvature floor makes the
  objective strictly convex and the window is the one bracket:
  ``_newton_1d`` on arrays of rows, and ``_newton_row``, the same
  operations in the same order written out as plain code on one row's
  Python floats.  Each weighs the stay-put guard v = u itself, chooses the
  one of the minimizer and the guard that ``_precedes`` the other, and
  keeps the other as a near tie where it is one;
* the bracket route for every row of a batch in which some row is not
  certified convex, whose brackets ``maxslope.brackets`` cuts; ``_select``
  and ``_near_ties`` rank every row's candidates.

Each route settles its own rows and returns its decisions: every row's
chosen point in row order, and the rows' near ties grouped by row; no
objective value leaves a route.  Selection is deterministic so that whole
trajectories are reproducible.
"""

from __future__ import annotations

import math

import numpy as np

from .energy import (
    coordinate_curvatures,
    coordinate_scalars,
    coordinate_slopes,
    coordinate_values,
    curvature_floors,
    energy_floors,
)
from .errors import BudgetExhaustedError, EvaluationError

# Round-off allowed in phi(u) - phi_low, relative to 1 + |phi(u)| + |phi_low|,
# when sizing the certified window.
_WINDOW_SLACK = 1e-12
# A Newton step this small relative to max(1, |u| + radius), the scale of
# the row's bracket, is at round-off.  Four machine epsilons, as a Python
# float, which the rows iterate on.
_NEWTON_TOL = 4.0 * 2.0 ** -52
# Window of the energies without floors: u +- this times
# max(1, delta |phi'(u)|), a heuristic that certifies nothing.
_FALLBACK_RADIUS = 2.0


def _tie_gap(local_tol):
    """The distance beyond which a candidate within ``local_tol`` of the
    optimum is a near tie of the chosen minimizer, not the same well."""
    return 10.0 * math.sqrt(local_tol)


def _precedes(a, b):
    """Whether candidate ``a`` = (objective, m (x - u)^2, x) of a row,
    listed before candidate ``b``, comes first in ``_select``'s order:
    key by key the lower first, a nan after any number and two nans equal,
    as numpy sorts them; a full tie goes to ``a``."""
    for p, q in zip(a, b):
        if p < q or (q != q and p == p):
            return True
        if q < p or (p != p and q == q):
            return False
    return True


def _zoom_1d(spec, eps, cols, deltas, u, m, settings):
    """Global 1D search of every coordinate row, on its route.  Row r
    minimizes phi_j(v) + m (v - u)^2 / (2 delta) over its window
    (see ``_candidates``), where j = cols[r], u = u[r], delta = deltas[r]
    and m = m[r].  A row whose objective has a positive curvature floor
    (phi_j'' >= kappa_j with kappa_j + m / delta > 0) is strictly convex
    there.  Where every row is, ``_newton_1d`` settles each row's root
    against its stay-put guard v = u; else ``_select`` and ``_near_ties``
    rank every row's candidates, as ``_newton_1d`` would a convex row's.
    Returns ``(x, tie_rows, tie_x)``: every row's chosen point in row
    order, and the near ties, row ``tie_rows[t]`` at ``tie_x[t]``, grouped
    by row in candidate order."""
    convex = _convex(spec, eps, cols, m / deltas)
    rows, x, values = _candidates(spec, eps, cols, deltas, u, m, settings, convex)
    if convex.all():
        return _newton_1d(x, values, u, m, settings.local_tol)
    chosen = _select(rows, x, values, u, m)
    tie = _near_ties(rows, x, values, chosen, m, settings.local_tol)
    return x[chosen], rows[tie], x[tie]


def _select(rows, x, values, u, m):
    """Index of each row's chosen candidate, in row order, among those at
    ``x`` of the rows ``rows`` (base points ``u``, metric weights ``m``):
    lowest objective, then smallest m (x - u)^2, then smallest x, then
    candidate order, a nan key last, as ``_precedes`` orders two.  Every
    row must have a candidate."""
    off = x - u[rows]
    order = np.lexsort([x, m[rows] * (off * off), values, rows])
    return order[np.searchsorted(rows[order], np.arange(u.size))]


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


def _convex(spec, eps, cols, c):
    """Whether kappa_j + c > 0, c = m / delta, for each row."""
    kappa = curvature_floors(spec, eps)     # a family with these has floors too
    return np.zeros(cols.size, dtype=bool) if kappa is None else kappa[cols] + c > 0


def _window_error(u, delta, radius):
    """The error of a row whose search window u +- radius is not finite."""
    return EvaluationError(
        f"1D prox search window around u={u:g} with delta={delta:g} "
        f"is not finite (radius {radius:g})", point=np.array([u]))


def _certified_window(energy_u, floor, u, delta, m):
    """The certified windows u +- radius of rows with energies ``energy_u``
    at their base points: radius = sqrt(2 delta (phi(u) - floor + slack) /
    m), nan where the square is negative or nan.  Also the size below which
    a Newton step is at round-off: ``_NEWTON_TOL`` on the scale
    max(1, |u| + radius) of the bracket.  ``_newton_row`` repeats these
    operations, in this order, on one row's floats."""
    slack = _WINDOW_SLACK * (1.0 + np.abs(energy_u) + np.abs(floor))
    square = 2.0 * delta * (energy_u - floor + slack) / m
    radius = np.sqrt(np.where(square >= 0.0, square, math.nan))
    scale = np.abs(u) + radius
    return radius, _NEWTON_TOL * np.where(scale > 1.0, scale, 1.0)


def _rtsafe_step(slope, curvature, c, u, x, lo, hi, step_old, step):
    """One iterate of safeguarded Newton (rtsafe: Press et al., Numerical
    Recipes, 3rd ed., section 9.4) on the roots of
    F(v) = phi'(v) + c (v - u), from ``x`` with phi'(x) = ``slope`` and
    phi''(x) = ``curvature``, inside the brackets [lo, hi], on which F goes
    from negative to non-negative; arrays of rows.

    A step that would leave the bracket, or that is more than half the
    step before last, is a bisection step instead.  ``step_old`` and
    ``step`` are the sizes of the last two steps.  Returns the next x, the
    bracket and the sizes of the last two steps.  ``_newton_row`` repeats
    these operations, in this order, on one row's floats.
    """
    f = slope + c * (x - u)
    # F(x) < 0 puts the root above x, else at or below it (a nan F shrinks
    # the bracket towards lo, so the iteration still ends)
    below = f < 0
    lo = np.where(below, x, lo)
    hi = np.where(below, hi, x)
    newton_step = f / (curvature + c)
    newton = x - newton_step
    size = np.abs(newton_step)
    half = 0.5 * (hi - lo)
    take = (size <= 0.5 * step_old) & (lo <= newton) & (newton <= hi)
    return np.where(take, newton, lo + half), lo, hi, step, np.where(take, size, half)


def _budget_error(max_iters):
    """The error of a row that needs more than ``max_iters`` evaluations."""
    return BudgetExhaustedError(
        f"1D prox Newton iteration did not converge within "
        f"{max_iters} evaluations (budget {max_iters})")


def _iterate(spec, eps, brackets, x, lo, hi, owner, spent, max_iters):
    """Each bracket's root, by ``_rtsafe_step`` on all at once from ``x``
    in [lo, hi] until the step is at round-off.  ``brackets`` holds each
    one's coordinate, u, c = m / delta and stop; each iterate adds one to
    ``spent`` of its row ``owner[b]``, whose brackets stop past
    ``max_iters``.  A round adds at most its number of brackets to a row's
    count, so until some row could pass ``max_iters`` the iterates are
    added when their brackets stop; from then on each round adds its own."""
    step = hi - lo
    state, live, root = [x, lo, hi, step, step], np.arange(x.size), np.empty(x.size)
    top, most = spent[owner].max().item(), np.bincount(owner).max().item()
    owed, counted, rounds = np.zeros(x.size), 0, 0    # iterates not in spent yet
    while live.size:
        j, u, c, stop = brackets
        slope, curvature = coordinate_curvatures(spec, eps, j, state[0])
        state = _rtsafe_step(slope, curvature, c, u, *state)
        rounds += 1
        go = state[4] > stop
        if top + most * rounds > max_iters:     # some row may pass its budget
            owed[live] = rounds - counted
            spent += np.bincount(owner, weights=owed, minlength=spent.size)
            owed[:], counted = 0.0, rounds
            go &= spent[owner[live]] <= max_iters
        if not go.all():        # freeze the others at their iterate
            stopped = live[~go]
            root[stopped] = state[0][~go]
            owed[stopped] = rounds - counted
            live = live[go]
            state = [a[go] for a in state]
            brackets = [a[go] for a in brackets]
    spent += np.bincount(owner, weights=owed, minlength=spent.size)
    return root


def _guard_ties(value_x, value_u, diff, m, local_tol):
    """Whether Newton rows' minimizers x = u + ``diff`` and their guards
    v = u are near ties of each other, so that a row keeps both: their
    values are within ``local_tol`` of each other, and x is more than
    ``_tie_gap(local_tol)`` away from u.  On arrays; ``_newton_row``
    repeats it on one row's floats."""
    return ((value_x <= value_u + local_tol) & (value_u <= value_x + local_tol)
            & (np.sqrt(m * diff * diff) > _tie_gap(local_tol)))


def _members(spec, eps):
    """Each coordinate's (phi_j, x -> (phi_j'(x), phi_j''(x)), energy floor),
    the float kernel's view of a family with a curvature floor."""
    return [(*coordinate_scalars(spec, eps, j), floor)
            for j, floor in enumerate(energy_floors(spec, eps).tolist())]


def _newton_row(member, delta, m, max_iters, local_tol):
    """The Newton route's whole work on one coordinate row, as plain float
    code: the kernel of B = 1 steps, where numpy's per-call cost would be
    most of the row.  ``_newton_1d`` gives every row what this gives it.

    The row minimizes phi(v) + m (v - u)^2 / (2 delta), for the coordinate
    ``member`` = (phi, derivatives, floor) of ``_members``, whose curvature
    floor makes that strictly convex.  Returns the row's kernel
    ``row(u, ties=None)``, specialised once: c = m / delta, 2 delta and the
    tie gap are fixed.  From u, safeguarded Newton finds the root of
    F(v) = phi'(v) + c (v - u) inside the certified window until its step
    is at round-off, in at most ``max_iters`` iterates; a window that is
    not finite raises ``EvaluationError``, a row that runs out
    ``BudgetExhaustedError``.  The kernel then returns the one of the
    minimizer and the stay-put guard v = u that ``_precedes`` the other.
    Given a list ``ties``, it appends the other one where the two are near
    ties, else None.  phi of the returned point carries over: called again
    with that float, the kernel does not evaluate phi there once more.

    The window, each iterate and the near-tie test are
    ``_certified_window``, ``_rtsafe_step`` and ``_guard_ties`` written out
    on floats, operation for operation in the same order, so that a row
    rounds as it does on arrays.  ``TestArraySweep`` and
    ``TestNewtonStepper`` compare the two copies bit for bit, and they are
    what keeps them in step.
    """
    phi, derivatives, floor = member
    c, two_delta, gap = m / delta, 2.0 * delta, _tie_gap(local_tol)
    size_floor, iterations = abs(floor), range(max_iters)
    last = energy_last = None

    def row(u, ties=None):
        nonlocal last, energy_last
        if u is last:
            energy_u = energy_last
        else:
            try:
                energy_u = phi(u)
            except ValueError:      # cos of an infinite u / eps, nan in numpy
                energy_u = math.nan
        # the certified window, nan where its square is negative or nan
        slack = _WINDOW_SLACK * (1.0 + abs(energy_u) + size_floor)
        square = two_delta * (energy_u - floor + slack) / m
        radius = math.sqrt(square if square >= 0.0 else math.nan)
        scale = abs(u) + radius
        tol = _NEWTON_TOL * (scale if scale > 1.0 else 1.0)
        x, lo, hi = u, u - radius, u + radius
        step_old = step = hi - lo       # sizes of the last two steps
        if not math.isfinite(step):
            raise _window_error(u, delta, radius)
        for _ in iterations:
            slope, curvature = derivatives(x)
            f = slope + c * (x - u)
            if f < 0:
                lo = x
            else:                       # a nan F shrinks the bracket towards lo
                hi = x
            newton_step = f / (curvature + c)
            newton = x - newton_step
            size = abs(newton_step)
            if size <= 0.5 * step_old and lo <= newton <= hi:
                x, step_old, step = newton, step, size
            else:
                half = 0.5 * (hi - lo)
                x, step_old, step = lo + half, step, half
            if step <= tol:
                break
        else:
            raise _budget_error(max_iters)
        diff = x - u
        energy_x = phi(x)
        value_x = energy_x + m * diff * diff / two_delta
        value_u = energy_u + 0.0        # the guard's d^2 / (2 delta) is 0
        if value_x < value_u or _precedes((value_x, m * (diff * diff), x),
                                          (value_u, 0.0, u)):   # common case inline
            last, energy_last, other = x, energy_x, u
        else:
            last, energy_last, other = u, energy_u, x
        if ties is not None:
            ties.append(other if value_x <= value_u + local_tol
                        and value_u <= value_x + local_tol
                        and math.sqrt(m * diff * diff) > gap else None)
        return last
    return row


def _candidates(spec, eps, cols, deltas, u, m, settings, convex):
    """Each row's candidates, the roots of its brackets and then its guard
    v = u: their rows, points and objective values.  A row's window is
    |v - u| <= sqrt(2 delta (phi(u) - phi_low) / m), which minimality
    certifies (Ambrosio-Gigli-Savare, Gradient Flows, ch. 2-3), or without
    energy floors phi_low u +- ``_FALLBACK_RADIUS`` max(1, delta |phi'(u)|).
    A ``convex`` row's window is its one bracket, iterated from u; the
    others' come from ``brackets._brackets``, and a root more than
    ``local_tol`` above its row's least value so far is dropped.  Raises
    the first failing row's ``EvaluationError`` (a window not finite) or
    ``BudgetExhaustedError``."""
    c, local_tol = m / deltas, settings.local_tol
    max_iters = min(settings.max_iters, 2 ** 62)    # numpy compares no larger int
    # nan and inf as the float kernel meets them; a failing row is reported
    # below, and the values of the others do not depend on it
    with np.errstate(all="ignore"):
        energy_u, floor = coordinate_values(spec, eps, cols, u), energy_floors(spec, eps)
        if floor is None:
            radius = _FALLBACK_RADIUS * np.maximum(
                1.0, deltas * np.abs(coordinate_slopes(spec, eps, cols, u)))
            tol = _NEWTON_TOL * np.maximum(np.abs(u) + radius, 1.0)
        else:
            radius, tol = _certified_window(energy_u, floor[cols], u, deltas, m)
        lo, hi = u - radius, u + radius
        finite = np.isfinite(hi - lo)
        spent = np.zeros(u.size)

        def solve(owner, start, a, b):
            if not owner.size:
                return owner, start, start
            roots = _iterate(spec, eps, [cols[owner], u[owner], c[owner], tol[owner]],
                             start, a, b, owner, spent, max_iters)
            off = roots - u[owner]
            return owner, roots, (coordinate_values(spec, eps, cols[owner], roots)
                                  + m[owner] * off * off / (2.0 * deltas[owner]))
        owner = np.flatnonzero(convex & finite)
        found = [solve(owner, u[owner], lo[owner], hi[owner])]
        rest = np.flatnonzero(~convex & finite)
        if rest.size:
            from .brackets import _brackets     # compiled once some row takes the route

            best = energy_u + 0.0       # the guard's d^2 / (2 delta) is 0
            for owner, *start_ends in _brackets(spec, eps, rest, cols, c, u, lo, hi, tol,
                                                local_tol, spent, max_iters):
                owner, roots, values = solve(owner, *start_ends)
                np.fmin.at(best, owner, values)
                keep = ~(values > best[owner] + local_tol)
                found.append((owner[keep], roots[keep], values[keep]))
        failed = np.flatnonzero(~finite | (spent > max_iters))
        if failed.size:
            r = failed[0]
            raise (_budget_error(settings.max_iters) if finite[r] else
                   _window_error(u[r].item(), deltas[r].item(), radius[r].item()))
        owner, roots, values = (np.concatenate(p) for p in zip(*found))
        return (np.concatenate([owner, np.arange(u.size)]), np.concatenate([roots, u]),
                np.concatenate([values, energy_u + 0.0]))


def _newton_1d(x, values, u, m, local_tol):
    """``_newton_row``'s choice on all rows at once, every one certified
    convex, between its root and its guard (``_candidates`` ``x`` with
    ``values``, in that order), by value, else by ``_precedes``.  Returns
    ``(x, tie_rows, tie_x)`` as ``_zoom_1d`` does, the tie the other one."""
    x, value_x, value_u = x[:u.size], values[:u.size], values[u.size:]
    diff = x - u
    tie = _guard_ties(value_x, value_u, diff, m, local_tol)
    # the clear cases by value, the others (equal values, a nan) by _precedes
    stay = value_u < value_x
    for r in np.flatnonzero(~(value_x < value_u) & ~stay).tolist():
        d = diff[r].item()
        stay[r] = not _precedes((value_x[r].item(), m[r].item() * (d * d), x[r].item()),
                                (value_u[r].item(), 0.0, u[r].item()))
    t = np.flatnonzero(tie)
    return np.where(stay, u, x), t, np.where(stay, x, u)[t]
