"""Brackets, on which F(v) = phi'(v) + m (v - u) / delta rises through 0,
of the resolvent rows that the curvature floor does not certify convex;
``prox._candidates`` loads this module when some row needs it.  They are
the energy's convex cells (``energy.convex_cells``) across which F changes
sign, whose roots hold every local minimizer within the near-tie margin
of the least value, or else the - to + sign changes of F on a scan of
``_SCAN_POINTS`` points of the heuristic window, and the window ends
where F points out, which certifies nothing."""

from __future__ import annotations

import numpy as np

from .energy import convex_cells, coordinate_slopes

# Points of the scan that brackets F where the energy has no cells.
_SCAN_POINTS = 257
_SCAN_STEPS = np.arange(_SCAN_POINTS, dtype=float)
# Cells cut, and their brackets iterated, at once: a few dozen floats each.
_CELLS = 2 ** 14


def _chord(a, b, fa, fb):
    """The iterate's start on each bracket [a, b], F(a) <= 0 <= F(b): where
    F's chord crosses 0 (the root where F is linear), a where both are 0."""
    return a + np.where(fb > fa, fa / (fa - fb), 0.0) * (b - a)


def _scan(spec, eps, cols, c, u, lo, hi):
    """The brackets of F on an even scan of each window [lo, hi]: between
    neighbours where F goes from negative to non-negative, and the window
    ends where F points outward, F(lo) >= 0 or F(hi) < 0, as brackets of
    width 0.  Returns the brackets' rows, starts and ends."""
    xs = _SCAN_STEPS * ((hi - lo) / (_SCAN_POINTS - 1))[:, None] + lo[:, None]
    xs[:, -1] = hi
    f = coordinate_slopes(spec, eps, cols, xs) + c[:, None] * (xs - u[:, None])
    rows, k = np.nonzero((f[:, :-1] < 0) & (f[:, 1:] >= 0))
    a, b = xs[rows, k], xs[rows, k + 1]
    ends = np.concatenate([lo[f[:, 0] >= 0], hi[f[:, -1] < 0]])
    return (np.concatenate([rows, np.flatnonzero(f[:, 0] >= 0), np.flatnonzero(f[:, -1] < 0)]),
            np.concatenate([_chord(a, b, f[rows, k], f[rows, k + 1]), ends]),
            np.concatenate([a, ends]), np.concatenate([b, ends]))


def _brackets(spec, eps, rows, cols, c, u, lo, hi, tol, margin, spent, max_iters):
    """The brackets of the ``rows`` whose objective is not certified
    convex, in blocks of at most ``_CELLS`` cells: each block's rows,
    starts (``_chord``) and (lower, upper) ends, in row order.  Adds the
    evaluations of phi' that cutting them takes, the scan or both ends of
    every cell, to each row's ``spent``; a row whose cells' ends alone pass
    ``max_iters`` gets none."""
    cols, c, u, lo, hi = (p[rows] for p in (cols, c, u, lo, hi))
    cells = convex_cells(spec, eps, cols, c, u, lo, hi, tol[rows], margin)
    if cells is None:
        owner, start, a, b = _scan(spec, eps, cols, c, u, lo, hi)
        spent[rows] += _SCAN_POINTS
        yield rows[owner], start, a, b
        return
    count, arcs = cells
    spent[rows] += 2.0 * count
    count[spent[rows] > max_iters] = 0.0
    end = np.cumsum(count)
    total = int(end[-1])
    for first in range(0, total, _CELLS):
        i = np.arange(first, min(first + _CELLS, total))
        r = np.searchsorted(end, i, side="right")
        a, b = arcs(r, i - (end - count)[r])
        # the cells' ends are the scan: keep those where F rises through 0
        at, twice = np.concatenate([a, b]), np.concatenate([r, r])
        f = coordinate_slopes(spec, eps, cols[twice], at) + c[twice] * (at - u[twice])
        fa, fb = f[:r.size], f[r.size:]
        keep = (a <= b) & (fa <= 0) & (fb >= 0)
        yield rows[r[keep]], _chord(a, b, fa, fb)[keep], a[keep], b[keep]
