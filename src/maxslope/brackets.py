"""Brackets, on which F(v) = phi'(v) + m (v - u) / delta rises through 0,
of the resolvent rows that the curvature floor does not certify convex;
``search._candidates`` loads this module when some row needs it.  They are
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
# Rows scanned at once, so that a scan's memory is bounded whatever the
# rows of a prox_batch call; the brackets of all blocks are then iterated
# together.  On a 400-step custom_smooth run (0.5 x^2 + eps cos(x/eps) +
# 0.25 exp(-x^2), eps = 0.05, tau = eps^2, u0 = 0.5, 3200 node rows in one
# interpolant block; 2-core VM, Python 3.11.7, numpy 2.4.6), the CLI
# process's VmHWM (median of 4) and the fastest of 12 build_interpolant
# calls in-process:
#   rows per scan           32     64     128    256    512    1024   4096
#   VmHWM (MB)              32.2   32.3   33.1   34.1   36.1   40.1   51.9
#   build_interpolant (ms)  23.7   31.1   28.5   29.0   29.8   29.9   29.9
# The times are within this VM's noise of each other (30.7 ms for one scan
# of all rows).
_SCAN_ROWS = 128
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
    convex, in blocks of at most ``_CELLS`` cells, or all of a scan's in
    one block: each block's rows, starts (``_chord``) and (lower, upper)
    ends, every row's brackets in one block and in its scan's or cells'
    order.  Adds the evaluations of phi' that cutting them takes, the scan
    or both ends of every cell, to each row's ``spent``; a row whose cells'
    ends alone pass ``max_iters`` gets none."""
    cols, c, u, lo, hi = (p[rows] for p in (cols, c, u, lo, hi))
    cells = convex_cells(spec, eps, cols, c, u, lo, hi, tol[rows], margin)
    if cells is None:
        found = []
        for first in range(0, rows.size, _SCAN_ROWS):
            s = slice(first, first + _SCAN_ROWS)
            owner, *brackets = _scan(spec, eps, cols[s], c[s], u[s], lo[s], hi[s])
            found.append((rows[s][owner], *brackets))
        spent[rows] += _SCAN_POINTS
        # the brackets, a few floats a row, are iterated at once (one block
        # is taken as it is: a B = 1 step pays no concatenation)
        yield found[0] if len(found) == 1 else tuple(map(np.concatenate, zip(*found)))
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
