"""Proximal (resolvent) map: minimize energy(v) + d^2(v, u) / (2 * delta).

One engine, ``prox_batch``, solves B independent problems (one step size
and one base point per row).  A closed form is used where the energy's
family has one (``energy.resolvent``), evaluated as a single array
expression over the rows.  Everything else is one search over the B n
coordinate rows of the B problems in n dimensions: every energy is a sum
over coordinates and the metric is diagonal, so each problem separates
into n 1D problems (the separable-sum rule of Parikh and Boyd, Proximal
Algorithms, 2014).  That search is ``maxslope.search``, which this module
imports at the first row that has no closed form, so that a process whose
rows all have one never loads it.  A problem's minimizer set is the
product of its rows' sets, so ``prox_batch`` returns the rows' choices as
the minimizer and, for the De Giorgi interpolant, the largest displacement
over the product of the rows' near-tie sets (Ambrosio-Gigli-Savare,
Gradient Flows, Lemma 3.1.2), and no energy.

The scheme's steps are B = 1 problems, one after another, where numpy's
per-call cost would be most of a step.  Coordinate j of a step depends on
coordinate j of its base point alone, so a run is n independent 1D
recurrences, and ``stepper`` gives each coordinate its own kernel on
Python floats: the family's closed form curried once per run, else
``search._newton_row`` specialised once on a row the Newton route takes,
else a one-row ``search._zoom_1d`` call on the bracket route.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .energy import EnergySpec, base_quadratic, resolvent
from .errors import DimensionMismatchError, InvalidDeltaError

EXACT_IF_AVAILABLE = "exact_if_available"
MULTISTART_NUMERIC = "multistart_numeric"


class _ProxFields(NamedTuple):
    mode: str = EXACT_IF_AVAILABLE
    local_tol: float = 1e-9
    max_iters: int = 200_000


class ProxSettings(_ProxFields):
    """Knobs for the numeric search, a config's ``prox_settings`` object,
    checked on every construction; exact closed forms ignore them.

    ``local_tol`` is the near-tie margin of every numeric row: candidates
    whose objective values lie within it of each other, and more than
    10 sqrt(local_tol) apart, tie.  ``max_iters`` caps the evaluations of
    phi' of each coordinate row (n per problem in nD): the scan points or
    both ends of every cell of the bracket route, and every iterate on
    every bracket.
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
                  deltas[:, None], mw, np.where)(U)
    else:
        from .search import _zoom_1d

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
    of B = 1 steps, as one kernel per coordinate: kernel j maps u_j, a
    Python float, to v_j, bit for bit coordinate j of the minimizer that
    ``prox_batch(spec, eps, [delta], [u], settings)`` returns.  Rows are
    independent, so each kernel takes its own route:

    * a closed form is ``resolvent``, curried once per coordinate;
    * a row whose curvature floor makes its objective strictly convex,
      kappa_j + m_j / delta > 0, is ``search._newton_row``, specialised
      once;
    * any other row, and every row of a family without a curvature floor,
      is a one-row ``search._zoom_1d`` call: the bracket route.
    """
    mw, solve = spec.domain.metric_weights(), _closed_form(spec, settings)
    m = mw.tolist()
    if solve is not None:
        quad = base_quadratic(spec)
        return [solve(w, b, eps, delta, mj, _where)
                for w, b, mj in zip(quad.weights, quad.center, m)]
    from .search import _convex, _members, _newton_row

    convex = _convex(spec, eps, np.arange(mw.size), mw / delta).tolist()
    members = _members(spec, eps) if any(convex) else None
    return [_newton_row(members[j], delta, mj, settings.max_iters, settings.local_tol)
            if convex[j] else _bracket_row(spec, eps, j, delta, mj, settings)
            for j, mj in enumerate(m)]


def _bracket_row(spec, eps, j, delta, m, settings):
    """Coordinate j's kernel off the Newton route: a one-row ``_zoom_1d``
    call, looked up in ``maxslope.search`` at each call, whose row gets
    what it gets in any batch."""
    from . import search

    cols, deltas, ms = np.array([j]), np.array([delta]), np.array([m])

    def row(u):
        return search._zoom_1d(spec, eps, cols, deltas, np.array([u]), ms, settings)[0].item()
    return row


def _closed_form(spec, settings):
    """The ``resolvent`` by which ``prox_batch`` solves ``spec``'s problems."""
    return resolvent(spec) if settings.mode == EXACT_IF_AVAILABLE else None


def _where(condition, a, b):
    """np.where on one coordinate's floats; a comparison with nan is False
    in both, so a nan minimizer falls to the last branch."""
    return a if condition else b
