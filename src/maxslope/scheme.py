"""Minimizing-movement iteration and its interpolants.

``run_scheme`` produces the discrete trajectory u^0..u^N with step
u^{i+1} = prox(u^i) at step size tau, each coordinate as its own scalar
recurrence; once the points are known it takes their energies and the
step distances d(u^{i+1}, u^i) of the discrete speed from them, in one
array expression each.  On top of it live the piecewise-constant
interpolant (right-closed intervals) and the De Giorgi variational
interpolant, obtained by re-solving the prox at intermediate step sizes
on quadrature nodes, with the scaled displacement
g(t) = d(interp(t), u^i)/(t - i*tau) that dominates the descending slope
along the interpolant.  The quadrature of g^2 over those nodes lives in
``diagnostics``.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .energy import EnergySpec, eval_many
from .errors import EvaluationError, MaxslopeError
from .metric import Point, SpaceDescriptor, squared_distances
from .prox import ProxSettings, prox_batch, stepper

# Coordinate rows per prox_batch call in build_interpolant: a block holds
# INTERPOLANT_BLOCK // n node problems of n coordinates (at least one).
# Within a call, ``brackets._CELLS`` and ``brackets._SCAN_ROWS`` block the
# bracket route's cells and scanned rows.  Measured on the pinning workload's
# run (perfbench pinning_run, seed 0: wiggly, eps = 0.05, tau = eps^2, 400
# steps, fixed from step 350 on, so 2808 Newton-route node rows are solved;
# 2-core VM, Python 3.11, numpy 2.4.6): build_interpolant in-process
# (medians of 20 interleaved rounds), the peak RSS of the CLI process
# itself (VmHWM, medians of 5), and the peak RSS that the benchmark reports
# (perfbench/run.py, 10 s runs, two each; mostly the heap that its warm
# calls leave in the benchmark process):
#   rows per block          64     256    512    1024   2048   4096   8192
#   build_interpolant (ms)  10.0   3.3    2.3    1.6    1.3    1.1    1.3
#   CLI VmHWM (MB)          31.4   31.4   31.4   31.4   31.3   31.4   31.5
#   benchmark peak RSS (MB) 41.3   -      41.4   41.6   -      42.2   42.2
# 4096 rows take the interpolants of both listed benchmark runs that build
# one (pinning_run's, and dissipation_check's 3200 closed-form rows, 0.37
# -> 0.19 ms) in one call each; more rows gain nothing.  The block counts
# rows, not problems, because the numeric search holds a few candidates
# per coordinate row.  On the 9D wiggly run (eps = 0.05, tau = eps^2,
# T = 0.5; 1600 problems of 9 Newton rows) the CLI peaks at 31.3, 31.5 and
# 32.2 MB with 64, 512 and 4096 rows a block, and build_interpolant takes
# about 70, 14 and 7 ms (3 runs each).  A bracket-route row's scan is
# blocked by ``brackets._SCAN_ROWS`` and its cells by ``brackets._CELLS``,
# whatever the rows: a 400-step custom_smooth run (0.5 x^2 + eps
# cos(x/eps) + 0.25 exp(-x^2), eps = 0.05, tau = eps^2, 3200 rows) peaks at
# 33.1 MB with 512 or 4096 rows a block and 35.4 MB with 100 000.
INTERPOLANT_BLOCK = 4096

# Floats a run may hold in its arrays: the trajectory's (N + 1) n points,
# N + 1 energies and N distances, at most (N + 1)(n + 2); the interpolant's
# N K points, g values and node times for K quadrature nodes per step,
# N K (n + 2); and the K x K matrix that builds the Gauss-Legendre rule.
# 10^8 float64 are 800 MB; a larger run is a config error, not a run that
# goes on until it is killed.
MAX_RUN_FLOATS = 10**8


class _SchemeFields(NamedTuple):
    eps: float
    tau: float
    horizon_T: float
    initial_point: Point
    initial_energy_bound_S: float = 10.0
    initial_distance_bound_Sprime: float = 10.0
    prox_settings: ProxSettings = ProxSettings()     # immutable, so one is shared
    quadrature_nodes_per_step: int = 8
    tau_star: float = 1.0


class SchemeParams(_SchemeFields):
    """Parameters of one scheme run, checked on every construction.

    ``initial_energy_bound_S`` and ``initial_distance_bound_Sprime`` are the
    declared bounds |energy(u0)| <= S and d^2(u0, u*) <= S', each at least
    0; the run checks the initial point against them.  ``tau_star`` must be
    positive, and ``tau`` must stay below ``tau_star / 8``, the regime in
    which the a-priori estimates are available.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name in ("eps", "tau", "horizon_T"):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be positive")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.quadrature_nodes_per_step < 1:
            raise ValueError("quadrature_nodes_per_step must be >= 1")
        # capped first, so that an infinite or huge count fails without overflow
        N = math.ceil(min(self.horizon_T / self.tau, MAX_RUN_FLOATS))
        K = min(self.quadrature_nodes_per_step, MAX_RUN_FLOATS)
        row = self.initial_point.dim + 2
        if (N + 1) * row + N * K * row + K * K > MAX_RUN_FLOATS:
            raise ValueError(
                f"horizon_T / tau = {self.horizon_T:g} / {self.tau:g} steps with "
                f"quadrature_nodes_per_step = {self.quadrature_nodes_per_step} must be "
                f"a finite run of (N + 1)(n + 2) + N K (n + 2) + K^2 <= "
                f"{MAX_RUN_FLOATS:.0e} floats")
        for name in ("initial_energy_bound_S", "initial_distance_bound_Sprime"):
            value = getattr(self, name)
            if not value >= 0:
                raise ValueError(f"{name} must be non-negative, got {value!r}")
        if not self.tau_star > 0:
            raise ValueError(f"tau_star must be positive, got {self.tau_star!r}")
        if not self.tau < self.tau_star / 8.0:
            raise ValueError(
                f"tau={self.tau:g} must be below tau_star/8={self.tau_star / 8.0:g} "
                "for the a-priori estimates to apply"
            )
        return self


class _TrajectoryFields(NamedTuple):
    space: SpaceDescriptor
    coords: np.ndarray          # u^i, (N + 1, n)
    tau: float
    eps: float
    step_distances: np.ndarray  # d(u^{i+1}, u^i), (N,)
    step_energies: np.ndarray   # energy(u^i), (N + 1,)


class DiscreteTrajectory(_TrajectoryFields):
    """Iterates u^0..u^N of one run, with per-step energies and distances,
    as read-only arrays: each construction copies them.

    Equality and hashing are by identity, as for an object: a trajectory
    equals only itself, so ``==`` never compares arrays element by element.
    """

    __slots__ = ()
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        arrays = {}
        for name in ("coords", "step_distances", "step_energies"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            arrays[name] = arr
        return self._replace(**arrays)

    @property
    def n_steps(self) -> int:
        return len(self.coords) - 1

    @property
    def final_time(self) -> float:
        return self.n_steps * self.tau


class SchemeStepError(MaxslopeError):
    """Prox failure while running the scheme; carries the failing index."""

    def __init__(self, step_index: int, cause: Exception):
        super().__init__(f"prox failed at step {step_index}: {cause}")
        self.step_index = step_index
        self.cause = cause


def run_scheme(spec: EnergySpec, params: SchemeParams) -> DiscreteTrajectory:
    """Run N = ceil(T / tau) implicit steps from the initial point.

    Coordinate j of a step depends on coordinate j of its base point alone,
    so each coordinate is its own recurrence, stepped by its kernel of
    ``prox.stepper`` on Python floats.  The first step at which a
    coordinate returns its input bit for bit (signed zeros are different
    points) is a fixed point of its kernel: the coordinate stays there, and
    no further step of it is solved.  A run whose coordinates all stop
    early has reached a fixed point of the step map (a pinned run's local
    minimizer).

    The run fails at the earliest step i at which some coordinate raises
    a ``MaxslopeError`` or returns a non-finite value, a raising
    coordinate before a non-finite one and the lowest first, with
    ``SchemeStepError(i, cause)``; a non-finite step names its whole
    point.
    """
    space = spec.domain
    u0 = params.initial_point
    d2 = float(squared_distances(space, u0.array, space.base_point.array))
    if d2 > params.initial_distance_bound_Sprime:
        raise ValueError(
            f"d^2(u0, u*)={d2:g} exceeds declared bound "
            f"S'={params.initial_distance_bound_Sprime:g}"
        )
    e0 = float(eval_many(spec, params.eps, u0.array[None, :])[0])
    if abs(e0) > params.initial_energy_bound_S:
        raise ValueError(
            f"|energy(u0)|={abs(e0):g} exceeds declared bound "
            f"S={params.initial_energy_bound_S:g}"
        )

    # Each coordinate's column is a list of floats until the end; the
    # energies and distances depend on the points alone, so they are taken
    # after the loop.  A coordinate after a failing one runs only up to the
    # failing step, where it may fail first.
    n_steps = int(math.ceil(params.horizon_T / params.tau))
    kernels = stepper(spec, params.eps, params.tau, params.prox_settings)
    # failure: (step, 0 for a raise or 1 for a non-finite value, cause);
    # coordinates come in order, so the lowest keeps a tie
    columns, failure, limit = [], None, n_steps
    isfinite, copysign = math.isfinite, math.copysign
    for step, x in zip(kernels, u0.array.tolist()):
        column, found = [x], None
        columns.append(column)
        for i in range(limit):
            try:
                v = step(x)
            except MaxslopeError as exc:
                found = (i, 0, exc)
                break
            column.append(v)
            if not isfinite(v):
                found = (i, 1, None)
                break
            # == alone would take -0.0 for 0.0
            if v == x and copysign(1.0, v) == copysign(1.0, x):
                break
            x = v
        if found is not None and (failure is None or found[:2] < failure[:2]):
            failure, limit = found, found[0] + 1
    if failure is not None:
        i, _, cause = failure
        if cause is None:       # each coordinate's value after step i
            point = [column[min(i + 1, len(column) - 1)] for column in columns]
            cause = EvaluationError(f"prox minimizer {point} is not finite",
                                    point=np.array(point))
        raise SchemeStepError(i, cause) from cause
    coords = np.empty((n_steps + 1, space.dimension))
    for j, column in enumerate(columns):
        coords[:len(column), j] = column
        coords[len(column):, j] = column[-1]
    D = coords[1:] - coords[:-1]
    return DiscreteTrajectory(
        space=space,
        coords=coords,
        tau=params.tau,
        eps=params.eps,
        step_distances=np.sqrt((space.metric_weights() * D * D).sum(axis=1)),
        step_energies=eval_many(spec, params.eps, coords),
    )


def _step_indices(traj: DiscreteTrajectory, times) -> np.ndarray:
    """Index i with t in (i*tau, (i+1)*tau] for each time t; t = 0 maps to
    step 0."""
    t = np.asarray(times, dtype=float)
    outside = ~((t >= 0) & (t <= traj.final_time + 1e-12 * traj.tau))
    if outside.any():
        raise ValueError(f"t={t[outside][0]:g} outside [0, {traj.final_time:g}]")
    i = np.ceil(t / traj.tau).astype(int) - 1
    # guard roundoff at interval edges: t must exceed i*tau
    while (edge := (i > 0) & (t <= i * traj.tau)).any():
        i -= edge
    return np.clip(i, 0, traj.n_steps - 1)


def piecewise_constant_many(traj: DiscreteTrajectory, times) -> np.ndarray:
    """Rows of the right-closed piecewise-constant interpolant at ``times``:
    u^{i+1} on (i*tau, (i+1)*tau], and u^0 at t = 0."""
    rows = _step_indices(traj, times) + 1
    return traj.coords[np.where(np.asarray(times) > 0, rows, 0)]


class VariationalInterpolant(NamedTuple):
    """Variational interpolant sampled on Gauss-Legendre nodes per step.

    ``node_times[i, k]`` lies strictly inside (i*tau, (i+1)*tau); the open
    nodes sidestep the possible blow-up of g as t -> i*tau.  ``weights``
    are already scaled to integrate over one step.
    """

    parent: DiscreteTrajectory
    node_times: np.ndarray       # (N, K)
    weights: np.ndarray          # (K,)
    values: np.ndarray           # (N, K, n)
    g_values: np.ndarray         # (N, K)


@functools.cache
def gauss_legendre(K: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the K-point Gauss-Legendre rule on [-1, 1], as
    read-only arrays, built once per K.

    The steps, and so the bits, are those of numpy's
    ``numpy.polynomial.legendre.leggauss``, on ``numpy.linalg`` alone, so
    that no command imports ``numpy.polynomial``: the eigenvalues of P_K's
    symmetric companion matrix, one Newton step by Clenshaw sums, then the
    weights 1 / (P_{K-1} P_K') scaled to sum to 2, with nodes and weights
    symmetrised about 0.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    scl = 1.0 / np.sqrt(2 * np.arange(K) + 1)
    companion = np.zeros((K, K))
    off = np.arange(1, K) * scl[:K - 1] * scl[1:K]
    companion.reshape(-1)[1::K + 1] = off
    companion.reshape(-1)[K::K + 1] = off
    x = np.linalg.eigvalsh(companion)
    # Legendre coefficients of P_K and of P_K' = sum of (2k + 1) P_k over
    # k = K - 1, K - 3, ... (the same floats as numpy's legder)
    p_k = [0.0] * K + [1.0]
    dp_k = [2.0 * k + 1.0 if (K - 1 - k) % 2 == 0 else 0.0 for k in range(K)]
    df = _legendre_sum(x, dp_k)
    x -= _legendre_sum(x, p_k) / df
    fm = _legendre_sum(x, p_k[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2. / w.sum()
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _legendre_sum(x: np.ndarray, c: list) -> np.ndarray:
    """sum_k c[k] P_k(x), by Clenshaw's recurrence in the order of numpy's
    ``legval``."""
    if len(c) == 1:
        c0, c1 = c[0], 0
    else:
        c0, c1 = c[-2], c[-1]
        nd = len(c)
        for i in range(3, len(c) + 1):
            nd -= 1
            c0, c1 = c[-i] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


def build_interpolant(spec: EnergySpec, traj: DiscreteTrajectory,
                      prox_settings: ProxSettings,
                      nodes_per_step: int = SchemeParams._field_defaults[
                          "quadrature_nodes_per_step"]
                      ) -> VariationalInterpolant:
    """Solve the prox on every quadrature node of every step.

    Once u^i is known the node problems are independent, so they go through
    ``prox_batch`` in blocks of ``INTERPOLANT_BLOCK`` coordinate rows.  Node
    s is node r = s % K of step q = s // K, so a block that starts at node s
    reads its step sizes, and its base rows' step offsets from q, from one
    pattern starting at r, as long as a block or all the nodes solved,
    whichever is fewer, plus K.  Only the steps 0..p are solved, where p
    is the first step whose base point repeats bit for bit up to step
    N - 1 (a pinned run's tail): each later step poses step p's K
    problems, so it takes step p's results.
    """
    K = nodes_per_step
    nodes, gl_weights = gauss_legendre(K)
    deltas = 0.5 * traj.tau * (nodes + 1.0)          # in (0, tau)
    weights = 0.5 * traj.tau * gl_weights
    n = traj.space.dimension
    N = traj.n_steps
    bits = traj.coords[:N].view(np.uint64)
    moved = np.flatnonzero((bits != bits[-1:]).any(axis=1))
    p = moved[-1] + 1 if moved.size else 0
    stop = min(p + 1, N) * K          # the nodes of steps 0..p, none if N = 0
    block = max(1, INTERPOLANT_BLOCK // n)
    offsets, k = np.divmod(np.arange(min(block, stop) + K), K)
    delta_pattern = deltas[k]
    values = np.empty((N, K, n))
    g_values = np.empty((N, K))
    node_values, node_g = values.reshape(N * K, n), g_values.reshape(N * K)
    for s in range(0, stop, block):
        (q, r), m = divmod(s, K), min(block, stop - s)
        D = delta_pattern[r:r + m]
        res = prox_batch(spec, traj.eps, D, traj.coords[q:][offsets[r:r + m]],
                         prox_settings)
        node_values[s:s + m] = res.minimizers
        node_g[s:s + m] = res.tie_moved / D
    values[p + 1:] = values[p:p + 1]
    g_values[p + 1:] = g_values[p:p + 1]
    return VariationalInterpolant(
        parent=traj,
        node_times=np.arange(N)[:, None] * traj.tau + deltas,
        weights=weights,
        values=values,
        g_values=g_values,
    )


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def trajectory_to_csv(traj: DiscreteTrajectory, path) -> None:
    """Columns: i, t, coords..., energy, step_distance (arriving step)."""
    n = traj.space.dimension
    header = ["i", "t"] + [f"x{j}" for j in range(n)] + ["energy", "step_distance"]
    steps = np.arange(traj.n_steps + 1)
    table = np.column_stack([steps, steps * traj.tau, traj.coords, traj.step_energies,
                             np.concatenate([[0.0], traj.step_distances])])
    _write_csv(path, header, table, "%d" + ",%r" * (n + 3) + "\n")


def interpolant_to_csv(interp: VariationalInterpolant, path) -> None:
    """Columns: t, coords..., g_value."""
    n = interp.parent.space.dimension
    header = ["t"] + [f"x{j}" for j in range(n)] + ["g_value"]
    table = np.column_stack([interp.node_times.ravel(), interp.values.reshape(-1, n),
                             interp.g_values.ravel()])
    _write_csv(path, header, table, "%r" + ",%r" * (n + 1) + "\n")


# Rows formatted per write by _write_csv.  Larger chunks are no faster (a
# 3200-row interpolant.csv took 7.1-7.9 ms for 16 to 1024 rows a chunk),
# but each holds its table's floats as Python objects: with 1024 rows a
# process that had written the pinning run's files kept 0.1-0.2 MB more
# heap than with 64.
_CSV_CHUNK = 64


def _write_csv(path, header, table, row_format) -> None:
    """The header, then each row of ``table`` by ``row_format``, formatted
    ``_CSV_CHUNK`` rows at a time, so no text of the whole table is built.

    The bytes are those of ``csv.writer`` with "\n" line ends: it writes a
    float as ``repr``, the shortest text that reads back as the same float
    (and "nan", "inf" or "-inf"), an integer as ``%d`` does, and quotes none
    of these fields or the header's names.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for s in range(0, len(table), _CSV_CHUNK):
            chunk = table[s:s + _CSV_CHUNK]
            fh.write(row_format * len(chunk) % tuple(chunk.ravel().tolist()))
