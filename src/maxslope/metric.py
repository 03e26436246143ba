"""Finite-dimensional metric spaces: points, space descriptors, distances.

Everything downstream (energies, proximal maps, schemes) operates on a
``SpaceDescriptor`` with explicit coordinates.  Supported metrics are the
Euclidean one and diagonally weighted variants d(x,y)^2 = sum_i w_i (x_i-y_i)^2,
the latter so that the proximal map genuinely differs from the plain
Euclidean one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError


def as_floats(values, what: str) -> tuple[float, ...]:
    """``values`` as finite floats; a bool, such as a JSON true, is no
    number, and a JSON NaN or Infinity is not finite."""
    if bool in map(type, values):
        raise TypeError(f"{what} must be numbers, got {list(values)!r}")
    floats = tuple(map(float, values))
    if not all(map(math.isfinite, floats)):
        raise ValueError(f"{what} must be finite, got {list(floats)!r}")
    return floats


@dataclass(frozen=True)
class Point:
    """Immutable point with explicit coordinates.

    All coordinates must be finite; dimension is fixed by the tuple length.
    """

    coords: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", as_floats(self.coords, "coordinates"))

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.coords, dtype=float)


EUCLIDEAN = "euclidean"
DIAGONAL_WEIGHTED = "diagonal_weighted"


@dataclass(frozen=True)
class SpaceDescriptor:
    """Ambient space: dimension, metric kind and reference point u*, as
    ``config`` builds it from a config's space object."""

    dimension: int
    metric_kind: str = EUCLIDEAN
    weights: tuple[float, ...] | None = None
    base_point: Point | None = None

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if self.metric_kind not in (EUCLIDEAN, DIAGONAL_WEIGHTED):
            raise ValueError(f"unknown metric kind {self.metric_kind!r}")
        if self.metric_kind == DIAGONAL_WEIGHTED:
            if self.weights is None:
                raise ValueError("diagonal_weighted metric requires weights")
            w = as_floats(self.weights, "metric weights")
            if len(w) != self.dimension:
                raise ValueError("weights length must equal dimension")
            if min(w) <= 0:
                raise ValueError("metric weights must all be positive")
            object.__setattr__(self, "weights", w)
        elif self.weights is not None:
            raise ValueError("weights only allowed with diagonal_weighted")
        if self.base_point is None:
            object.__setattr__(self, "base_point", Point((0.0,) * self.dimension))
        elif self.base_point.dim != self.dimension:
            raise DimensionMismatchError(
                f"base point has dim {self.base_point.dim}, space has {self.dimension}"
            )

    def metric_weights(self) -> np.ndarray:
        """Diagonal weight vector of the metric (ones for Euclidean)."""
        if self.metric_kind == DIAGONAL_WEIGHTED:
            return np.asarray(self.weights, dtype=float)
        return np.ones(self.dimension)


def squared_distances(space: SpaceDescriptor, X, Y) -> np.ndarray:
    """Squared metric distances between the rows of ``X`` and ``Y``, which
    broadcast: (m, n) and (n,) give (m,).  Each is a (1, n) @ (n, 1)
    product, which rounds like ``np.dot``; ``(w * D * D).sum(-1)`` does not.
    """
    X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
    for A in (X, Y):
        if A.shape[-1:] != (space.dimension,):
            raise DimensionMismatchError(
                f"points of shape {A.shape}, space has dim {space.dimension}")
    D = X - Y
    return np.matmul((space.metric_weights() * D)[..., None, :],
                     D[..., :, None])[..., 0, 0]


def distances(space: SpaceDescriptor, X, Y) -> np.ndarray:
    return np.sqrt(squared_distances(space, X, Y))

