import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxslope.errors import DimensionMismatchError
from maxslope.metric import (
    Point,
    SpaceDescriptor,
    distances,
    squared_distances,
)

from conftest import parse_config, pt


finite_coord = st.floats(min_value=-1e6, max_value=1e6,
                         allow_nan=False, allow_infinity=False)


class TestPoint:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Point((0.0, float("nan")))

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            Point((float("inf"),))

    def test_coords_coerced_to_float(self):
        p = Point((1, 2))
        assert p.coords == (1.0, 2.0)
        assert p.dim == 2


class TestSpaceDescriptor:
    def test_default_base_point_is_origin(self):
        sp = SpaceDescriptor(3)
        assert sp.base_point.coords == (0.0, 0.0, 0.0)

    def test_weights_require_weighted_kind(self):
        with pytest.raises(ValueError):
            SpaceDescriptor(2, weights=(1.0, 2.0))

    def test_weighted_needs_matching_length(self):
        with pytest.raises(ValueError):
            SpaceDescriptor(2, metric_kind="diagonal_weighted", weights=(1.0,))

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError):
            SpaceDescriptor(1, metric_kind="diagonal_weighted", weights=(0.0,))

    def test_dimension_positive(self):
        with pytest.raises(ValueError):
            SpaceDescriptor(0)

    def test_roundtrip_dict(self):
        sp = SpaceDescriptor(2, metric_kind="diagonal_weighted", weights=(4.0, 1.0),
                             base_point=pt(1.0, 2.0))
        # the config object that the space was written as
        d = {"dimension": 2, "metric_kind": "diagonal_weighted", "weights": [4.0, 1.0],
             "base_point": [1.0, 2.0]}
        assert parse_config(space=d).space == sp


class TestDistance:
    def test_identity(self, plane):
        assert distances(plane, [0, 0], [0, 0]) == 0.0

    def test_pythagorean(self, plane):
        assert distances(plane, [0, 0], [3, 4]) == 5.0

    def test_weighted(self, weighted_plane):
        # sqrt(4 * 1^2 + 1 * 0^2) = 2
        assert distances(weighted_plane, [0, 0], [1, 0]) == 2.0

    def test_squared_identity(self, plane):
        assert squared_distances(plane, [1, 1], [1, 1]) == 0.0

    def test_squared_pythagorean(self, plane):
        assert squared_distances(plane, [0, 0], [3, 4]) == 25.0

    def test_squared_weighted(self, weighted_plane):
        # 4 * 1 + 1 * 1 = 5
        assert squared_distances(weighted_plane, [0, 0], [1, 1]) == 5.0

    def test_dimension_mismatch(self, plane):
        with pytest.raises(DimensionMismatchError):
            distances(plane, [0, 0], [0, 0, 0])

    def test_rows_of_another_dimension_rejected(self, plane):
        with pytest.raises(DimensionMismatchError):
            squared_distances(plane, np.zeros((4, 2)), np.zeros((4, 3)))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), dim=st.integers(1, 3))
def test_squared_distances_match_squared_distance(data, dim):
    # the rows round as the one-row case and as np.dot, in which every
    # artifact's distances were computed
    weights = data.draw(st.lists(st.floats(0.1, 10.0), min_size=dim, max_size=dim))
    sp = SpaceDescriptor(dim, metric_kind="diagonal_weighted", weights=tuple(weights))
    row = st.lists(finite_coord, min_size=dim, max_size=dim)
    X = np.array(data.draw(st.lists(row, min_size=1, max_size=8)))
    Y = np.array(data.draw(st.lists(row, min_size=len(X), max_size=len(X))))
    rows = squared_distances(sp, X, Y)
    against_first = squared_distances(sp, X[0], Y)
    mw = sp.metric_weights()
    for k, (x, y) in enumerate(zip(X, Y)):
        one = squared_distances(sp, x, y)
        assert rows[k] == one == float(np.dot(mw * (x - y), x - y))
        assert against_first[k] == squared_distances(sp, X[0], y)


@settings(max_examples=200, deadline=None)
@given(st.lists(finite_coord, min_size=6, max_size=6))
def test_triangle_inequality(coords):
    sp = SpaceDescriptor(2, metric_kind="diagonal_weighted", weights=(4.0, 1.0))
    x, y, z = coords[0:2], coords[2:4], coords[4:6]
    lhs = abs(distances(sp, x, z) - distances(sp, x, y))
    assert lhs <= distances(sp, y, z) + 1e-7 * max(1.0, lhs)


@settings(max_examples=200, deadline=None)
@given(st.lists(finite_coord, min_size=4, max_size=4))
def test_symmetry_and_square_consistency(coords):
    sp = SpaceDescriptor(2)
    x, y = coords[0:2], coords[2:4]
    d_xy, d_yx = distances(sp, x, y), distances(sp, y, x)
    assert d_xy == d_yx
    sq = squared_distances(sp, x, y)
    assert math.isclose(sq, d_xy * d_xy, rel_tol=1e-12, abs_tol=1e-300)
