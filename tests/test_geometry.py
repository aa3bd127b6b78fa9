"""Unit tests for the geometry substrate."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.geometry import (
    Field,
    Point,
    centroid,
    cluster_deployment,
    distance_matrix,
    grid_deployment,
    nearest_index,
    pairwise_distances,
    perimeter_deployment,
    uniform_deployment,
)


class TestPoint:
    def test_distance_is_euclidean(self):
        assert Point(0, 0).distance_to(Point(3, 4)) == 5.0

    def test_distance_is_symmetric(self):
        a, b = Point(1.5, -2.0), Point(-4.0, 7.25)
        assert a.distance_to(b) == b.distance_to(a)

    def test_distance_to_self_is_zero(self):
        p = Point(2.0, 3.0)
        assert p.distance_to(p) == 0.0

    def test_manhattan_distance(self):
        assert Point(0, 0).manhattan_distance_to(Point(3, 4)) == 7.0

    def test_translated(self):
        assert Point(1, 2).translated(3, -1) == Point(4, 1)

    def test_towards_partial(self):
        mid = Point(0, 0).towards(Point(10, 0), 4.0)
        assert mid == Point(4.0, 0.0)

    def test_towards_overshoot_clamps_to_destination(self):
        assert Point(0, 0).towards(Point(3, 4), 100.0) == Point(3, 4)

    def test_towards_zero_length_segment(self):
        p = Point(2, 2)
        assert p.towards(p, 5.0) == p

    def test_towards_nonpositive_distance_stays(self):
        assert Point(0, 0).towards(Point(10, 0), 0.0) == Point(0, 0)
        assert Point(0, 0).towards(Point(10, 0), -1.0) == Point(0, 0)

    def test_points_are_hashable_and_iterable(self):
        p = Point(1.0, 2.0)
        assert {p: "x"}[Point(1.0, 2.0)] == "x"
        assert tuple(p) == (1.0, 2.0)
        assert p.as_tuple() == (1.0, 2.0)

    def test_centroid(self):
        c = centroid([Point(0, 0), Point(2, 0), Point(1, 3)])
        assert c == Point(1.0, 1.0)

    def test_centroid_empty_raises(self):
        with pytest.raises(ValueError):
            centroid([])


class TestField:
    def test_properties(self):
        f = Field(30.0, 40.0)
        assert f.area == 1200.0
        assert f.diagonal == 50.0
        assert f.center == Point(15.0, 20.0)

    def test_square_factory(self):
        f = Field.square(7.0)
        assert (f.width, f.height) == (7.0, 7.0)

    def test_contains_boundary_inclusive(self):
        f = Field(10.0, 10.0)
        assert f.contains(Point(0, 0))
        assert f.contains(Point(10, 10))
        assert not f.contains(Point(10.01, 5))
        assert not f.contains(Point(5, -0.01))

    def test_clamp(self):
        f = Field(10.0, 10.0)
        assert f.clamp(Point(-3, 12)) == Point(0.0, 10.0)
        assert f.clamp(Point(4, 5)) == Point(4, 5)

    @pytest.mark.parametrize(
        "w,h", [(0, 1), (1, 0), (-1, 5), (float("nan"), 1), (1, float("inf"))]
    )
    def test_invalid_dimensions_rejected(self, w, h):
        with pytest.raises(ConfigurationError):
            Field(w, h)


class TestDeployments:
    def test_uniform_inside_field_and_seeded(self):
        f = Field(50.0, 20.0)
        pts = uniform_deployment(f, 40, rng=3)
        assert len(pts) == 40
        assert all(f.contains(p) for p in pts)
        assert pts == uniform_deployment(f, 40, rng=3)

    def test_uniform_different_seeds_differ(self):
        f = Field.square(10)
        assert uniform_deployment(f, 5, rng=1) != uniform_deployment(f, 5, rng=2)

    def test_cluster_inside_field(self):
        f = Field.square(100.0)
        pts = cluster_deployment(f, 60, n_clusters=4, rng=7)
        assert len(pts) == 60
        assert all(f.contains(p) for p in pts)

    def test_cluster_is_actually_clustered(self):
        # With tiny spread, points concentrate: mean pairwise distance far
        # below the uniform expectation.
        f = Field.square(100.0)
        clustered = cluster_deployment(f, 50, n_clusters=2, spread=0.01, rng=5)
        uniform = uniform_deployment(f, 50, rng=5)
        d_c = pairwise_distances(clustered).mean()
        d_u = pairwise_distances(uniform).mean()
        assert d_c < d_u * 0.9

    def test_cluster_invalid_params(self):
        f = Field.square(10)
        with pytest.raises(ConfigurationError):
            cluster_deployment(f, 5, n_clusters=0)
        with pytest.raises(ConfigurationError):
            cluster_deployment(f, 5, spread=-0.1)

    def test_grid_count_and_interior(self):
        f = Field(100.0, 60.0)
        for n in (1, 2, 5, 9, 16):
            pts = grid_deployment(f, n)
            assert len(pts) == n
            assert all(0 < p.x < f.width and 0 < p.y < f.height for p in pts)

    def test_grid_zero(self):
        assert grid_deployment(Field.square(1), 0) == []

    def test_grid_is_deterministic(self):
        f = Field.square(9)
        assert grid_deployment(f, 7) == grid_deployment(f, 7)

    def test_perimeter_on_boundary(self):
        f = Field(40.0, 30.0)
        pts = perimeter_deployment(f, 8)
        assert len(pts) == 8
        for p in pts:
            on_x = p.x in (0.0, f.width)
            on_y = p.y in (0.0, f.height)
            assert on_x or on_y

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigurationError):
            uniform_deployment(Field.square(1), -1)


class TestDistances:
    def test_distance_matrix_values(self):
        src = [Point(0, 0), Point(1, 0)]
        dst = [Point(0, 0), Point(0, 2)]
        m = distance_matrix(src, dst)
        assert m.shape == (2, 2)
        assert m[0, 0] == 0.0
        assert m[0, 1] == 2.0
        assert m[1, 0] == 1.0
        assert m[1, 1] == pytest.approx(math.sqrt(5))

    def test_pairwise_symmetric_zero_diagonal(self):
        pts = uniform_deployment(Field.square(10), 6, rng=0)
        m = pairwise_distances(pts)
        assert np.allclose(m, m.T)
        assert np.allclose(np.diag(m), 0.0)

    def test_nearest_index(self):
        targets = [Point(0, 0), Point(10, 0), Point(5, 5)]
        assert nearest_index(Point(9, 1), targets) == 1
        assert nearest_index(Point(0.1, 0), targets) == 0

    def test_nearest_index_empty_raises(self):
        with pytest.raises(ValueError):
            nearest_index(Point(0, 0), [])
