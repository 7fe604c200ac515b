"""Geometry: sojourn discretization, sink motion, coverage radii."""

import dataclasses
import math

import pytest

from sinksim.errors import ConfigurationError
from sinksim.geometry import (CircleField, CirclePath, Point, SquareField,
                              SquarePath, StaticPath, Trajectory,
                              coverage_radius, distance, trajectory_in_field)

from oracles import coverage_radius_grid, sink_position

SQUARE_100 = SquareField(100.0)
CIRCLE_50 = CircleField(Point(50.0, 50.0), 50.0)
CENTER = Point(50.0, 50.0)


def square_traj(side=50.0, count=200, sensing=None, r_max=5.0):
    return Trajectory(SquarePath(CENTER, side), sojourn_count=count,
                      sensing_range=sensing, r_max=r_max)


def circle_traj(radius, count=360, sensing=None, r_max=5.0):
    return Trajectory(CirclePath(CENTER, radius), sojourn_count=count,
                      sensing_range=sensing, r_max=r_max)


class TestDistance:
    def test_three_four_five(self):
        assert distance(Point(0, 0), Point(3, 4)) == 5.0

    def test_identity(self):
        assert distance(Point(50, 50), Point(50, 50)) == 0.0

    def test_field_diagonal(self):
        assert distance(Point(0, 0), Point(100, 100)) == pytest.approx(141.4213562373095)

    def test_symmetry(self):
        a, b = Point(12.5, 3.25), Point(90.0, 41.0)
        assert distance(a, b) == distance(b, a)


class TestSojournPoints:
    def test_square_corners(self):
        t = square_traj(count=4, r_max=50.0)
        pts = [(p.x, p.y) for p in t.points]
        assert pts == [(25, 25), (75, 25), (75, 75), (25, 75)]

    def test_circle_quarters(self):
        t = circle_traj(40.0, count=4, r_max=70.0)
        pts = t.points
        expect = [(90, 50), (50, 90), (10, 50), (50, 10)]
        for p, (ex, ey) in zip(pts, expect):
            assert p.x == pytest.approx(ex, abs=1e-12)
            assert p.y == pytest.approx(ey, abs=1e-12)

    def test_static_single_point(self):
        t = Trajectory(StaticPath(CENTER), sojourn_count=8)
        assert t.points == (CENTER,)

    @pytest.mark.parametrize("traj", [square_traj(count=200), circle_traj(40.0),
                                      circle_traj(10.0), circle_traj(25.0, count=360)])
    def test_spacing_constant_and_bounded(self, traj):
        pts = traj.points
        assert len(pts) == traj.sojourn_count
        gaps = [distance(pts[i], pts[(i + 1) % len(pts)]) for i in range(len(pts))]
        # chord length is constant and below the arc-length spacing bound
        assert max(gaps) - min(gaps) < 1e-9
        assert max(gaps) <= traj.spacing() + 1e-9
        assert traj.spacing() <= traj.r_max

    def test_spacing_above_r_max_rejected(self):
        with pytest.raises(ConfigurationError):
            square_traj(count=4)  # spacing 50 m > default r_max of 5 m

    def test_zero_sojourns_rejected(self):
        with pytest.raises(ConfigurationError):
            Trajectory(StaticPath(CENTER), sojourn_count=0)

    def test_points_built_once_per_trajectory(self):
        t = circle_traj(40.0)
        assert t.points is t.points
        assert list(t.points) == [sink_position(t, k) for k in range(t.sojourn_count)]
        halved = dataclasses.replace(t, sojourn_count=t.sojourn_count // 2)
        assert len(halved.points) == t.sojourn_count // 2


class TestSinkPosition:
    def test_tour_start(self):
        t = square_traj(count=4, sensing=60.0, r_max=50.0)
        p = sink_position(t, 0)
        assert (p.x, p.y) == (25, 25)

    def test_wraps(self):
        t = square_traj(count=4, sensing=60.0, r_max=50.0)
        p = sink_position(t, 5)  # 5 mod 4 = 1
        assert (p.x, p.y) == (75, 25)

    def test_half_revolution(self):
        t = circle_traj(40.0, count=4, r_max=70.0)
        p = sink_position(t, 2)
        assert p.x == pytest.approx(10.0)
        assert p.y == pytest.approx(50.0)

    def test_static_ignores_round(self):
        t = Trajectory(StaticPath(CENTER), sojourn_count=5)
        for r in (0, 3, 17, 10_000):
            assert sink_position(t, r) == CENTER

    @pytest.mark.parametrize("t", [square_traj(), circle_traj(40.0),
                                   Trajectory(StaticPath(CENTER), sojourn_count=3)],
                             ids=["square", "circle", "static"])
    def test_matches_sojourn_points(self, t):
        pts = t.points
        for r in range(0, 3 * len(pts) + 5, 7):
            assert sink_position(t, r) == pts[r % len(pts)]

    def test_periodic(self):
        t = circle_traj(20.0, count=36)
        for r in range(36):
            a = sink_position(t, r)
            b = sink_position(t, r + 36)
            assert (a.x, a.y) == (b.x, b.y)


class TestCoverageRadius:
    def test_square_path_in_square_field(self):
        r = coverage_radius(square_traj(), SQUARE_100)
        assert r == pytest.approx(35.355, abs=0.01)
        assert r == pytest.approx(25.0 * math.sqrt(2.0), rel=1e-12)

    def test_circle_40_in_square_field(self):
        assert coverage_radius(circle_traj(40.0), SQUARE_100) == pytest.approx(40.0)

    @pytest.mark.parametrize("radius,expect", [
        (10.0, 50.0 * math.sqrt(2.0) - 10.0),
        (20.0, 50.0 * math.sqrt(2.0) - 20.0),
    ])
    def test_small_circles_reach_corners(self, radius, expect):
        assert coverage_radius(circle_traj(radius), SQUARE_100) == pytest.approx(expect)

    def test_circle_in_circle(self):
        assert coverage_radius(circle_traj(25.0), CIRCLE_50) == pytest.approx(25.0)

    def test_static_sink_square_field(self):
        t = Trajectory(StaticPath(CENTER))
        assert coverage_radius(t, SQUARE_100) == pytest.approx(50.0 * math.sqrt(2.0))

    def test_trajectory_outside_field_rejected(self):
        with pytest.raises(ConfigurationError):
            coverage_radius(circle_traj(60.0), SQUARE_100)
        off_center = Trajectory(CirclePath(Point(40.0, 50.0), 45.0), sojourn_count=360)
        with pytest.raises(ConfigurationError):
            coverage_radius(off_center, CIRCLE_50)  # reaches 55 m from field center

    @pytest.mark.parametrize("traj,field", [
        (square_traj(), SQUARE_100),
        (circle_traj(10.0), SQUARE_100),
        (circle_traj(20.0), SQUARE_100),
        (circle_traj(40.0), SQUARE_100),
        (circle_traj(25.0), CIRCLE_50),
    ])
    def test_closed_form_matches_grid_oracle(self, traj, field):
        closed = coverage_radius(traj, field)
        grid = coverage_radius_grid(traj, field)
        assert abs(closed - grid) <= 0.05

    def test_offcenter_circle_in_circle_matches_grid(self):
        t = Trajectory(CirclePath(Point(40.0, 50.0), 15.0), sojourn_count=120)
        closed = coverage_radius(t, CIRCLE_50)
        grid = coverage_radius_grid(t, CIRCLE_50)
        assert abs(closed - grid) <= 0.05

    def test_circle_in_circle_minimized_at_half_field_radius(self):
        # sweep r in 1 m steps; the min-max radius bottoms out at R_f / 2
        vals = {r: coverage_radius(circle_traj(float(r)), CIRCLE_50)
                for r in range(1, 50)}
        best = min(vals, key=vals.get)
        assert best == 25


class TestContainment:
    def test_square_field_contains_boundary(self):
        assert SQUARE_100.contains(Point(0, 0))
        assert SQUARE_100.contains(Point(100, 100))
        assert not SQUARE_100.contains(Point(100.001, 50))

    def test_circle_field_contains_boundary(self):
        assert CIRCLE_50.contains(Point(0, 50))
        assert not CIRCLE_50.contains(Point(-0.001, 50))

    def test_trajectory_in_field_checks(self):
        assert trajectory_in_field(square_traj(), SQUARE_100)
        assert trajectory_in_field(circle_traj(50.0), SQUARE_100)
        assert not trajectory_in_field(circle_traj(50.001, count=400), SQUARE_100)
        assert trajectory_in_field(circle_traj(25.0), CIRCLE_50)
        assert trajectory_in_field(circle_traj(50.0), CIRCLE_50)  # on the rim
        assert not trajectory_in_field(
            Trajectory(StaticPath(Point(101, 50))), SQUARE_100)

    def test_nonpositive_dimensions_rejected(self):
        with pytest.raises(ConfigurationError):
            SquareField(0.0)
        with pytest.raises(ConfigurationError):
            CircleField(CENTER, -1.0)
        with pytest.raises(ConfigurationError):
            CirclePath(CENTER, 0.0)
        with pytest.raises(ConfigurationError):
            Point(float("nan"), 0.0)
