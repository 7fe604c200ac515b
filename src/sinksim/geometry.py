"""Field shapes, sink trajectories and coverage-radius computations.

Everything here is a pure function over immutable values. Fields are either
an axis-aligned square anchored at the origin or a disk; trajectories are a
square perimeter, a circle, or a fixed point, discretized into equally
spaced sojourn locations that the sink visits one per round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True)
class Point:
    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ConfigurationError(f"point coordinates must be finite, got ({self.x}, {self.y})")


def distance(a: Point, b: Point) -> float:
    """Euclidean distance between two points."""
    dx = a.x - b.x
    dy = a.y - b.y
    # sqrt(dx*dx + dy*dy) rather than hypot so scalar and vectorized code
    # round identically.
    return math.sqrt(dx * dx + dy * dy)


def distances(x: np.ndarray, y: np.ndarray, px: np.ndarray | float,
              py: np.ndarray | float) -> np.ndarray:
    """``sqrt(dx*dx + dy*dy)`` with ``dx = x - px``, element-wise over arrays that broadcast."""
    dx = x - px
    dy = y - py
    # In place, so a result holds two arrays of its size at its peak, not four.
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


@dataclass(frozen=True)
class SquareField:
    """Square deployment area spanning [0, side] x [0, side]."""

    side: float

    def __post_init__(self) -> None:
        if not self.side > 0:
            raise ConfigurationError(f"square field side must be > 0, got {self.side}")

    def contains(self, p: Point) -> bool:
        return 0.0 <= p.x <= self.side and 0.0 <= p.y <= self.side

    def corners(self) -> list[Point]:
        s = self.side
        return [Point(0.0, 0.0), Point(s, 0.0), Point(s, s), Point(0.0, s)]


@dataclass(frozen=True)
class CircleField:
    """Disk deployment area."""

    center: Point
    radius: float

    def __post_init__(self) -> None:
        if not self.radius > 0:
            raise ConfigurationError(f"circle field radius must be > 0, got {self.radius}")

    def contains(self, p: Point) -> bool:
        return distance(p, self.center) <= self.radius


Field = SquareField | CircleField


@dataclass(frozen=True)
class SquarePath:
    """Closed tour along the perimeter of an axis-aligned square."""

    center: Point
    side: float

    def __post_init__(self) -> None:
        if not self.side > 0:
            raise ConfigurationError(f"square path side must be > 0, got {self.side}")

    def length(self) -> float:
        return 4.0 * self.side


@dataclass(frozen=True)
class CirclePath:
    """Closed circular tour."""

    center: Point
    radius: float

    def __post_init__(self) -> None:
        if not self.radius > 0:
            raise ConfigurationError(f"circle path radius must be > 0, got {self.radius}")

    def length(self) -> float:
        return 2.0 * math.pi * self.radius


@dataclass(frozen=True)
class StaticPath:
    """Degenerate path: the sink never moves."""

    point: Point

    def length(self) -> float:
        return 0.0


Path = SquarePath | CirclePath | StaticPath


# Most sojourn points a tour may have. A run's reach table, one entry per
# visited sojourn point and node in range, has its own cap in simulation.py.
MAX_SOJOURNS = 10_000


@dataclass(frozen=True)
class Trajectory:
    """A sink tour: a closed path sampled at `sojourn_count` equally spaced stops.

    `sensing_range` is the wake-up distance used by mobile-sink protocols; it
    is None for static sinks, which do not gate transmissions by range.
    Consecutive sojourn spacing must not exceed `r_max`.
    """

    path: Path
    sojourn_count: int = 1
    sensing_range: float | None = None
    r_max: float = 5.0

    def __post_init__(self) -> None:
        if not 1 <= self.sojourn_count <= MAX_SOJOURNS:
            raise ConfigurationError(
                f"sojourn_count must be in [1, {MAX_SOJOURNS}], got {self.sojourn_count}")
        if self.sensing_range is not None and not self.sensing_range > 0:
            raise ConfigurationError(f"sensing_range must be > 0, got {self.sensing_range}")
        if not self.r_max > 0:
            raise ConfigurationError(f"r_max must be > 0, got {self.r_max}")
        if self.spacing() > self.r_max:
            raise ConfigurationError(
                f"sojourn spacing {self.spacing():.3f} m exceeds r_max={self.r_max} m; "
                f"increase sojourn_count"
            )

    @property
    def is_static(self) -> bool:
        return isinstance(self.path, StaticPath)

    def spacing(self) -> float:
        """Arc length between consecutive sojourn points (0 for a static sink)."""
        return self.path.length() / self.sojourn_count

    @cached_property
    def points(self) -> np.ndarray:
        """Sojourn locations in visiting order, a read-only (points x 2) float64
        array of (x, y) rows, built once per trajectory.

        Square perimeters start at the lowest-left corner and run
        counterclockwise; circles start at angle 0 (center + (radius, 0)) and
        run counterclockwise. A static path yields its single point regardless
        of sojourn_count. Each coordinate takes the scalar operations of one
        point at a time, in the same order, so its bits do not depend on the
        tour's length: a circle's angle is ``2.0*math.pi*k/S`` and its
        ``math.cos`` and ``math.sin`` are libm's, one angle at a time.
        """
        p, S = self.path, self.sojourn_count
        if isinstance(p, StaticPath):
            xy = np.array([[p.point.x, p.point.y]])
        elif isinstance(p, CirclePath):
            ang = (2.0 * math.pi * np.arange(S) / S).tolist()
            xy = np.empty((S, 2))
            xy[:, 0] = np.fromiter(map(math.cos, ang), float, S) * p.radius + p.center.x
            xy[:, 1] = np.fromiter(map(math.sin, ang), float, S) * p.radius + p.center.y
        else:  # square perimeter, walked +x, +y, -x, -y from the lowest-left corner
            s = p.side
            x0 = p.center.x - s / 2.0
            y0 = p.center.y - s / 2.0
            edge, along = np.divmod(np.arange(S) * (4.0 * s / S), s)
            edges = [edge == 0, edge == 1, edge == 2]
            xy = np.stack((np.select(edges, [x0 + along, x0 + s, x0 + s - along], x0),
                           np.select(edges, [y0, y0 + along, y0 + s], y0 + s - along)), axis=1)
        xy.flags.writeable = False
        return xy


def path_point_distance(path: Path, q: Point) -> float:
    """Shortest distance from a point to the continuous path curve."""
    if isinstance(path, StaticPath):
        return distance(path.point, q)
    if isinstance(path, CirclePath):
        return abs(distance(path.center, q) - path.radius)
    # Distance to the boundary of an axis-aligned square.
    h = path.side / 2.0
    dx = abs(q.x - path.center.x)
    dy = abs(q.y - path.center.y)
    if dx <= h and dy <= h:
        return h - max(dx, dy)
    ox = max(0.0, dx - h)
    oy = max(0.0, dy - h)
    return math.sqrt(ox * ox + oy * oy)


def trajectory_in_field(t: Trajectory, f: Field) -> bool:
    """True when the whole continuous path lies inside the field (boundary inclusive)."""
    p = t.path
    if isinstance(p, StaticPath):
        return f.contains(p.point)
    if isinstance(p, CirclePath):
        if isinstance(f, SquareField):
            return (p.center.x - p.radius >= 0.0 and p.center.x + p.radius <= f.side
                    and p.center.y - p.radius >= 0.0 and p.center.y + p.radius <= f.side)
        return distance(p.center, f.center) + p.radius <= f.radius
    # Square path: a convex curve is inside a convex field iff its corners are.
    h = p.side / 2.0
    corners = [Point(p.center.x + sx * h, p.center.y + sy * h)
               for sx, sy in ((-1, -1), (1, -1), (1, 1), (-1, 1))]
    return all(f.contains(c) for c in corners)


def coverage_radius(t: Trajectory, f: Field) -> float:
    """Smallest sensing range that brings every field point within range of the tour.

    This is max over field points q of the minimum distance from q to the
    continuous path. Closed forms are implemented for the square-in-square,
    circle-in-square and circle-in-circle shape pairs (plus static sinks);
    ``tests/oracles.py`` holds the independent numerical check, a grid scan.
    """
    if not trajectory_in_field(t, f):
        raise ConfigurationError("trajectory does not lie inside the field")
    p = t.path

    if isinstance(p, StaticPath):
        return _max_distance_to_point(f, p.point)

    if isinstance(p, CirclePath):
        # Distance to the circle is |rho - r| with rho the distance to its
        # center; over a field containing the center, rho spans [0, rho_max].
        rho_max = _max_distance_to_point(f, p.center)
        return max(p.radius, rho_max - p.radius)

    if isinstance(f, SquareField):
        # Interior maximum is at the path center (half-side); exterior maximum
        # is at a field corner since the exterior distance is convex.
        interior = p.side / 2.0
        exterior = max(path_point_distance(p, c) for c in f.corners())
        return max(interior, exterior)

    raise ConfigurationError(
        f"no closed-form coverage radius for {type(p).__name__} in {type(f).__name__}"
    )


def _max_distance_to_point(f: Field, q: Point) -> float:
    if isinstance(f, SquareField):
        return max(distance(c, q) for c in f.corners())
    return distance(f.center, q) + f.radius
