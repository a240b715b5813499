"""Small 2D helpers and the two number checks shared by the package."""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

Point = tuple[float, float]


def finite_number(label: str, value) -> float:
    """``value`` as a float; it must be an int or a float (not a bool) and finite."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an int too large for a float
            pass
        else:
            if math.isfinite(number):
                return number
    raise ValueError(f"{label} must be a finite number, got {value!r}")


def whole_number(label: str, value, minimum: int) -> int:
    """``value`` itself; it must be an int (not a bool) of at least ``minimum``."""
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ValueError(f"{label} must be an integer >= {minimum}, got {value!r}")
    return value


def distance(a: Point, b: Point) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def midpoint(a: Point, b: Point) -> Point:
    return ((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0)


def polygon_is_simple(points: Sequence[Point]) -> bool:
    """True if the implicitly closed polygon has no self-intersections.

    Adjacent edges share a vertex by construction and are skipped; any
    other pair of edges that crosses or even touches makes the polygon
    non-simple. Repeated consecutive vertices (zero-length edges) are
    rejected as well.
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    if n < 3:
        return False
    ends = np.concatenate((pts[1:], pts[:1]))  # edge i runs pts[i] -> ends[i] = pts[i + 1]
    if np.any((pts[:, 0] == ends[:, 0]) & (pts[:, 1] == ends[:, 1])):
        return False
    if n == 3:  # every pair of edges is adjacent
        return True

    ax, ay = pts[:, 0], pts[:, 1]
    ex = (ends[:, 0] - ax)[:, None]
    ey = (ends[:, 1] - ay)[:, None]
    # cross[i, v] = cross(edge_i, vertex_v - start_i). Edge j's end is
    # vertex j + 1, so its two cross products against edge i are
    # cross[i, j] and cross[i, j + 1].
    cross = ex * (ay - ay[:, None]) - ey * (ax - ax[:, None])

    # Proper crossing: each edge has the other's ends strictly on opposite
    # sides. An adjacent pair always has a zero factor (or NaN) here.
    straddle = cross * np.concatenate((cross[:, 1:], cross[:, :1]), axis=1) < 0
    if np.any(straddle & straddle.T):
        return False

    # Collinear or endpoint contact: a vertex other than the edge's own
    # two ends with a zero cross product, inside the edge's closed box.
    edge, vertex = np.nonzero(cross == 0)
    keep = (vertex - edge) % n >= 2
    edge, vertex = edge[keep], vertex[keep]
    start, end, point = pts[edge], ends[edge], pts[vertex]
    inside = (point >= np.minimum(start, end)) & (point <= np.maximum(start, end))
    return not bool(np.any(inside[:, 0] & inside[:, 1]))
