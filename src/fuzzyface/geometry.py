"""Small 2D helpers and the number checks shared by the package."""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

Point = tuple[float, float]


def python_number(value):
    """A numpy integer or floating scalar as its Python int or float (``.item()``); else ``value``.

    The number checks below take a numpy scalar as this value, which is
    exact, and the classes that store a checked number store it. A long
    double that ``.item()`` keeps, being wider than a float, is taken at
    its float when that equals it; else it stays itself and is refused,
    as an np.bool_ is.
    """
    if not isinstance(value, (np.integer, np.floating)):
        return value
    number = value.item()
    if isinstance(number, np.floating) and float(number) == number:
        return float(number)
    return number


def is_number(value) -> bool:
    """True for an int or a float, numpy's integer and floating scalars included, but not a bool."""
    if type(value) is not float:
        value = python_number(value)
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def finite_number(label: str, value) -> float:
    """``value`` as a float; it must be an int or a float (numpy's too, not a bool) and finite."""
    if type(value) is float and math.isfinite(value):
        return value
    if is_number(value):
        try:
            number = float(value)
        except OverflowError:  # an int too large for a float
            pass
        else:
            if math.isfinite(number):
                return number
    raise ValueError(f"{label} must be a finite number, got {value!r}")


def whole_number(label: str, value, minimum: int) -> int:
    """``value`` as a Python int: an int (numpy's too, not a bool) of at least ``minimum``."""
    number = value if type(value) is int else python_number(value)
    if not isinstance(number, int) or isinstance(number, bool) or number < minimum:
        raise ValueError(f"{label} must be an integer >= {minimum}, got {value!r}")
    return number


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
    closed = np.concatenate((pts, pts[:1]))  # vertex n is vertex 0 again
    x, y = closed[:, 0], closed[:, 1]  # edge i runs vertex i -> vertex i + 1
    if ((x[:-1] == x[1:]) & (y[:-1] == y[1:])).any():
        return False
    if n == 3:  # every pair of edges is adjacent
        return True

    # Near 1e300 the products overflow to inf and NaN, which the tests
    # below decide correctly; numpy's warnings about it are noise.
    with np.errstate(over="ignore", invalid="ignore"):
        ex = (x[1:] - x[:-1])[:, None]
        ey = (y[1:] - y[:-1])[:, None]
        # cross[i, v] = cross(edge_i, vertex_v - start_i), with column n a
        # copy of column 0. Edge j's end is vertex j + 1, so its two cross
        # products against edge i are cross[i, j] and cross[i, j + 1].
        cross = ex * (y - y[:-1, None]) - ey * (x - x[:-1, None])

        # Proper crossing: each edge has the other's ends strictly on
        # opposite sides. An adjacent pair always has a zero factor (or
        # NaN) here.
        straddle = cross[:, :-1] * cross[:, 1:] < 0
    if (straddle & straddle.T).any():
        return False

    # Collinear or endpoint contact: a vertex other than the edge's own
    # two ends with a zero cross product, inside the edge's closed box.
    # The own ends are masked out by position, not skipped by count: their
    # entries are zero only while the products stay finite (NaN near 1e300).
    zero = cross[:, :-1] == 0
    flat = zero.reshape(-1)
    flat[::n + 1] = False  # vertex i, the start of edge i
    flat[1::n + 1] = False  # vertex i + 1, its end, for every edge but the last
    zero[-1, 0] = False  # the last edge's end, vertex 0
    if not zero.any():
        return True
    edge, vertex = zero.nonzero()
    start, end, point = closed[edge], closed[edge + 1], closed[vertex]
    inside = (point >= np.minimum(start, end)) & (point <= np.maximum(start, end))
    return not (inside[:, 0] & inside[:, 1]).any()
