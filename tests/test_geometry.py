"""The outline simplicity test, against an all-pairs reference."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzyface.geometry import in_range, is_number, polygon_is_simple


def reference_is_simple(points):
    """Every non-adjacent edge pair tested on full matrices: the oracle."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    if n < 3:
        return False

    ax, ay = pts[:, 0], pts[:, 1]
    bx, by = np.roll(ax, -1), np.roll(ay, -1)  # edge i runs (ax,ay)[i] -> (bx,by)[i]
    if np.any((ax == bx) & (ay == by)):
        return False

    ex = (bx - ax)[:, None]
    ey = (by - ay)[:, None]
    # cross(edge_i, p - start_i) for p = start_j and p = end_j
    d1 = ex * (ay[None, :] - ay[:, None]) - ey * (ax[None, :] - ax[:, None])
    d2 = ex * (by[None, :] - ay[:, None]) - ey * (bx[None, :] - ax[:, None])

    proper = (d1 * d2 < 0) & (d1.T * d2.T < 0)

    # collinear or endpoint contact: a zero cross product plus a bounding-box hit
    minx = np.minimum(ax, bx)[:, None]
    maxx = np.maximum(ax, bx)[:, None]
    miny = np.minimum(ay, by)[:, None]
    maxy = np.maximum(ay, by)[:, None]
    t1 = (d1 == 0) & (ax[None, :] >= minx) & (ax[None, :] <= maxx) \
        & (ay[None, :] >= miny) & (ay[None, :] <= maxy)
    t2 = (d2 == 0) & (bx[None, :] >= minx) & (bx[None, :] <= maxx) \
        & (by[None, :] >= miny) & (by[None, :] <= maxy)

    hits = proper | t1 | t2 | t1.T | t2.T

    idx = np.arange(n)
    sep = (idx[None, :] - idx[:, None]) % n
    nonadjacent = (sep >= 2) & (sep <= n - 2)
    return not bool(np.any(hits & nonadjacent))


CASES = {
    "square": ([(0, 0), (4, 0), (4, 4), (0, 4)], True),
    "triangle": ([(0, 0), (4, 0), (0, 4)], True),
    # three edges are all adjacent to each other, so nothing is compared
    "collinear triangle": ([(0, 0), (2, 0), (4, 0)], True),
    "too few vertices": ([(0, 0), (4, 0)], False),
    "bowtie": ([(0, 0), (8, 8), (8, 0), (0, 8)], False),
    "zero-length edge": ([(0, 0), (0, 0), (4, 0), (0, 4)], False),
    "first vertex repeated at the end": ([(0, 0), (4, 0), (0, 4), (0, 0)], False),
    # the closing edge meets edge 0 in a straight line at vertex 0 only
    "collinear closing edge": ([(0, 0), (4, 0), (4, 4), (-4, 0)], True),
    "closing edge crosses edge 1": ([(0, 0), (4, 0), (4, 4), (6, 2)], False),
    # the notch tip at (3, 0) lies on the interior of the bottom edge
    "T-contact": ([(0, 0), (6, 0), (6, 6), (4, 6), (3, 0), (2, 6), (0, 6)], False),
    "notch clear of the edge": ([(0, 0), (6, 0), (6, 6), (4, 6), (3, 0.5), (2, 6), (0, 6)], True),
    # two non-adjacent vertices at the same point: a figure eight
    "vertex touching a vertex": ([(0, 0), (2, 2), (4, 0), (4, 4), (2, 2), (0, 4)], False),
    # edge (3, 0) -> (1, 0) runs back along the bottom edge
    "collinear overlapping edges":
        ([(0, 0), (4, 0), (4, 2), (3, 2), (3, 0), (1, 0), (1, 3), (0, 3)], False),
    # Near-collinear floats: edges 0 and 2 have disjoint bounding boxes,
    # yet the cross products' rounding puts each edge's ends on both sides
    # of the other, so the reference reports a crossing.
    "rounding crossing with disjoint boxes":
        ([(-5.3, 151.9), (27.7, 46.3), (28.7, 43.1), (57.2, -48.1), (200.0, 200.0)], False),
    # Near 1e300 the products overflow: an edge's cross products against its
    # own ends are NaN rather than zero, so they cannot be told apart by count.
    "diamond near 1e300": ([(1e300, 0.0), (2e300, 1e300), (1e300, 2e300), (0.0, 1e300)], True),
    "collinear overlap near 1e300": ([(0.0, 3e300), (2e300, 3e300), (1e300, 3e300), (3e300, 1e300)],
                                     False),
}


def quiet_reference(points):
    """The reference's decision; near 1e300 its products overflow, and warn."""
    with np.errstate(over="ignore", invalid="ignore"):
        return reference_is_simple(points)


def warning_free(points):
    """polygon_is_simple's decision, failing on any numpy RuntimeWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return polygon_is_simple(points)


@pytest.mark.parametrize("name", list(CASES))
def test_explicit_cases(name):
    points, expected = CASES[name]
    assert quiet_reference(points) is expected
    assert warning_free(points) is expected
    assert warning_free(np.asarray(points, dtype=float)) is expected


grid_polygons = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=3, max_size=12
)


@settings(max_examples=1500, deadline=None)
@given(points=grid_polygons, scale=st.sampled_from([1.0, 0.5, 1e300]))
def test_grid_polygons_match_the_reference(points, scale):
    # small integers keep every product exact, so touching and collinear
    # cases are common and decided without rounding; at 1e300 the products
    # overflow to inf and NaN, and both tests must still decide alike
    points = [(x * scale, y * scale) for x, y in points]
    assert warning_free(points) == quiet_reference(points)


@settings(max_examples=500, deadline=None)
@given(vertices=st.integers(3, 40), seed=st.integers(0, 2**32 - 1),
       jumble=st.booleans())
def test_star_polygons_match_the_reference(vertices, seed, jumble):
    rng = np.random.default_rng(seed)
    angles = 2 * math.pi * (np.arange(vertices) + rng.uniform(0.1, 0.9, vertices)) / vertices
    if jumble:  # swap two vertices, which usually makes edges cross
        i, j = rng.choice(vertices, 2, replace=False)
        angles[[i, j]] = angles[[j, i]]
    radii = rng.uniform(1.0, 300.0, vertices)
    points = np.column_stack((radii * np.cos(angles), radii * np.sin(angles)))
    assert polygon_is_simple(points) == reference_is_simple(points)


@settings(max_examples=600, deadline=None)
@given(vertices=st.integers(4, 9), seed=st.integers(0, 2**32 - 1),
       decimals=st.sampled_from([None, 1, 2]))
def test_near_collinear_polygons_match_the_reference(vertices, seed, decimals):
    # A chain along one line, each vertex within rounding distance of it,
    # closed through one vertex off the line: the cross products' signs
    # between chain edges come from rounding.
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=2)
    direction /= np.linalg.norm(direction)
    normal = np.array([-direction[1], direction[0]])
    along = np.sort(rng.uniform(0.0, 300.0, vertices))
    off = rng.normal(size=vertices) * 10.0 ** rng.uniform(-16, -11)
    points = rng.uniform(-200, 200, 2) + along[:, None] * direction + off[:, None] * normal
    points[-1] += normal * rng.uniform(-300, 300)
    if decimals is not None:
        points = np.round(points, decimals)
    assert polygon_is_simple(points) == reference_is_simple(points)


@pytest.mark.parametrize("value, expected", [
    (0, True), (-3, True), (10 ** 400, True), (0.5, True), (math.nan, True), (math.inf, True),
    (np.float64(0.5), True), (True, False), (False, False), (np.int64(1), True),
    (np.float32(0.5), True), ("1", False), (None, False), (1j, False),
    (np.uint64(2 ** 64 - 1), True), (np.True_, False),
])
def test_is_number_takes_ints_and_floats_but_no_bool(value, expected):
    # the one test of a number's kind; finite_number and the range tests
    # that follow it decide the value. A numpy integer or floating scalar is
    # taken as its Python value.
    assert is_number(value) is expected


@pytest.mark.parametrize("value, expected", [
    (0.25, 0.25), (0, 0), (1, 1), (np.int64(1), 1),
    (np.float32(0.1), 0.10000000149011612), (np.longdouble(0.5), 0.5),
])
def test_in_range_takes_a_number_in_range_as_its_python_number(value, expected):
    taken = in_range("x", value, 0, 1)
    assert taken == expected
    assert type(taken) is type(expected)  # an int stays an int


@pytest.mark.parametrize("value, shown", [
    (True, "True"), (np.True_, "np.True_"), ("0.5", "'0.5'"), (None, "None"), (math.nan, "nan"),
    (math.inf, "inf"), (-math.inf, "-inf"), (10 ** 400, str(10 ** 400)),
    (math.nextafter(0.0, -1.0), "-5e-324"), (math.nextafter(1.0, 2.0), "1.0000000000000002"),
    (-1, "-1"), (2, "2"),
])
def test_in_range_refuses_anything_else_in_its_words(value, shown):
    with pytest.raises(ValueError) as caught:
        in_range("mixing weight k", value, 0, 1)
    assert str(caught.value) == f"mixing weight k must lie in [0, 1], got {shown}"


def test_in_range_words_its_bounds_as_given():
    with pytest.raises(ValueError, match=r"^threshold must lie in \[0, 100\], got 100\.5$"):
        in_range("threshold", 100.5, 0, 100)
    assert in_range("threshold", 100, 0, 100) == 100
