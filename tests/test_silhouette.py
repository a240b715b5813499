"""The raster layer: rasterization against area oracles and the overlap modes.

Also the canvas normalization that gives the raster layer its canvas,
scoring.normalize_pair.
"""

import itertools
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import make_face, scaled_face, standard_landmarks, stretch_refused_face
from fuzzyface import (
    AlphaMode,
    BinaryMask,
    Canvas,
    PopulationConfig,
    ScoringConfig,
    alpha_from_masks,
    compare,
    default_resolution_scale,
    generate_population,
    normalize_pair,
    rasterize,
)
from fuzzyface import silhouette
from fuzzyface.features import FaceInput, rescale_face
from fuzzyface.geometry import polygon_is_simple


def reference_fill(outline, canvas, scale):
    """Even-odd fill of the whole canvas at pixel centers: the uncropped oracle."""
    pts = np.asarray(outline, dtype=float)
    wpx, hpx = canvas.width * scale, canvas.height * scale
    x1, y1 = pts[:, 0], pts[:, 1]
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    yc = (np.arange(hpx, dtype=float) + 0.5) / scale
    ylo = np.minimum(y1, y2)[:, None]
    yhi = np.maximum(y1, y2)[:, None]
    crossing = (ylo <= yc[None, :]) & (yc[None, :] < yhi)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (yc[None, :] - y1[:, None]) / (y2 - y1)[:, None]
        xc = x1[:, None] + t * (x2 - x1)[:, None]
    edge_idx, row_idx = np.nonzero(crossing)
    col = np.ceil(xc[edge_idx, row_idx] * scale - 0.5).astype(np.int64)
    np.clip(col, 0, wpx, out=col)
    delta = np.zeros((hpx, wpx + 1), dtype=np.int32)
    np.add.at(delta, (row_idx, col), 1)
    return (np.cumsum(delta, axis=1)[:, :wpx] & 1).astype(bool)


def pasted(mask):
    """The full-frame mask: the window pasted at its offset over False."""
    full = np.zeros(mask.frame, dtype=bool)
    row, col = mask.offset
    full[row:row + mask.bits.shape[0], col:col + mask.bits.shape[1]] = mask.bits
    return full


def alpha_of(face_a, face_b, mode=AlphaMode.COMPLEMENT, scale=None):
    return compare(face_a, face_b, ScoringConfig(alpha_mode=mode, resolution_scale=scale)).alpha


def shoelace_area(points):
    area = 0.0
    n = len(points)
    for i in range(n):
        x0, y0 = points[i]
        x1, y1 = points[(i + 1) % n]
        area += x0 * y1 - x1 * y0
    return abs(area) / 2.0


def square(lo, hi):
    return ((lo, lo), (hi, lo), (hi, hi), (lo, hi))


def square_face(face_id, lo, hi, width=20, height=20):
    return make_face(face_id, width=width, height=height,
                     landmarks=standard_landmarks(width, height),
                     outline=square(float(lo), float(hi)))


class TestNormalizePair:
    def test_equal_dimensions_identity(self):
        canvas, na, nb = normalize_pair(make_face("a"), make_face("b"))
        assert (canvas.width, canvas.height) == (100, 100)
        assert na.landmarks == make_face("a").landmarks

    def test_uniform_upscale(self):
        big = make_face("a", width=512, height=512)
        small = make_face("b", width=256, height=256)
        canvas, na, nb = normalize_pair(big, small)
        assert (canvas.width, canvas.height) == (512, 512)
        assert nb.landmarks["chin"] == (2 * small.landmarks["chin"][0],
                                        2 * small.landmarks["chin"][1])
        assert nb.image_width == 512

    def test_per_axis_upscale(self):
        big = make_face("a", width=512, height=512)
        small = make_face("b", width=256, height=512)
        canvas, _, nb = normalize_pair(big, small)
        assert (canvas.width, canvas.height) == (512, 512)
        x, y = small.landmarks["chin"]
        assert nb.landmarks["chin"] == (2 * x, y)

    def test_idempotent(self):
        canvas, na, nb = normalize_pair(
            make_face("a", width=300, height=200), make_face("b", width=200, height=400)
        )
        canvas2, na2, nb2 = normalize_pair(na, nb)
        assert canvas2 == canvas == Canvas(300, 400)
        assert na2 == na and nb2 == nb

    def test_same_size_rescale_is_the_face_itself(self):
        face = make_face("a", width=300, height=200)
        assert rescale_face(face, face.image_width, face.image_height) is face
        assert rescale_face(face, 300, 400) is not face

    def test_rescale_matches_the_per_point_clamp(self):
        # 7 * (29 / 7) is 29.000000000000004, so the far edge is clamped;
        # a -0.0 coordinate keeps its sign, as min(max(-0.0, 0.0), w) does
        outline = ((-0.0, 0.0), (7.0, 0.0), (7.0, 7.0), (0.0, 7.0))
        face = make_face("a", width=7, height=7, outline=outline)
        for width, height in ((29, 29), (29, 7), (14, 29), (9, 11)):
            sx, sy = width / 7, height / 7

            def point(pt):
                return (min(max(pt[0] * sx, 0.0), float(width)),
                        min(max(pt[1] * sy, 0.0), float(height)))

            stretched = rescale_face(face, width, height)
            assert repr(stretched.outline) == repr(tuple(point(pt) for pt in outline))
            assert repr(stretched.landmarks) == repr(
                {name: point(pt) for name, pt in face.landmarks.items()})
        assert rescale_face(face, 29, 29).outline[1] == (29.0, 0.0)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**16), tiny=st.booleans(),
           size=st.tuples(st.integers(1, 3000), st.integers(1, 3000)))
    @example(seed=0, tiny=False, size=(768, 512))
    @example(seed=0, tiny=True, size=(29, 29))
    def test_stretched_face_equals_one_built_from_its_fields(self, seed, tiny, size):
        # rescale_face sets FaceInput's fields by hand; the face that the
        # constructor builds from them must be the same face
        if tiny:  # a -0.0 coordinate, and a far edge that the clamp moves
            face = make_face("a", width=7, height=7,
                             outline=((-0.0, 0.0), (7.0, 0.0), (7.0, 7.0), (0.0, 7.0)))
        else:
            face = generate_population(
                PopulationConfig(identity_count=1, captures_per_identity=1, seed=seed))[0].face
        assume(size != (face.image_width, face.image_height))
        face._prepared[size] = "warm"  # the source's memo is not carried over
        try:
            stretched = rescale_face(face, *size)
        except ValueError:  # the stretch rounded the outline into a refused one
            assume(False)
        built = FaceInput(face.id, *size, dict(stretched.landmarks), stretched.outline)
        assert stretched == built and repr(stretched) == repr(built)
        assert type(stretched.outline) is type(built.outline) is tuple
        assert type(stretched.landmarks) is type(built.landmarks)
        assert np.array_equal(stretched._outline_array, built._outline_array)
        assert stretched._outline_array.dtype == built._outline_array.dtype == np.float64
        assert not stretched._outline_array.flags.writeable
        assert not built._outline_array.flags.writeable
        assert stretched._prepared == {} and built._prepared == {}

    def test_stretch_refusal_names_the_face_and_canvas(self):
        face = stretch_refused_face()
        assert rescale_face(face, 512, 768).outline  # a 2 x 2 stretch keeps it simple
        message = "face 'found' stretched onto 768 x 768: outline is self-intersecting"
        with pytest.raises(ValueError) as exc:
            rescale_face(face, 768, 768)
        assert str(exc.value) == message
        with pytest.raises(ValueError) as exc:
            compare(face, make_face("big", width=768, height=768))
        assert str(exc.value) == message

    @pytest.mark.parametrize("width, words", [
        (0, "an integer >= 1, got 0"),
        (2**17, "at most 65536"),
        (10**400, "at most 65536"),  # once an OverflowError from the division
        ("100", "an integer >= 1, got '100'"),  # once a TypeError
    ])
    def test_bad_canvas_size_is_refused_before_the_stretch(self, width, words):
        with pytest.raises(ValueError) as exc:
            rescale_face(make_face("f"), width, 100)
        assert str(exc.value) == f"face 'f' stretched onto {width} x 100: image width must be {words}"

    def test_canvas_validation(self):
        with pytest.raises(ValueError, match="canvas width"):
            Canvas(0, 10)


class TestRasterize:
    def test_left_half_rectangle_exact(self):
        canvas = Canvas(20, 20)
        mask = rasterize(((0.0, 0.0), (10.0, 0.0), (10.0, 20.0), (0.0, 20.0)), canvas, 1)
        assert mask.area == 10 * 20
        assert mask.bits[:, :10].all() and not mask.bits[:, 10:].any()

    def test_full_canvas_rectangle(self):
        canvas = Canvas(8, 6)
        mask = rasterize(((0.0, 0.0), (8.0, 0.0), (8.0, 6.0), (0.0, 6.0)), canvas, 1)
        assert mask.area == 48

    @pytest.mark.parametrize("side", [9e18, 1e19, 1e100, 1e300])
    def test_square_far_past_the_canvas_fills_it(self, side):
        # from 1e19 on, a crossing's column is past 2**63, so it must be
        # clamped to the frame before its int64 cast, which would wrap it
        outline = ((0.0, 0.0), (side, 0.0), (side, side), (0.0, side))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            mask = rasterize(outline, Canvas(10, 10), 1)
        assert mask.area == 100 and mask.bits.all()

    @pytest.mark.parametrize("outline, scale", [
        (((0.0, 0.0), (1.7e308, 0.0), (1.7e308, 1.7e308), (0.0, 1.7e308)), 2),
        (((-1e308, -1e308), (1e308, -1e308), (1e308, 1e308), (-1e308, 1e308)), 1),
    ])
    def test_coordinates_overflowing_at_the_scale_are_refused(self, outline, scale):
        # a coordinate or a span times the scale would overflow a float
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=f"outline coordinates overflow a float at "
                                                 f"raster scale {scale}"):
                rasterize(outline, Canvas(10, 10), scale)
            half = tuple((x / 2, y / 2) for x, y in outline)
            assert rasterize(half, Canvas(10, 10), scale).area == (10 * scale) ** 2

    def test_triangle_against_shoelace(self):
        tri = ((0.0, 0.0), (4.0, 0.0), (0.0, 4.0))
        canvas = Canvas(4, 4)
        mask = rasterize(tri, canvas, 64)
        assert shoelace_area(tri) == 8.0
        assert mask.area / 64**2 == pytest.approx(8.0, rel=0.02)

    def test_area_scales_with_resolution(self):
        tri = ((0.3, 0.2), (3.6, 0.9), (1.1, 3.8))
        canvas = Canvas(4, 4)
        oracle = shoelace_area(tri)
        for scale in (32, 64, 128):
            mask = rasterize(tri, canvas, scale)
            assert mask.area / scale**2 == pytest.approx(oracle, rel=0.02)
            assert mask.scale == scale

    def test_deterministic(self):
        outline = ((1.2, 1.7), (17.9, 2.4), (9.5, 18.3))
        canvas = Canvas(20, 20)
        a = rasterize(outline, canvas, 8)
        b = rasterize(outline, canvas, 8)
        assert np.array_equal(a.bits, b.bits)

    def test_degenerate_outline(self):
        with pytest.raises(ValueError, match="at least 3"):
            rasterize(((0.0, 0.0), (5.0, 5.0)), Canvas(10, 10), 1)

    def test_self_intersecting_outline(self):
        bowtie = ((0.0, 0.0), (8.0, 8.0), (8.0, 0.0), (0.0, 8.0))
        with pytest.raises(ValueError, match="self-intersecting"):
            rasterize(bowtie, Canvas(10, 10), 1)

    def test_self_intersecting_list_outline(self):
        bowtie = [(0.0, 0.0), (8.0, 8.0), (8.0, 0.0), (0.0, 8.0)]
        with pytest.raises(ValueError, match="self-intersecting"):
            rasterize(bowtie, Canvas(10, 10), 1)

    def test_a_face_outline_is_checked_too(self, monkeypatch):
        # rasterize has one path: a face's outline is converted and tested
        # like any other, and fills as the face's stored array does
        face = make_face(width=20, height=20, outline=square(2.0, 8.0))
        calls = []
        monkeypatch.setattr(silhouette, "polygon_is_simple",
                            lambda pts: calls.append(pts.tolist()) or polygon_is_simple(pts))
        from_face = rasterize(face.outline, Canvas(20, 20), 2)
        assert calls == [face._outline_array.tolist()]
        copied = rasterize(list(face.outline), Canvas(20, 20), 2)
        assert len(calls) == 2
        stored = silhouette.fill_outlines([face._outline_array], Canvas(20, 20), 2)[0]
        stored = stored.unpacked(2, (40, 40))
        for mask in (copied, stored):
            assert np.array_equal(from_face.bits, mask.bits)
            assert (from_face.offset, from_face.frame) == (mask.offset, mask.frame)

    def test_bad_scale(self):
        with pytest.raises(ValueError, match="resolution_scale"):
            rasterize(square(2, 8), Canvas(10, 10), 0)

    def test_frame_size_limit(self):
        # 2**26 pixels is allowed; the window is cropped, so this fill is small
        assert rasterize(square(10, 20), Canvas(8192, 8192), 1).area == 100
        assert rasterize(square(10, 20), Canvas(512, 512), 16).area == 100 * 16**2
        for canvas, scale in ((Canvas(8193, 8192), 1), (Canvas(512, 512), 17),
                              (Canvas(2**16, 2**16), None)):
            with pytest.raises(ValueError, match="exceeds 67108864 pixels"):
                rasterize(square(10, 20), canvas, scale)

    def test_default_scale_targets_512(self):
        assert default_resolution_scale(Canvas(512, 512)) == 1
        assert default_resolution_scale(Canvas(20, 20)) == 26
        assert default_resolution_scale(Canvas(600, 300)) == 1
        assert default_resolution_scale(Canvas(300, 300)) == 2

    def test_mask_is_read_only(self):
        mask = rasterize(square(2, 8), Canvas(10, 10), 1)
        with pytest.raises(ValueError):
            mask.bits[0, 0] = True

    def test_window_is_cropped_to_the_outline(self):
        mask = rasterize(square(2, 8), Canvas(10, 10), 3)
        assert mask.frame == (30, 30)
        assert mask.offset == (6, 6) and mask.bits.shape == (18, 18)
        assert mask.bits.all()

    def test_outline_off_canvas_gives_empty_window(self):
        outline = ((12.0, 1.0), (15.0, 1.0), (15.0, 4.0))
        mask = rasterize(outline, Canvas(10, 10), 2)
        assert mask.area == 0 and mask.bits.size == 0
        assert not reference_fill(outline, Canvas(10, 10), 2).any()

    @settings(max_examples=200, deadline=None)
    @given(
        vertices=st.integers(5, 24),
        seed=st.integers(0, 2**32 - 1),
        size=st.one_of(
            st.tuples(st.integers(1, 64), st.integers(1, 64), st.integers(1, 8)),
            # canvases past 256 px, kept to scale 3 so the full-canvas oracle stays small
            st.tuples(st.integers(257, 320), st.integers(257, 320), st.integers(1, 3)),
        ),
    )
    @example(vertices=24, seed=3, size=(300, 280, 3))
    @example(vertices=16, seed=11, size=(48, 40, 6))
    def test_cropped_equals_full_canvas_fill(self, vertices, seed, size):
        width, height, scale = size
        # star-shaped around a centre: sorted angles with gaps under pi keep it simple
        rng = np.random.default_rng(seed)
        angles = 2 * math.pi * (np.arange(vertices) + rng.uniform(0.1, 0.9, vertices)) / vertices
        radii = rng.uniform(0.05, 0.7, vertices) * max(width, height)
        centre = rng.uniform(-0.2, 1.2, 2) * (width, height)
        outline = np.column_stack((centre[0] + radii * np.cos(angles),
                                   centre[1] + radii * np.sin(angles)))
        assert polygon_is_simple(outline)
        canvas = Canvas(width, height)
        mask = rasterize(outline, canvas, scale)
        assert mask.frame == (height * scale, width * scale) and mask.scale == scale
        assert np.array_equal(pasted(mask), reference_fill(outline, canvas, scale))


    @settings(max_examples=200, deadline=None)
    @given(vertices=st.integers(4, 16), seed=st.integers(0, 2**32 - 1),
           width=st.integers(4, 24), scale=st.integers(1, 4))
    def test_grid_snapped_outlines_match_full_canvas_fill(self, vertices, seed, width, scale):
        # vertices on pixel centres and pixel edges: horizontal edges on a
        # row centre, vertical edges on a column centre, crossings exactly
        # on a centre
        rng = np.random.default_rng(seed)
        angles = 2 * math.pi * (np.arange(vertices) + rng.uniform(0.1, 0.9, vertices)) / vertices
        radii = rng.uniform(0.1, 0.6, vertices) * width
        outline = width / 2 + np.column_stack((radii * np.cos(angles), radii * np.sin(angles)))
        outline = np.round(outline * 2 * scale) / (2 * scale)
        assume(polygon_is_simple(outline))
        canvas = Canvas(width, width)
        mask = rasterize(outline, canvas, scale)
        assert np.array_equal(pasted(mask), reference_fill(outline, canvas, scale))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        size=st.tuples(st.integers(60, 700), st.integers(60, 700)),
        pad=st.tuples(st.integers(0, 300), st.integers(0, 300)),
        scale=st.sampled_from([None, 1, 2, 3]),
    )
    @example(seed=0, size=(512, 512), pad=(0, 0), scale=None)
    @example(seed=1, size=(101, 133), pad=(0, 0), scale=1)
    def test_face_outline_equals_the_unchecked_path(self, seed, size, pad, scale):
        # the pair engine's fill of a face's stored vertex array, unchecked,
        # gives exactly rasterize's mask of the face's outline
        population = generate_population(
            PopulationConfig(identity_count=1, captures_per_identity=1, seed=seed))
        face = rescale_face(population[0].face, *size)
        canvas = Canvas(size[0] + pad[0], size[1] + pad[1])
        checked = rasterize(face.outline, canvas, scale)
        scale = default_resolution_scale(canvas) if scale is None else scale
        unchecked = silhouette.fill_outlines([face._outline_array], canvas, scale)[0]
        unchecked = unchecked.unpacked(scale, checked.frame)
        assert checked.bits.dtype == unchecked.bits.dtype == bool
        assert np.array_equal(checked.bits, unchecked.bits)
        assert (checked.offset, checked.frame, checked.scale) == \
            (unchecked.offset, unchecked.frame, unchecked.scale)

    @pytest.mark.parametrize("outline, canvas, scale", [
        # rectilinear L with every vertex on a pixel centre
        (((1.5, 1.5), (8.5, 1.5), (8.5, 4.5), (4.5, 4.5), (4.5, 8.5), (1.5, 8.5)),
         Canvas(10, 10), 1),
        (((1.5, 1.5), (8.5, 1.5), (8.5, 4.5), (4.5, 4.5), (4.5, 8.5), (1.5, 8.5)),
         Canvas(10, 10), 2),
        # a spike narrower than a pixel: both of its crossings in one column
        (((1.0, 1.0), (9.0, 1.0), (9.0, 3.0), (5.4, 3.0), (5.3, 9.0), (5.2, 3.0), (1.0, 3.0)),
         Canvas(10, 10), 1),
        # a sliver whose every crossing is in one column: a window with no columns
        (((5.1, 1.0), (5.4, 9.0), (5.3, 1.0)), Canvas(10, 10), 1),
    ])
    def test_edge_outlines_match_full_canvas_fill(self, outline, canvas, scale):
        mask = rasterize(outline, canvas, scale)
        assert np.array_equal(pasted(mask), reference_fill(outline, canvas, scale))


def stack_outline(kind, vertices, seed, width, height):
    """One simple outline of the given kind on a width x height canvas, or None."""
    rng = np.random.default_rng(seed)
    if kind == "sliver":  # every crossing in one or two columns
        x, y0, y1 = rng.uniform(0, width), rng.uniform(-1, height), rng.uniform(-1, height + 1)
        outline = np.array([(x, y0), (x + 0.3, y1), (x + 0.2, y0)])
    elif kind == "edge":  # a box snapped to the canvas edges and the pixel grid
        x0, x1 = np.sort(rng.integers(0, 2 * width + 1, 2)) / 2
        y0, y1 = np.sort(rng.integers(0, 2 * height + 1, 2)) / 2
        outline = np.array([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])
    else:  # star-shaped around a centre; "off" puts it off the canvas, with an empty window
        angles = 2 * math.pi * (np.arange(vertices) + rng.uniform(0.1, 0.9, vertices)) / vertices
        radii = rng.uniform(0.02, 0.6, vertices) * max(width, height)
        centre = rng.uniform(-0.2, 1.2, 2) * (width, height)
        if kind == "off":
            centre += 2 * max(width, height) * rng.choice([-1, 1], 2)
        outline = centre + np.column_stack((radii * np.cos(angles), radii * np.sin(angles)))
    return outline if polygon_is_simple(outline) else None


def assert_word_format(mask, frame):
    """A packed mask holds its window's rows in whole words from its first column's, and no more.

    Its fields are plain ints, its words read-only uint64 stored by
    column, its area their set bits, and its window fits the frame.
    """
    (row, col), cols, (rows, width) = mask.offset, mask.cols, mask.words.shape
    assert all(type(v) is int for v in (row, col, cols, mask.area))
    assert mask.words.dtype == np.uint64 and not mask.words.flags.writeable
    assert mask.words.flags.f_contiguous
    assert row + rows <= frame[0] and col + cols <= frame[1]
    assert width == -(-(col + cols) // 64) - col // 64
    assert mask.area == int(np.bitwise_count(mask.words).sum())


def own_bytes(array):
    """The size of the memory an array keeps alive."""
    while array.base is not None:
        array = array.base
    return array.nbytes


@st.composite
def word_stacks(draw):
    """A canvas, a scale from 1 to 4 and outlines whose windows meet the words in every way.

    Boxes and slanted triangles start at a column that is not a multiple
    of 64, and may end on the frame's right edge; a sliver between two
    pixel centers and a box left of the canvas have empty windows.
    """
    scale = draw(st.integers(1, 4))
    width, height = draw(st.integers(2, 160)), draw(st.integers(1, 12))
    wpx, hpx = width * scale, height * scale
    outlines = []
    for kind in draw(st.lists(st.sampled_from(["box", "edge", "triangle", "sliver", "off"]),
                              min_size=1, max_size=6)):
        row0 = draw(st.integers(0, hpx - 1))
        row1 = draw(st.integers(row0 + 1, hpx))
        col0 = draw(st.integers(0, wpx - 1).filter(lambda col: col % 64))
        col1 = wpx if kind == "edge" else draw(st.integers(col0 + 1, wpx))
        x0, x1, y0, y1 = col0 / scale, col1 / scale, row0 / scale, row1 / scale
        if kind == "triangle":
            outline = [(x0, y0), (x1, (y0 + y1) / 2), (x0 + (x1 - x0) / 3, y1)]
        elif kind == "sliver":  # inside one pixel column, between its center and the next
            outline = [(x0 + 0.6 / scale, y0), (x0 + 0.9 / scale, y0), (x0 + 0.7 / scale, y1)]
        elif kind == "off":
            outline = [(-5.0, y0), (-1.0, y0), (-1.0, y1), (-5.0, y1)]
        else:
            outline = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
        outlines.append(np.array(outline, dtype=float))
    return Canvas(width, height), scale, outlines


class TestFillOutlines:
    """The batched kernel fills a stack of outlines as rasterize fills each alone."""

    @settings(max_examples=80, deadline=None)
    @given(
        stack=st.lists(st.tuples(st.sampled_from(["star", "star", "sliver", "edge", "off"]),
                                 st.integers(3, 24), st.integers(0, 2**32 - 1)),
                       min_size=1, max_size=8),
        size=st.tuples(st.integers(1, 40), st.integers(1, 40)),
        scale=st.integers(1, 8),
    )
    @example(stack=[("off", 5, 0)], size=(10, 10), scale=1)
    @example(stack=[("star", 9, 1), ("off", 5, 2), ("sliver", 3, 3), ("edge", 4, 4)],
             size=(12, 20), scale=3)
    def test_stack_equals_each_outline_alone(self, stack, size, scale):
        canvas = Canvas(*size)
        outlines = [stack_outline(kind, n, seed, *size) for kind, n, seed in stack]
        outlines = [outline for outline in outlines if outline is not None]
        assume(outlines)
        masks = silhouette.fill_outlines(outlines, canvas, scale)
        assert len(masks) == len(outlines)
        for outline, mask in zip(outlines, masks):
            alone = rasterize(outline, canvas, scale)
            assert_word_format(mask, alone.frame)
            assert own_bytes(mask.words) == mask.words.nbytes  # not a view of a batch's buffer
            unpacked = mask.unpacked(scale, alone.frame)
            assert unpacked.bits.shape == alone.bits.shape
            assert np.array_equal(unpacked.bits, alone.bits)
            assert (unpacked.offset, unpacked.frame, unpacked.scale) == \
                (alone.offset, alone.frame, scale)
            assert np.array_equal(pasted(unpacked), reference_fill(outline, canvas, scale))

    @settings(max_examples=80, deadline=None)
    @given(stack=word_stacks())
    # windows from columns 1, 63 and 65 to the right edge of a 150 px frame,
    # where the last word is partly past the frame, and an empty window
    @example(stack=(Canvas(75, 3), 2, [
        np.array([(x / 2, 0.0), (75.0, 0.0), (75.0, 1.5), (x / 2, 1.5)]) for x in (1, 63, 65)
    ] + [np.array([(-5.0, 0.0), (-1.0, 0.0), (-1.0, 3.0)])]))
    def test_words_unpack_to_rasterize_and_count_as_bools(self, stack):
        canvas, scale, outlines = stack
        masks = silhouette.fill_outlines(outlines, canvas, scale)
        alone = [rasterize(outline, canvas, scale) for outline in outlines]
        for mask, bools in zip(masks, alone):
            assert_word_format(mask, bools.frame)
            # the fill's words are np.packbits' of rasterize's window, and unpack to it
            repacked = bools.packed()
            assert_word_format(repacked, bools.frame)
            assert np.array_equal(repacked.words, mask.words)
            assert repacked[1:] == mask[1:]
            unpacked = mask.unpacked(scale, bools.frame)
            assert unpacked.bits.shape == bools.bits.shape
            assert np.array_equal(unpacked.bits, bools.bits)
            assert (unpacked.offset, unpacked.frame, unpacked.scale) == \
                (bools.offset, bools.frame, bools.scale)
        # the packed one-pair count of every ordered pair equals the bool
        # reference; a pair with an empty mask is refused
        for i, j in itertools.product(range(len(masks)), repeat=2):
            if alone[i].area and alone[j].area:
                assert silhouette.packed_pair_counts(masks[i], masks[j]) == \
                    reference_counts(alone[i], alone[j])
            else:
                with pytest.raises(ValueError, match="mask has zero area"):
                    silhouette.packed_pair_counts(masks[i], masks[j])

    def test_masks_own_their_windows(self):
        # a mask the pair engine keeps must not keep the whole batch's buffer alive
        canvas = Canvas(20, 20)
        a, empty, b = silhouette.fill_outlines(
            [np.array(square(2.0, 8.0)), np.array(square(30.0, 40.0)), np.array(square(5.0, 15.0))],
            canvas, 2)
        # 12 and 20 rows of one word: columns 4 to 16, and 10 to 30
        assert a.words.shape == (12, 1) and b.words.shape == (20, 1)
        assert (a.offset, a.cols, b.offset, b.cols) == ((4, 4), 12, (10, 10), 20)
        assert (empty.words.shape, empty.offset, empty.cols, empty.area) == ((0, 0), (0, 0), 0, 0)
        for mask in (a, b):
            assert own_bytes(mask.words) == mask.words.nbytes == 8 * mask.words.size
        assert a.area == 144 and b.area == 400
        for mask in (a, empty, b):
            assert_word_format(mask, (40, 40))  # read-only, among the rest

    def test_no_outlines_give_no_masks(self):
        # the pair engine's case of a canvas whose faces all have their masks
        assert silhouette.fill_outlines([], Canvas(20, 20), 2) == []


class TestMaskOps:
    """alpha_from_masks reads intersection, leftovers and union off window overlaps."""

    def make(self, bits, offset=(0, 0), frame=None):
        return BinaryMask(np.array(bits, dtype=bool), offset=offset, frame=frame)

    def test_subtract_halves(self):
        # full minus its left half leaves half of the full mask
        full = self.make(np.ones((4, 4)))
        left = self.make(np.ones((4, 2)), frame=(4, 4))
        assert alpha_from_masks(full, left, AlphaMode.LITERAL) == 8 / 16
        assert alpha_from_masks(left, full, AlphaMode.LITERAL) == 8 / 16
        assert alpha_from_masks(full, left) == 8 / 16

    def test_self_subtraction_empty(self):
        m = self.make(np.eye(5))
        assert alpha_from_masks(m, m, AlphaMode.LITERAL) == 1.0
        assert alpha_from_masks(m, m, AlphaMode.COMPLEMENT) == 1.0

    def test_disjoint_windows_leave_each_mask_whole(self):
        a = self.make(np.eye(3), offset=(0, 0), frame=(8, 8))
        b = self.make(np.ones((2, 2)), offset=(5, 6), frame=(8, 8))
        assert alpha_from_masks(a, b, AlphaMode.LITERAL) == 1.0
        assert alpha_from_masks(b, a, AlphaMode.LITERAL) == 1.0
        assert alpha_from_masks(a, b, AlphaMode.COMPLEMENT) == 0.0

    def test_partition_identity_random(self):
        # leftover = area - intersection, checked against full-frame set algebra
        rng = np.random.default_rng(99)
        for _ in range(200):
            frame = tuple(int(v) for v in rng.integers(1, 30, size=2))
            masks = []
            for _ in range(2):
                h, w = (int(rng.integers(1, n + 1)) for n in frame)
                offset = (int(rng.integers(0, frame[0] - h + 1)), int(rng.integers(0, frame[1] - w + 1)))
                masks.append(self.make(rng.random((h, w)) < rng.random(), offset, frame))
            a, b = masks
            if a.area == 0 or b.area == 0:
                continue
            fa, fb = pasted(a), pasted(b)
            inter = int(np.count_nonzero(fa & fb))
            union = int(np.count_nonzero(fa | fb))
            left_a = int(np.count_nonzero(fa & ~fb))
            left_b = int(np.count_nonzero(fb & ~fa))
            assert left_a + inter == a.area and union == a.area + b.area - inter
            assert alpha_from_masks(a, b) == inter / union
            literal = left_a / a.area if left_a else (left_b / b.area if left_b else 1.0)
            assert alpha_from_masks(a, b, AlphaMode.LITERAL) == literal

    def test_dimension_mismatch(self):
        a = self.make(np.ones((4, 4)))
        b = self.make(np.ones((4, 5)))
        with pytest.raises(ValueError, match="different canvases"):
            alpha_from_masks(a, b)
        c = BinaryMask(np.ones((4, 4), dtype=bool), scale=2)
        with pytest.raises(ValueError, match="different canvases"):
            alpha_from_masks(a, c)

    @pytest.mark.parametrize("field, value, message", [
        ("offset", (0.7, 0), "mask offset must be an integer >= 0, got 0.7"),
        ("offset", (0, -1), "mask offset must be an integer >= 0, got -1"),
        ("frame", (3.9, 3), "mask frame side must be an integer >= 0, got 3.9"),
        ("frame", (3, True), "mask frame side must be an integer >= 0, got True"),
        ("offset", 5, "mask offset must be a pair of integers, got 5"),
        ("frame", 5, "mask frame must be a pair of integers, got 5"),
        ("frame", (3,), "mask frame must be a pair of integers, got (3,)"),
        ("frame", (3, 3, 3), "mask frame must be a pair of integers, got (3, 3, 3)"),
        ("scale", 0, "mask scale must be an integer >= 1, got 0"),
        ("scale", "x", "mask scale must be an integer >= 1, got 'x'"),
    ])
    def test_window_fields_must_be_integers(self, field, value, message):
        # once silently truncated to offset (0, 0) and frame (3, 3), or kept as
        # given; a field that is not a pair raised TypeError or an unnamed unpack error
        with pytest.raises(ValueError, match=re.escape(message)):
            BinaryMask(np.ones((2, 2), dtype=bool), **{field: value})

    def test_window_must_fit_frame(self):
        with pytest.raises(ValueError, match="does not fit"):
            self.make(np.ones((3, 3)), offset=(2, 0), frame=(4, 4))


@st.composite
def overlap_counts_rows(draw):
    """``(area_a, area_b, intersection)`` of two masks of positive area, their union below 2**53.

    Either area, or both, may equal the intersection (LITERAL mode's three
    branches), and the counts may lie just below 2**53.
    """
    union = draw(st.one_of(st.integers(1, 300), st.integers(2 ** 53 - 300, 2 ** 53 - 1)))
    only_a = 0 if draw(st.booleans()) else draw(st.integers(0, union - 1))
    only_b = 0 if draw(st.booleans()) else draw(st.integers(0, union - only_a - (only_a == 0)))
    inter = union - only_a - only_b
    return inter + only_a, inter + only_b, inter


class TestAlpha:
    def test_concentric_squares(self):
        outer = square_face("a", 5, 15)
        inner = square_face("b", 6, 14)
        assert alpha_of(outer, inner, AlphaMode.COMPLEMENT, 26) == pytest.approx(0.64, abs=0.01)
        assert alpha_of(outer, inner, AlphaMode.LITERAL, 26) == pytest.approx(0.36, abs=0.01)

    def test_identical_outlines(self):
        face = square_face("a", 5, 15)
        assert alpha_of(face, face, AlphaMode.COMPLEMENT) == 1.0
        assert alpha_of(face, face, AlphaMode.LITERAL) == 1.0

    def test_disjoint_squares(self):
        a = square_face("a", 1, 8)
        b = square_face("b", 12, 19)
        assert alpha_of(a, b, AlphaMode.COMPLEMENT) == 0.0
        assert alpha_of(a, b, AlphaMode.LITERAL) == 1.0

    def test_literal_branch_order(self):
        # first mask inside the second: the first leftover is empty, so the
        # second subtraction supplies the score against its own mask's area
        outer = square_face("a", 5, 15)
        inner = square_face("b", 6, 14)
        assert alpha_of(inner, outer, AlphaMode.LITERAL, 1) == pytest.approx(36 / 100)

    def test_literal_is_order_sensitive(self):
        a = square_face("a", 5, 15)       # area 100
        b = square_face("b", 9, 17)       # area 64, partial overlap
        forward = alpha_of(a, b, AlphaMode.LITERAL, 8)
        backward = alpha_of(b, a, AlphaMode.LITERAL, 8)
        assert forward != backward

    def test_complement_is_symmetric(self):
        a = square_face("a", 5, 15)
        b = square_face("b", 9, 17)
        assert alpha_of(a, b) == alpha_of(b, a)

    def test_alpha_in_unit_interval(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            lo1, lo2 = rng.uniform(1, 8, size=2)
            a = square_face("a", lo1, lo1 + rng.uniform(2, 10))
            b = square_face("b", lo2, lo2 + rng.uniform(2, 10))
            for mode in AlphaMode:
                assert 0.0 <= alpha_of(a, b, mode, 8) <= 1.0

    def test_zero_area_mask(self):
        # a sliver that misses every pixel centre at scale 1
        sliver = ((0.1, 0.1), (0.2, 0.1), (0.15, 0.2))
        canvas = Canvas(20, 20)
        other = rasterize(square(5.0, 15.0), canvas, 1)
        with pytest.raises(ValueError, match="zero area"):
            alpha_from_masks(rasterize(sliver, canvas, 1), other)
        face = make_face("a", width=20, height=20, outline=sliver)
        with pytest.raises(ValueError, match="zero area"):
            alpha_of(face, square_face("b", 5, 15), AlphaMode.COMPLEMENT, 1)

    def test_raster_convergence(self):
        a = square_face("a", 5.3, 14.8)
        b = square_face("b", 6.1, 13.6)
        for scale in (8, 16, 32):
            alpha_s = alpha_of(a, b, AlphaMode.COMPLEMENT, scale)
            alpha_2s = alpha_of(a, b, AlphaMode.COMPLEMENT, 2 * scale)
            assert abs(alpha_s - alpha_2s) <= 0.02

    def test_scale_invariance_one_input(self):
        a = square_face("a", 5.3, 14.8)
        b = square_face("b", 6.1, 13.6)
        base = alpha_of(a, b, AlphaMode.COMPLEMENT)
        doubled = alpha_of(a, scaled_face(b, 2), AlphaMode.COMPLEMENT)
        assert abs(base - doubled) <= 0.01

    def test_unknown_mode(self):
        m = BinaryMask(np.ones((3, 3), dtype=bool))
        with pytest.raises(ValueError, match="alpha mode"):
            alpha_from_masks(m, m, "iou")

    @settings(max_examples=80, deadline=None)
    @given(st.lists(overlap_counts_rows(), min_size=1, max_size=20))
    # LITERAL's three branches, disjoint masks, and counts just below 2**53
    @example([(5, 3, 2), (2, 5, 2), (5, 2, 2), (4, 4, 4), (3, 4, 0),
              (2 ** 53 - 2, 2 ** 53 - 3, 2 ** 53 - 4), (2 ** 53 - 1, 1, 1), (1, 2 ** 53 - 1, 1)])
    def test_column_form_keeps_the_scalar_bits(self, rows):
        counts = np.array(rows, dtype=np.int64)
        for mode in AlphaMode:
            alphas = silhouette.alphas_from_counts(counts, mode).tolist()
            assert list(map(repr, alphas)) == [repr(silhouette.alpha_from_counts(*row, mode))
                                               for row in rows]


# a mask window: rows and columns (the columns start at, before or past a
# 64-pixel word's edge, and may span several words), its offset, and a seed
# for its pixels
windows = st.tuples(st.integers(1, 6), st.integers(1, 150),
                    st.integers(0, 10), st.sampled_from([0, 1, 62, 63, 64, 65, 127, 128, 129, 200]),
                    st.integers(0, 2 ** 32 - 1))
FRAME = (20, 360)


def window_mask(rows, cols, row, col, seed):
    """A mask on FRAME with a random window of at least one pixel, or one pixel alone."""
    rng = np.random.default_rng(seed)
    bits = rng.random((rows, cols)) < rng.choice([0.0, 0.3, 1.0])
    bits[rng.integers(rows), rng.integers(cols)] = True
    return BinaryMask(bits, 1, (row, col), FRAME)


def reference_counts(a, b):
    """``(area_a, area_b, intersection)`` of two BinaryMasks, off their full frames: the oracle."""
    full_a, full_b = pasted(a), pasted(b)
    return (int(np.count_nonzero(full_a)), int(np.count_nonzero(full_b)),
            int(np.count_nonzero(full_a & full_b)))


class TestPackedOverlapCounts:
    """packed_pair_counts and packed_overlap_counts equal the bool reference count, pair by pair."""

    @settings(max_examples=60, deadline=None)
    @given(shapes=st.lists(windows, min_size=1, max_size=7), data=st.data(),
           small=st.booleans())
    # one-pixel windows on either side of a word's edge, a window nested in
    # a wider one, and one disjoint from all
    @example(shapes=[(1, 1, 0, 63, 0), (1, 1, 0, 64, 0), (3, 140, 2, 0, 1), (1, 1, 3, 65, 3),
                     (2, 2, 8, 200, 2)], data=None, small=False)
    def test_counts_equal_the_bool_reference(self, shapes, data, small):
        # disjoint, nested and one-pixel windows, empty intersections and self
        # pairs; also with bands of one row and gathers of one pair
        bools = [window_mask(*shape) for shape in shapes]
        masks = [mask.packed() for mask in bools]
        if data is None:  # the explicit example: every ordered pair
            pairs = [(i, j) for i in range(len(masks)) for j in range(len(masks))]
        else:
            index = st.integers(0, len(masks) - 1)
            pairs = data.draw(st.lists(st.tuples(index, index), min_size=1, max_size=40))
        first, second = (np.array(column) for column in zip(*pairs))
        with (mock.patch.object(silhouette, "_BAND_WORDS", 1 if small else silhouette._BAND_WORDS),
              mock.patch.object(silhouette, "_GATHER_WORDS",
                                1 if small else silhouette._GATHER_WORDS)):
            counts = silhouette.packed_overlap_counts(masks, first, second)
        expected = [reference_counts(bools[i], bools[j]) for i, j in pairs]
        assert counts.tolist() == [list(row) for row in expected]
        assert [silhouette.packed_pair_counts(masks[i], masks[j]) for i, j in pairs] == expected
        # the pair engine's alphas of these counts are alpha_from_masks', to the bit
        for mode in AlphaMode:
            alphas = silhouette.alphas_from_counts(counts, mode).tolist()
            assert list(map(repr, alphas)) == [repr(alpha_from_masks(bools[i], bools[j], mode))
                                               for i, j in pairs]

    def test_refuses_an_empty_mask(self):
        # the masks of one memo key share its canvas and scale, so a packed
        # mask holds neither; alpha_from_masks refuses BinaryMasks on two
        # canvases (TestMaskOps)
        full = BinaryMask(np.ones((2, 2), dtype=bool), 1, (0, 0), (4, 4)).packed()
        empty = BinaryMask(np.zeros((0, 0), dtype=bool), 1, (0, 0), (4, 4)).packed()
        for count in (silhouette.packed_pair_counts,
                      lambda a, b: silhouette.packed_overlap_counts([a, b], [0], [1])):
            with pytest.raises(ValueError, match="mask has zero area"):
                count(full, empty)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=20))
    @example([0, 2 ** 64 - 1, 1, 2 ** 63])
    def test_popcounts_count_set_bits(self, values):
        # the packed count's popcount, np.bitwise_count, summed along a row
        words = np.array(values, dtype=np.uint64)
        expected = [bin(value).count("1") for value in values]
        assert np.bitwise_count(words).tolist() == expected
        row = np.bitwise_count(words[None, :]).sum(axis=1, dtype=np.int64)
        assert row.tolist() == [sum(expected)]
