"""Canvas normalization, outline rasterization, and the overlap term.

Two faces are first brought onto a shared canvas (the componentwise max
of their image sizes, each input stretched per axis). Outlines are then
filled into binary masks by even-odd counting at pixel centers, and the
overlap score is read off the masks. A mask stores only the window of
rows and columns its outline spans, plus that window's offset; every
pixel outside the window is outside the outline. One kernel,
fill_outlines, fills any number of checked outlines on one canvas in a
single set of numpy passes, their windows slices of one flat buffer;
rasterize checks one outline and calls it, and the pair engine calls it
once per canvas with the faces it prepares there.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import accumulate

import numpy as np

from .features import FaceInput, _CheckedOutline
from .geometry import polygon_is_simple, whole_number

# the default raster keeps the longer canvas side at least this many pixels
RASTER_TARGET = 512

# most pixels a full mask (canvas times scale, squared) may have
MAX_RASTER_PIXELS = 2 ** 26


class AlphaMode(str, Enum):
    """How the overlap score is read from the two masks.

    LITERAL walks the subtraction branches: the first non-empty leftover
    divided by its own mask's area, and 1.0 when both leftovers are
    empty. It grows with mismatch except at exact identity, and it is
    order-sensitive. COMPLEMENT is intersection over union: symmetric,
    1.0 only for identical masks, 0.0 for disjoint ones.
    """

    LITERAL = "literal"
    COMPLEMENT = "complement"


@dataclass(frozen=True)
class Canvas:
    """Shared frame of a pair, width x height pixels; see pair_canvas."""

    width: int
    height: int

    def __post_init__(self) -> None:
        whole_number("canvas width", self.width, 1)
        whole_number("canvas height", self.height, 1)


def _pair(label: str, value) -> tuple:
    """``value`` unpacked into its two items; an error names ``label`` if it has not two."""
    try:
        first, second = value
    except (TypeError, ValueError):
        raise ValueError(f"{label} must be a pair of integers, got {value!r}") from None
    return first, second


@dataclass(frozen=True, eq=False)
class BinaryMask:
    """Boolean raster of one outline, cropped to the window it spans.

    ``bits[r, c]`` is pixel ``(offset[0] + r, offset[1] + c)`` of the full
    mask, which is ``frame`` = (rows, columns) pixels: the canvas times
    ``scale``. Every full-mask pixel outside the window is False. The
    window may be empty when the outline covers no pixel center.
    ``frame`` defaults to the window's own shape.
    """

    bits: np.ndarray
    scale: int = 1
    offset: tuple[int, int] = (0, 0)
    frame: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        bits = np.asarray(self.bits, dtype=bool)
        if bits.ndim != 2:
            raise ValueError(f"mask bits must be a 2D array, got shape {bits.shape}")
        whole_number("mask scale", self.scale, 1)
        frame = bits.shape if self.frame is None else self.frame
        rows, cols = _pair("mask frame", frame)
        whole_number("mask frame side", rows, 0)
        whole_number("mask frame side", cols, 0)
        row, col = _pair("mask offset", self.offset)
        whole_number("mask offset", row, 0)
        whole_number("mask offset", col, 0)
        if row + bits.shape[0] > rows or col + bits.shape[1] > cols:
            raise ValueError(
                f"mask window {bits.shape} at {self.offset} does not fit the frame {frame}"
            )
        bits.setflags(write=False)
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "offset", (row, col))
        object.__setattr__(self, "frame", (rows, cols))

    @cached_property
    def area(self) -> int:
        return int(np.count_nonzero(self.bits))


def pair_canvas(face_a: FaceInput, face_b: FaceInput) -> Canvas:
    """The canvas two faces share: the componentwise max of their sizes."""
    width = max(face_a.image_width, face_b.image_width)
    height = max(face_a.image_height, face_b.image_height)
    return Canvas(width, height)


def rescale_face(face: FaceInput, width: int, height: int) -> FaceInput:
    """The face stretched per axis onto a width x height canvas.

    The face itself when the canvas is its own size: every factor is
    1.0 and the clamp cannot move a point of a valid face. Any other
    size builds a new FaceInput, which checks the result in full.
    """
    if (width, height) == (face.image_width, face.image_height):
        return face
    sx = width / face.image_width
    sy = height / face.image_height
    points = np.concatenate((np.array([*face.landmarks.values()]), face.outline.array)) * (sx, sy)
    # Clamp away float dust so edge coordinates stay inside the canvas.
    # where() gives exactly what min(max(v, 0.0), size) gives per point,
    # signed zeros included; np.maximum may return 0.0 for -0.0.
    size = np.array([width, height], dtype=float)
    points = np.where(points < 0.0, 0.0, points)
    points = np.where(points > size, size, points).tolist()
    count = len(face.landmarks)
    try:
        return FaceInput(
            id=face.id,
            image_width=width,
            image_height=height,
            landmarks=dict(zip(face.landmarks, points[:count])),
            outline=points[count:],
        )
    except ValueError as exc:  # say which face, and onto what; the stretch can round
        # a vertex onto a non-adjacent edge, and refusing it keeps every score exact
        raise ValueError(f"face '{face.id}' stretched onto {width} x {height}: {exc}") from None


def normalize_pair(face_a: FaceInput, face_b: FaceInput) -> tuple[Canvas, FaceInput, FaceInput]:
    """Bring two faces onto one canvas sized to the larger input.

    Each input's landmarks and outline are multiplied per axis by
    canvas_size / its_size, so a smaller capture is stretched up while
    the larger one is untouched. No further alignment is applied: the
    shared canvas coordinates are the common frame.
    """
    canvas = pair_canvas(face_a, face_b)
    norm_a = rescale_face(face_a, canvas.width, canvas.height)
    norm_b = rescale_face(face_b, canvas.width, canvas.height)
    return canvas, norm_a, norm_b


def default_resolution_scale(canvas: Canvas) -> int:
    """Smallest integer upscale that puts the longer canvas side at RASTER_TARGET."""
    return max(1, math.ceil(RASTER_TARGET / max(canvas.width, canvas.height)))


def rasterize(
    outline, canvas: Canvas, resolution_scale: int | None = None
) -> BinaryMask:
    """Fill an outline into a binary mask over the canvas.

    A pixel is inside iff its center is inside the polygon under the
    even-odd rule; ``resolution_scale`` multiplies the canvas resolution
    (the full mask is width*s by height*s pixels). Only the rows and
    columns the outline spans are filled and stored; see BinaryMask.
    A full mask of more than MAX_RASTER_PIXELS pixels is refused, and so
    is an outline whose coordinates or spans, times the scale, overflow
    a float. The vertex checks, that bound and the self-intersection
    test are skipped only for a FaceInput's own outline, which passed
    them when the face was built (its points lie inside an image of at
    most MAX_IMAGE_SIDE pixels a side); its stored vertex array is
    filled as it is. Deterministic for fixed input.
    """
    if resolution_scale is None:
        scale = default_resolution_scale(canvas)
    else:
        scale = whole_number("resolution_scale", resolution_scale, 1)
    check_raster_frame(canvas, scale)

    if type(outline) is _CheckedOutline:
        pts = outline.array  # checked and converted when its FaceInput was built
    else:
        pts = np.asarray(outline, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
            raise ValueError("outline needs at least 3 vertices")
        if not np.isfinite(pts).all():
            raise ValueError("outline has non-finite coordinates")
        # Python floats overflow to inf without a warning; bounding the
        # largest coordinate and the widest span bounds every product below
        (x0, y0), (x1, y1) = pts.min(axis=0).tolist(), pts.max(axis=0).tolist()
        if not math.isfinite(max(x1 - x0, y1 - y0, x1, y1, -x0, -y0) * scale):
            raise ValueError(f"outline coordinates overflow a float at raster scale {scale}")
        if not polygon_is_simple(pts):
            raise ValueError("outline is self-intersecting")

    return fill_outlines([pts], canvas, scale)[0]


def check_raster_frame(canvas: Canvas, scale: int) -> None:
    """Refuse a full mask (the canvas times ``scale``, squared) of more than MAX_RASTER_PIXELS."""
    wpx = canvas.width * scale
    hpx = canvas.height * scale
    if wpx * hpx > MAX_RASTER_PIXELS:
        raise ValueError(f"raster frame {wpx} x {hpx} (the canvas at scale {scale}) exceeds "
                         f"{MAX_RASTER_PIXELS} pixels")


def fill_outlines(outlines: Sequence[np.ndarray], canvas: Canvas, scale: int) -> list[BinaryMask]:
    """The masks of one or more outlines on one canvas and scale, filled together.

    Each outline is a float64 (n, 2) vertex array that passed
    rasterize's checks at this scale, and the frame passed
    check_raster_frame; mask i equals ``rasterize(outlines[i], canvas,
    scale)`` bit for bit. The outlines are stacked end to end, so each
    numpy pass (the row search, the crossings, the sort of the flip
    positions and the run-length fill) runs once for all of them, and
    the masks' windows are slices of one flat buffer.
    """
    wpx = canvas.width * scale
    hpx = canvas.height * scale
    frame = (hpx, wpx)
    # Each outline closed (its vertex n is its vertex 0 again), stacked from
    # vertex starts[i] on: edge e runs from vertex e to vertex e + 1. The edge
    # from one outline's last vertex to the next one's first is a bridge,
    # which is given no crossings.
    starts = [0, *accumulate(len(pts) + 1 for pts in outlines[:-1])]
    closed = np.concatenate([part for pts in outlines for part in (pts, pts[:1])])
    x, y = closed[:, 0], closed[:, 1]
    x1, y1, x2, y2 = x[:-1], y[:-1], x[1:], y[1:]

    # Rows whose centers can fall in [min y, max y), padded by one so the
    # float edges of this estimate never drop a row the test below keeps.
    # Each outline's own estimate is a slice of these rows, and searching
    # the slice finds the same rows as searching them all.
    first = min(max(math.floor(np.minimum.reduce(y) * scale - 0.5), 0), hpx)
    last = min(max(math.ceil(np.maximum.reduce(y) * scale - 0.5) + 1, first), hpx)

    # row centers in canvas units; an edge crosses a row iff min_y <= yc < max_y
    # (half-open, so a vertex shared by two edges is counted exactly once).
    # yc ascends, so each edge crosses one run of rows, [lo, hi): the same
    # comparisons, made by one binary search per vertex. The search is
    # monotone, so an edge's lo and hi are the min and max of its ends'.
    yc = (np.arange(first, last, dtype=float) + 0.5) / scale
    at = yc.searchsorted(y)
    lo = np.minimum(at[:-1], at[1:])
    counts = np.maximum(at[:-1], at[1:]) - lo
    for start in starts[1:]:
        counts[start - 1] = 0  # a bridge
    # An outline is closed, so every row from its lowest vertex's to its
    # highest's is crossed: its crossed rows are [min(at), max(at)).
    row0s = np.minimum.reduceat(at, starts).tolist()
    row1s = np.maximum.reduceat(at, starts).tolist()
    if row0s == row1s:  # no outline crosses a row
        return [_empty_mask(scale, frame) for _ in outlines]
    before = counts.cumsum() - counts  # crossings of the edges before edge e
    # crossing k of edge e is on row lo[e] + (k - before[e])
    x1e, y1e = x1.repeat(counts), y1.repeat(counts)
    row_idx = np.arange(len(x1e)) - (before - lo).repeat(counts)
    # The crossing's x: yc - y1 over the edge's y step (nonzero, since the
    # edge crosses a row), times its x step, plus x1; in place, with the
    # rounding of x1 + t * (x2 - x1).
    col = yc[row_idx]
    col -= y1e
    col /= (y2 - y1).repeat(counts)
    col *= (x2 - x1).repeat(counts)
    col += x1e
    # first pixel whose center lies at or right of the crossing, clamped to
    # [0, wpx] as a float before the cast, which past 2**63 would wrap
    col *= scale
    col -= 0.5
    np.minimum(np.maximum(col, 0.0, out=col), wpx, out=col)  # np.clip, without its wrapper's cost
    col = np.ceil(col, out=col).astype(np.int64)

    # An outline's crossings are one run of them, from firsts[i]. Every row
    # has an even number of crossings, so pixels left of an outline's first
    # crossing column or at or right of its last are outside: its window
    # is its crossed rows by those columns. An outline that crosses no row
    # gets an empty window.
    firsts = [*before[starts].tolist(), len(col)]
    filled = [i for i in range(len(outlines)) if firsts[i] < firsts[i + 1]]
    col0s = np.minimum.reduceat(col, [firsts[i] for i in filled]).tolist()
    col1s = np.maximum.reduceat(col, [firsts[i] for i in filled]).tolist()
    windows = [None] * len(outlines)  # (start in the buffer, rows, columns, offset)
    widths, shifts, size = [], [], 0
    for i, col0, col1 in zip(filled, col0s, col1s):
        rows, cols = row1s[i] - row0s[i], col1 - col0
        windows[i] = size, rows, cols, (first + row0s[i], col0)
        widths.append(cols)
        shifts.append(size - row0s[i] * cols - col0)
        size += rows * cols

    # Inside/outside flips at each crossing, so each flattened window is
    # runs of False and True between its sorted crossing positions, and
    # the windows lie end to end in the buffer. A crossing at an outline's
    # last column lands on its next row's first pixel, or the next
    # window's, which is where the run it ends would stop anyway, since a
    # row's crossing count is even; two crossings at one position make an
    # empty run. stops holds 0, the flips and the buffer's size.
    width, shift = np.array([widths, shifts]).repeat(
        [firsts[i + 1] - firsts[i] for i in filled], axis=1)
    stops = np.empty(len(col) + 2, dtype=np.int64)
    stops[0], stops[-1] = 0, size
    flips = stops[1:-1]
    np.multiply(row_idx, width, out=flips)
    flips += col
    flips += shift
    flips.sort()
    inside = np.zeros(stops.size - 1, dtype=bool)
    inside[1::2] = True
    bits = inside.repeat(stops[1:] - stops[:-1])

    masks = []
    for window in windows:
        if window is None:
            masks.append(_empty_mask(scale, frame))
        else:
            start, rows, cols, offset = window
            masks.append(BinaryMask(bits[start:start + rows * cols].reshape(rows, cols), scale,
                                    offset, frame))
    return masks


def _empty_mask(scale: int, frame: tuple[int, int]) -> BinaryMask:
    """The mask of an outline that covers no pixel center: an empty window."""
    return BinaryMask(np.zeros((0, 0), dtype=bool), scale, (0, 0), frame)


def alpha_from_masks(a: BinaryMask, b: BinaryMask, mode: AlphaMode = AlphaMode.COMPLEMENT) -> float:
    """Overlap score of two masks on one canvas and scale, in [0, 1].

    Only the overlap of the two windows is counted: the leftovers of
    LITERAL mode are each area minus the intersection.
    """
    if a.frame != b.frame or a.scale != b.scale:
        raise ValueError(
            f"masks are on different canvases: {a.frame} at scale {a.scale} "
            f"vs {b.frame} at scale {b.scale}"
        )
    area_a = a.area
    area_b = b.area
    if area_a == 0 or area_b == 0:
        raise ValueError("mask has zero area; outline did not cover any pixel center")
    (ra, ca), (rb, cb) = a.offset, b.offset
    row0, col0 = max(ra, rb), max(ca, cb)
    row1 = min(ra + a.bits.shape[0], rb + b.bits.shape[0])
    col1 = min(ca + a.bits.shape[1], cb + b.bits.shape[1])
    inter = 0
    if row0 < row1 and col0 < col1:
        inter = int(np.count_nonzero(
            a.bits[row0 - ra:row1 - ra, col0 - ca:col1 - ca]
            & b.bits[row0 - rb:row1 - rb, col0 - cb:col1 - cb]
        ))
    if mode is AlphaMode.LITERAL:
        if area_a != inter:
            return (area_a - inter) / area_a
        if area_b != inter:
            return (area_b - inter) / area_b
        return 1.0
    if mode is AlphaMode.COMPLEMENT:
        return inter / (area_a + area_b - inter)
    raise ValueError(f"unknown alpha mode {mode!r}")
