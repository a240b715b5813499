"""Canvas normalization, outline rasterization, and the overlap term.

Two faces are first brought onto a shared canvas (the componentwise max
of their image sizes, each input stretched per axis). Outlines are then
filled into binary masks by even-odd counting at pixel centers, and the
overlap score is read off the masks. A mask stores only the window of
rows and columns its outline spans, plus that window's offset; every
pixel outside the window is outside the outline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .features import FaceInput, _CheckedOutline
from .geometry import polygon_is_simple

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
        for label, value in (("canvas width", self.width), ("canvas height", self.height)):
            if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
                raise ValueError(f"{label} must be a positive integer, got {value!r}")


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
        frame = bits.shape if self.frame is None else tuple(self.frame)
        row, col = self.offset
        if not (0 <= row and 0 <= col and row + bits.shape[0] <= frame[0]
                and col + bits.shape[1] <= frame[1]):
            raise ValueError(
                f"mask window {bits.shape} at {self.offset} does not fit the frame {frame}"
            )
        bits.setflags(write=False)
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "offset", (int(row), int(col)))
        object.__setattr__(self, "frame", (int(frame[0]), int(frame[1])))

    @property
    def width(self) -> int:
        return self.frame[1]

    @property
    def height(self) -> int:
        return self.frame[0]

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
    points = np.array([*face.landmarks.values(), *face.outline]) * (sx, sy)
    # Clamp away float dust so edge coordinates stay inside the canvas.
    # where() gives exactly what min(max(v, 0.0), size) gives per point,
    # signed zeros included; np.maximum may return 0.0 for -0.0.
    size = np.array([width, height], dtype=float)
    points = np.where(points < 0.0, 0.0, points)
    points = np.where(points > size, size, points).tolist()
    count = len(face.landmarks)
    return FaceInput(
        id=face.id,
        image_width=width,
        image_height=height,
        landmarks=dict(zip(face.landmarks, points[:count])),
        outline=points[count:],
    )


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
    A full mask of more than MAX_RASTER_PIXELS pixels is refused.
    The self-intersection test is skipped only for a FaceInput's own
    outline, which passed it when the face was built. Deterministic for
    fixed input.
    """
    if resolution_scale is None:
        scale = default_resolution_scale(canvas)
    else:
        if not isinstance(resolution_scale, int) or isinstance(resolution_scale, bool) \
                or resolution_scale < 1:
            raise ValueError(f"resolution_scale must be a positive integer, got {resolution_scale!r}")
        scale = resolution_scale
    wpx = canvas.width * scale
    hpx = canvas.height * scale
    if wpx * hpx > MAX_RASTER_PIXELS:
        raise ValueError(f"raster frame {wpx} x {hpx} (the canvas at scale {scale}) exceeds "
                         f"{MAX_RASTER_PIXELS} pixels")

    pts = np.asarray(outline, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
        raise ValueError("outline needs at least 3 vertices")
    if not np.all(np.isfinite(pts)):
        raise ValueError("outline has non-finite coordinates")
    if type(outline) is not _CheckedOutline and not polygon_is_simple(pts):
        raise ValueError("outline is self-intersecting")

    # edge i runs from vertex i to vertex i + 1, the last one back to vertex 0
    ends = np.concatenate((pts[1:], pts[:1]))
    x1, y1 = pts[:, 0], pts[:, 1]
    x2, y2 = ends[:, 0], ends[:, 1]

    # Rows whose centers can fall in [min y, max y), padded by one so the
    # float edges of this estimate never drop a row the test below keeps.
    first = min(max(math.floor(y1.min() * scale - 0.5), 0), hpx)
    last = min(max(math.ceil(y1.max() * scale - 0.5) + 1, first), hpx)

    # row centers in canvas units; an edge crosses a row iff min_y <= yc < max_y
    # (half-open, so a vertex shared by two edges is counted exactly once).
    # yc ascends, so each edge crosses one run of rows, [lo, hi): the same
    # comparisons, made by binary search.
    yc = (np.arange(first, last, dtype=float) + 0.5) / scale
    lo = np.searchsorted(yc, np.minimum(y1, y2))
    counts = np.searchsorted(yc, np.maximum(y1, y2)) - lo
    edge_idx = np.repeat(np.arange(len(pts)), counts)
    # crossing k of edge e is on row lo[e] + (k - number of crossings before e)
    row_idx = np.arange(edge_idx.size) - np.repeat(np.cumsum(counts) - counts - lo, counts)
    frame = (hpx, wpx)
    if row_idx.size == 0:
        return BinaryMask(np.zeros((0, 0), dtype=bool), scale, (0, 0), frame)
    # a crossing edge has ylo < yhi, so the division is safe
    x1e, y1e = x1[edge_idx], y1[edge_idx]
    t = (yc[row_idx] - y1e) / (y2[edge_idx] - y1e)
    xs = x1e + t * (x2[edge_idx] - x1e)
    # first pixel whose center lies at or right of the crossing
    col = np.ceil(xs * scale - 0.5).astype(np.int64)
    np.minimum(np.maximum(col, 0, out=col), wpx, out=col)  # np.clip, without its wrapper's cost

    # Every row has an even number of crossings, so pixels left of the
    # first crossing column or at or right of the last are outside.
    row0, row1 = int(row_idx.min()), int(row_idx.max()) + 1
    col0, col1 = int(col.min()), int(col.max())

    # Inside/outside flips at each crossing, so the flattened window is
    # runs of False and True between the sorted crossing positions. A
    # crossing at column col1 lands on the next row's first pixel, which
    # is where the run it ends would stop anyway, since a row's crossing
    # count is even; two crossings at one position make an empty run.
    rows, cols = row1 - row0, col1 - col0
    flips = np.sort((row_idx - row0) * cols + (col - col0))
    stops = np.concatenate(([0], flips, [rows * cols]))
    inside = np.zeros(stops.size - 1, dtype=bool)
    inside[1::2] = True
    bits = inside.repeat(stops[1:] - stops[:-1]).reshape(rows, cols)
    return BinaryMask(bits, scale, (first + row0, col0), frame)


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
