"""The raster layer: canvas, masks, outline fill, and the overlap term.

It knows outlines and canvases, not faces: the pair engine (scoring)
puts two faces on their shared canvas. Outlines are filled into binary
masks by even-odd counting at pixel centers, and the overlap score is
read off the masks' areas and intersection: one pair's by
overlap_counts, many pairs' on one canvas by packed_overlap_counts.
The alpha rule has two forms, as each membership kernel has:
alpha_from_counts for one pair's counts, the reference, and
alphas_from_counts for a column of them, with the same bits. A
mask stores only the window of rows and columns its outline spans, plus
that window's offset; every pixel outside the window is outside the
outline. One kernel, fill_outlines, fills any number of checked
outlines on one canvas in a single set of numpy passes, up to one
np.repeat per window; rasterize checks one outline and calls it, and
the pair engine calls it once per canvas with the faces that have no
mask there yet.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import accumulate

import numpy as np

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
    """Shared frame of a pair, width x height pixels; see scoring.normalize_pair."""

    width: int
    height: int

    def __post_init__(self) -> None:
        width = whole_number("canvas width", self.width, 1)
        height = whole_number("canvas height", self.height, 1)
        if width is not self.width or height is not self.height:  # numpy ints, kept as ints
            vars(self).update(width=width, height=height)


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
        scale = whole_number("mask scale", self.scale, 1)
        frame = bits.shape if self.frame is None else self.frame
        rows, cols = _pair("mask frame", frame)
        rows = whole_number("mask frame side", rows, 0)
        cols = whole_number("mask frame side", cols, 0)
        row, col = _pair("mask offset", self.offset)
        row = whole_number("mask offset", row, 0)
        col = whole_number("mask offset", col, 0)
        if row + bits.shape[0] > rows or col + bits.shape[1] > cols:
            raise ValueError(
                f"mask window {bits.shape} at {self.offset} does not fit the frame {frame}"
            )
        bits.setflags(write=False)
        vars(self).update(bits=bits, scale=scale, offset=(row, col), frame=(rows, cols))

    @cached_property
    def area(self) -> int:
        return int(np.count_nonzero(self.bits))


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
    is an outline that is not simple or whose coordinates or spans, times
    the scale, overflow a float. Every outline, a face's too, is
    converted and checked; the pair engine fills a face's stored vertex
    array with fill_outlines. Deterministic for fixed input.
    """
    if resolution_scale is None:
        scale = default_resolution_scale(canvas)
    else:
        scale = whole_number("resolution_scale", resolution_scale, 1)
    check_raster_frame(canvas, scale)

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
    numpy pass (the row search, the crossings and the sort of the flip
    positions) runs once for all of them. The run-length fill then
    writes each window into its own read-only array, so a mask that is
    kept keeps only its own window. No outlines give no masks.
    """
    if not outlines:
        return []
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
    windows = [None] * len(outlines)  # (its runs' first and end index, rows, columns, offset)
    widths, shifts, window_starts, size = [], [], [], 0
    for w, (i, col0, col1) in enumerate(zip(filled, col0s, col1s)):
        rows, cols = row1s[i] - row0s[i], col1 - col0
        windows[i] = (firsts[i] + 2 * w, firsts[i + 1] + 2 * w + 1, rows, cols,
                      (first + row0s[i], col0))
        widths.append(cols)
        shifts.append(size - row0s[i] * cols - col0)
        window_starts.append(size)
        size += rows * cols

    # Inside/outside flips at each crossing, so each flattened window is
    # runs of False and True between its sorted crossing positions, and
    # the windows lie end to end in one run of positions. A crossing at an
    # outline's last column lands on its next row's first pixel, or the
    # next window's, which is where the run it ends would stop anyway,
    # since a row's crossing count is even; two crossings at one position
    # make an empty run. stops holds 0, the flips, each later window's
    # first position twice (an empty run, so that a window's runs start
    # at a stop of their own) and the end. A window's crossing count is
    # even, so every window's runs start at an even index, with a False
    # run: window w of the filled ones, from crossing firsts[i] on, has
    # its runs from index firsts[i] + 2 * w, one more than its crossings.
    width, shift = np.array([widths, shifts]).repeat(
        [firsts[i + 1] - firsts[i] for i in filled], axis=1)
    stops = np.empty(len(col) + 2 * len(filled), dtype=np.int64)
    stops[0], stops[-1] = 0, size
    flips = stops[1:len(col) + 1]
    np.multiply(row_idx, width, out=flips)
    flips += col
    flips += shift
    stops[len(col) + 1:-1] = np.repeat(window_starts[1:], 2)
    stops[1:-1].sort()
    runs = stops[1:] - stops[:-1]
    inside = np.zeros(runs.size, dtype=bool)
    inside[1::2] = True

    # Each window is filled into its own array, by one np.repeat of its
    # runs, so a mask that is kept keeps only its own window.
    masks = []
    for window in windows:
        if window is None:
            masks.append(_empty_mask(scale, frame))
        else:
            run0, run1, rows, cols, offset = window
            bits = inside[run0:run1].repeat(runs[run0:run1]).reshape(rows, cols)
            bits.setflags(write=False)
            masks.append(_window_mask(bits, scale, offset, frame))
    return masks


def _window_mask(bits: np.ndarray, scale: int, offset: tuple[int, int],
                 frame: tuple[int, int]) -> BinaryMask:
    """The BinaryMask of fields that fit by construction, built without its checks.

    ``bits`` is a read-only 2D bool window that fits ``frame`` at
    ``offset``, and the scale, offset and frame are plain ints, as
    BinaryMask.__post_init__ would store them.
    """
    mask = object.__new__(BinaryMask)
    vars(mask).update(bits=bits, scale=scale, offset=offset, frame=frame)
    return mask


def _empty_mask(scale: int, frame: tuple[int, int]) -> BinaryMask:
    """The mask of an outline that covers no pixel center: an empty window."""
    return BinaryMask(np.zeros((0, 0), dtype=bool), scale, (0, 0), frame)


def _different_canvases(a: BinaryMask, b: BinaryMask) -> ValueError:
    return ValueError(f"masks are on different canvases: {a.frame} at scale {a.scale} "
                      f"vs {b.frame} at scale {b.scale}")


_ZERO_AREA = "mask has zero area; outline did not cover any pixel center"


def overlap_counts(a: BinaryMask, b: BinaryMask) -> tuple[int, int, int]:
    """``(area_a, area_b, intersection)`` of two masks on one canvas and scale, in pixels.

    Only the overlap of the two windows is counted. Masks on different
    frames or scales, and an empty mask, are refused: they have no
    overlap score.
    """
    if a.frame != b.frame or a.scale != b.scale:
        raise _different_canvases(a, b)
    area_a = a.area
    area_b = b.area
    if area_a == 0 or area_b == 0:
        raise ValueError(_ZERO_AREA)
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
    return area_a, area_b, inter


_WORD = 64  # pixels packed into one uint64
# the bytes of a band of the union as bools, and the words one gather
# takes: with the band's packed words, the two gathers and the popcount,
# the count's temporaries stay under 1 MiB together
_BAND_BYTES = 2 ** 18
_GATHER_WORDS = 2 ** 14


def packed_overlap_counts(masks: Sequence[BinaryMask], first, second) -> np.ndarray:
    """overlap_counts of ``masks[first[p]]`` and ``masks[second[p]]`` for each p: an (n, 3) array.

    The masks, one or more, share one canvas and scale. Each is pasted
    onto the union of their windows, with its columns padded to 64-pixel
    words aligned to the frame, and packed into uint64 words; a pair's
    intersection is the set bits of the AND of its two masks' words,
    counted for many pairs at once. The counts are exact integers, equal
    to overlap_counts'. The union is taken in bands of rows, at least
    one, so that the temporaries stay under 1 MiB whatever the canvas.
    """
    for mask in masks:
        if mask.frame != masks[0].frame or mask.scale != masks[0].scale:
            raise _different_canvases(masks[0], mask)
    areas = np.array([mask.area for mask in masks], dtype=np.int64)
    if not areas.all():
        raise ValueError(_ZERO_AREA)
    first, second = np.asarray(first, dtype=np.intp), np.asarray(second, dtype=np.intp)
    # the union's rows, and its columns from col0 on in whole words
    row0 = min(mask.offset[0] for mask in masks)
    row1 = max(mask.offset[0] + mask.bits.shape[0] for mask in masks)
    col0 = min(mask.offset[1] for mask in masks) // _WORD * _WORD
    words = -(-max(mask.offset[1] + mask.bits.shape[1] for mask in masks) // _WORD) - col0 // _WORD
    band = min(row1 - row0, max(1, _BAND_BYTES // (len(masks) * words * _WORD)))
    chunk = max(1, _GATHER_WORDS // (band * words))  # pairs per gather
    pasted = np.empty(len(masks) * band * words * _WORD, dtype=bool)
    inter = np.zeros(len(first), dtype=np.int64)
    for top in range(row0, row1, band):
        height = min(band, row1 - top)
        union = pasted[:len(masks) * height * words * _WORD].reshape(len(masks), height, -1)
        union[...] = False
        for m, mask in enumerate(masks):
            (row, col), (rows, cols) = mask.offset, mask.bits.shape
            lo, hi = max(row, top), min(row + rows, top + height)
            if lo < hi:
                union[m, lo - top:hi - top, col - col0:col - col0 + cols] = \
                    mask.bits[lo - row:hi - row]
        # each row is whole words, so the flat packing keeps them apart
        span = height * words  # words of each mask in the band
        packed = np.packbits(union, bitorder="little").view(np.uint64).reshape(len(masks), span)
        for p0 in range(0, len(first), chunk):
            both = packed[first[p0:p0 + chunk]]
            both &= packed[second[p0:p0 + chunk]]
            inter[p0:p0 + chunk] += np.bitwise_count(both).sum(axis=1, dtype=np.int64)
    return np.column_stack((areas[first], areas[second], inter))


def alpha_from_counts(area_a: int, area_b: int, inter: int,
                      mode: AlphaMode = AlphaMode.COMPLEMENT) -> float:
    """Overlap score, in [0, 1], of two masks of these positive areas and intersection.

    The leftovers of LITERAL mode are each area minus the intersection.
    """
    if mode is AlphaMode.LITERAL:
        if area_a != inter:
            return (area_a - inter) / area_a
        if area_b != inter:
            return (area_b - inter) / area_b
        return 1.0
    if mode is AlphaMode.COMPLEMENT:
        return inter / (area_a + area_b - inter)
    raise ValueError(f"unknown alpha mode {mode!r}")


def alphas_from_counts(counts: np.ndarray, mode: AlphaMode = AlphaMode.COMPLEMENT) -> np.ndarray:
    """alpha_from_counts of each (area_a, area_b, intersection) row of an int array, bit for bit.

    The same divisions of the same ints: every count is below 2**53, so
    each converts to a float exactly, and a quotient of two such floats
    is the correctly rounded one of the ints, as Python's int division
    gives it. The areas are positive, so no branch divides by zero.
    """
    area_a, area_b, inter = counts.T
    if mode is AlphaMode.LITERAL:
        return np.where(area_a != inter, (area_a - inter) / area_a,
                        np.where(area_b != inter, (area_b - inter) / area_b, 1.0))
    return inter / (area_a + area_b - inter)


def alpha_from_masks(a: BinaryMask, b: BinaryMask, mode: AlphaMode = AlphaMode.COMPLEMENT) -> float:
    """Overlap score of two masks on one canvas and scale, in [0, 1], from their overlap_counts."""
    return alpha_from_counts(*overlap_counts(a, b), mode)
