"""The raster layer: canvas, masks, outline fill, and the overlap term.

It knows outlines and canvases, not faces: the pair engine (scoring)
puts two faces on their shared canvas. Outlines are filled into binary
masks by even-odd counting at pixel centers. A mask stores only the
window of rows and columns its outline spans, plus its offset. One
kernel, fill_outlines, fills any number of checked outlines on one
canvas in one set of numpy passes, into PackedMasks: each window's rows
in 64-pixel words aligned to the frame, and its area. The pair engine
keeps those; rasterize checks one outline, fills it and unpacks it into
the public BinaryMask. The overlap score is read off two masks' areas
and the set bits of the AND of their words: packed_pair_counts for one
pair (alpha_from_masks packs two BinaryMasks for it), and
packed_overlap_counts for many pairs on one canvas. The alpha rule has
two forms, as each membership kernel has: alpha_from_counts for one
pair's counts, the reference, and alphas_from_counts for a column of
them, with the same bits.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple

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
        # numpy ints kept as ints; vars(self) would slow every later read (CPython 3.11)
        object.__setattr__(self, "width", whole_number("canvas width", self.width, 1))
        object.__setattr__(self, "height", whole_number("canvas height", self.height, 1))


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

    def packed(self) -> PackedMask:
        """The same mask as a PackedMask, its words laid out as fill_outlines lays them."""
        cols, lead = self.bits.shape[1], self.offset[1] % _WORD
        padded = np.pad(self.bits, ((0, 0), (lead, -(lead + cols) % _WORD)))  # whole words
        words = np.packbits(padded, axis=1, bitorder="little").view("<u8").astype(np.uint64,
                                                                                   order="F")
        words.setflags(write=False)
        return PackedMask(words, self.offset, cols, self.area)


_WORD = 64  # pixels packed into one uint64


class PackedMask(NamedTuple):
    """One outline's mask in the pair engine's memo: its window's rows in 64-pixel words.

    The window, ``cols`` wide at ``offset``, is BinaryMask's. Row r of
    ``words`` is mask row ``offset[0] + r``; its word w holds the pixels
    from column ``64 * (offset[1] // 64 + w)`` on, the first in its lowest
    bit, and bits outside the window are 0. The words are read-only and
    stored by column. The canvas and scale are those of the memo key.
    """

    words: np.ndarray
    offset: tuple[int, int]
    cols: int
    area: int

    def unpacked(self, scale: int, frame: tuple[int, int]) -> BinaryMask:
        """The same mask as a BinaryMask on ``frame`` at ``scale``: its bool window."""
        lead = self.offset[1] % _WORD
        pixels = np.unpackbits(np.ascontiguousarray(self.words, dtype="<u8").view(np.uint8),
                               axis=1, bitorder="little")
        return BinaryMask(pixels[:, lead:lead + self.cols].astype(bool), scale, self.offset, frame)


def default_resolution_scale(canvas: Canvas) -> int:
    """Smallest integer upscale that puts the longer canvas side at RASTER_TARGET."""
    return default_scale_of(canvas.width, canvas.height)


def default_scale_of(width: int, height: int) -> int:
    """default_resolution_scale of a canvas of these sides, read off the sides alone."""
    return max(1, math.ceil(RASTER_TARGET / max(width, height)))


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

    return fill_outlines([pts], canvas, scale)[0].unpacked(
        scale, (canvas.height * scale, canvas.width * scale))


def check_raster_frame(canvas: Canvas, scale: int) -> None:
    """Refuse a full mask (the canvas times ``scale``, squared) of more than MAX_RASTER_PIXELS."""
    wpx = canvas.width * scale
    hpx = canvas.height * scale
    if wpx * hpx > MAX_RASTER_PIXELS:
        raise ValueError(f"raster frame {wpx} x {hpx} (the canvas at scale {scale}) exceeds "
                         f"{MAX_RASTER_PIXELS} pixels")


def fill_outlines(outlines: Sequence[np.ndarray], canvas: Canvas, scale: int) -> list[PackedMask]:
    """The packed masks of one or more outlines on one canvas and scale, filled together.

    Each outline is a float64 (n, 2) vertex array that passed
    rasterize's checks at this scale, and the frame passed
    check_raster_frame; mask i unpacks to ``rasterize(outlines[i],
    canvas, scale)`` bit for bit. The outlines are stacked end to end, so
    each numpy pass (the row search, the crossings and the word fill)
    runs once for all of them. Each mask keeps only its own window's
    words. No outlines give no masks.
    """
    if not outlines:
        return []
    wpx, hpx = canvas.width * scale, canvas.height * scale
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
    counts[[start - 1 for start in starts[1:]]] = 0  # the bridges
    # An outline is closed, so every row from its lowest vertex's to its
    # highest's is crossed: its crossed rows are [min(at), max(at)).
    row0s = np.minimum.reduceat(at, starts).tolist()
    row1s = np.maximum.reduceat(at, starts).tolist()
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
    # gets an empty window. A window's rows are whole words from the one
    # that holds its first column, and the windows lie end to end.
    firsts = [*before[starts].tolist(), len(col)]
    filled = [i for i in range(len(outlines)) if firsts[i] < firsts[i + 1]]
    col0s = np.minimum.reduceat(col, [firsts[i] for i in filled]).tolist()
    col1s = np.maximum.reduceat(col, [firsts[i] for i in filled]).tolist()
    # (its first word, rows, words per row, offset, columns), empty by default
    windows = [(0, 0, 0, (0, 0), 0)] * len(outlines)
    widths, shifts, size = [], [], 0
    for i, col0, col1 in zip(filled, col0s, col1s):
        rows, word0 = row1s[i] - row0s[i], col0 // _WORD
        words = -(-col1 // _WORD) - word0
        windows[i] = (size, rows, words, (first + row0s[i], col0), col1 - col0)
        widths.append(words * _WORD)
        shifts.append((size - row0s[i] * words - word0) * _WORD)
        size += rows * words

    # Every row has an even number of crossings and the rows lie in order,
    # so sorted, the crossings pair off into each row's inside runs [left,
    # right). One at a window's last column lands on its next row's first
    # pixel, or the next window's, where its run would stop anyway. A run's
    # bits, read as one integer over its row's words, are 2**right -
    # 2**left: in words modulo 2**64, -2**left in left's word, 2**right in
    # right's, and a borrow of 1 from each word after left's up to right's.
    # Runs share no pixel, so each word is the sum of its runs' terms; the
    # extra word takes a right end at the end of the last window.
    width, shift = np.array([widths, shifts], dtype=np.int64).repeat(
        [firsts[i + 1] - firsts[i] for i in filled], axis=1)
    flip = row_idx * width + col + shift
    flip.sort()
    left, right = flip[0::2], flip[1::2]
    left_word, right_word = left >> 6, right >> 6  # shifts and masks for // and % _WORD
    bits = np.zeros(size + 1, dtype=np.uint64)
    np.subtract.at(bits, left_word, np.left_shift(1, (left & 63).view(np.uint64)))
    np.add.at(bits, right_word, np.left_shift(1, (right & 63).view(np.uint64)))
    spans = right_word - left_word  # each run borrows from words left_word + 1 to right_word
    bits[np.arange(spans.sum()) - (spans.cumsum() - spans - left_word - 1).repeat(spans)] -= 1
    # a filled window's runs are its crossings' pairs, one or more
    areas = dict(zip(filled, np.add.reduceat(right - left, [firsts[i] // 2 for i in filled])
                     .tolist()))

    masks = []
    for i, (start, rows, words, offset, cols) in enumerate(windows):
        kept = bits[start:start + rows * words].reshape(rows, words).copy(order="F")
        kept.setflags(write=False)
        masks.append(PackedMask(kept, offset, cols, areas.get(i, 0)))
    return masks


_ZERO_AREA = "mask has zero area; outline did not cover any pixel center"


def packed_pair_counts(a: PackedMask, b: PackedMask) -> tuple[int, int, int]:
    """``(area_a, area_b, intersection)`` of two masks on one canvas and scale, in pixels.

    The intersection is the set bits of the AND of the two windows'
    overlapping words. An empty mask is refused: it has no overlap score.
    """
    if not (a.area and b.area):
        raise ValueError(_ZERO_AREA)
    (ra, ca), (rb, cb) = a.offset, b.offset
    ca, cb = ca // _WORD, cb // _WORD  # each window's first word
    # the overlap of the two windows' words, empty if they miss each other
    row0, word0 = max(ra, rb), max(ca, cb)
    row1 = max(row0, min(ra + a.words.shape[0], rb + b.words.shape[0]))
    word1 = max(word0, min(ca + a.words.shape[1], cb + b.words.shape[1]))
    inter = np.bitwise_count(a.words[row0 - ra:row1 - ra, word0 - ca:word1 - ca]
                             & b.words[row0 - rb:row1 - rb, word0 - cb:word1 - cb]).sum()
    return a.area, b.area, int(inter)


# the words of a band of the union, and the words one gather takes: with
# the two gathers and the popcount, the count's temporaries stay under
# 1 MiB together
_BAND_WORDS = 2 ** 15
_GATHER_WORDS = 2 ** 14


def packed_overlap_counts(masks: Sequence[PackedMask], first, second) -> np.ndarray:
    """packed_pair_counts of ``masks[first[p]]`` and ``masks[second[p]]``, each p: an (n, 3) array.

    The masks, one or more, share one canvas and scale. Their words are
    pasted onto the union of their windows, and a pair's intersection is
    the set bits of the AND of its two masks' words, counted for many
    pairs at once: the same integers as packed_pair_counts'. The union is
    taken in bands of rows, so the temporaries stay under 1 MiB.
    """
    areas = np.array([mask.area for mask in masks], dtype=np.int64)
    if not areas.all():
        raise ValueError(_ZERO_AREA)
    # the union's rows, and its words from word0 on
    row0 = min(mask.offset[0] for mask in masks)
    row1 = max(mask.offset[0] + mask.words.shape[0] for mask in masks)
    word0 = min(mask.offset[1] // _WORD for mask in masks)
    words = max(mask.offset[1] // _WORD + mask.words.shape[1] for mask in masks) - word0
    band = min(row1 - row0, max(1, _BAND_WORDS // (len(masks) * words)))
    chunk = max(1, _GATHER_WORDS // (band * words))  # pairs per gather
    inter = np.zeros(len(first), dtype=np.int64)
    for top in range(row0, row1, band):
        height = min(band, row1 - top)
        union = np.zeros((len(masks), height, words), dtype=np.uint64)
        for m, mask in enumerate(masks):
            (row, col), (rows, width) = mask.offset, mask.words.shape
            lo = max(row, top)
            hi = max(lo, min(row + rows, top + height))  # no rows when the window misses the band
            word = col // _WORD - word0
            union[m, lo - top:hi - top, word:word + width] = mask.words[lo - row:hi - row]
        union = union.reshape(len(masks), height * words)
        for p0 in range(0, len(first), chunk):
            both = union[first[p0:p0 + chunk]]
            both &= union[second[p0:p0 + chunk]]
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
    """Overlap score of two masks on one canvas and scale, in [0, 1], from their packed_pair_counts.

    Masks on different frames or scales are refused, as is an empty one.
    """
    if a.frame != b.frame or a.scale != b.scale:
        raise ValueError(f"masks are on different canvases: {a.frame} at scale {a.scale} "
                         f"vs {b.frame} at scale {b.scale}")
    return alpha_from_counts(*packed_pair_counts(a.packed(), b.packed()), mode)
