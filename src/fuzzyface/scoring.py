"""End-to-end comparison of two faces into a similarity report.

The pipeline: normalize the pair onto a shared canvas (normalize_pair:
the componentwise max of the two image sizes, each face stretched per
axis), measure the canonical features on both, take the ratio entropy
of each feature pair, push it through the membership kernel, average
the memberships into the feature score, rasterize the outlines into the
overlap score, and blend the two with the mixing weight k:

    similarity = 100 * (feature_score * k + alpha * (1 - k))

One engine serves two consumers. Its prepare step, _prepared, prepares
each face (rescale onto the pair's canvas, measure the features,
rasterize the outline) at most once per canvas size and raster scale,
over all calls: the face keeps its feature values and its mask in its
memo, one entry per (width, height, scale). It scores blocks of pairs as
numpy columns: the two mask areas and their intersection per pair
(overlap_counts, or packed_overlap_counts for a key with many pairs),
and an entropy and a membership per feature, with the bits of
feature_membership. The blend is written once (_feature_score and
_similarity) and the checks once, in MatchReport. score_pairs turns each
block into MatchReports, reading each alpha off its counts with
alpha_from_counts, and compare is its one-pair case; pair_scores takes
the alphas and the blend as columns and keeps only each pair's feature
score, alpha and similarity.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .features import CANONICAL_FEATURES, FaceInput, extract_features, rescale_face
from .fuzzymath import BellKernel, MembershipKernel, check_entropy_kernel, kernel_to_dict
from .geometry import is_number, python_number, whole_number
from .silhouette import (
    AlphaMode,
    BinaryMask,
    Canvas,
    alpha_from_counts,
    check_raster_frame,
    default_resolution_scale,
    fill_outlines,
    overlap_counts,
    packed_overlap_counts,
)
# not called here; perfbench/run.py --trace 1 wraps these names
from .silhouette import alpha_from_masks, rasterize


@dataclass(frozen=True)
class ScoringConfig:
    """Pipeline knobs: mixing weight, overlap mode, kernel, raster density.

    ``resolution_scale`` of None picks the default for the pair's canvas.
    The kernel must keep its membership in [0, 1] over the entropy range
    [0, 1], so a bell kernel needs r >= 0.5.
    """

    k: float = 0.5
    alpha_mode: AlphaMode = AlphaMode.COMPLEMENT
    kernel: MembershipKernel = field(default_factory=BellKernel)
    resolution_scale: int | None = None

    def __post_init__(self) -> None:
        # the range test alone refuses NaN, the infinities and an int too large
        # for a float; a numpy scalar is kept as its Python value
        k = self.k
        if not (type(k) is float and 0.0 <= k <= 1.0):
            k = python_number(k)
            if not (is_number(k) and 0.0 <= k <= 1.0):
                raise ValueError(f"mixing weight k must lie in [0, 1], got {self.k!r}")
            object.__setattr__(self, "k", k)
        if not isinstance(self.alpha_mode, AlphaMode):
            raise ValueError(f"alpha_mode must be an AlphaMode, got {self.alpha_mode!r}")
        check_entropy_kernel(self.kernel)
        if self.resolution_scale is not None:
            object.__setattr__(self, "resolution_scale",
                               whole_number("resolution_scale", self.resolution_scale, 1))


@dataclass(frozen=True)
class FeatureRow:
    """Per-feature trace: both measurements, their entropy, its membership."""

    name: str
    a: float
    b: float
    entropy: float
    membership: float


@dataclass(frozen=True)
class MatchReport:
    """Full trace of one comparison; feature_score and similarity derive from the rest."""

    a_id: str
    b_id: str
    features: tuple[FeatureRow, ...]
    feature_score: float = field(init=False)
    alpha: float
    k: float
    similarity: float = field(init=False)
    alpha_mode: AlphaMode
    kernel: MembershipKernel
    resolution_scale: int

    def __post_init__(self) -> None:
        if not (isinstance(self.a_id, str) and self.a_id and isinstance(self.b_id, str)
                and self.b_id):
            raise ValueError(f"report ids must be non-empty strings, got {self.a_id!r} "
                             f"and {self.b_id!r}")
        if len(self.features) < 1:
            raise ValueError("a report needs at least one feature row")
        # score_pairs passes floats in range, which skip the full test in
        # _checked_row: a call per value made each report half again as
        # slow to build. A numpy scalar is kept as its Python value.
        for row in self.features:
            if not (type(row.a) is type(row.b) is type(row.entropy) is type(row.membership) is float
                    and 0.0 <= row.entropy <= 1.0 and 0.0 <= row.membership <= 1.0
                    and 0.0 < row.a < math.inf and 0.0 < row.b < math.inf):
                rows = tuple(map(_checked_row, self.features))
                if any(map(operator.is_not, rows, self.features)):
                    object.__setattr__(self, "features", rows)
                break
        alpha = self.alpha
        if not (type(alpha) is float and 0.0 <= alpha <= 1.0):
            alpha = python_number(alpha)
            if not (is_number(alpha) and 0.0 <= alpha <= 1.0):
                raise ValueError(f"alpha must lie in [0, 1], got {self.alpha!r}")
            object.__setattr__(self, "alpha", alpha)
        # k, alpha_mode and kernel pass ScoringConfig's checks, in its words,
        # so a similarity lies in [0, 100] and to_dict can write the report
        k = ScoringConfig(self.k, self.alpha_mode, self.kernel).k
        if k is not self.k:
            object.__setattr__(self, "k", k)
        scale = whole_number("resolution_scale", self.resolution_scale, 1)
        if scale is not self.resolution_scale:
            object.__setattr__(self, "resolution_scale", scale)
        feature_score = _feature_score([row.membership for row in self.features])
        object.__setattr__(self, "feature_score", feature_score)
        object.__setattr__(self, "similarity", _similarity(feature_score, alpha, k))

    @property
    def n(self) -> int:
        return len(self.features)

    def to_dict(self) -> dict:
        return {
            "a": self.a_id,
            "b": self.b_id,
            "n": self.n,
            # vars, not dataclasses.asdict, which deep-copies every value at many times the cost
            "features": [dict(vars(row)) for row in self.features],
            "feature_score": self.feature_score,
            "alpha": self.alpha,
            "k": self.k,
            "similarity": self.similarity,
            "alpha_mode": self.alpha_mode.value,
            "kernel": kernel_to_dict(self.kernel),
            "resolution_scale": self.resolution_scale,
        }


def _checked_row(row: FeatureRow) -> FeatureRow:
    """The row, with each numpy scalar as its Python value; raises unless MatchReport takes it.

    A bool is refused and a string is refused in words, where the range
    tests alone would let a bool through and raise TypeError on a string.
    """
    given = (row.a, row.b, row.entropy, row.membership)
    a, b, entropy, membership = values = tuple(map(python_number, given))
    if not (is_number(entropy) and is_number(membership)
            and 0.0 <= entropy <= 1.0 and 0.0 <= membership <= 1.0):
        raise ValueError(f"feature row '{row.name}' outside [0, 1]: {row!r}")
    # like a FeatureVector's values; NaN fails the comparisons
    if not (is_number(a) and is_number(b) and 0.0 < a < math.inf and 0.0 < b < math.inf):
        raise ValueError(f"feature row '{row.name}' measurements must be positive "
                         f"reals: {row!r}")
    if all(map(operator.is_, values, given)):
        return row
    return FeatureRow(row.name, *values)


def _feature_score(memberships: Sequence[float]) -> float:
    """The mean membership of one pair's features."""
    return math.fsum(memberships) / len(memberships)


def _similarity(feature_score, alpha, k):
    """The blend of one pair, or elementwise of columns of pairs."""
    return 100.0 * (feature_score * k + alpha * (1.0 - k))


def feature_membership(a: float, b: float, kernel: MembershipKernel) -> tuple[float, float]:
    """Entropy of one feature's two measurements and its kernel membership.

    The entropy is base 2 over the ratio distribution (a, b) / (a + b),
    so it lies in [0, 1], is 1 for an equal pair, and depends
    only on the ratio of a to b. Like every ``FeatureVector`` value, a
    and b must be positive and finite. The pipeline takes these values
    as columns, with entropy_membership; this scalar form is their
    reference. A numpy scalar is taken as its exact Python value, so a
    float32 is measured in double precision.
    """
    a, b = python_number(a), python_number(b)
    if not (is_number(a) and is_number(b) and 0.0 < a < math.inf and 0.0 < b < math.inf):
        raise ValueError(f"feature measurements must be positive reals, got {a!r} and {b!r}")
    try:
        total = a + b  # an int beyond a float plus a float overflows
        h = 0.0
        for v in (a, b):
            # p is 0.0 past a ratio of about 1e323 or when a + b overflows;
            # log2 then raises ValueError
            p = v / total
            h -= p * math.log2(p)
    except (OverflowError, ValueError):
        raise ValueError(f"feature measurements {a!r} and {b!r} have no entropy in floats: "
                         f"their sum overflows or a share rounds to 0") from None
    entropy = min(h, 1.0)  # each term is non-negative, so only the top can collect float dust
    return entropy, kernel.evaluate(entropy)


# pairs scored as one block of columns, which bounds the columns'
# temporaries at any number of pairs
_BLOCK_PAIRS = 4096


def normalize_pair(face_a: FaceInput, face_b: FaceInput) -> tuple[Canvas, FaceInput, FaceInput]:
    """Bring two faces onto one canvas, the componentwise max of their sizes.

    Each input's landmarks and outline are multiplied per axis by
    canvas_size / its_size, so a smaller capture is stretched up while
    the larger one is untouched. No further alignment is applied: the
    shared canvas coordinates are the common frame. The engine takes
    the same canvas once per size, in _prepared.
    """
    canvas = Canvas(max(face_a.image_width, face_b.image_width),
                    max(face_a.image_height, face_b.image_height))
    return (canvas, rescale_face(face_a, canvas.width, canvas.height),
            rescale_face(face_b, canvas.width, canvas.height))


def compare(face_a: FaceInput, face_b: FaceInput, config: ScoringConfig | None = None) -> MatchReport:
    """Run the full pipeline on two faces.

    Features are measured after canvas normalization, so a genuine pair
    photographed at different resolutions still measures equal and the
    result does not depend on image size. Deterministic for fixed inputs
    and config.
    """
    return score_pairs([face_a, face_b], [(0, 1)], config)[0]


# a prepared face on a pair's canvas: its six feature values, in
# CANONICAL_FEATURES order, and its mask at the pair's raster scale
_Entry = tuple[tuple[float, ...], BinaryMask]
_FEATURE_NAMES = tuple(name for name, _ in CANONICAL_FEATURES)  # the order of the values


def _pair_indices(faces: Sequence[FaceInput], pair) -> tuple[int, int]:
    """The two indices of a pair into ``faces``: ints, numpy's included, but not bools."""
    try:
        i, j = pair
        if type(i) is not int or type(j) is not int:  # a plain int skips these tests
            if isinstance(i, (bool, np.bool_)) or isinstance(j, (bool, np.bool_)):
                raise TypeError
            i, j = operator.index(i), operator.index(j)
        if 0 <= i < len(faces) and 0 <= j < len(faces):
            return i, j
    except (TypeError, ValueError):  # not a pair, or not integers
        pass
    raise ValueError(f"pair {pair!r} must be two integer indices into the {len(faces)} faces")


# a block's pairs of one key, (width, height, scale): each pair's position
# in the block and its two face indices, three ints a pair, end to end
_KeyPairs = dict[tuple[int, int, int], list[int]]


def _prepared(faces: Sequence[FaceInput], block: list[tuple[int, int]],
              config: ScoringConfig) -> tuple[list[tuple[_Entry, _Entry, int]], _KeyPairs]:
    """Each pair's two faces, prepared on its pair's canvas, and its raster scale; each key's pairs.

    Each face keeps an _Entry per (canvas width, canvas height, raster
    scale) in its memo, ``face._prepared``, over all calls. The faces of
    a key with no entry are prepared key by key, in the order the pairs
    first name them: each is stretched and measured, and the raster frame
    checked after it, where rasterizing it alone would refuse the frame;
    then one fill_outlines call fills them all, and only then do they
    get their entries. Every pair's indices are checked first. A block of
    more than one pair also lists each key's pairs, for _overlaps; a
    block of one lists none.
    """
    canvases: dict[tuple[int, int], tuple[Canvas, int]] = {}  # size -> canvas, raster scale
    keyed = []
    # key -> faces to prepare, in order; by id, since FaceInput holds a
    # dict and cannot be hashed, and one face may sit at several indices
    new: dict[tuple[int, int, int], dict[int, FaceInput]] = {}
    key_pairs: _KeyPairs = {}
    listed = len(block) > 1
    for pair in block:
        i, j = _pair_indices(faces, pair)
        face_a, face_b = faces[i], faces[j]
        size = (max(face_a.image_width, face_b.image_width),  # normalize_pair's canvas
                max(face_a.image_height, face_b.image_height))
        if size not in canvases:
            canvas = Canvas(*size)
            scale = config.resolution_scale
            canvases[size] = canvas, default_resolution_scale(canvas) if scale is None else scale
        key = (*size, canvases[size][1])
        for face in (face_a, face_b):
            if key not in face._prepared:
                new.setdefault(key, {})[id(face)] = face
        if listed:
            key_pairs.setdefault(key, []).extend((len(keyed), i, j))
        keyed.append((face_a._prepared, face_b._prepared, key))
    for (width, height, scale), pending in new.items():
        canvas = canvases[width, height][0]
        measured = []
        for face in pending.values():
            stretched = rescale_face(face, width, height)
            values = tuple(value for _, value in extract_features(stretched).items)
            check_raster_frame(canvas, scale)
            measured.append((face, values, stretched._outline_array))
        masks = fill_outlines([outline for _, _, outline in measured], canvas, scale)
        for (face, values, _), mask in zip(measured, masks):
            face._prepared[width, height, scale] = values, mask
    entries = [(memo_a[key], memo_b[key], key[2]) for memo_a, memo_b, key in keyed]
    return entries, key_pairs


def _overlaps(faces: Sequence[FaceInput], entries: list[tuple[_Entry, _Entry, int]],
              key_pairs: _KeyPairs) -> np.ndarray:
    """Each pair's overlap_counts, ``(area_a, area_b, intersection)``, as an (n, 3) array.

    A key's pairs are counted together, by packed_overlap_counts, when
    they number at least twice its faces. Packing a mask costs about as
    much as counting one pair alone (5-12 and 6-8 us), and a packed pair
    costs about 1-1.5 us, so a smaller key, such as the genuine pairs of
    a manifest, gains nothing. Its pairs, and the pair of a block of one,
    are counted one at a time, by overlap_counts.
    """
    counts = packed = None
    for (width, height, scale), pairs in key_pairs.items():
        firsts, seconds = pairs[1::3], pairs[2::3]
        indices = dict.fromkeys(firsts + seconds)  # the key's faces, in order
        if len(firsts) < 2 * len(indices):
            continue
        if counts is None:
            counts = np.empty((len(entries), 3), dtype=np.int64)
            packed = np.zeros(len(entries), dtype=bool)
        slots = dict(zip(indices, range(len(indices))))
        counts[pairs[::3]] = packed_overlap_counts(
            [faces[k]._prepared[width, height, scale][1] for k in indices],
            [slots[i] for i in firsts], [slots[j] for j in seconds])
        packed[pairs[::3]] = True
    if counts is None:
        return np.array([overlap_counts(mask_a, mask_b) for (_, mask_a), (_, mask_b), _ in entries])
    for p in np.flatnonzero(~packed).tolist():
        (_, mask_a), (_, mask_b), _ = entries[p]
        counts[p] = overlap_counts(mask_a, mask_b)
    return counts


def _alphas(counts: np.ndarray, mode: AlphaMode) -> np.ndarray:
    """alpha_from_masks of each pair's counts, bit for bit: the same divisions of the same ints.

    Every count is below 2**53, so each converts to a float exactly, and
    a quotient of two such floats is the correctly rounded one of the
    ints, as Python's int division gives it. The areas are positive, so
    no branch divides by zero.
    """
    area_a, area_b, inter = counts.T
    if mode is AlphaMode.LITERAL:
        return np.where(area_a != inter, (area_a - inter) / area_a,
                        np.where(area_b != inter, (area_b - inter) / area_b, 1.0))
    return inter / (area_a + area_b - inter)


# one block of pairs scored up to the blend: the pairs, each pair's two
# prepared faces and raster scale, its overlap_counts (area_a, area_b,
# intersection: a row per pair), and its entropies and memberships (a row
# per pair, a column per feature)
_Columns = tuple[list[tuple[int, int]], list[tuple[_Entry, _Entry, int]], np.ndarray,
                 np.ndarray, np.ndarray]


def _columns(faces: Sequence[FaceInput], block: list[tuple[int, int]],
             config: ScoringConfig) -> _Columns:
    """Prepare a block's faces and take each pair's overlap counts, entropies and memberships.

    Each pair's steps come in compare's order (its two faces, its
    overlap, its features) and raise compare's errors in its words. In
    a block of more than one pair the error raised need not be the first
    in pair order, since every pair's indices are checked and every face
    is prepared, key by key, before any pair is scored.
    """
    entries, key_pairs = _prepared(faces, block, config)
    counts = _overlaps(faces, entries, key_pairs)
    entropy, membership = entropy_membership(np.array([values for (values, _), _, _ in entries]),
                                             np.array([values for _, (values, _), _ in entries]),
                                             config.kernel)
    return block, entries, counts, entropy, membership


def _scored_blocks(faces: Sequence[FaceInput], pairs: Iterable[tuple[int, int]],
                   config: ScoringConfig) -> Iterator[_Columns]:
    """The columns of each block of up to _BLOCK_PAIRS pairs, in pair order.

    A block in which any step raises ValueError is taken again one pair
    at a time, so the error raised is the first in pair order, as a
    compare of each pair in turn raises it.
    """
    pairs = iter(pairs)
    while block := list(islice(pairs, _BLOCK_PAIRS)):
        try:
            columns = _columns(faces, block, config)
        except ValueError:
            for pair in block:
                yield _columns(faces, [pair], config)
        else:
            yield columns


def _reports(faces: Sequence[FaceInput], columns: _Columns,
             config: ScoringConfig) -> list[MatchReport]:
    """The MatchReports of one block; the first bad pair raises, in MatchReport's words."""
    pairs, entries, counts, entropies, memberships = columns
    mode = config.alpha_mode
    reports = []
    for (i, j), ((values_a, _), (values_b, _), scale), (area_a, area_b, inter), entropy, \
            membership in zip(pairs, entries, counts.tolist(), entropies.tolist(),
                              memberships.tolist()):
        reports.append(MatchReport(
            a_id=faces[i].id,
            b_id=faces[j].id,
            features=tuple(map(FeatureRow, _FEATURE_NAMES, values_a, values_b, entropy,
                               membership)),
            alpha=alpha_from_counts(area_a, area_b, inter, mode),
            k=config.k,
            alpha_mode=mode,
            kernel=config.kernel,
            resolution_scale=scale,
        ))
    return reports


def score_pairs(
    faces: Sequence[FaceInput],
    pairs: Iterable[tuple[int, int]],
    config: ScoringConfig | None = None,
) -> list[MatchReport]:
    """Score each ``(i, j)`` pair of indices into ``faces``, in the given order.

    Each report equals ``compare(faces[i], faces[j], config)`` bit for
    bit. A face is rescaled, measured and rasterized at most once per
    canvas size and raster scale, over all calls: each face keeps its
    values and mask there in its memo. An index is an int, numpy's
    included, but not a bool. A bad pair raises the error that compare
    raises on it, or one that names it if its indices are bad; of
    several, the first in pair order.
    """
    if config is None:
        config = ScoringConfig()
    reports = []
    for columns in _scored_blocks(faces, pairs, config):
        reports += _reports(faces, columns, config)
    return reports


def pair_scores(
    faces: Sequence[FaceInput],
    pairs: Iterable[tuple[int, int]],
    config: ScoringConfig | None = None,
) -> list[tuple[float, float, float]]:
    """``(feature_score, alpha, similarity)`` of each pair, as score_pairs' reports hold them.

    The same steps as score_pairs, so each value equals the report's bit
    for bit and each error is the one score_pairs raises, but with the
    blend taken as columns and no FeatureRow or MatchReport built unless
    a column fails the report's ranges: for callers that read only the
    scores, such as evaluate and calibrate.
    """
    if config is None:
        config = ScoringConfig()
    scores: list[tuple[float, float, float]] = []
    for columns in _scored_blocks(faces, pairs, config):
        _, _, counts, entropy, membership = columns
        alpha = _alphas(counts, config.alpha_mode)
        # MatchReport's checks on the columns; a bad value fails on NaN too
        if not (((0.0 <= entropy) & (entropy <= 1.0) & (0.0 <= membership) & (membership <= 1.0))
                .all() and ((0.0 <= alpha) & (alpha <= 1.0)).all()):
            _reports(faces, columns, config)  # raises the first bad pair's error
        feature_score = np.fromiter(map(_feature_score, membership.tolist()), float,
                                    len(membership))
        similarity = _similarity(feature_score, alpha, config.k)
        scores += zip(feature_score.tolist(), alpha.tolist(), similarity.tolist())
    return scores


def _mapped(fn, column: np.ndarray) -> np.ndarray:
    """``fn`` of each element of a flat float array, on Python floats."""
    return np.fromiter(map(fn, column.tolist()), float, len(column))


def entropy_membership(a: np.ndarray, b: np.ndarray,
                       kernel: MembershipKernel) -> tuple[np.ndarray, np.ndarray]:
    """feature_membership of each element pair of two arrays, bit for bit, unchecked.

    The basic operations (sums, quotients, products, differences) are
    correctly rounded, so numpy's equal math's; ``0.0 - x`` is
    np.subtract, since ``-x`` would turn 0.0 into -0.0. math.log2 and
    the kernel's own evaluate run on Python floats (np.log2 and np.exp
    differ from math in the last bit on some inputs). Raises ValueError
    where feature_membership would: a share that is 0.0. The values
    must be positive and finite, as a FeatureVector's are.
    """
    shape, a, b = a.shape, a.ravel(), b.ravel()
    with np.errstate(over="ignore"):  # a + b overflows to inf, as in Python, without a warning
        total = a + b
    shares = np.concatenate((a / total, b / total))
    terms = shares * _mapped(math.log2, shares)
    entropy = np.minimum(np.subtract(0.0, terms[:len(a)]) - terms[len(a):], 1.0)
    return entropy.reshape(shape), _mapped(kernel.evaluate, entropy).reshape(shape)
