"""End-to-end comparison of two faces into a similarity report.

The pipeline: normalize the pair onto a shared canvas, measure the
canonical features on both, take the ratio entropy of each feature pair,
push it through the membership kernel, average the memberships into the
feature score, rasterize the outlines into the overlap score, and blend
the two with the mixing weight k:

    similarity = 100 * (feature_score * k + alpha * (1 - k))

One engine serves two consumers. Its prepare step prepares each face
(rescale onto the pair's canvas, measure the features, rasterize the
outline) at most once per canvas size, and it scores blocks of pairs as
numpy columns: an alpha per pair (alpha_from_masks) and an entropy and
a membership per feature, with the bits of feature_membership. The
blend is written once (_feature_score and _similarity) and the checks
once, in MatchReport. score_pairs turns each block into MatchReports,
and compare is its one-pair case; pair_scores blends each block as
columns and keeps only each pair's feature score, alpha and similarity.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .features import CANONICAL_FEATURES, FaceInput, extract_features
from .fuzzymath import BellKernel, MembershipKernel, check_entropy_kernel, kernel_to_dict
from .geometry import whole_number
from .silhouette import (
    AlphaMode,
    BinaryMask,
    Canvas,
    alpha_from_masks,
    check_raster_frame,
    default_resolution_scale,
    fill_outlines,
    normalize_pair,  # no longer called here; perfbench/run.py --trace 1 wraps this name
    pair_canvas,
    rasterize,  # no longer called here; perfbench/run.py --trace 1 wraps this name
    rescale_face,
)


def _is_number(value) -> bool:
    """True for an int or a float, but not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


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
        if not (_is_number(self.k) and math.isfinite(self.k) and 0.0 <= self.k <= 1.0):
            raise ValueError(f"mixing weight k must lie in [0, 1], got {self.k!r}")
        if not isinstance(self.alpha_mode, AlphaMode):
            raise ValueError(f"alpha_mode must be an AlphaMode, got {self.alpha_mode!r}")
        check_entropy_kernel(self.kernel)
        if self.resolution_scale is not None:
            whole_number("resolution_scale", self.resolution_scale, 1)


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
        # The range tests alone would let a hand-built bool through and raise
        # TypeError on a string. score_pairs passes floats, which skip the
        # full type test: a call per value made each report half again as
        # slow to build.
        for row in self.features:
            if not ((type(row.entropy) is type(row.membership) is float
                     or _is_number(row.entropy) and _is_number(row.membership))
                    and 0.0 <= row.entropy <= 1.0 and 0.0 <= row.membership <= 1.0):
                raise ValueError(f"feature row '{row.name}' outside [0, 1]: {row!r}")
            # like a FeatureVector's values; NaN fails the comparisons
            if not ((type(row.a) is type(row.b) is float
                     or _is_number(row.a) and _is_number(row.b))
                    and 0.0 < row.a < math.inf and 0.0 < row.b < math.inf):
                raise ValueError(f"feature row '{row.name}' measurements must be positive "
                                 f"reals: {row!r}")
        if not ((type(self.alpha) is float or _is_number(self.alpha))
                and 0.0 <= self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha!r}")
        # k, alpha_mode and kernel pass ScoringConfig's checks, in its words,
        # so a similarity lies in [0, 100] and to_dict can write the report
        ScoringConfig(self.k, self.alpha_mode, self.kernel)
        whole_number("resolution_scale", self.resolution_scale, 1)
        feature_score = _feature_score([row.membership for row in self.features])
        object.__setattr__(self, "feature_score", feature_score)
        object.__setattr__(self, "similarity", _similarity(feature_score, self.alpha, self.k))

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
    reference.
    """
    try:
        positive = 0.0 < a < math.inf and 0.0 < b < math.inf
    except TypeError:  # not a number at all, such as a string or None
        positive = False
    if not positive:
        raise ValueError(f"feature measurements must be positive reals, got {a!r} and {b!r}")
    total = a + b
    h = 0.0
    for v in (a, b):
        # p is 0.0 past a ratio of about 1e323 or when a + b overflows;
        # log2 then raises ValueError
        p = v / total
        h -= p * math.log2(p)
    entropy = min(h, 1.0)  # each term is non-negative, so only the top can collect float dust
    return entropy, kernel.evaluate(entropy)


# pairs scored as one block of columns, which bounds the columns'
# temporaries at any number of pairs
_BLOCK_PAIRS = 4096


def compare(face_a: FaceInput, face_b: FaceInput, config: ScoringConfig | None = None) -> MatchReport:
    """Run the full pipeline on two faces.

    Features are measured after canvas normalization, so a genuine pair
    photographed at different resolutions still measures equal and the
    result does not depend on image size. Deterministic for fixed inputs
    and config.
    """
    return score_pairs([face_a, face_b], [(0, 1)], config)[0]


class _Prepared:
    """The faces of one call, each prepared at most once per canvas size.

    A prepared face is the face stretched onto a pair's canvas, its six
    feature values (in CANONICAL_FEATURES order) and its rasterized
    outline; row r of ``values`` and ``masks`` holds one. A block's new
    faces on one canvas are rasterized together, by one fill_outlines
    call, so N faces that share one canvas are filled once each rather
    than twice per pair. Each canvas size is built, with its raster
    scale, once. Prepared faces and canvases live only for one call.
    """

    def __init__(self, faces: Sequence[FaceInput], config: ScoringConfig) -> None:
        self.faces = faces
        self.resolution_scale = config.resolution_scale
        # keyed by index: FaceInput holds a dict and cannot be hashed
        self.rows: dict[tuple[int, tuple[int, int]], int] = {}  # (face index, size) -> row
        self.values: list[list[float]] = []
        self.masks: list[BinaryMask] = []
        self.canvases: dict[tuple[int, int], tuple[Canvas, int]] = {}  # size -> canvas, scale

    def pairs(self, block: list[tuple[int, int]]) -> list[tuple[int, int, int]]:
        """Each pair's two rows, prepared on its pair's canvas, and its raster scale.

        The faces of the block not yet prepared on their pair's canvas are
        prepared canvas by canvas, in the order the pairs first name them.
        """
        keys = []
        new: dict[tuple[int, int], dict[int, None]] = {}  # size -> face indices, in order
        for i, j in block:
            face_a, face_b = self.faces[i], self.faces[j]
            # pair_canvas's size, found without building a Canvas
            size = (max(face_a.image_width, face_b.image_width),
                    max(face_a.image_height, face_b.image_height))
            if size not in self.canvases:
                canvas = pair_canvas(face_a, face_b)
                scale = self.resolution_scale
                if scale is None:
                    scale = default_resolution_scale(canvas)
                self.canvases[size] = canvas, scale
            for index in (i, j):
                if (index, size) not in self.rows:
                    new.setdefault(size, {})[index] = None
            keys.append((i, j, size))
        for size, indices in new.items():
            self.prepare(list(indices), size)
        rows = self.rows
        return [(rows[i, size], rows[j, size], self.canvases[size][1]) for i, j, size in keys]

    def prepare(self, indices: list[int], size: tuple[int, int]) -> None:
        """Prepare the faces at ``indices`` on the canvas of ``size``; all or none get a row.

        Each face is rescaled and measured in turn, and its raster frame
        checked after it, where rasterizing it alone would refuse the
        frame; then one fill_outlines call rasterizes them all.
        """
        canvas, scale = self.canvases[size]
        outlines, values = [], []
        for index in indices:
            face = rescale_face(self.faces[index], canvas.width, canvas.height)
            values.append([value for _, value in extract_features(face).items])
            check_raster_frame(canvas, scale)
            outlines.append(face.outline.array)
        for index, face_values, mask in zip(indices, values,
                                            fill_outlines(outlines, canvas, scale)):
            self.rows[index, size] = len(self.masks)
            self.values.append(face_values)
            self.masks.append(mask)


# one block of pairs scored up to the blend: the pairs, each pair's two
# prepared rows and raster scale, and its alpha, entropies and
# memberships (a row per pair, a column per feature)
_Columns = tuple[list[tuple[int, int]], list[tuple[int, int, int]], np.ndarray, np.ndarray,
                 np.ndarray]


def _columns(prepared: _Prepared, block: list[tuple[int, int]], config: ScoringConfig) -> _Columns:
    """Prepare the faces of a block of pairs and take each pair's alpha, entropies and memberships.

    Each pair's steps come in compare's order (its two faces, its
    overlap, its features) and raise compare's errors in its words. In
    a block of more than one pair the error raised need not be the first
    in pair order, since every face is prepared, canvas by canvas, before
    any pair is scored.
    """
    rows = prepared.pairs(block)
    masks, values, mode = prepared.masks, prepared.values, config.alpha_mode
    alpha = np.array([alpha_from_masks(masks[a], masks[b], mode) for a, b, _ in rows])
    entropy, membership = entropy_membership(np.array([values[a] for a, _, _ in rows]),
                                             np.array([values[b] for _, b, _ in rows]),
                                             config.kernel)
    return block, rows, alpha, entropy, membership


def _scored_blocks(prepared: _Prepared, pairs: Iterable[tuple[int, int]],
                   config: ScoringConfig) -> Iterator[_Columns]:
    """The columns of each block of up to _BLOCK_PAIRS pairs, in pair order.

    A block in which any step raises ValueError is taken again one pair
    at a time, so the error raised is the first in pair order, as a
    compare of each pair in turn raises it.
    """
    pairs = iter(pairs)
    while block := list(islice(pairs, _BLOCK_PAIRS)):
        try:
            columns = _columns(prepared, block, config)
        except ValueError:
            for pair in block:
                yield _columns(prepared, [pair], config)
        else:
            yield columns


def _reports(prepared: _Prepared, columns: _Columns, config: ScoringConfig) -> list[MatchReport]:
    """The MatchReports of one block; the first bad pair raises, in MatchReport's words."""
    faces, values = prepared.faces, prepared.values
    names = [name for name, _ in CANONICAL_FEATURES]  # the order of every row's values
    pairs, rows, alphas, entropies, memberships = columns
    reports = []
    for (i, j), (row_a, row_b, scale), alpha, entropy, membership in zip(
            pairs, rows, alphas.tolist(), entropies.tolist(), memberships.tolist()):
        reports.append(MatchReport(
            a_id=faces[i].id,
            b_id=faces[j].id,
            features=tuple(map(FeatureRow, names, values[row_a], values[row_b], entropy,
                               membership)),
            alpha=alpha,
            k=config.k,
            alpha_mode=config.alpha_mode,
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
    bit. A face is prepared (rescaled, measured, rasterized) at most once
    per canvas size, for this call only. A bad pair
    raises the error that compare raises on it; of several, the first
    in pair order.
    """
    if config is None:
        config = ScoringConfig()
    prepared = _Prepared(faces, config)
    reports = []
    for columns in _scored_blocks(prepared, pairs, config):
        reports += _reports(prepared, columns, config)
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
    prepared = _Prepared(faces, config)
    scores: list[tuple[float, float, float]] = []
    for columns in _scored_blocks(prepared, pairs, config):
        _, _, alpha, entropy, membership = columns
        # MatchReport's checks on the columns; a bad value fails on NaN too
        if not (((0.0 <= entropy) & (entropy <= 1.0) & (0.0 <= membership) & (membership <= 1.0))
                .all() and ((0.0 <= alpha) & (alpha <= 1.0)).all()):
            _reports(prepared, columns, config)  # raises the first bad pair's error
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
