"""End-to-end comparison of two faces into a similarity report.

The pipeline: normalize the pair onto a shared canvas, measure the
canonical features on both, take the ratio entropy of each feature pair,
push it through the membership kernel, average the memberships into the
feature score, rasterize the outlines into the overlap score, and blend
the two with the mixing weight k:

    similarity = 100 * (feature_score * k + alpha * (1 - k))

One engine serves two consumers. Its measure step prepares each face
(rescale onto the pair's canvas, measure the features, rasterize the
outline) at most once per canvas and raster scale, and reads each pair's
alpha off the two masks. score_pairs turns each pair into a MatchReport;
pair_scores keeps only each pair's feature score, alpha and similarity.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

from .features import FaceInput, FeatureVector, extract_features
from .fuzzymath import BellKernel, MembershipKernel, check_entropy_kernel, kernel_to_dict
from .geometry import whole_number
from .silhouette import (
    AlphaMode,
    BinaryMask,
    Canvas,
    alpha_from_masks,
    default_resolution_scale,
    normalize_pair,  # no longer called here; perfbench/run.py --trace 1 wraps this name
    pair_canvas,
    rasterize,
    rescale_face,
)


def _is_number(value) -> bool:
    """True for an int or a float, but not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_mixing_weight(k) -> None:
    """Raise unless k is an int or float (not a bool) in [0, 1]."""
    if not (_is_number(k) and math.isfinite(k) and 0.0 <= k <= 1.0):
        raise ValueError(f"mixing weight k must lie in [0, 1], got {k!r}")


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
        _check_mixing_weight(self.k)
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
        if len(self.features) < 1:
            raise ValueError("a report needs at least one feature row")
        # The range tests alone would let a hand-built bool through and raise
        # TypeError on a string. score_pairs passes floats, which skip the
        # full type test: a call per value made each report half again as
        # slow to build.
        for row in self.features:
            if not (type(row.entropy) is type(row.membership) is float
                    or _is_number(row.entropy) and _is_number(row.membership)):
                raise ValueError(f"feature row '{row.name}' outside [0, 1]: {row!r}")
            _check_row(row.name, row.a, row.b, row.entropy, row.membership)
        if type(self.alpha) is not float and not _is_number(self.alpha):
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha!r}")
        feature_score, similarity = _blend(
            [row.membership for row in self.features], self.alpha, self.k
        )
        object.__setattr__(self, "feature_score", feature_score)
        object.__setattr__(self, "similarity", similarity)

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


def _check_row(name: str, a: float, b: float, entropy: float, membership: float) -> None:
    """Raise unless a feature's entropy and membership both lie in [0, 1]."""
    if not (0.0 <= entropy <= 1.0 and 0.0 <= membership <= 1.0):
        row = FeatureRow(name, a, b, entropy, membership)
        raise ValueError(f"feature row '{name}' outside [0, 1]: {row!r}")


def _blend(memberships: Sequence[float], alpha: float, k: float) -> tuple[float, float]:
    """The feature score (mean membership) and the similarity of one pair.

    Raises unless alpha lies in [0, 1] and k passes _check_mixing_weight,
    so a similarity is always in [0, 100].
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha!r}")
    _check_mixing_weight(k)
    feature_score = math.fsum(memberships) / len(memberships)
    return feature_score, 100.0 * (feature_score * k + alpha * (1.0 - k))


def feature_membership(a: float, b: float, kernel: MembershipKernel) -> tuple[float, float]:
    """Entropy of one feature's two measurements and its kernel membership.

    The entropy is base 2 over the ratio distribution (a, b) / (a + b),
    so it lies in [0, 1], is 1 for an equal pair, and depends
    only on the ratio of a to b. Like every ``FeatureVector`` value, a
    and b must be positive and finite.
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


def compare(face_a: FaceInput, face_b: FaceInput, config: ScoringConfig | None = None) -> MatchReport:
    """Run the full pipeline on two faces.

    Features are measured after canvas normalization, so a genuine pair
    photographed at different resolutions still measures equal and the
    result does not depend on image size. Deterministic for fixed inputs
    and config.
    """
    return score_pairs([face_a, face_b], [(0, 1)], config)[0]


def _measure_pairs(
    faces: Sequence[FaceInput], pairs: Iterable[tuple[int, int]], config: ScoringConfig
) -> Iterator[tuple[int, int, int, FeatureVector, FeatureVector, float]]:
    """Each pair's i, j, raster scale, two feature vectors and alpha, in pair order.

    A face is prepared (rescaled, measured, rasterized) at most once per
    canvas size and raster scale, so N faces that share one canvas are
    rasterized N times rather than twice per pair. Each canvas size is
    built, with its raster scale, once. Prepared faces and canvases live
    only for one call.
    """
    # keyed by index: FaceInput holds a dict and cannot be hashed
    prepared: dict[tuple[int, int, int, int], tuple[FeatureVector, BinaryMask]] = {}
    canvases: dict[tuple[int, int], tuple[Canvas, int]] = {}

    def prepare(index: int, canvas: Canvas, scale: int) -> tuple[FeatureVector, BinaryMask]:
        key = (index, canvas.width, canvas.height, scale)
        if key not in prepared:
            face = rescale_face(faces[index], canvas.width, canvas.height)
            prepared[key] = (extract_features(face), rasterize(face.outline, canvas, scale))
        return prepared[key]

    for i, j in pairs:
        face_a, face_b = faces[i], faces[j]
        # pair_canvas's size, found without building a Canvas
        size = (max(face_a.image_width, face_b.image_width),
                max(face_a.image_height, face_b.image_height))
        if size not in canvases:
            canvas = pair_canvas(face_a, face_b)
            scale = config.resolution_scale
            if scale is None:
                scale = default_resolution_scale(canvas)
            canvases[size] = canvas, scale
        canvas, scale = canvases[size]
        features_a, mask_a = prepare(i, canvas, scale)
        features_b, mask_b = prepare(j, canvas, scale)
        alpha = alpha_from_masks(mask_a, mask_b, config.alpha_mode)
        yield i, j, scale, features_a, features_b, alpha


def score_pairs(
    faces: Sequence[FaceInput],
    pairs: Iterable[tuple[int, int]],
    config: ScoringConfig | None = None,
) -> list[MatchReport]:
    """Score each ``(i, j)`` pair of indices into ``faces``, in the given order.

    Each report equals ``compare(faces[i], faces[j], config)`` bit for
    bit. A face is prepared (rescaled, measured, rasterized) at most once
    per canvas size and raster scale, for this call only.
    """
    if config is None:
        config = ScoringConfig()
    # Both vectors come from extract_features over CANONICAL_FEATURES, so
    # their names align and FeatureVector has checked every value positive.
    return [
        MatchReport(
            a_id=faces[i].id,
            b_id=faces[j].id,
            features=tuple(
                FeatureRow(name, a, b, *feature_membership(a, b, config.kernel))
                for (name, a), (_, b) in zip(features_a.items, features_b.items)
            ),
            alpha=alpha,
            k=config.k,
            alpha_mode=config.alpha_mode,
            kernel=config.kernel,
            resolution_scale=scale,
        )
        for i, j, scale, features_a, features_b, alpha in _measure_pairs(faces, pairs, config)
    ]


def pair_scores(
    faces: Sequence[FaceInput],
    pairs: Iterable[tuple[int, int]],
    config: ScoringConfig | None = None,
) -> list[tuple[float, float, float]]:
    """``(feature_score, alpha, similarity)`` of each pair, as score_pairs' reports hold them.

    The same engine, checks and arithmetic as score_pairs, so each value
    equals the report's bit for bit, but no FeatureRow or MatchReport is
    built: for callers that read only the scores, such as evaluate and
    calibrate.
    """
    if config is None:
        config = ScoringConfig()
    kernel, k = config.kernel, config.k
    scores = []
    for _, _, _, features_a, features_b, alpha in _measure_pairs(faces, pairs, config):
        memberships = []
        for (name, a), (_, b) in zip(features_a.items, features_b.items):
            entropy, membership = feature_membership(a, b, kernel)
            _check_row(name, a, b, entropy, membership)
            memberships.append(membership)
        feature_score, similarity = _blend(memberships, alpha, k)
        scores.append((feature_score, alpha, similarity))
    return scores
