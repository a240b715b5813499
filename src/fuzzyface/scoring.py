"""End-to-end comparison of two faces into a similarity report.

The pipeline: normalize the pair onto a shared canvas, measure the
canonical features on both, take the ratio entropy of each feature pair,
push it through the membership kernel, average the memberships into the
feature score, rasterize the outlines into the overlap score, and blend
the two with the mixing weight k:

    similarity = 100 * (feature_score * k + alpha * (1 - k))

All scoring runs through score_pairs, which splits the pipeline into a
per-face prepare step (rescale onto the pair's canvas, measure the
features, rasterize the outline) and a per-pair score step, so a face
shared by many pairs on one canvas is prepared once.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from statistics import fmean

from .features import FaceInput, FeatureVector, extract_features
from .fuzzymath import (
    BellKernel,
    MembershipKernel,
    check_entropy_kernel,
    eval_membership,
    kernel_to_dict,
    shannon_entropy,
)
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
        if isinstance(self.k, bool) or not isinstance(self.k, (int, float)) \
                or not (math.isfinite(self.k) and 0.0 <= self.k <= 1.0):
            raise ValueError(f"mixing weight k must lie in [0, 1], got {self.k!r}")
        if not isinstance(self.alpha_mode, AlphaMode):
            raise ValueError(f"alpha_mode must be an AlphaMode, got {self.alpha_mode!r}")
        check_entropy_kernel(self.kernel)
        rs = self.resolution_scale
        if rs is not None and (not isinstance(rs, int) or isinstance(rs, bool) or rs < 1):
            raise ValueError(f"resolution_scale must be a positive integer or None, got {rs!r}")


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
    """Full trace of one comparison; checks its own consistency."""

    a_id: str
    b_id: str
    features: tuple[FeatureRow, ...]
    feature_score: float
    alpha: float
    k: float
    similarity: float
    alpha_mode: AlphaMode
    kernel: MembershipKernel
    resolution_scale: int

    def __post_init__(self) -> None:
        if len(self.features) < 1:
            raise ValueError("a report needs at least one feature row")
        for row in self.features:
            if not (0.0 <= row.entropy <= 1.0 and 0.0 <= row.membership <= 1.0):
                raise ValueError(f"feature row '{row.name}' outside [0, 1]: {row!r}")
        if not (0.0 <= self.feature_score <= 1.0 and 0.0 <= self.alpha <= 1.0):
            raise ValueError("feature_score and alpha must lie in [0, 1]")
        if abs(self.feature_score - fmean(r.membership for r in self.features)) > 1e-12:
            raise ValueError("feature_score does not equal the mean membership")
        expected = 100.0 * (self.feature_score * self.k + self.alpha * (1.0 - self.k))
        if abs(self.similarity - expected) > 1e-9:
            raise ValueError("similarity does not match its own terms")

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


def feature_membership(a: float, b: float, kernel: MembershipKernel) -> tuple[float, float]:
    """Entropy of one feature's two measurements and its kernel membership."""
    entropy = shannon_entropy((a, b))
    return entropy, eval_membership(kernel, entropy)


def compare(face_a: FaceInput, face_b: FaceInput, config: ScoringConfig | None = None) -> MatchReport:
    """Run the full pipeline on two faces.

    Features are measured after canvas normalization, so a genuine pair
    photographed at different resolutions still measures equal and the
    result does not depend on image size. Deterministic for fixed inputs
    and config.
    """
    return score_pairs([face_a, face_b], [(0, 1)], config)[0]


def score_pairs(
    faces: Sequence[FaceInput],
    pairs: Iterable[tuple[int, int]],
    config: ScoringConfig | None = None,
) -> list[MatchReport]:
    """Score each ``(i, j)`` pair of indices into ``faces``, in the given order.

    Each report equals ``compare(faces[i], faces[j], config)`` bit for
    bit. A face is prepared (rescaled, measured, rasterized) at most once
    per canvas size and raster scale, so scoring every pair of N faces
    that share one canvas rasterizes N times rather than twice per pair.
    Prepared faces live only for this call.
    """
    if config is None:
        config = ScoringConfig()
    # keyed by index: FaceInput holds a dict and cannot be hashed
    prepared: dict[tuple[int, int, int, int], tuple[FeatureVector, BinaryMask]] = {}

    def prepare(index: int, canvas: Canvas, scale: int) -> tuple[FeatureVector, BinaryMask]:
        key = (index, canvas.width, canvas.height, scale)
        if key not in prepared:
            face = rescale_face(faces[index], canvas.width, canvas.height)
            prepared[key] = (extract_features(face), rasterize(face.outline, canvas, scale))
        return prepared[key]

    reports = []
    for i, j in pairs:
        face_a, face_b = faces[i], faces[j]
        canvas = pair_canvas(face_a, face_b)
        scale = config.resolution_scale
        if scale is None:
            scale = default_resolution_scale(canvas)
        features_a, mask_a = prepare(i, canvas, scale)
        features_b, mask_b = prepare(j, canvas, scale)

        # Both vectors come from extract_features over CANONICAL_FEATURES, so
        # their names align and FeatureVector has checked every value positive.
        rows = []
        for (name, a), (_, b) in zip(features_a.items, features_b.items):
            entropy, membership = feature_membership(a, b, config.kernel)
            rows.append(FeatureRow(name, a, b, entropy, membership))
        feature_score = fmean(row.membership for row in rows)
        alpha = alpha_from_masks(mask_a, mask_b, config.alpha_mode)

        # MatchReport checks every range and recomputes both derived terms
        reports.append(MatchReport(
            a_id=face_a.id,
            b_id=face_b.id,
            features=tuple(rows),
            feature_score=feature_score,
            alpha=alpha,
            k=config.k,
            similarity=100.0 * (feature_score * config.k + alpha * (1.0 - config.k)),
            alpha_mode=config.alpha_mode,
            kernel=config.kernel,
            resolution_scale=scale,
        ))
    return reports
