"""Landmarked face inputs and the canonical distance features.

A face is ingested as named 2D landmarks plus a closed outline polygon,
both in pixel coordinates of the source image (x right, y down). The
feature extractor turns one face into an ordered vector of positive
distances. Scoring zips two faces' vectors, which share the canonical
order, into the two-element sets its entropy runs on.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass

from .geometry import Point, distance, midpoint, polygon_is_simple

REQUIRED_LANDMARKS: tuple[str, ...] = (
    "eye_left",
    "eye_right",
    "nose_base",
    "mouth_top",
    "mouth_left",
    "mouth_right",
    "ear_left",
    "ear_right",
    "brow_left_inner",
    "brow_left_outer",
    "brow_right_inner",
    "brow_right_outer",
    "chin",
)

# longest image side a face may declare; keeps every size and scale factor a plain float
MAX_IMAGE_SIDE = 2 ** 16


def _check_point(label: str, pt, width: int, height: int) -> Point:
    try:
        x, y = float(pt[0]), float(pt[1])
    except (TypeError, ValueError, IndexError):
        raise ValueError(f"{label} is not a 2D point: {pt!r}") from None
    except OverflowError:  # an int too large for a float
        raise ValueError(f"{label} has a non-finite coordinate: {pt!r}") from None
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"{label} has a non-finite coordinate: {pt!r}")
    if not (0.0 <= x <= width and 0.0 <= y <= height):
        raise ValueError(
            f"{label} is outside the image bounds [0, {width}] x [0, {height}]: ({x}, {y})"
        )
    return (x, y)


class _CheckedOutline(tuple):
    """An outline that passed every FaceInput check; only FaceInput creates one."""

    __slots__ = ()


@dataclass(frozen=True)
class FaceInput:
    """One face: named landmarks plus a closed outline polygon.

    The outline is implicitly closed; its first vertex must not be
    repeated at the end, and it must be a simple (non-self-intersecting)
    polygon. All coordinates must be finite and inside the image, whose
    sides are at most MAX_IMAGE_SIDE pixels.
    Unknown landmark names are kept but ignored by the canonical
    features. The stored outline is a tuple that ``rasterize`` knows to
    be checked already, so a face's outline is tested for
    self-intersection once.
    """

    id: str
    image_width: int
    image_height: int
    landmarks: Mapping[str, Point]
    outline: Sequence[Point]

    def __post_init__(self) -> None:
        if not isinstance(self.id, str) or not self.id:
            raise ValueError(f"face id must be a non-empty string, got {self.id!r}")
        for label, value in (("image width", self.image_width), ("image height", self.image_height)):
            if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
                raise ValueError(f"{label} must be a positive integer, got {value!r}")
            if value > MAX_IMAGE_SIDE:
                raise ValueError(f"{label} must be at most {MAX_IMAGE_SIDE}")  # value may be huge

        landmarks = {}
        for name, pt in dict(self.landmarks).items():
            landmarks[str(name)] = _check_point(
                f"landmark '{name}'", pt, self.image_width, self.image_height
            )
        for name in REQUIRED_LANDMARKS:
            if name not in landmarks:
                raise ValueError(f"missing required landmark '{name}'")

        outline = tuple(
            _check_point(f"outline vertex {i}", pt, self.image_width, self.image_height)
            for i, pt in enumerate(self.outline)
        )
        if len(outline) < 3:
            raise ValueError(f"outline needs at least 3 vertices, got {len(outline)}")
        if outline[0] == outline[-1]:
            raise ValueError("outline must not repeat its first vertex (closure is implicit)")
        if not polygon_is_simple(outline):
            raise ValueError("outline is self-intersecting")

        object.__setattr__(self, "landmarks", landmarks)
        object.__setattr__(self, "outline", _CheckedOutline(outline))


FeatureFn = Callable[[Mapping[str, Point]], float]


def _between(a: str, b: str) -> FeatureFn:
    def fn(lm: Mapping[str, Point]) -> float:
        return distance(lm[a], lm[b])

    return fn


def _eyebrow_length(lm: Mapping[str, Point]) -> float:
    left = distance(lm["brow_left_inner"], lm["brow_left_outer"])
    right = distance(lm["brow_right_inner"], lm["brow_right_outer"])
    return (left + right) / 2.0


def _chin_to_brow_mid(lm: Mapping[str, Point]) -> float:
    left = midpoint(lm["brow_left_inner"], lm["brow_left_outer"])
    right = midpoint(lm["brow_right_inner"], lm["brow_right_outer"])
    return distance(lm["chin"], midpoint(left, right))


# fixed canonical feature set, in this order; extend by passing your own
# (name, fn) sequence to extract_features
CANONICAL_FEATURES: tuple[tuple[str, FeatureFn], ...] = (
    ("interocular", _between("eye_left", "eye_right")),
    ("nose_to_mouth", _between("nose_base", "mouth_top")),
    ("ear_to_ear", _between("ear_left", "ear_right")),
    ("mouth_width", _between("mouth_left", "mouth_right")),
    ("eyebrow_length", _eyebrow_length),
    ("chin_to_brow_mid", _chin_to_brow_mid),
)


@dataclass(frozen=True)
class FeatureVector:
    """Ordered (name, value) measurements for one face; values > 0."""

    items: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        for name, value in self.items:
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"feature '{name}' must be a positive real, got {value!r}")


def extract_features(
    face: FaceInput,
    features: Sequence[tuple[str, FeatureFn]] = CANONICAL_FEATURES,
) -> FeatureVector:
    """Measure the given distance features on one face.

    A zero distance means coincident landmarks and is rejected, since it
    signals corrupt input rather than dissimilarity.
    """
    items = []
    for name, fn in features:
        try:
            value = float(fn(face.landmarks))
        except KeyError as exc:
            raise ValueError(f"feature '{name}' needs missing landmark {exc}") from None
        if value == 0.0:
            raise ValueError(f"feature '{name}' is zero (coincident landmarks) on face '{face.id}'")
        items.append((name, value))
    if not items:
        raise ValueError("feature list is empty")
    return FeatureVector(tuple(items))
