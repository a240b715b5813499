"""Shared builders for hand-made faces and the entropy references used across the tests."""

from __future__ import annotations

import math
import os
from collections.abc import Sequence

import mpmath
from hypothesis import settings

from fuzzyface import BellKernel, FaceInput, feature_membership

# HYPOTHESIS_PROFILE=ci draws the same examples on every run, so a failing
# CI run can be replayed; other runs draw fresh examples. Loaded here,
# before the test modules build their @settings, so those inherit it.
settings.register_profile("ci", derandomize=True, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

# landmark layout as fractions of the image, valid on any canvas size
LANDMARK_FRACTIONS = {
    "eye_left": (0.35, 0.40),
    "eye_right": (0.65, 0.40),
    "nose_base": (0.50, 0.55),
    "mouth_top": (0.50, 0.62),
    "mouth_left": (0.40, 0.66),
    "mouth_right": (0.60, 0.66),
    "ear_left": (0.15, 0.42),
    "ear_right": (0.85, 0.42),
    "brow_left_inner": (0.42, 0.33),
    "brow_left_outer": (0.28, 0.34),
    "brow_right_inner": (0.58, 0.33),
    "brow_right_outer": (0.72, 0.34),
    "chin": (0.50, 0.85),
}


def standard_landmarks(width: int = 100, height: int = 100) -> dict:
    return {name: (fx * width, fy * height) for name, (fx, fy) in LANDMARK_FRACTIONS.items()}


def make_face(face_id: str = "f", width: int = 100, height: int = 100,
              landmarks: dict | None = None, outline=None) -> FaceInput:
    if landmarks is None:
        landmarks = standard_landmarks(width, height)
    if outline is None:
        outline = (
            (0.1 * width, 0.1 * height),
            (0.9 * width, 0.1 * height),
            (0.9 * width, 0.9 * height),
            (0.1 * width, 0.9 * height),
        )
    return FaceInput(
        id=face_id,
        image_width=width,
        image_height=height,
        landmarks=landmarks,
        outline=outline,
    )


# A valid 256 x 384 outline with a vertex a few ulps from a non-adjacent
# edge: stretched 3 x 2 onto a 768 x 768 canvas, the vertex rounds onto
# that edge, so the stretched face is refused as self-intersecting.
STRETCH_REFUSED_OUTLINE = (
    (183.6124069738618, 154.81610571296014), (53.2509312275939, 12.756128497327353),
    (113.18537680759806, 4.117507276618575), (115.45418004213052, 80.54143131585876),
    (191.40226225535878, 89.35349360599824),
)


def stretch_refused_face(face_id: str = "found") -> FaceInput:
    """A valid 256 x 384 face that cannot be stretched onto a 768 x 768 canvas."""
    return make_face(face_id, 256, 384, landmarks=standard_landmarks(256, 384),
                     outline=STRETCH_REFUSED_OUTLINE)


def zero_area_face(face_id: str = "dot") -> FaceInput:
    """A valid 100 x 100 face whose outline covers no pixel center at the default scale."""
    return make_face(face_id, outline=((10.0, 10.0), (10.01, 10.0), (10.0, 10.01)))


def scaled_face(face: FaceInput, c: float) -> FaceInput:
    """Scale dimensions and every coordinate by c; c must keep dims integral."""
    w = face.image_width * c
    h = face.image_height * c
    assert w == int(w) and h == int(h), "pick c so scaled dimensions stay integral"
    return FaceInput(
        id=face.id,
        image_width=int(w),
        image_height=int(h),
        landmarks={name: (x * c, y * c) for name, (x, y) in face.landmarks.items()},
        outline=tuple((x * c, y * c) for x, y in face.outline),
    )


def raster_scale_for(*faces: FaceInput, target: int = 2048) -> int:
    """Resolution multiplier putting the pair's canvas at or above target pixels."""
    canvas = max(max(f.image_width, f.image_height) for f in faces)
    return max(1, math.ceil(target / canvas))


def feature_entropy(a: float, b: float) -> float:
    """The entropy that scoring computes for a feature measured a and b."""
    return feature_membership(a, b, BellKernel())[0]


# The general n-value entropy that scoring.feature_membership computes for
# two values; test_scoring holds the two equal bit for bit.
def shannon_entropy(values: Sequence[float]) -> float:
    """Base-2 entropy of the ratio distribution of ``values``.

    Each value is divided by the total to form a probability; zero
    probabilities contribute nothing. The result lies in
    [0, log2(len(values))]. For a two-element input it lies in [0, 1]
    and reaches 1 exactly when both elements are equal.

    Raises ValueError for an empty input, a negative or non-finite
    element, or a zero total.
    """
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("entropy needs at least one value")
    for v in vals:
        if not math.isfinite(v) or v < 0.0:
            raise ValueError(f"entropy values must be finite and non-negative, got {v!r}")
    try:
        total = math.fsum(vals)
    except OverflowError:
        raise ValueError("entropy values overflow when summed") from None
    if total <= 0.0:
        raise ValueError("entropy values must not sum to zero")
    h = 0.0
    for v in vals:
        if v > 0.0:
            p = v / total
            h -= p * math.log2(p)
    # each term is non-negative, so only the upper bound can collect float dust
    return min(h, math.log2(len(vals)))


def entropy_oracle(values) -> float:
    """50-digit reference evaluation of shannon_entropy, independent of floats."""
    with mpmath.workdps(50):
        total = mpmath.fsum(mpmath.mpf(v) for v in values)
        h = mpmath.mpf(0)
        for v in values:
            if v > 0:
                p = mpmath.mpf(v) / total
                h -= p * mpmath.log(p, 2)
        return float(h)
