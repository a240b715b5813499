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

import numpy as np

from .geometry import (Point, distance, finite_number, is_number, midpoint, polygon_is_simple,
                       python_number, whole_number)

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

# most outline vertices a face may have; the self-intersection test builds
# n x (n + 1) float matrices, which at this bound take about 24 MiB and 20 ms
MAX_OUTLINE_VERTICES = 1024

_COORDINATE_TYPES = (int, float)


def _check_point(label: str, key, pt, width: int, height: int) -> Point:
    """A point is exactly two ints or floats (not bools), finite and inside the image.

    An error names the point as ``label.format(key)``, formatted only then.
    """
    try:
        x, y = pt
    except (TypeError, ValueError):
        x = y = None
    # two plain floats inside the image pass at once; NaN and the
    # infinities fail these comparisons and are worded below
    if type(x) is float and type(y) is float and 0.0 <= x <= width and 0.0 <= y <= height:
        return (x, y)
    name = label.format(key)
    # plain ints and floats take the fast test; the slow one admits their
    # subclasses, such as numpy's float64, but never a bool
    if not (type(x) in _COORDINATE_TYPES and type(y) in _COORDINATE_TYPES
            or is_number(x) and is_number(y)):
        raise ValueError(f"{name} must be an array of two numbers, got {pt!r}")
    try:
        x, y = float(x), float(y)
    except OverflowError:  # an int too large for a float
        raise ValueError(f"{name} has a non-finite coordinate: {pt!r}") from None
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"{name} has a non-finite coordinate: {pt!r}")
    if not (0.0 <= x <= width and 0.0 <= y <= height):
        raise ValueError(
            f"{name} is outside the image bounds [0, {width}] x [0, {height}]: ({x}, {y})"
        )
    return (x, y)


def _keep_outline(face: FaceInput, outline: tuple[Point, ...], array: np.ndarray) -> None:
    """Store ``outline`` on ``face``, once it passes the rules that its coordinates decide.

    ``array`` holds the same vertices as float64. These are the rules a
    per-axis stretch can break, since it rounds each coordinate, so a
    stretched face meets them again. Next to the field, the face keeps
    ``array``, made read-only, as ``_outline_array``: the one the
    self-intersection test ran on, which the pair engine fills. Its
    ``_prepared`` is the pair engine's memo, created empty here; the
    engine (scoring._prepared) alone reads and fills it. A face is
    frozen, so an entry never goes stale.
    """
    if outline[0] == outline[-1]:
        raise ValueError("outline must not repeat its first vertex (closure is implicit)")
    if not polygon_is_simple(array):
        raise ValueError("outline is self-intersecting")
    array.setflags(write=False)
    _store(face, outline=outline, _outline_array=array, _prepared={})


def _store(face: FaceInput, **fields) -> None:
    """Set ``fields`` past the frozen guard; vars(face).update makes later reads 3x as slow."""
    for name, value in fields.items():
        object.__setattr__(face, name, value)


def _check_image_size(width, height) -> tuple[int, int]:
    """The two sides as Python ints; each must be an int (numpy's too) from 1 to MAX_IMAGE_SIDE."""
    sides = []
    for label, value in (("image width", width), ("image height", height)):
        side = whole_number(label, value, 1)
        if side > MAX_IMAGE_SIDE:
            raise ValueError(f"{label} must be at most {MAX_IMAGE_SIDE}")  # value may be huge
        sides.append(side)
    return sides[0], sides[1]


class _Landmarks(dict):
    """A face's landmarks, which are read-only like the rest of the face."""

    def _read_only(self, *args, **kwargs):
        raise TypeError("a face's landmarks are read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):  # a copy is built from a plain dict, not item by item
        return _Landmarks, (dict(self),)


@dataclass(frozen=True)
class FaceInput:
    """One face: named landmarks plus a closed outline polygon.

    The outline is implicitly closed; its first vertex must not be
    repeated at the end, and it must be a simple (non-self-intersecting)
    polygon. Each point is exactly two ints or floats (not bools), finite
    and inside the image, whose sides are at most MAX_IMAGE_SIDE pixels;
    the outline has at most MAX_OUTLINE_VERTICES vertices. Unknown
    landmark names are kept but ignored by the canonical features. The
    stored landmarks are read-only and the stored outline is a tuple.
    The face also keeps its outline's vertex array and the pair engine's
    memo (see _keep_outline), so its outline is converted and tested for
    self-intersection once. They are not fields, so equality, ``repr``,
    ``replace`` and ``asdict`` see only the five fields. A copy or an
    unpickled face is built again from its fields, checks included, with
    an empty memo.
    """

    id: str
    image_width: int
    image_height: int
    landmarks: Mapping[str, Point]
    outline: Sequence[Point]

    def __post_init__(self) -> None:
        if not isinstance(self.id, str) or not self.id:
            raise ValueError(f"face id must be a non-empty string, got {self.id!r}")
        width, height = _check_image_size(self.image_width, self.image_height)
        _store(self, image_width=width, image_height=height)  # numpy ints as ints

        try:
            named_points = dict(self.landmarks).items()
        except (TypeError, ValueError):  # not a mapping, nor a sequence of pairs
            raise ValueError(
                f"landmarks must map names to points, got {self.landmarks!r}"
            ) from None
        landmarks = {}
        for name, pt in named_points:
            landmarks[str(name)] = _check_point(
                "landmark '{}'", name, pt, self.image_width, self.image_height
            )
        for name in REQUIRED_LANDMARKS:
            if name not in landmarks:
                raise ValueError(f"missing required landmark '{name}'")

        try:
            vertices = enumerate(self.outline)
        except TypeError:
            raise ValueError(
                f"outline must be a sequence of points, got {self.outline!r}"
            ) from None
        outline = tuple(
            _check_point("outline vertex {}", i, pt, self.image_width, self.image_height)
            for i, pt in vertices
        )
        if len(outline) < 3:
            raise ValueError(f"outline needs at least 3 vertices, got {len(outline)}")
        if len(outline) > MAX_OUTLINE_VERTICES:
            raise ValueError(f"outline has {len(outline)} vertices, more than "
                             f"{MAX_OUTLINE_VERTICES}")
        _keep_outline(self, outline, np.array(outline, dtype=float))
        object.__setattr__(self, "landmarks", _Landmarks(landmarks))

    def __reduce__(self):
        return FaceInput, (self.id, self.image_width, self.image_height, dict(self.landmarks),
                           self.outline)


def rescale_face(face: FaceInput, width: int, height: int) -> FaceInput:
    """The face stretched per axis onto a width x height canvas.

    The face itself when the canvas is its own size: every factor is
    1.0 and the clamp cannot move a point of a valid face. Any other
    size builds a new face from the clamped points, which are finite and
    inside the canvas by construction, under the face's own landmark
    names and vertex count. So only the canvas size and the outline
    rules are checked again: the stretch can round a vertex onto a
    non-adjacent edge, and refusing it keeps every score exact. An
    error names the face and the size.
    """
    if (width, height) == (face.image_width, face.image_height):
        return face
    try:
        # the size first: a huge or non-integer side would break the division
        width, height = _check_image_size(width, height)
        sx = width / face.image_width
        sy = height / face.image_height
        points = (np.concatenate((np.array([*face.landmarks.values()]), face._outline_array))
                  * (sx, sy))
        # Clamp away float dust so edge coordinates stay inside the canvas.
        # where() gives exactly what min(max(v, 0.0), size) gives per point,
        # signed zeros included; np.maximum may return 0.0 for -0.0.
        size = np.array([width, height], dtype=float)
        points = np.where(points < 0.0, 0.0, points)
        points = np.where(points > size, size, points)
        count = len(face.landmarks)
        coordinates = points.tolist()
        stretched = object.__new__(FaceInput)
        # the fields FaceInput.__post_init__ would store; _keep_outline adds the outline
        _store(stretched, id=face.id, image_width=width, image_height=height,
               landmarks=_Landmarks(zip(face.landmarks, map(tuple, coordinates[:count]))))
        _keep_outline(stretched, tuple(map(tuple, coordinates[count:])), points[count:])
    except ValueError as exc:
        raise ValueError(f"face '{face.id}' stretched onto {width} x {height}: {exc}") from None
    return stretched


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


# the fixed canonical feature set, in this order
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
    """Ordered (name, value) measurements for one face; values > 0.

    Each name is a non-empty string. Each value is a finite int or float
    (numpy's too, never a bool), stored as its Python number.
    """

    items: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        items = self.items
        try:
            if type(items) is tuple:
                # extract_features passes a tuple of (name, positive float)
                # tuples, which skip the full test
                for item in items:
                    name, value = item
                    if not (type(item) is tuple and type(name) is str and name
                            and type(value) is float and 0.0 < value < math.inf):
                        break
                else:
                    return
            items = [(name, value) for name, value in items]
        except (TypeError, ValueError):  # not a sequence of pairs
            raise ValueError(f"feature items must be (name, value) pairs, got {items!r}") from None
        for name, value in items:
            if not (isinstance(name, str) and name):
                raise ValueError(f"feature names must be non-empty strings, got {name!r}")
            if not finite_number(f"feature '{name}'", value) > 0.0:
                raise ValueError(f"feature '{name}' must be a positive real, got {value!r}")
        # an int or a numpy scalar is kept as its Python number
        object.__setattr__(self, "items", tuple(
            (name, python_number(value)) for name, value in items))


def extract_features(face: FaceInput) -> FeatureVector:
    """Measure the canonical distance features on one face.

    A zero distance means coincident landmarks and is rejected, since it
    signals corrupt input rather than dissimilarity.
    """
    items = []
    for name, fn in CANONICAL_FEATURES:
        value = fn(face.landmarks)
        if value == 0.0:
            raise ValueError(f"feature '{name}' is zero (coincident landmarks) on face '{face.id}'")
        items.append((name, value))
    return FeatureVector(tuple(items))
