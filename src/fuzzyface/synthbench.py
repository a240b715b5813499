"""Seeded synthetic face populations and the verification benchmark.

The generator starts from one fixed frontal template (landmarks plus a
face oval truncated at ear height and closed across the ear line) and
layers Gaussian jitter on it: identity-level offsets make distinct
people, capture-level offsets make repeat photos of the same person.
Outline vertices jitter radially (toward or away from the face center)
so the polygon stays simple. All draws come from one seeded generator,
so a config reproduces its population bit for bit.

The evaluator scores every same-identity pair as genuine and every
cross-identity pair as impostor, then reports score statistics, the ROC
curve, the exact rank AUC, and the accuracy at a decision threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .features import REQUIRED_LANDMARKS, FaceInput, extract_features
from .geometry import finite_number, is_number, python_number, whole_number
from .scoring import ScoringConfig, pair_scores
from .scoring import compare  # not called here; perfbench/run.py --trace 1 wraps this name

_TEMPLATE_WIDTH = 512
_TEMPLATE_HEIGHT = 512
_FACE_CENTER = (256.0, 265.0)
_FACE_RADII = (62.0, 77.0)
_EAR_LINE_Y = 251.0
_OUTLINE_VERTEX_COUNT = 31
_MAX_DRAW_ATTEMPTS = 100

_TEMPLATE_LANDMARKS: dict[str, tuple[float, float]] = {
    "eye_left": (232.0, 253.0),
    "eye_right": (280.0, 253.0),
    "nose_base": (256.0, 286.0),
    "mouth_top": (256.0, 303.0),
    "mouth_left": (237.0, 307.0),
    "mouth_right": (275.0, 307.0),
    "ear_left": (196.0, 251.0),
    "ear_right": (316.0, 251.0),
    "brow_left_inner": (241.0, 238.0),
    "brow_left_outer": (218.0, 240.0),
    "brow_right_inner": (271.0, 238.0),
    "brow_right_outer": (294.0, 240.0),
    "chin": (256.0, 337.0),
}


def _template_outline() -> np.ndarray:
    """Face oval arc from ear to ear around the chin; closure runs across the ear line."""
    cx, cy = _FACE_CENTER
    rx, ry = _FACE_RADII
    start = math.asin((_EAR_LINE_Y - cy) / ry)
    end = math.pi - start
    angles = np.linspace(start, end, _OUTLINE_VERTEX_COUNT)
    return np.column_stack((cx + rx * np.cos(angles), cy + ry * np.sin(angles)))


_TEMPLATE_OUTLINE = _template_outline()
_OUTLINE_RADIAL = (_TEMPLATE_OUTLINE - np.asarray(_FACE_CENTER)) / np.linalg.norm(
    _TEMPLATE_OUTLINE - np.asarray(_FACE_CENTER), axis=1, keepdims=True
)


class GenerationError(ValueError):
    """Raised when jitter keeps producing invalid faces (sigmas too large)."""


@dataclass(frozen=True)
class PopulationConfig:
    """Size, noise scales (pixels), and seed of a synthetic population."""

    identity_count: int
    captures_per_identity: int
    identity_sigma: float = 6.0
    capture_sigma: float = 1.0
    outline_sigma: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        for label, minimum in (("identity_count", 1), ("captures_per_identity", 1), ("seed", 0)):
            object.__setattr__(self, label, whole_number(label, getattr(self, label), minimum))
        for label in ("identity_sigma", "capture_sigma", "outline_sigma"):
            value = getattr(self, label)
            if finite_number(label, value) < 0.0:
                raise ValueError(f"{label} must be a non-negative real, got {value!r}")
            object.__setattr__(self, label, python_number(value))


@dataclass(frozen=True)
class LabeledFace:
    """A generated face tagged with the identity it belongs to."""

    identity: str
    face: FaceInput


def _build_face(face_id: str, landmarks: np.ndarray, outline: np.ndarray) -> FaceInput:
    face = FaceInput(
        id=face_id,
        image_width=_TEMPLATE_WIDTH,
        image_height=_TEMPLATE_HEIGHT,
        landmarks=dict(zip(REQUIRED_LANDMARKS, landmarks.tolist())),
        outline=outline.tolist(),
    )
    extract_features(face)  # degenerate landmark draws are invalid too
    return face


_TEMPLATE_LANDMARK_ARRAY = np.asarray(
    [_TEMPLATE_LANDMARKS[name] for name in REQUIRED_LANDMARKS], dtype=float
)


def _draw_face(
    rng: np.random.Generator, face_id: str, kind: str, landmarks: np.ndarray,
    outline: np.ndarray, landmark_sigma: float, outline_sigmas: tuple[float, ...],
) -> tuple[FaceInput, np.ndarray, np.ndarray]:
    """A valid face jittered off the given geometry, with its drawn landmarks and outline.

    Each attempt draws the landmark normals, then one normal per outline
    vertex for each of outline_sigmas, summed into a radial offset.
    Invalid draws are redrawn up to _MAX_DRAW_ATTEMPTS times.
    """
    for _ in range(_MAX_DRAW_ATTEMPTS):
        # A huge sigma can draw an infinity, which the sums and products turn
        # into NaN; such a face fails FaceInput's point check and is redrawn,
        # with no numpy warning.
        with np.errstate(over="ignore", invalid="ignore"):
            drawn_landmarks = landmarks + rng.normal(0.0, landmark_sigma, size=landmarks.shape)
            radial = sum(rng.normal(0.0, s, size=_OUTLINE_VERTEX_COUNT) for s in outline_sigmas)
            drawn_outline = outline + radial[:, None] * _OUTLINE_RADIAL
        try:
            face = _build_face(face_id, drawn_landmarks, drawn_outline)
        except ValueError:
            continue
        return face, drawn_landmarks, drawn_outline
    raise GenerationError(
        f"could not draw a valid {kind} after {_MAX_DRAW_ATTEMPTS} attempts; "
        "sigmas are too large for the canvas"
    )


def generate_population(config: PopulationConfig) -> list[LabeledFace]:
    """Draw identity_count * captures_per_identity valid faces, reproducibly.

    Identity geometry jitters both the landmarks (per coordinate, by
    identity_sigma) and the outline (radially, by identity_sigma plus
    outline_sigma); captures re-jitter both by capture_sigma, so zero
    capture noise makes every capture of an identity identical. Invalid
    draws are resampled a bounded number of times.
    """
    rng = np.random.default_rng(config.seed)
    population: list[LabeledFace] = []
    for i in range(config.identity_count):
        identity = f"id{i:03d}"
        _, landmarks, outline = _draw_face(
            rng, f"{identity}_probe", "identity", _TEMPLATE_LANDMARK_ARRAY, _TEMPLATE_OUTLINE,
            config.identity_sigma, (config.identity_sigma, config.outline_sigma),
        )
        for j in range(config.captures_per_identity):
            face, _, _ = _draw_face(
                rng, f"{identity}_c{j:02d}", "capture", landmarks, outline,
                config.capture_sigma, (config.capture_sigma,),
            )
            population.append(LabeledFace(identity, face))
    return population


@dataclass(frozen=True)
class EvalReport:
    """Verification statistics over all genuine and impostor pairs.

    Every number is a finite int or float (numpy's too, never a bool),
    stored as its Python number; threshold lies in [0, 100], and auc,
    accuracy_at_threshold and each roc point's two rates in [0, 1], so
    dump_json writes the report as strict JSON.
    """

    genuine_scores: tuple[float, ...]
    impostor_scores: tuple[float, ...]
    genuine_mean: float
    genuine_stddev: float
    impostor_mean: float
    impostor_stddev: float
    roc_points: tuple[tuple[float, float], ...]
    auc: float
    threshold: float
    accuracy_at_threshold: float

    def __post_init__(self) -> None:
        for label in ("genuine_scores", "impostor_scores"):
            scores = getattr(self, label)
            # report_from_scores passes tuples of finite floats, which skip the full test
            if not (type(scores) is tuple and set(map(type, scores)) <= {float}
                    and math.isfinite(sum(scores))):
                object.__setattr__(self, label, tuple(
                    _in_range(f"{label}[{i}]", score) for i, score in enumerate(scores)))
        for label, bounds in (("genuine_mean", ()), ("genuine_stddev", ()), ("impostor_mean", ()),
                              ("impostor_stddev", ()), ("auc", (0, 1)), ("threshold", (0, 100)),
                              ("accuracy_at_threshold", (0, 1))):
            object.__setattr__(self, label, _in_range(label, getattr(self, label), *bounds))
        far0 = tar0 = 0.0
        floats = True
        for i, point in enumerate(self.roc_points):
            try:
                far, tar = point
            except (TypeError, ValueError):  # not a pair
                far = tar = None
            # report_from_scores passes rising floats in [0, 1], which skip
            # the full test; NaN fails it
            if not (type(far) is type(tar) is float and far0 <= far <= 1.0
                    and tar0 <= tar <= 1.0):
                if not (is_number(far) and is_number(tar)):
                    raise ValueError(f"each roc point must be a pair of numbers, got {point!r}")
                far = _in_range(f"roc point {i} far", far, 0, 1)
                tar = _in_range(f"roc point {i} tar", tar, 0, 1)
                if far < far0 or tar < tar0:
                    raise ValueError("roc points must be monotone non-decreasing")
                floats = False
            far0, tar0 = far, tar
        object.__setattr__(self, "roc_points", tuple(self.roc_points) if floats else tuple(
            (python_number(far), python_number(tar)) for far, tar in self.roc_points))

    def to_dict(self) -> dict:
        return {
            **vars(self),
            "genuine_scores": list(self.genuine_scores),
            "impostor_scores": list(self.impostor_scores),
            "roc_points": [list(p) for p in self.roc_points],
        }


def _in_range(label: str, value, low=-math.inf, high=math.inf):
    """``value`` as its Python number; it must be a finite int or float (not a bool) in [low, high]."""
    if not low <= finite_number(label, value) <= high:
        raise ValueError(f"{label} must lie in [{low}, {high}], got {value!r}")
    return python_number(value)


def _score_array(label: str, scores) -> np.ndarray:
    """``scores`` as a float array; each must be a finite int or float, not a bool or a string.

    An int or float array, and a sequence of plain floats, is checked as
    a whole, by np.isfinite, so the scores report_from_scores passes
    cost no pass in Python. Otherwise, or if one is not finite, each
    score is checked by finite_number, and the first bad one is named
    by ``label`` and its position; an int too large for int64 is taken
    at its float if that is finite.
    """
    if isinstance(scores, np.ndarray):
        if scores.ndim != 1:
            raise ValueError(f"{label} must be a sequence or a 1-D array, got shape {scores.shape}")
        whole = scores.dtype.kind in "iuf"
    else:
        scores = tuple(scores)
        whole = set(map(type, scores)) <= {float}
    if whole:
        array = np.asarray(scores, dtype=float)
        if np.isfinite(array).all():
            return array
    return np.array([finite_number(f"{label} {i}", score) for i, score in enumerate(scores)],
                    dtype=float)


def rank_auc(genuine_scores, impostor_scores) -> float:
    """Probability a random genuine score outranks a random impostor score.

    Computed exactly via midranks; ties count one half. Each score must
    be a finite int or float.
    """
    g = _score_array("genuine_scores", genuine_scores)
    m = _score_array("impostor_scores", impostor_scores)
    if g.size == 0 or m.size == 0:
        raise ValueError("rank AUC needs both genuine and impostor scores")
    scores = np.concatenate([g, m])
    uniques, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    first_rank = np.concatenate([[0], np.cumsum(counts)[:-1]])
    midrank = first_rank + (counts + 1) / 2.0  # 1-based average rank of each tie group
    ranks = midrank[inverse]
    u = ranks[: g.size].sum() - g.size * (g.size + 1) / 2.0
    return float(u / (g.size * m.size))


def roc_points(genuine_scores, impostor_scores) -> list[tuple[float, float]]:
    """(false-accept-rate, true-accept-rate) at every distinct threshold.

    Acceptance is score >= threshold; the curve starts at (0, 0) and
    ends at (1, 1). Each score must be a finite int or float.
    """
    g = np.sort(_score_array("genuine_scores", genuine_scores))
    m = np.sort(_score_array("impostor_scores", impostor_scores))
    if g.size == 0 or m.size == 0:
        raise ValueError("ROC needs both genuine and impostor scores")
    thresholds = np.unique(np.concatenate([g, m]))[::-1]
    tar = (g.size - np.searchsorted(g, thresholds, side="left")) / g.size
    far = (m.size - np.searchsorted(m, thresholds, side="left")) / m.size
    return [(0.0, 0.0)] + list(zip(far.tolist(), tar.tolist()))


def report_from_scores(genuine_scores, impostor_scores, threshold: float) -> EvalReport:
    """Assemble the verification report from already computed score lists."""
    g = _score_array("genuine score", genuine_scores)
    m = _score_array("impostor score", impostor_scores)
    if g.size == 0:
        raise ValueError("no genuine scores to evaluate")
    if m.size == 0:
        raise ValueError("no impostor scores to evaluate")
    _in_range("threshold", threshold, 0, 100)
    accepted = int(np.count_nonzero(g >= threshold))
    rejected = int(np.count_nonzero(m < threshold))
    return EvalReport(
        genuine_scores=tuple(g.tolist()),
        impostor_scores=tuple(m.tolist()),
        genuine_mean=float(g.mean()),
        genuine_stddev=float(g.std()),
        impostor_mean=float(m.mean()),
        impostor_stddev=float(m.std()),
        roc_points=tuple(roc_points(g, m)),
        auc=rank_auc(g, m),
        threshold=float(threshold),
        accuracy_at_threshold=(accepted + rejected) / (g.size + m.size),
    )


def labeled_pairs(population: list[LabeledFace]) -> list[tuple[int, int, str]]:
    """Every index pair i < j in row order, "genuine" for one identity, else "impostor"."""
    return [
        (i, j, "genuine" if population[i].identity == population[j].identity else "impostor")
        for i in range(len(population))
        for j in range(i + 1, len(population))
    ]


def evaluate(
    population: list[LabeledFace],
    config: ScoringConfig | None = None,
    threshold: float = 90.0,
) -> EvalReport:
    """Score every pair in the population and report verification quality.

    Pairs are labeled by labeled_pairs; the population must yield at
    least one genuine and one impostor pair.
    """
    if config is None:
        config = ScoringConfig()
    pairs = labeled_pairs(population)
    labels = {label for _, _, label in pairs}
    if "genuine" not in labels:
        raise ValueError("population yields no genuine pairs (need an identity with 2+ captures)")
    if "impostor" not in labels:
        raise ValueError("population yields no impostor pairs (need 2+ identities)")
    scores = pair_scores(
        [labeled.face for labeled in population], [(i, j) for i, j, _ in pairs], config
    )
    scored = list(zip(pairs, scores))
    genuine = [s for (_, _, label), (_, _, s) in scored if label == "genuine"]
    impostor = [s for (_, _, label), (_, _, s) in scored if label == "impostor"]
    return report_from_scores(genuine, impostor, threshold)
