"""End-to-end comparison of two faces into a similarity report.

The pipeline: normalize the pair onto a shared canvas (normalize_pair:
the componentwise max of the two image sizes, each face stretched per
axis), measure the canonical features on both, take the ratio entropy
of each feature pair, push it through the membership kernel, average
the memberships into the feature score, rasterize the outlines into the
overlap score, and blend the two with the mixing weight k:

    similarity = 100 * (feature_score * k + alpha * (1 - k))

Each face is prepared (rescaled onto the pair's canvas, its features
measured, its outline rasterized) at most once per canvas size and
raster scale, over all calls: _prepare keeps its feature values and its
mask in its memo, one entry per key, (width, height, scale). compare
scores one pair on the scalar forms: alpha_from_masks of its two masks
and feature_membership of each feature. The block engine scores many
pairs with the same bits. Its prepare step, _prepared, groups a block's
pairs by key with a sorted np.unique, not a loop over pairs, and gives
each key's faces slots, key by key in canvas size order and in index
order within a key: rows of one value matrix, and masks. It scores the
block as numpy columns: the two mask areas and their intersection per
pair (overlap_counts, or packed_overlap_counts for a key with many
pairs), and an entropy and a membership per feature, from one gather of
each pair's two value rows: math.log2, and the bell kernel's square and
exponential, stay libm calls on Python floats, with no Python frame per
value (the kernel's evaluate_column). The blend is written once
(_feature_score and _similarity) and the checks once, in MatchReport.
score_pairs turns each block into MatchReports, reading each alpha off
its counts with alpha_from_counts; pair_scores takes the alphas
(alphas_from_counts) and the blend as columns and keeps only each
pair's feature score, alpha and similarity. A block that fails raises
what a compare of each of its pairs in turn raises first (_first_error).
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import NoReturn

import numpy as np

from .features import (CANONICAL_FEATURES, MAX_IMAGE_SIDE, FaceInput, extract_features,
                       rescale_face)
from .fuzzymath import BellKernel, MembershipKernel, check_entropy_kernel, kernel_to_dict
from .geometry import in_range, is_number, python_number, whole_number
from .silhouette import (
    AlphaMode,
    BinaryMask,
    Canvas,
    alpha_from_counts,
    alpha_from_masks,
    alphas_from_counts,
    check_raster_frame,
    default_resolution_scale,
    fill_outlines,
    overlap_counts,
    packed_overlap_counts,
)
from .silhouette import rasterize  # not called here; perfbench/run.py --trace 1 wraps this name


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
        object.__setattr__(self, "k", in_range("mixing weight k", self.k, 0, 1))
        if not isinstance(self.alpha_mode, AlphaMode):
            raise ValueError(f"alpha_mode must be an AlphaMode, got {self.alpha_mode!r}")
        check_entropy_kernel(self.kernel)
        if self.resolution_scale is not None:
            object.__setattr__(self, "resolution_scale",
                               whole_number("resolution_scale", self.resolution_scale, 1))


@dataclass(frozen=True)
class FeatureRow:
    """Per-feature trace: its name, both measurements, their entropy, its membership."""

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
        if type(self.features) is not tuple:
            if not isinstance(self.features, Sequence):
                raise ValueError(f"report features must be a sequence of FeatureRows, "
                                 f"got {self.features!r}")
            object.__setattr__(self, "features", tuple(self.features))
        if len(self.features) < 1:
            raise ValueError("a report needs at least one feature row")
        # the engine passes named FeatureRows of floats in range, which skip
        # the full test in _checked_row: a call per value made each report half
        # again as slow to build. A numpy scalar is kept as its Python value,
        # set by object.__setattr__: vars(self) slows every later read (CPython 3.11).
        for row in self.features:
            if not (type(row) is FeatureRow and type(row.name) is str and row.name
                    and type(row.a) is type(row.b) is float
                    and type(row.entropy) is type(row.membership) is float
                    and 0.0 <= row.entropy <= 1.0 and 0.0 <= row.membership <= 1.0
                    and 0.0 < row.a < math.inf and 0.0 < row.b < math.inf):
                object.__setattr__(self, "features", tuple(map(_checked_row, self.features)))
                break
        alpha = self.alpha
        if not (type(alpha) is float and 0.0 <= alpha <= 1.0):
            alpha = in_range("alpha", alpha, 0, 1)
            object.__setattr__(self, "alpha", alpha)
        # k, alpha_mode and kernel pass ScoringConfig's checks, in its words,
        # so a similarity lies in [0, 100] and to_dict can write the report;
        # with a float k in range and a mode, only its kernel check is left
        k = self.k
        if type(k) is float and 0.0 <= k <= 1.0 and isinstance(self.alpha_mode, AlphaMode):
            check_entropy_kernel(self.kernel)
        else:
            k = ScoringConfig(k, self.alpha_mode, self.kernel).k
            object.__setattr__(self, "k", k)
        object.__setattr__(self, "resolution_scale",
                           whole_number("resolution_scale", self.resolution_scale, 1))
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
    """A new row, each numpy scalar as its Python value; raises unless MatchReport takes it.

    A bool is refused and a string is refused in words, where the range
    tests alone would let a bool through and raise TypeError on a string.
    """
    if not isinstance(row, FeatureRow):
        raise ValueError(f"report features must be FeatureRows, got {row!r}")
    if not (isinstance(row.name, str) and row.name):
        raise ValueError(f"feature row names must be non-empty strings, got {row.name!r}")
    a, b, entropy, membership = map(python_number, (row.a, row.b, row.entropy, row.membership))
    if not (is_number(entropy) and is_number(membership)
            and 0.0 <= entropy <= 1.0 and 0.0 <= membership <= 1.0):
        raise ValueError(f"feature row '{row.name}' outside [0, 1]: {row!r}")
    # like a FeatureVector's values; NaN fails the comparisons
    if not (is_number(a) and is_number(b) and 0.0 < a < math.inf and 0.0 < b < math.inf):
        raise ValueError(f"feature row '{row.name}' measurements must be positive "
                         f"reals: {row!r}")
    return FeatureRow(row.name, a, b, entropy, membership)


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
    """Run the full pipeline on two faces, on the scalar forms.

    Features are measured after canvas normalization, so a genuine pair
    photographed at different resolutions still measures equal and the
    result does not depend on image size. Deterministic for fixed inputs
    and config. Its steps come in order (the two faces, their overlap,
    their features, the report's checks), and each raises in its own
    words.
    """
    if config is None:
        config = ScoringConfig()
    width = max(face_a.image_width, face_b.image_width)
    height = max(face_a.image_height, face_b.image_height)
    key, canvas = _key(width, height, config)
    _prepare(key, canvas, (face_a, face_b))
    (values_a, mask_a), (values_b, mask_b) = face_a._prepared[key], face_b._prepared[key]
    alpha = alpha_from_masks(mask_a, mask_b, config.alpha_mode)
    rows = tuple(FeatureRow(name, a, b, *feature_membership(a, b, config.kernel))
                 for name, a, b in zip(_FEATURE_NAMES, values_a, values_b))
    return MatchReport(a_id=face_a.id, b_id=face_b.id, features=rows, alpha=alpha, k=config.k,
                       alpha_mode=config.alpha_mode, kernel=config.kernel, resolution_scale=key[2])


_FEATURE_NAMES = tuple(name for name, _ in CANONICAL_FEATURES)  # the order of a face's values
_SIDES = MAX_IMAGE_SIDE + 1  # a canvas (width, height) is coded as width * _SIDES + height


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


def _block_indices(faces: Sequence[FaceInput], block: list) -> np.ndarray:
    """The block's pairs as an (n, 2) int array, each checked as _pair_indices checks it."""
    # pairs of plain ints in range, as the CLI and evaluate pass them, are
    # checked at once; by type, since a bool is an int
    if set(map(type, block)) <= {tuple, list} and set(map(len, block)) == {2}:
        flat = list(chain.from_iterable(block))
        if set(map(type, flat)) == {int} and 0 <= min(flat) and max(flat) < len(faces):
            return np.array(flat, dtype=np.intp).reshape(-1, 2)
    return np.array([_pair_indices(faces, pair) for pair in block], dtype=np.intp)


def _key(width: int, height: int, config: ScoringConfig) -> tuple[tuple[int, int, int], Canvas]:
    """The memo key (width, height, scale) of a pair's canvas, and the canvas."""
    canvas = Canvas(width, height)
    scale = config.resolution_scale
    return (width, height, default_resolution_scale(canvas) if scale is None else scale), canvas


def _prepare(key: tuple[int, int, int], canvas: Canvas, faces: Iterable[FaceInput]) -> None:
    """Give each of ``faces`` without one its (values, mask) entry at ``key``, in its memo.

    Those faces, each once and in order, are stretched and measured, and
    the raster frame is checked after each, where rasterizing it alone
    would refuse the frame; then one fill_outlines call fills them all,
    and only then do they get their entries in ``face._prepared``.
    """
    # by id, since FaceInput holds a dict and cannot be hashed
    pending = {id(face): face for face in faces if key not in face._prepared}
    if not pending:
        return
    width, height, scale = key
    measured = []
    for face in pending.values():
        stretched = rescale_face(face, width, height)
        values = tuple(value for _, value in extract_features(stretched).items)
        check_raster_frame(canvas, scale)
        measured.append((face, values, stretched._outline_array))
    masks = fill_outlines([outline for _, _, outline in measured], canvas, scale)
    for (face, values, _), mask in zip(measured, masks):
        face._prepared[key] = values, mask


def _prepared(faces: Sequence[FaceInput], block: list, config: ScoringConfig):
    """Each pair's key and two slots, and each key's faces prepared on its canvas.

    A key is (width, height, scale), and a slot is one face on one key's
    canvas. The result: the keys, each key's number of slots, each
    slot's face, the values (a row per slot: the six feature values, in
    CANONICAL_FEATURES order), the masks, and each pair's key and slots.
    Every pair's indices are checked first. Each pair's canvas is
    normalize_pair's, the componentwise max of its faces' sizes; sorted
    np.unique gives the keys in canvas size order, each canvas built
    once, and the slots coded key * n + face index: one run per key, one
    slot per index, in index order. Then _prepare gives each key's faces
    their entries, key by key.
    """
    # each np.unique input is flat, as numpy 2.0's inverse takes its input's shape
    indices = _block_indices(faces, block)
    named, at = np.unique(indices.ravel(), return_inverse=True)
    named = [faces[k] for k in named.tolist()]
    widths = np.array([face.image_width for face in named])[at.reshape(-1, 2)]
    heights = np.array([face.image_height for face in named])[at.reshape(-1, 2)]
    codes, pair_keys = np.unique(widths.max(axis=1) * _SIDES + heights.max(axis=1),
                                 return_inverse=True)
    n = len(faces)
    slot_codes, slots = np.unique((pair_keys[:, None] * n + indices).ravel(), return_inverse=True)
    slot_faces = [faces[k] for k in (slot_codes % n).tolist()]
    key_slots = np.bincount(slot_codes // n, minlength=len(codes)).tolist()
    keys, entries, start = [], [], 0
    for code, count in zip(codes.tolist(), key_slots):
        key, canvas = _key(*divmod(code, _SIDES), config)
        key_faces = slot_faces[start:start + count]
        _prepare(key, canvas, key_faces)
        keys.append(key)
        entries += [face._prepared[key] for face in key_faces]
        start += count
    values, masks = zip(*entries)
    return keys, key_slots, slot_faces, np.array(values), masks, pair_keys, slots.reshape(-1, 2)


def _overlaps(key_slots: list[int], masks: Sequence[BinaryMask], pair_keys: np.ndarray,
              slots: np.ndarray) -> np.ndarray:
    """Each pair's overlap_counts, ``(area_a, area_b, intersection)``, as an (n, 3) array.

    A key's pairs are counted together, by packed_overlap_counts, when
    they number at least twice its faces. Packing a mask costs about as
    much as counting one pair alone (5-12 and 6-8 us), and a packed pair
    costs about 1-1.5 us, so a smaller key, such as the genuine pairs of
    a manifest, gains nothing. Its pairs are counted one at a time, by
    overlap_counts.
    """
    counts = np.empty((len(slots), 3), dtype=np.int64)
    start = 0
    for k, pairs in enumerate(np.bincount(pair_keys, minlength=len(key_slots)).tolist()):
        end = start + key_slots[k]
        at = np.flatnonzero(pair_keys == k)
        if pairs >= 2 * key_slots[k]:
            counts[at] = packed_overlap_counts(masks[start:end], slots[at, 0] - start,
                                               slots[at, 1] - start)
        else:
            counts[at] = [overlap_counts(masks[a], masks[b]) for a, b in slots[at].tolist()]
        start = end
    return counts


# one block of pairs scored up to the blend: _prepared's keys, slot faces,
# pair keys and slots; each pair's two value rows (the first faces', then
# the second faces'); its overlap_counts; and its entropies and memberships
_Columns = tuple[list[tuple[int, int, int]], list[FaceInput], np.ndarray, np.ndarray,
                 np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _columns(faces: Sequence[FaceInput], block: list, config: ScoringConfig) -> _Columns:
    """Prepare a block's faces and take each pair's overlap counts, entropies and memberships.

    Each pair's two value rows are one gather of its slots' rows. Every
    pair's indices are checked and every face is prepared, key by key,
    before any pair is scored, so an error raised here need not be the
    first in pair order: the block's consumers raise _first_error's.
    """
    keys, key_slots, slot_faces, values, masks, pair_keys, slots = _prepared(faces, block, config)
    counts = _overlaps(key_slots, masks, pair_keys, slots)
    pair_values = values[slots.T]  # each pair's two rows: (2, n, 6)
    return (keys, slot_faces, pair_keys, slots, pair_values, counts,
            *entropy_membership(pair_values, config.kernel))


def _first_error(faces: Sequence[FaceInput], block: list, config: ScoringConfig) -> NoReturn:
    """Raise the first error that a compare of each pair of a failed block raises, in pair order.

    A pair's bad indices raise in _pair_indices' words when it is reached.
    """
    for pair in block:
        i, j = _pair_indices(faces, pair)
        compare(faces[i], faces[j], config)
    raise AssertionError(f"a block of {len(block)} pairs failed where each pair scores alone")


def _scored_blocks(faces: Sequence[FaceInput], pairs: Iterable[tuple[int, int]],
                   config: ScoringConfig) -> Iterator[tuple[list, _Columns]]:
    """Each block of up to _BLOCK_PAIRS pairs, in pair order, and its columns.

    A block in which any step raises ValueError raises _first_error's
    error instead, so the error raised is the first in pair order.
    """
    pairs = iter(pairs)
    while block := list(islice(pairs, _BLOCK_PAIRS)):
        try:
            columns = _columns(faces, block, config)
        except ValueError:
            _first_error(faces, block, config)
        yield block, columns


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
    mode = config.alpha_mode
    reports = []
    for _, columns in _scored_blocks(faces, pairs, config):
        keys, slot_faces, pair_keys, slots, pair_values, counts, entropies, memberships = columns
        values_a, values_b = pair_values.tolist()
        ids = [face.id for face in slot_faces]
        # the first bad pair raises, in MatchReport's words
        for (a, b), key, row_a, row_b, (area_a, area_b, inter), entropy, membership in zip(
                slots.tolist(), pair_keys.tolist(), values_a, values_b,
                counts.tolist(), entropies.tolist(), memberships.tolist()):
            rows = tuple(map(FeatureRow, _FEATURE_NAMES, row_a, row_b, entropy, membership))
            reports.append(MatchReport(
                a_id=ids[a], b_id=ids[b], features=rows,
                alpha=alpha_from_counts(area_a, area_b, inter, mode), k=config.k,
                alpha_mode=mode, kernel=config.kernel, resolution_scale=keys[key][2]))
    return reports


def pair_scores(
    faces: Sequence[FaceInput],
    pairs: Iterable[tuple[int, int]],
    config: ScoringConfig | None = None,
) -> list[tuple[float, float, float]]:
    """``(feature_score, alpha, similarity)`` of each pair, as score_pairs' reports hold them.

    The same steps as score_pairs, so each value equals the report's bit
    for bit and each error is the one score_pairs raises, but with the
    blend taken as columns and no FeatureRow or MatchReport built: for
    callers that read only the scores, such as evaluate and calibrate. A
    block whose columns fail the report's ranges raises _first_error's
    error.
    """
    if config is None:
        config = ScoringConfig()
    scores: list[tuple[float, float, float]] = []
    for block, (*_, counts, entropy, membership) in _scored_blocks(faces, pairs, config):
        alpha = alphas_from_counts(counts, config.alpha_mode)
        # MatchReport's checks on the columns; a bad value fails on NaN too
        if not (((0.0 <= entropy) & (entropy <= 1.0) & (0.0 <= membership) & (membership <= 1.0))
                .all() and ((0.0 <= alpha) & (alpha <= 1.0)).all()):
            _first_error(faces, block, config)
        # _feature_score of each row: its fsum over its length
        feature_score = np.fromiter(map(math.fsum, membership.tolist()), float,
                                    len(membership)) / membership.shape[1]
        similarity = _similarity(feature_score, alpha, config.k)
        scores += zip(feature_score.tolist(), alpha.tolist(), similarity.tolist())
    return scores


def entropy_membership(values: np.ndarray,
                       kernel: MembershipKernel) -> tuple[np.ndarray, np.ndarray]:
    """feature_membership of each ``(values[0], values[1])`` element pair, bit for bit, unchecked.

    The basic operations (sums, quotients, products, differences) are
    correctly rounded, so numpy's equal math's; ``0.0 - x`` is
    np.subtract, since ``-x`` would turn 0.0 into -0.0. math.log2 runs on
    Python floats (np.log2 differs from it in the last bit on some
    inputs), and the memberships are the kernel's evaluate_column, which
    keeps evaluate's bits. The values must be positive and finite, as a
    FeatureVector's are. A share that is 0.0, where feature_membership
    raises, makes math.log2 raise its own bare ValueError.
    """
    with np.errstate(over="ignore"):  # a + b overflows to inf, as in Python, without a warning
        total = values[0] + values[1]
    shares = values / total
    logs = np.fromiter(map(math.log2, shares.ravel().tolist()), float, shares.size)
    terms = shares * logs.reshape(shares.shape)
    entropy = np.minimum(np.subtract(0.0, terms[0]) - terms[1], 1.0)
    return entropy, kernel.evaluate_column(entropy.ravel()).reshape(entropy.shape)
