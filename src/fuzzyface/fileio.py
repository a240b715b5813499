"""JSON file formats: face inputs, pair manifests, calibrated models.

All writes are whole-file atomic (temp file then rename) and all floats
are serialized with shortest round-trip precision, so loading a saved
document reproduces the exact values.
"""

from __future__ import annotations

import json
import math
import os
import secrets
from dataclasses import dataclass
from pathlib import Path

from .calibration import CalibrationState
from .features import FaceInput
from .fuzzymath import MembershipKernel, kernel_from_dict, kernel_to_dict
from .geometry import finite_number, whole_number
from .scoring import ScoringConfig
from .silhouette import AlphaMode

FACE_FILE_VERSION = 1
MANIFEST_VERSION = 1

PAIR_LABELS = ("genuine", "impostor")


class FaceFileError(ValueError):
    """A document failed to parse or validate; the message names the field."""


# the C string escaper json.dumps uses with its default ensure_ascii=True
_escape = json.encoder.encode_basestring_ascii

# nesting deeper than this (a circular list, say) is left to json.dumps
_MAX_NESTING = 100


class _Unsupported(Exception):
    """A value the fast writer does not spell; json.dumps decides it instead."""


def _float_text(value: float) -> str:
    if math.isfinite(value):
        return repr(value)
    return "NaN" if value != value else ("Infinity" if value > 0 else "-Infinity")


# json's spelling of each plain scalar, by exact type (so a bool is not an int)
_SCALAR_TEXT = {
    str: _escape,
    int: int.__repr__,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _to_json(value, newline: str) -> str:
    """``value`` as ``json.dumps(value, sort_keys=True, indent=2)`` spells it.

    ``newline`` is the line break plus the indent of the line ``value``
    starts on. Only dicts with str keys, lists, tuples, str, int, float,
    bool and None are spelled here, by exact type; anything else, a
    subclass included, raises _Unsupported.
    """
    kind = type(value)
    if kind in _SCALAR_TEXT:
        return _SCALAR_TEXT[kind](value)
    if len(newline) > 2 * _MAX_NESTING:
        raise _Unsupported
    inner = newline + "  "
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        try:  # most lists hold only scalars
            items = [_SCALAR_TEXT[type(item)](item) for item in value]
        except KeyError:
            items = [_to_json(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if kind is dict:
        if not value:
            return "{}"
        if set(map(type, value)) != {str}:
            raise _Unsupported
        items = []
        for key in sorted(value):
            item = value[key]
            scalar_text = _SCALAR_TEXT.get(type(item))
            text = scalar_text(item) if scalar_text else _to_json(item, inner)
            items.append(_escape(key) + ": " + text)
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise _Unsupported


def dump_json(data) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline.

    The text is exactly ``json.dumps(data, sort_keys=True, indent=2)``
    plus the newline. That call runs json's pure-Python encoder, since
    an indent turns the C one off, so the plain values documents hold
    are spelled here with json's own string escaper and number forms;
    any other value, or nesting past _MAX_NESTING, goes to json.dumps.
    """
    try:
        return _to_json(data, "\n") + "\n"
    except _Unsupported:
        return json.dumps(data, sort_keys=True, indent=2) + "\n"


def atomic_write_text(path, text: str) -> None:
    """Write ``text`` verbatim (no newline translation) to ``path`` in one rename."""
    atomic_write_texts([(path, text)])


def atomic_write_texts(files) -> None:
    """Write each ``(path, text)`` as atomic_write_text does, the renames last.

    Every temporary file is written before the first rename, so a path
    that cannot be created or written leaves each output as it was.
    A temporary file is created with mode 0o666, so the kernel applies
    the umask as it does for a plain ``open``; ``mkstemp`` would leave
    every output at 0o600. A path that cannot be created, such as one in
    a missing directory, is named in the error, not its temporary file.
    Two paths that resolve to one file are refused before anything is
    written, since the second rename would replace the first output.
    """
    files = list(files)
    if len(files) > 1:  # realpath costs a stat per path component
        given = {}
        for path, _ in files:
            real = os.path.realpath(path)
            if real in given:
                raise ValueError(f"outputs {given[real]} and {path} are the same file")
            given[real] = path
    renames = []
    try:
        for path, text in files:
            path = Path(path)
            tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp")
            try:
                fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            except OSError as exc:  # OSError picks the subclass of the errno
                raise OSError(exc.errno, exc.strerror, str(path)) from None
            renames.append((tmp, path))
            with os.fdopen(fd, "w", newline="") as handle:
                handle.write(text)
        for tmp, path in renames:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in renames:
            tmp.unlink(missing_ok=True)  # a renamed one is gone already
        raise


def _load_document(path) -> dict:
    """Read a JSON document as UTF-8 (RFC 8259); every failure names the file."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise FaceFileError(f"{path}: cannot read file ({exc})") from None
    # ValueError covers bad JSON, bytes that are not UTF-8 and integers past
    # the digit limit; RecursionError, arrays or objects nested too deep
    except (ValueError, RecursionError) as exc:
        raise FaceFileError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise FaceFileError(f"{path}: top-level value must be an object")
    return doc


def _check_version(path, doc: dict, expected: int) -> None:
    version = doc.get("version")
    if type(version) is not int or version != expected:  # true and 1.0 equal 1
        raise FaceFileError(f"{path}: unsupported version {version!r} (expected {expected})")


def face_to_dict(face: FaceInput) -> dict:
    return {
        "version": FACE_FILE_VERSION,
        "id": face.id,
        "image": {"width": face.image_width, "height": face.image_height},
        "landmarks": {name: [x, y] for name, (x, y) in sorted(face.landmarks.items())},
        "outline": [[x, y] for x, y in face.outline],
    }


def load_face(path) -> FaceInput:
    """Read and validate one face document."""
    doc = _load_document(path)
    _check_version(path, doc, FACE_FILE_VERSION)
    for key in ("id", "image", "landmarks", "outline"):
        if key not in doc:
            raise FaceFileError(f"{path}: missing field '{key}'")
    image = doc["image"]
    if not isinstance(image, dict) or "width" not in image or "height" not in image:
        raise FaceFileError(f"{path}: field 'image' must be an object with 'width' and 'height'")
    if not isinstance(doc["landmarks"], dict):
        raise FaceFileError(f"{path}: field 'landmarks' must be an object")
    if not isinstance(doc["outline"], list):
        raise FaceFileError(f"{path}: field 'outline' must be a list")
    try:
        return FaceInput(
            id=doc["id"],
            image_width=image["width"],
            image_height=image["height"],
            landmarks=doc["landmarks"],
            outline=doc["outline"],
        )
    except ValueError as exc:
        raise FaceFileError(f"{path}: {exc}") from None


def save_face(face: FaceInput, path) -> None:
    atomic_write_text(path, dump_json(face_to_dict(face)))


@dataclass(frozen=True)
class ManifestPair:
    """One labeled comparison; paths are resolved against the manifest dir."""

    a: Path
    b: Path
    label: str

    def __post_init__(self) -> None:
        if self.label not in PAIR_LABELS:
            raise ValueError(f"pair label must be one of {PAIR_LABELS}, got {self.label!r}")


def load_manifest(path) -> list[ManifestPair]:
    """Read a pair manifest; entry order is preserved (calibration depends on it)."""
    doc = _load_document(path)
    _check_version(path, doc, MANIFEST_VERSION)
    if "pairs" not in doc or not isinstance(doc["pairs"], list):
        raise FaceFileError(f"{path}: missing or malformed field 'pairs'")
    base = Path(path).parent
    joined: dict[str, Path] = {}  # pairs naming one file share one Path

    def resolve(name) -> Path:
        # a name that is not a string fails in the join, before it is
        # hashed (a list cannot be)
        if type(name) is not str or name not in joined:
            joined[name] = base / name
        return joined[name]

    pairs = []
    for i, entry in enumerate(doc["pairs"]):
        if not isinstance(entry, dict) or not {"a", "b", "label"} <= set(entry):
            raise FaceFileError(f"{path}: pair {i} must have fields 'a', 'b' and 'label'")
        try:
            pairs.append(ManifestPair(resolve(entry["a"]), resolve(entry["b"]), entry["label"]))
        except (ValueError, TypeError) as exc:
            raise FaceFileError(f"{path}: pair {i}: {exc}") from None
    return pairs


def manifest_to_dict(entries) -> dict:
    """Entries are (a_name, b_name, label) triples, kept in order."""
    return {
        "version": MANIFEST_VERSION,
        "pairs": [{"a": str(a), "b": str(b), "label": label} for a, b, label in entries],
    }


def save_manifest(entries, path) -> None:
    atomic_write_text(path, dump_json(manifest_to_dict(entries)))


@dataclass(frozen=True)
class CalibratedModel:
    """A trained mixing weight plus the scoring context it was trained under.

    As finalized from a calibration state: 0 <= k1 <= k <= k2 <= 1 with k
    the bracket midpoint, at least one accepted sample, and a kernel
    whose membership stays in [0, 1] over the entropy range [0, 1].
    """

    k: float
    k1: float
    k2: float
    n: int
    skipped: int
    alpha_mode: AlphaMode
    kernel: MembershipKernel

    def __post_init__(self) -> None:
        for key in ("k", "k1", "k2"):
            object.__setattr__(self, key, finite_number(f"field '{key}'", getattr(self, key)))
        k, k1, k2 = self.k, self.k1, self.k2
        if not (0.0 <= k1 <= k <= k2 <= 1.0):
            raise ValueError("fields 'k1', 'k', 'k2' must satisfy 0 <= k1 <= k <= k2 <= 1, "
                             f"got {k1!r}, {k!r}, {k2!r}")
        if k != (k1 + k2) / 2.0:
            raise ValueError(f"field 'k' must be the midpoint of k1 and k2, got {k!r}")
        for key, minimum in (("n", 1), ("skipped", 0)):
            value = whole_number(f"field '{key}'", getattr(self, key), minimum)
            object.__setattr__(self, key, value)
        ScoringConfig(k, self.alpha_mode, self.kernel)  # its alpha_mode and kernel checks

    @classmethod
    def from_state(
        cls, state: CalibrationState, alpha_mode: AlphaMode, kernel: MembershipKernel
    ) -> "CalibratedModel":
        return cls(
            k=state.finalize(),
            k1=state.k1,
            k2=state.k2,
            n=state.n,
            skipped=state.skipped,
            alpha_mode=alpha_mode,
            kernel=kernel,
        )

    def to_dict(self) -> dict:
        return {
            **vars(self),
            "alpha_mode": self.alpha_mode.value,
            "kernel": kernel_to_dict(self.kernel),
        }


def load_model(path) -> CalibratedModel:
    """Read a calibrated model; CalibratedModel checks every field."""
    doc = _load_document(path)
    for key in ("k", "k1", "k2", "n", "skipped", "alpha_mode", "kernel"):
        if key not in doc:
            raise FaceFileError(f"{path}: missing field '{key}'")
    try:
        return CalibratedModel(
            k=doc["k"],
            k1=doc["k1"],
            k2=doc["k2"],
            n=doc["n"],
            skipped=doc["skipped"],
            alpha_mode=AlphaMode(doc["alpha_mode"]),
            kernel=kernel_from_dict(doc["kernel"]),
        )
    except ValueError as exc:
        raise FaceFileError(f"{path}: {exc}") from None


def save_model(model: CalibratedModel, path) -> None:
    atomic_write_text(path, dump_json(model.to_dict()))
