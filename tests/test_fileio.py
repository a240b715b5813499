"""File formats: faces, manifests, models, and their failure messages."""

import copy
import enum
import json
import math
import os
import re
import stat
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import make_face, standard_landmarks
from fuzzyface import (
    DEFAULT_KERNELS,
    AlphaMode,
    BellKernel,
    CalibratedModel,
    CalibrationState,
    FaceFileError,
    FaceInput,
    TrapezoidKernel,
    face_to_dict,
    load_face,
    load_manifest,
    load_model,
    save_face,
    save_manifest,
    save_model,
)
from fuzzyface.fileio import atomic_write_text, atomic_write_texts, dump_json

VALID_MODEL = {
    "k": 0.95, "k1": 0.9, "k2": 1.0, "n": 3, "skipped": 1,
    "alpha_mode": "complement", "kernel": {"type": "bell", "r": 1.0},
}
MODEL_FIELDS = dict(VALID_MODEL, alpha_mode=AlphaMode.COMPLEMENT, kernel=BellKernel())

# tmp_path is shared by the examples of one test; each example overwrites its file
FILE_PER_EXAMPLE = dict(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestFaceFiles:
    def test_round_trip_exact(self, tmp_path):
        landmarks = standard_landmarks()
        landmarks["eye_left"] = (35.123456789012345, 40.98765432109876)
        face = make_face(landmarks=landmarks)
        path = tmp_path / "face.json"
        save_face(face, path)
        loaded = load_face(path)
        assert loaded == face
        save_face(loaded, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_unknown_landmarks_preserved(self, tmp_path):
        landmarks = standard_landmarks()
        landmarks["dimple"] = (42.0, 61.5)
        face = make_face(landmarks=landmarks)
        path = tmp_path / "face.json"
        save_face(face, path)
        assert load_face(path).landmarks["dimple"] == (42.0, 61.5)

    def test_schema_shape(self, tmp_path):
        path = tmp_path / "face.json"
        save_face(make_face(), path)
        doc = json.loads(path.read_text())
        assert doc["version"] == 1
        assert set(doc) == {"version", "id", "image", "landmarks", "outline"}
        assert doc["image"] == {"width": 100, "height": 100}
        assert len(doc["landmarks"]) == 13

    def test_missing_landmark_named(self, tmp_path):
        doc = face_to_dict(make_face())
        del doc["landmarks"]["chin"]
        path = tmp_path / "face.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FaceFileError, match="chin"):
            load_face(path)

    def test_version_mismatch(self, tmp_path):
        doc = face_to_dict(make_face())
        doc["version"] = 2
        path = tmp_path / "face.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FaceFileError, match="version 2"):
            load_face(path)

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_version_must_be_the_integer_one(self, tmp_path, version):
        # both equal 1 in Python, yet neither is the format's integer 1
        doc = face_to_dict(make_face())
        doc["version"] = version
        path = tmp_path / "face.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FaceFileError, match=rf"unsupported version {version!r} \(expected 1\)"):
            load_face(path)

    def test_unparsable_document(self, tmp_path):
        path = tmp_path / "face.json"
        path.write_text("{not json")
        with pytest.raises(FaceFileError, match="not valid JSON"):
            load_face(path)

    @pytest.mark.parametrize("side", [2**31, 2**63, 10**400])
    def test_oversized_image(self, tmp_path, side):
        doc = face_to_dict(make_face())
        doc["image"]["width"] = side
        path = tmp_path / "face.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FaceFileError, match=f"^{re.escape(str(path))}: image width must be at most"):
            load_face(path)

    def test_malformed_polygon(self, tmp_path):
        doc = face_to_dict(make_face())
        doc["outline"] = [[10.0, 10.0], [90.0, 90.0]]
        path = tmp_path / "face.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FaceFileError, match="outline"):
            load_face(path)

    @pytest.mark.parametrize("field, key, value, message", [
        ("landmarks", "chin", "99", "landmark 'chin' must be an array of two"),
        ("landmarks", "chin", [True, 30], "landmark 'chin' must be an array of two"),
        ("landmarks", "chin", [25, 30, 7], "landmark 'chin' must be an array of two"),
        ("landmarks", "chin", [10**400, 30], "landmark 'chin' has a non-finite coordinate"),
        ("outline", 1, [90, "10"], "outline vertex 1 must be an array of two"),
    ])
    def test_malformed_point_rejected(self, tmp_path, field, key, value, message):
        # FaceInput refuses each of these, and the loader names the file
        doc = face_to_dict(make_face())
        doc[field][key] = value
        path = tmp_path / "face.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FaceFileError, match=f"^{re.escape(str(path))}: {message}"):
            load_face(path)

    def test_integer_coordinates_load(self, tmp_path):
        doc = face_to_dict(make_face())
        doc["landmarks"]["chin"] = [50, 85]
        path = tmp_path / "face.json"
        path.write_text(json.dumps(doc))
        assert load_face(path).landmarks["chin"] == (50.0, 85.0)

    def test_missing_field(self, tmp_path):
        doc = face_to_dict(make_face())
        del doc["image"]
        path = tmp_path / "face.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FaceFileError, match="'image'"):
            load_face(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FaceFileError, match="cannot read"):
            load_face(tmp_path / "absent.json")

    def test_no_temp_leftovers(self, tmp_path):
        save_face(make_face(), tmp_path / "face.json")
        assert [p.name for p in tmp_path.iterdir()] == ["face.json"]


class TestManifests:
    def test_round_trip_and_resolution(self, tmp_path):
        save_manifest(
            [("a.json", "b.json", "genuine"), ("a.json", "c.json", "impostor")],
            tmp_path / "manifest.json",
        )
        pairs = load_manifest(tmp_path / "manifest.json")
        assert len(pairs) == 2
        assert pairs[0].a == tmp_path / "a.json"
        assert pairs[1].a is pairs[0].a  # each distinct name is joined once
        assert pairs[0].label == "genuine"
        assert pairs[1].label == "impostor"

    def test_order_preserved(self, tmp_path):
        entries = [(f"{i}.json", f"{i+1}.json", "genuine") for i in range(10)]
        save_manifest(entries, tmp_path / "m.json")
        pairs = load_manifest(tmp_path / "m.json")
        assert [p.a.name for p in pairs] == [a for a, _, _ in entries]

    def test_bad_label(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(
            {"version": 1, "pairs": [{"a": "x.json", "b": "y.json", "label": "match"}]}
        ))
        with pytest.raises(FaceFileError, match="label"):
            load_manifest(path)

    def test_missing_pair_field(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"version": 1, "pairs": [{"a": "x.json"}]}))
        with pytest.raises(FaceFileError, match="pair 0"):
            load_manifest(path)

    @pytest.mark.parametrize("name", [5, ["x.json"], None, {"f": 1}])
    def test_face_name_not_a_string(self, tmp_path, name):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"version": 1, "pairs": [
            {"a": "x.json", "b": "y.json", "label": "genuine"},
            {"a": name, "b": "x.json", "label": "genuine"},
        ]}))
        with pytest.raises(FaceFileError, match="pair 1"):
            load_manifest(path)

    def test_version_check(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"version": 3, "pairs": []}))
        with pytest.raises(FaceFileError, match="version"):
            load_manifest(path)

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_version_must_be_the_integer_one(self, tmp_path, version):
        # both equal 1 in Python, yet neither is the format's integer 1
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"version": version, "pairs": []}))
        with pytest.raises(FaceFileError, match=rf"unsupported version {version!r} \(expected 1\)"):
            load_manifest(path)


class TestModels:
    def test_round_trip(self, tmp_path):
        state = CalibrationState(k1=0.9, k2=0.98, n=12, skipped=1)
        model = CalibratedModel.from_state(state, AlphaMode.LITERAL, TrapezoidKernel())
        path = tmp_path / "model.json"
        save_model(model, path)
        assert load_model(path) == model

    def test_schema_keys(self, tmp_path):
        model = CalibratedModel(
            k=0.97, k1=0.95, k2=0.99, n=4, skipped=0,
            alpha_mode=AlphaMode.COMPLEMENT, kernel=BellKernel(),
        )
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        assert set(doc) == {"k", "k1", "k2", "n", "skipped", "alpha_mode", "kernel"}
        assert doc["alpha_mode"] == "complement"

    def test_missing_key(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"k": 0.9}))
        with pytest.raises(FaceFileError, match="missing field"):
            load_model(path)

    def test_out_of_range_k(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({
            "k": 1.4, "k1": 0.9, "k2": 0.99, "n": 1, "skipped": 0,
            "alpha_mode": "complement", "kernel": {"type": "bell", "r": 1.0},
        }))
        with pytest.raises(FaceFileError, match="'k'"):
            load_model(path)

    def test_bad_mode(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(dict(VALID_MODEL, alpha_mode="jaccard")))
        with pytest.raises(FaceFileError, match="jaccard"):
            load_model(path)

    def test_valid_model_loads(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(VALID_MODEL))
        assert load_model(path).k == 0.95

    @pytest.mark.parametrize("field, value, message", [
        ("k1", float("nan"), "'k1' must be a finite number"),
        ("k2", float("inf"), "'k2' must be a finite number"),
        ("k", "0.95", "'k' must be a finite number"),
        ("k1", True, "'k1' must be a finite number"),
        ("k1", -0.1, "0 <= k1 <= k <= k2 <= 1"),
        ("k2", 1.1, "0 <= k1 <= k <= k2 <= 1"),
        ("k", 0.96, "midpoint"),
        ("n", -3, "'n' must be an integer >= 1"),
        ("n", 0, "'n' must be an integer >= 1"),
        ("n", 4.0, "'n' must be an integer >= 1"),
        ("n", True, "'n' must be an integer >= 1"),
        ("skipped", True, "'skipped' must be an integer >= 0"),
        ("skipped", -1, "'skipped' must be an integer >= 0"),
        ("kernel", {"type": "bell", "r": 0.3}, "must be >= 0.5"),
        ("kernel", {"type": "bell", "r": "0.7"}, "kernel field 'r' must be a finite number"),
        ("kernel", {"type": "bell", "r": True}, "kernel field 'r' must be a finite number"),
        ("k", 10**400, "'k' must be a finite number"),
        ("kernel", {"type": "bell", "p": 0.0, "r": 1.0, "q": 2.0},
         "unknown field\\(s\\) for kernel type 'bell': 'p', 'q'"),
    ])
    def test_invalid_field_rejected(self, tmp_path, field, value, message):
        path = tmp_path / "model.json"
        # json.dumps writes NaN and Infinity, which json.loads reads back
        path.write_text(json.dumps(dict(VALID_MODEL, **{field: value})))
        with pytest.raises(FaceFileError, match=message):
            load_model(path)

    @pytest.mark.parametrize("changes, message", [
        (dict(k=5, k1=0.2, k2=0.1, n=0, skipped=-1), "0 <= k1 <= k <= k2 <= 1"),
        (dict(k=True), "field 'k' must be a finite number, got True"),
        (dict(k1="0.9"), "field 'k1' must be a finite number, got '0.9'"),
        (dict(k2=math.inf), "field 'k2' must be a finite number, got inf"),
        (dict(k=0.96), "midpoint"),
        (dict(n=0), "field 'n' must be an integer >= 1, got 0"),
        (dict(n=3.0), "field 'n' must be an integer >= 1, got 3.0"),
        (dict(skipped=-1), "field 'skipped' must be an integer >= 0, got -1"),
        (dict(skipped=False), "field 'skipped' must be an integer >= 0, got False"),
        (dict(alpha_mode="complement"), "alpha_mode must be an AlphaMode, got 'complement'"),
        (dict(kernel=BellKernel(r=0.3)), "must be >= 0.5"),
        (dict(kernel={"type": "bell", "r": 1.0}), "unknown kernel"),
    ])
    def test_constructor_checks_every_field(self, changes, message):
        # each of these was accepted, and save_model wrote a file that
        # load_model refused (or to_dict raised AttributeError)
        with pytest.raises(ValueError, match=message):
            CalibratedModel(**dict(MODEL_FIELDS, **changes))

    def test_numbers_are_stored_as_floats(self, tmp_path):
        model = CalibratedModel(**dict(MODEL_FIELDS, k=1, k1=1, k2=1))
        assert all(type(v) is float for v in (model.k, model.k1, model.k2))
        save_model(model, tmp_path / "model.json")
        assert json.loads((tmp_path / "model.json").read_text())["k"] == 1.0
        assert load_model(tmp_path / "model.json") == model

    def test_kernel_field_error_names_the_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(dict(VALID_MODEL, kernel={"type": "bell", "r": [1]})))
        with pytest.raises(FaceFileError, match=f"^{re.escape(str(path))}: kernel field 'r' must "
                                                "be a finite number, got \\[1\\]$"):
            load_model(path)

    def test_k_not_between_k1_and_k2(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(dict(VALID_MODEL, k=0.5, k1=0.6, k2=0.4)))
        with pytest.raises(FaceFileError, match="0 <= k1 <= k <= k2 <= 1"):
            load_model(path)


# any JSON value: what json.loads can return, NaN, infinities and big ints included
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.sampled_from([10**400, -(2**63)])
    | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)

FACE_DOC = face_to_dict(make_face())
MANIFEST_DOC = {"version": 1, "pairs": [
    {"a": "a.json", "b": "b.json", "label": "genuine"},
    {"a": "a.json", "b": "c.json", "label": "impostor"},
]}


def value_paths(doc, prefix=()):
    """The key path of every value in a JSON document, the document itself first."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from value_paths(value, prefix + (key,))


def replaced(doc, path, value):
    """A copy of ``doc`` with the value at ``path`` replaced; the empty path replaces it all."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


class TestLoaderFuzz:
    """A valid document with any one value (or all of it) replaced by any JSON value
    either loads or raises a FaceFileError that names the file."""

    @staticmethod
    def check(tmp_path, loader, doc) -> None:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))  # writes NaN and Infinity, which json.loads reads
        try:
            loader(path)
        except FaceFileError as exc:
            assert str(exc).startswith(f"{path}: ")

    @settings(max_examples=200, **FILE_PER_EXAMPLE)
    @given(where=st.sampled_from(list(value_paths(FACE_DOC))), value=JSON_VALUES)
    def test_face(self, tmp_path, where, value):
        self.check(tmp_path, load_face, replaced(FACE_DOC, where, value))

    @settings(max_examples=200, **FILE_PER_EXAMPLE)
    @given(where=st.sampled_from(list(value_paths(MANIFEST_DOC))), value=JSON_VALUES)
    def test_manifest(self, tmp_path, where, value):
        self.check(tmp_path, load_manifest, replaced(MANIFEST_DOC, where, value))

    @settings(max_examples=200, **FILE_PER_EXAMPLE)
    @given(where=st.sampled_from(list(value_paths(VALID_MODEL))), value=JSON_VALUES)
    def test_model(self, tmp_path, where, value):
        self.check(tmp_path, load_model, replaced(VALID_MODEL, where, value))


# field values for the round trip: valid numbers and several that are not
FIELD_VALUES = st.one_of(
    st.floats(-2.0, 120.0), st.integers(-3, 120), st.booleans(),
    st.sampled_from(["0", "0.5", "1", "50"]), st.just(math.nan), st.just(10**400),
)


def with_one_field_replaced(draw, values: dict, names) -> dict:
    """``values`` as given, or with one of ``names`` replaced by a FIELD_VALUES draw."""
    name = draw(st.sampled_from([None, *names]))
    return values if name is None else dict(values, **{name: draw(FIELD_VALUES)})


class TestSaveLoadRoundTrip:
    """Whatever a constructor accepts saves to a file that its loader reads back equal."""

    @settings(max_examples=150, **FILE_PER_EXAMPLE)
    @given(data=st.data())
    def test_face(self, tmp_path, data):
        face = make_face()
        landmarks = dict(face.landmarks)
        outline = list(face.outline)
        values = {"width": 100, "height": 100, "landmark x": landmarks["chin"][0],
                  "landmark y": landmarks["chin"][1], "vertex x": outline[2][0],
                  "vertex y": outline[2][1]}
        values = with_one_field_replaced(data.draw, values, list(values))
        landmarks["chin"] = (values["landmark x"], values["landmark y"])
        outline[2] = (values["vertex x"], values["vertex y"])
        try:
            face = FaceInput("f", values["width"], values["height"], landmarks, outline)
        except ValueError:
            return
        save_face(face, tmp_path / "face.json")
        assert load_face(tmp_path / "face.json") == face

    @settings(max_examples=150, **FILE_PER_EXAMPLE)
    @given(kind=st.sampled_from(sorted(DEFAULT_KERNELS)), data=st.data())
    def test_kernel(self, tmp_path, kind, data):
        default = DEFAULT_KERNELS[kind]
        names = [f.name for f in fields(default)]
        breakpoints = data.draw(st.lists(st.floats(0.5, 3.0), min_size=len(names),
                                         max_size=len(names), unique=True))
        values = with_one_field_replaced(data.draw, dict(zip(names, sorted(breakpoints))), names)
        try:
            model = CalibratedModel(**dict(MODEL_FIELDS, kernel=type(default)(**values)))
        except ValueError:
            return
        save_model(model, tmp_path / "model.json")
        assert load_model(tmp_path / "model.json") == model

    @settings(max_examples=150, **FILE_PER_EXAMPLE)
    @given(bracket=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2),
           counts=st.tuples(st.integers(1, 10**6), st.integers(0, 10**6)),
           alpha_mode=st.sampled_from([*AlphaMode, "complement"]),
           kernel=st.sampled_from(list(DEFAULT_KERNELS.values())),
           data=st.data())
    def test_model(self, tmp_path, bracket, counts, alpha_mode, kernel, data):
        k1, k2 = sorted(bracket)
        values = {"k": (k1 + k2) / 2.0, "k1": k1, "k2": k2, "n": counts[0], "skipped": counts[1]}
        values = with_one_field_replaced(data.draw, values, list(values))
        try:
            model = CalibratedModel(**values, alpha_mode=alpha_mode, kernel=kernel)
        except ValueError:
            return
        save_model(model, tmp_path / "model.json")
        assert load_model(tmp_path / "model.json") == model


class TestUnparsableDocuments:
    """Every parse failure is a FaceFileError naming the file, whichever loader reads it."""

    @pytest.mark.parametrize("loader", [load_face, load_manifest, load_model])
    @pytest.mark.parametrize("content, detail", [
        (b"\xff\xfe{\x00}\x00", "can't decode byte 0xff"),  # UTF-16 with its byte order mark
        (b'{"version": ' + b"1" * 5000 + b"}", "digits"),  # past int's digit limit
        (b"[" * 200000, "recursion"),
    ], ids=["utf16", "digit_limit", "deep_nesting"])
    def test_named_face_file_error(self, tmp_path, loader, content, detail):
        path = tmp_path / "doc.json"
        path.write_bytes(content)
        with pytest.raises(FaceFileError, match=f"^{re.escape(str(path))}: not valid JSON") as exc:
            loader(path)
        assert detail in str(exc.value)


class TestAtomicWrite:
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
    def test_mode_follows_umask(self, tmp_path, umask, mode):
        previous = os.umask(umask)
        try:
            atomic_write_text(tmp_path / "out.txt", "x\n")
        finally:
            os.umask(previous)
        assert stat.S_IMODE((tmp_path / "out.txt").stat().st_mode) == mode

    def test_text_is_written_verbatim(self, tmp_path):
        atomic_write_text(tmp_path / "out.csv", "a,b\r\n1,2\r\n")
        assert (tmp_path / "out.csv").read_bytes() == b"a,b\r\n1,2\r\n"

    @pytest.mark.parametrize("second", ["./out.json", "sub/../out.json", "link.json"])
    def test_two_paths_to_one_file_are_refused(self, tmp_path, monkeypatch, second):
        # the second rename would replace the first output
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        (tmp_path / "out.json").write_text("before\n")
        (tmp_path / "link.json").symlink_to("out.json")
        with pytest.raises(ValueError) as exc:
            atomic_write_texts([("out.json", "report\n"), (second, "a,b\r\n")])
        assert str(exc.value) == f"outputs out.json and {second} are the same file"
        assert (tmp_path / "out.json").read_text() == "before\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["link.json", "out.json",
                                                                     "sub"]
        assert list((tmp_path / "sub").iterdir()) == []

    @pytest.mark.parametrize("save, document", [
        (save_face, make_face()),
        (save_manifest, [("a.json", "b.json", "genuine")]),
        (save_model, CalibratedModel(**MODEL_FIELDS)),
    ], ids=["face", "manifest", "model"])
    def test_missing_directory_names_the_path(self, tmp_path, save, document):
        path = tmp_path / "nodir" / "out.json"
        with pytest.raises(FileNotFoundError) as exc:
            save(document, path)
        # the path asked for, not the temporary file beside it
        assert str(exc.value) == f"[Errno 2] No such file or directory: '{path}'"
        assert list(tmp_path.iterdir()) == []


def json_dumps_text(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


# ASCII (control characters included), any code point, and lone surrogates
json_text = st.text(st.characters(max_codepoint=0x7F) | st.characters()
                    | st.characters(categories=["Cs"]), max_size=8)
json_scalars = (
    st.none() | st.booleans() | json_text
    | st.integers() | st.integers(-(2 ** 80), 2 ** 80)
    | st.floats() | st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 1e300, 5e-324])
)
json_values = st.recursive(
    json_scalars,
    lambda children: (st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(json_text, children, max_size=4)),
    max_leaves=24,
)


class IntLabel(enum.IntEnum):
    GENUINE = 1


class Name(str):
    pass


class TestDumpJson:
    """dump_json writes exactly json.dumps(sort_keys=True, indent=2) plus a newline."""

    @settings(max_examples=400, deadline=None)
    @given(value=json_values)
    def test_equals_json_dumps(self, value):
        assert dump_json(value) == json_dumps_text(value)

    @pytest.mark.parametrize("value", [
        {2: "a", 1: 2.5},  # keys json converts to strings
        {1.5: None, -0.5: [1.0]},
        {True: "t", False: 0},
        IntLabel.GENUINE,
        {"label": [IntLabel.GENUINE]},
        Name("alice"),
        {Name("key"): Name("value")},
        np.float64(0.1),
        {"score": [np.float64(1e300), 2.0]},
        [[[[]]], {}, (), [{}]],
        [[0]] * 3,  # one list object three times over is not a cycle
    ], ids=["int_keys", "float_keys", "bool_keys", "int_enum", "nested_int_enum", "str_subclass",
            "str_subclass_key", "numpy_float64", "nested_numpy_float64", "empty_nested",
            "shared_list"])
    def test_other_values_match_json_dumps(self, value):
        assert dump_json(value) == json_dumps_text(value)

    def test_nesting_past_the_writer_is_json_dumps(self):
        value = 1.5
        for _ in range(150):
            value = [value, {"k": value}] if isinstance(value, float) else [value]
        assert dump_json(value) == json_dumps_text(value)

    @pytest.mark.parametrize("value, error", [
        ({1: "a", "b": 2}, TypeError),  # keys that do not sort
        ({"a": object()}, TypeError),
        ([10 ** 5000], ValueError),  # past int's digit limit
    ], ids=["mixed_keys", "object", "huge_int"])
    def test_errors_match_json_dumps(self, value, error):
        with pytest.raises(error) as expected:
            json.dumps(value, sort_keys=True, indent=2)
        with pytest.raises(error, match=f"^{re.escape(str(expected.value))}$"):
            dump_json(value)

    def test_circular_reference(self):
        loop = [1.0]
        loop.append(loop)
        nested = {"a": [{}]}
        nested["a"][0]["b"] = nested
        for value in (loop, nested):
            with pytest.raises(ValueError, match="^Circular reference detected$"):
                dump_json(value)
