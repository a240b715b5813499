"""File formats: faces, manifests, models, and their failure messages."""

import json
import os
import re
import stat

import pytest

from conftest import make_face, standard_landmarks
from fuzzyface import (
    AlphaMode,
    BellKernel,
    CalibratedModel,
    CalibrationState,
    FaceFileError,
    TrapezoidKernel,
    face_to_dict,
    load_face,
    load_manifest,
    load_model,
    save_face,
    save_manifest,
    save_model,
)
from fuzzyface.fileio import atomic_write_text

VALID_MODEL = {
    "k": 0.95, "k1": 0.9, "k2": 1.0, "n": 3, "skipped": 1,
    "alpha_mode": "complement", "kernel": {"type": "bell", "r": 1.0},
}


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
        # unchecked, FaceInput would read "99" as (9.0, 9.0) and true as 1.0,
        # and drop a third coordinate
        doc = face_to_dict(make_face())
        doc[field][key] = value
        path = tmp_path / "face.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FaceFileError, match=message):
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

    def test_k_not_between_k1_and_k2(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(dict(VALID_MODEL, k=0.5, k1=0.6, k2=0.4)))
        with pytest.raises(FaceFileError, match="0 <= k1 <= k <= k2 <= 1"):
            load_model(path)


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
