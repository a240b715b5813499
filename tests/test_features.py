"""Face input validation and the canonical distance features."""

import copy
import dataclasses
import math
import pickle
import re

import numpy as np
import pytest

from conftest import make_face, standard_landmarks
from fuzzyface import (
    CANONICAL_FEATURES,
    REQUIRED_LANDMARKS,
    Canvas,
    FaceInput,
    FeatureVector,
    LabeledFace,
    compare,
    extract_features,
    rasterize,
)
from fuzzyface.features import MAX_OUTLINE_VERTICES

CANONICAL_ORDER = (
    "interocular",
    "nose_to_mouth",
    "ear_to_ear",
    "mouth_width",
    "eyebrow_length",
    "chin_to_brow_mid",
)


class TestFaceInput:
    def test_valid_face(self):
        face = make_face()
        assert set(REQUIRED_LANDMARKS) <= set(face.landmarks)
        assert len(face.outline) == 4

    def test_unknown_landmarks_kept(self):
        landmarks = standard_landmarks()
        landmarks["nose_tip"] = (50.0, 50.0)
        face = make_face(landmarks=landmarks)
        assert face.landmarks["nose_tip"] == (50.0, 50.0)

    def test_missing_required_landmark(self):
        landmarks = standard_landmarks()
        del landmarks["chin"]
        with pytest.raises(ValueError, match="missing required landmark 'chin'"):
            make_face(landmarks=landmarks)

    def test_out_of_bounds_landmark(self):
        landmarks = standard_landmarks()
        landmarks["chin"] = (50.0, 120.0)
        with pytest.raises(ValueError, match="landmark 'chin' is outside"):
            make_face(landmarks=landmarks)

    def test_non_finite_coordinate(self):
        landmarks = standard_landmarks()
        landmarks["chin"] = (float("nan"), 50.0)
        with pytest.raises(ValueError, match="non-finite"):
            make_face(landmarks=landmarks)

    def test_int_too_large_for_a_float(self):
        landmarks = standard_landmarks()
        landmarks["chin"] = (10**400, 50.0)
        with pytest.raises(ValueError, match="landmark 'chin' has a non-finite"):
            make_face(landmarks=landmarks)

    @pytest.mark.parametrize("point", [
        "35", (35.0, 40.0, 9.0), (35.0,), (True, 40.0), (35.0, False), (35.0, "40"), None, 35.0,
    ])
    def test_point_must_be_two_numbers(self, point):
        # once read as (3.0, 5.0), (35.0, 40.0) and (1.0, 40.0)
        landmarks = standard_landmarks()
        landmarks["chin"] = point
        with pytest.raises(ValueError, match="landmark 'chin' must be an array of two numbers"):
            make_face(landmarks=landmarks)
        outline = [(10.0, 10.0), point, (90.0, 90.0)]
        with pytest.raises(ValueError, match="outline vertex 1 must be an array of two numbers"):
            make_face(outline=outline)

    @pytest.mark.parametrize("x, message", [
        (math.inf, "has a non-finite coordinate: (inf, 50.0)"),
        (-math.inf, "has a non-finite coordinate: (-inf, 50.0)"),
        (math.nan, "has a non-finite coordinate: (nan, 50.0)"),
        (-0.5, "is outside the image bounds [0, 100] x [0, 100]: (-0.5, 50.0)"),
        (math.nextafter(100.0, math.inf),
         "is outside the image bounds [0, 100] x [0, 100]: (100.00000000000001, 50.0)"),
    ])
    def test_float_point_messages(self, x, message):
        landmarks = standard_landmarks()
        landmarks["chin"] = (x, 50.0)
        with pytest.raises(ValueError, match=f"^landmark 'chin' {re.escape(message)}$"):
            make_face(landmarks=landmarks)
        with pytest.raises(ValueError, match=f"^outline vertex 2 {re.escape(message)}$"):
            make_face(outline=[(10.0, 10.0), (90.0, 10.0), (x, 50.0)])

    def test_float_points_on_the_image_edge(self):
        face = make_face(outline=[(-0.0, 0.0), (100.0, 0.0), (100.0, 100.0)])
        assert face.outline == ((0.0, 0.0), (100.0, 0.0), (100.0, 100.0))
        assert math.copysign(1.0, face.outline[0][0]) == -1.0

    def test_number_subclass_coordinates(self):
        landmarks = standard_landmarks()
        landmarks["chin"] = np.array([50.0, 85.0])  # two numpy float64 scalars
        face = make_face(landmarks=landmarks)
        assert face.landmarks["chin"] == (50.0, 85.0)
        assert all(type(v) is float for v in face.landmarks["chin"])

    @pytest.mark.parametrize("field, value, message", [
        ("landmarks", 5, "landmarks must map names to points, got 5"),
        ("landmarks", None, "landmarks must map names to points, got None"),
        ("landmarks", ["ab", "c"], "landmarks must map names to points, got ['ab', 'c']"),
        ("outline", None, "outline must be a sequence of points, got None"),
        ("outline", 5, "outline must be a sequence of points, got 5"),
    ])
    def test_collection_fields_must_be_collections(self, field, value, message):
        # the first two and the last two once raised TypeError; ["ab", "c"]
        # raised a dict() ValueError that did not name the field
        fields = dict(landmarks=standard_landmarks(), outline=((10, 10), (90, 10), (90, 90)))
        fields[field] = value
        with pytest.raises(ValueError, match=re.escape(message)):
            FaceInput("f", 100, 100, **fields)

    def test_landmarks_may_be_name_point_pairs(self):
        pairs = list(standard_landmarks().items())
        assert make_face(landmarks=pairs).landmarks == make_face().landmarks

    @pytest.mark.parametrize("side", [100.0, True, "100", None])
    def test_image_side_must_be_an_integer(self, side):
        with pytest.raises(ValueError, match="image width must be an integer >= 1"):
            FaceInput("f", side, 100, standard_landmarks(), ((10, 10), (90, 10), (90, 90)))

    def test_bad_dimensions(self):
        with pytest.raises(ValueError, match="image width"):
            make_face(width=0)
        with pytest.raises(ValueError, match="image height"):
            make_face(height=-5)

    @pytest.mark.parametrize("side", [2**16 + 1, 2**31, 2**63, 10**400])
    def test_oversized_image(self, side):
        with pytest.raises(ValueError, match="image width must be at most 65536"):
            FaceInput("f", side, 100, standard_landmarks(), ((10, 10), (90, 10), (90, 90)))
        with pytest.raises(ValueError, match="image height must be at most 65536"):
            FaceInput("f", 100, side, standard_landmarks(), ((10, 10), (90, 10), (90, 90)))

    def test_largest_image(self):
        assert make_face(width=2**16, height=2**16).image_width == 2**16

    def test_outline_too_short(self):
        with pytest.raises(ValueError, match="at least 3 vertices"):
            make_face(outline=((10.0, 10.0), (90.0, 90.0)))

    def test_outline_explicit_closure_rejected(self):
        with pytest.raises(ValueError, match="repeat its first vertex"):
            make_face(outline=((10.0, 10.0), (90.0, 10.0), (50.0, 90.0), (10.0, 10.0)))

    def test_outline_self_intersection(self):
        bowtie = ((10.0, 10.0), (90.0, 90.0), (90.0, 10.0), (10.0, 90.0))
        with pytest.raises(ValueError, match="self-intersecting"):
            make_face(outline=bowtie)

    def test_empty_id(self):
        with pytest.raises(ValueError, match="face id"):
            make_face(face_id="")

    def test_equality_and_repr_see_only_the_points(self):
        face = make_face()
        outline = ((10.0, 10.0), (90.0, 10.0), (90.0, 90.0), (10.0, 90.0))
        assert face == make_face(outline=[list(pt) for pt in outline])
        assert face != make_face(outline=outline[1:] + outline[:1])
        assert face.outline == outline
        assert repr(face) == ("FaceInput(id='f', image_width=100, image_height=100, "
                              f"landmarks={face.landmarks!r}, outline={outline!r})")

    def test_outline_array_is_read_only(self):
        face = make_face()
        assert type(face.outline) is tuple
        assert np.array_equal(face._outline_array, np.array(face.outline, dtype=float))
        assert face._outline_array.dtype == np.float64
        with pytest.raises(ValueError):
            face._outline_array[0, 0] = 50.0

    def test_dataclass_functions_see_only_the_fields(self):
        face = make_face(outline=[[10, 10], [90, 10], [90, 90], [10, 90]])
        outline = ((10.0, 10.0), (90.0, 10.0), (90.0, 90.0), (10.0, 90.0))
        compare(face, make_face("b", width=200, height=100))  # fills the face's memo
        fields = dict(id="f", image_width=100, image_height=100,
                      landmarks=dict(face.landmarks), outline=outline)
        assert dataclasses.asdict(face) == fields
        assert dataclasses.astuple(face) == tuple(fields.values())
        assert type(dataclasses.asdict(face)["outline"]) is tuple
        labeled = LabeledFace("person", face)
        assert dataclasses.asdict(labeled) == {"identity": "person", "face": fields}
        assert dataclasses.astuple(labeled) == ("person", tuple(fields.values()))
        assert dataclasses.replace(face) == face
        assert dataclasses.replace(face)._prepared == {}

    @pytest.mark.parametrize("mutate", [
        lambda lm: lm.__setitem__("chin", (50.0, 50.0)),
        lambda lm: lm.__delitem__("chin"),
        lambda lm: lm.update(chin=(50.0, 50.0)),
        lambda lm: lm.setdefault("nose_tip", (50.0, 50.0)),
        lambda lm: lm.pop("chin"),
        lambda lm: lm.popitem(),
        lambda lm: lm.clear(),
        lambda lm: lm.__ior__({"chin": (50.0, 50.0)}),
    ], ids=["set", "del", "update", "setdefault", "pop", "popitem", "clear", "ior"])
    def test_landmarks_are_read_only(self, mutate):
        # a face's stretched features are kept by canvas size, so a changed
        # landmark would leave them stale
        face = make_face()
        before = dict(face.landmarks)
        with pytest.raises(TypeError, match="read-only"):
            mutate(face.landmarks)
        assert face.landmarks == before
        assert repr(face.landmarks) == repr(before)
        # a copy of the mapping is a plain dict again
        assert type(face.landmarks.copy()) is dict and type(dict(face.landmarks)) is dict

    @pytest.mark.parametrize("clone", [
        copy.copy, copy.deepcopy, lambda face: pickle.loads(pickle.dumps(face)),
    ], ids=["copy", "deepcopy", "pickle"])
    def test_copies_keep_the_checked_outline(self, clone):
        face = make_face("a", width=100, height=100)
        compare(face, make_face("b", width=200, height=100))  # fills the face's memo
        assert face._prepared
        twin = clone(face)
        assert twin == face and repr(twin) == repr(face)
        assert type(twin.outline) is tuple
        assert np.array_equal(twin._outline_array, face._outline_array)
        assert not twin._outline_array.flags.writeable
        assert twin._prepared == {}  # rebuilt from the fields, without the memo
        assert type(twin.landmarks) is type(face.landmarks)
        with pytest.raises(TypeError, match="read-only"):
            twin.landmarks["chin"] = (50.0, 50.0)
        assert clone(face.landmarks) == face.landmarks
        assert type(clone(face.landmarks)) is type(face.landmarks)
        canvas = Canvas(100, 100)
        assert np.array_equal(rasterize(twin.outline, canvas, 2).bits,
                              rasterize(face.outline, canvas, 2).bits)

    def test_outline_vertex_bound(self):
        def circle(n):
            return [(50 + 40 * math.cos(2 * math.pi * k / n), 50 + 40 * math.sin(2 * math.pi * k / n))
                    for k in range(n)]

        assert len(make_face(outline=circle(MAX_OUTLINE_VERTICES)).outline) == MAX_OUTLINE_VERTICES
        count = MAX_OUTLINE_VERTICES + 1
        with pytest.raises(ValueError, match=f"^outline has {count} vertices, "
                                             f"more than {MAX_OUTLINE_VERTICES}$"):
            make_face(outline=circle(count))


class TestExtractFeatures:
    def test_axis_aligned_interocular(self):
        landmarks = standard_landmarks(200, 200)
        landmarks["eye_left"] = (100.0, 120.0)
        landmarks["eye_right"] = (160.0, 120.0)
        fv = extract_features(make_face(width=200, height=200, landmarks=landmarks))
        assert dict(fv.items)["interocular"] == 60.0

    def test_chin_to_brow_midpoint(self):
        landmarks = standard_landmarks(200, 200)
        landmarks["chin"] = (50.0, 90.0)
        landmarks["brow_left_inner"] = (30.0, 30.0)
        landmarks["brow_left_outer"] = (30.0, 30.0)
        landmarks["brow_right_inner"] = (70.0, 30.0)
        landmarks["brow_right_outer"] = (70.0, 30.0)
        with pytest.raises(ValueError, match="eyebrow_length"):
            # coincident brow endpoints give a zero-length eyebrow
            extract_features(make_face(width=200, height=200, landmarks=landmarks))
        landmarks["brow_left_outer"] = (28.0, 30.0)
        landmarks["brow_right_outer"] = (72.0, 30.0)
        fv = extract_features(make_face(width=200, height=200, landmarks=landmarks))
        # brow centres sit at (29, 30) and (71, 30); their midpoint is (50, 30)
        assert dict(fv.items)["chin_to_brow_mid"] == 60.0

    def test_mouth_width_three_four_five(self):
        landmarks = standard_landmarks(200, 200)
        landmarks["mouth_left"] = (0.0, 0.0)
        landmarks["mouth_right"] = (3.0, 4.0)
        fv = extract_features(make_face(width=200, height=200, landmarks=landmarks))
        assert dict(fv.items)["mouth_width"] == 5.0

    def test_canonical_order(self):
        assert tuple(name for name, _ in CANONICAL_FEATURES) == CANONICAL_ORDER
        fv = extract_features(make_face())
        assert tuple(name for name, _ in fv.items) == CANONICAL_ORDER
        assert all(v > 0 for _, v in fv.items)

    def test_zero_feature_rejected(self):
        landmarks = standard_landmarks()
        landmarks["eye_right"] = landmarks["eye_left"]
        with pytest.raises(ValueError, match="interocular.*zero"):
            extract_features(make_face(landmarks=landmarks))

    def test_rigid_motion_invariance(self):
        base = standard_landmarks(400, 400)
        theta = math.radians(30)
        cos_t, sin_t = math.cos(theta), math.sin(theta)

        def moved(pt):
            x, y = pt[0] - 200.0, pt[1] - 200.0
            return (
                500.0 + cos_t * x - sin_t * y,
                500.0 + sin_t * x + cos_t * y,
            )

        rotated = {name: moved(pt) for name, pt in base.items()}
        fv_base = extract_features(make_face(width=400, height=400, landmarks=base))
        fv_rot = extract_features(make_face(width=1000, height=1000, landmarks=rotated))
        for (_, a), (_, b) in zip(fv_base.items, fv_rot.items):
            assert a == pytest.approx(b, abs=1e-9)

    @pytest.mark.parametrize("c", [0.5, 2.0, 4.0])
    def test_power_of_two_scaling_is_exact(self, c):
        base = standard_landmarks()
        scaled = {name: (x * c, y * c) for name, (x, y) in base.items()}
        fv_base = extract_features(make_face(landmarks=base))
        fv_scaled = extract_features(
            make_face(width=400, height=400, landmarks=scaled)
        )
        for (_, a), (_, b) in zip(fv_base.items, fv_scaled.items):
            assert b == a * c

    def test_general_scaling(self):
        c = 3.7
        base = standard_landmarks()
        scaled = {name: (x * c, y * c) for name, (x, y) in base.items()}
        fv_base = extract_features(make_face(landmarks=base))
        fv_scaled = extract_features(make_face(width=400, height=400, landmarks=scaled))
        for (_, a), (_, b) in zip(fv_base.items, fv_scaled.items):
            assert b == pytest.approx(a * c, rel=1e-9)


class TestPairFeatures:
    """How compare pairs the two faces' features into its report rows."""

    def test_zip_by_name(self):
        landmarks = standard_landmarks()
        landmarks["eye_right"] = (landmarks["eye_left"][0] + 33.0, landmarks["eye_left"][1])
        report = compare(make_face("a"), make_face("b", landmarks=landmarks))
        row = report.features[0]
        assert (row.name, row.a, row.b) == ("interocular", 30.0, 33.0)

    def test_identity_pairs(self):
        face = make_face()
        assert all(row.a == row.b for row in compare(face, face).features)

    def test_six_features_in_order(self):
        f1 = make_face("a")
        f2 = make_face("b", width=120, height=120)
        assert tuple(row.name for row in compare(f1, f2).features) == CANONICAL_ORDER

    def test_swap_symmetry(self):
        fa = make_face("a")
        fb = make_face("b", width=140, height=140)
        forward = compare(fa, fb).features
        backward = compare(fb, fa).features
        assert len(forward) == len(backward) == 6
        for fwd, bwd in zip(forward, backward):
            assert (fwd.name, fwd.a, fwd.b) == (bwd.name, bwd.b, bwd.a)

    def test_pair_validation(self):
        with pytest.raises(ValueError, match="positive"):
            FeatureVector((("interocular", 0.0),))
        with pytest.raises(ValueError, match="positive"):
            FeatureVector((("interocular", 60.0), ("mouth_width", -1.0)))

    def test_a_bool_is_refused_and_a_numpy_value_kept_as_python(self):
        for flag in (True, np.True_):
            with pytest.raises(ValueError, match="feature 'x' must be a finite number"):
                FeatureVector((("x", flag),))
        items = FeatureVector((("a", 2.5), ("b", np.float32(0.5)), ("c", np.int64(3)))).items
        assert items == (("a", 2.5), ("b", 0.5), ("c", 3))
        assert [type(value) for _, value in items] == [float, float, int]
