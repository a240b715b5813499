"""Face input validation and the canonical distance features."""

import math

import pytest

from conftest import make_face, standard_landmarks
from fuzzyface import (
    CANONICAL_FEATURES,
    REQUIRED_LANDMARKS,
    FaceInput,
    FeatureVector,
    compare,
    extract_features,
)

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

    def test_custom_feature_list(self):
        features = CANONICAL_FEATURES + (
            ("eye_to_chin", lambda lm: math.dist(lm["eye_left"], lm["chin"])),
        )
        fv = extract_features(make_face(), features)
        assert fv.items[-1][0] == "eye_to_chin"
        assert len(fv.items) == 7

    def test_custom_feature_missing_landmark(self):
        features = (("nose_bridge", lambda lm: math.dist(lm["nose_tip"], lm["chin"])),)
        with pytest.raises(ValueError, match="nose_bridge.*nose_tip"):
            extract_features(make_face(), features)


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
