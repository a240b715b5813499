"""The end-to-end comparison pipeline and its report invariants."""

import json
from statistics import fmean

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fuzzyface.features
import fuzzyface.scoring
import fuzzyface.silhouette
from conftest import make_face, raster_scale_for, scaled_face, standard_landmarks
from fuzzyface import (
    DEFAULT_KERNELS,
    AlphaMode,
    BellKernel,
    FeatureRow,
    MatchReport,
    PopulationConfig,
    ScoringConfig,
    TriangleKernel,
    compare,
    feature_membership,
    generate_population,
    score_pairs,
)
from fuzzyface.fileio import dump_json
from fuzzyface.silhouette import rescale_face

IMAGE_SIZES = ((512, 512), (256, 384), (768, 512), (384, 768), (100, 140))

# frozen against the 50-digit oracle in test_fuzzymath
H_1_3 = 0.8112781244591328
MU_1_3 = 0.9306410640964193
H_60_66 = 0.9983636725938130
MU_60_66 = 0.9999946448759936


class TestFeatureMembership:
    def test_equal_pair(self):
        entropy, membership = feature_membership(60.0, 60.0, BellKernel())
        assert entropy == 1.0
        assert membership == 1.0

    def test_one_three(self):
        entropy, membership = feature_membership(1.0, 3.0, BellKernel())
        assert entropy == pytest.approx(H_1_3, abs=1e-12)
        assert membership == pytest.approx(MU_1_3, abs=1e-12)
        assert membership == pytest.approx(0.93064, abs=1e-4)

    def test_sixty_sixtysix(self):
        entropy, membership = feature_membership(60.0, 66.0, BellKernel())
        assert entropy == pytest.approx(H_60_66, abs=1e-12)
        assert membership == pytest.approx(MU_60_66, abs=1e-12)
        assert membership == pytest.approx(0.9999948, abs=1e-6)

    def test_triangle_kernel_passthrough(self):
        # triangle (0, 1, 2) maps entropy in [0, 1] to itself
        entropy, membership = feature_membership(1.0, 3.0, TriangleKernel())
        assert membership == pytest.approx(entropy, abs=1e-12)


def checked_report(memberships, feature_score, alpha, k, similarity):
    """A MatchReport over one row per membership; its checks run on construction."""
    rows = tuple(FeatureRow(f"f{i}", 60.0, 60.0, 1.0, mu) for i, mu in enumerate(memberships))
    return MatchReport(
        a_id="a", b_id="b", features=rows, feature_score=feature_score, alpha=alpha,
        k=k, similarity=similarity, alpha_mode=AlphaMode.COMPLEMENT,
        kernel=BellKernel(), resolution_scale=1,
    )


def unequal_faces():
    """Two faces whose memberships differ from row to row and whose outlines differ."""
    landmarks = standard_landmarks(140, 120)
    landmarks["mouth_left"] = (50.0, 80.0)
    landmarks["ear_right"] = (125.0, 55.0)
    outline = ((20.0, 15.0), (125.0, 10.0), (130.0, 110.0), (15.0, 105.0))
    return make_face("a"), make_face("b", width=140, height=120, landmarks=landmarks,
                                     outline=outline)


class TestAggregation:
    """The feature score is the mean membership; MatchReport holds it to that."""

    def test_all_ones(self):
        face = make_face()
        result = compare(face, face)
        assert [row.membership for row in result.features] == [1.0] * 6
        assert result.feature_score == 1.0

    def test_mean(self):
        result = compare(*unequal_faces())
        memberships = [row.membership for row in result.features]
        assert len(set(memberships)) > 1
        assert result.feature_score == fmean(memberships)
        assert checked_report([0.930642, 1.0], 0.965321, 1.0, 1.0, 96.5321).feature_score == 0.965321

    def test_empty(self):
        with pytest.raises(ValueError, match="at least one feature"):
            checked_report([], 1.0, 1.0, 0.5, 100.0)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match=r"row 'f1' outside \[0, 1\]"):
            checked_report([0.5, 1.2], 0.85, 1.0, 0.5, 92.5)


class TestSimilarityScore:
    """similarity = 100 * (feature_score * k + alpha * (1 - k)), checked by MatchReport."""

    def test_perfect(self):
        face = make_face()
        for k in (0.0, 0.3, 1.0):
            assert compare(face, face, ScoringConfig(k=k)).similarity == 100.0

    def test_blend(self):
        result = compare(*unequal_faces(), ScoringConfig(k=0.5))
        assert result.alpha < 1.0 and result.feature_score < 1.0
        assert result.similarity == 100.0 * (result.feature_score * 0.5 + result.alpha * 0.5)
        assert checked_report([0.8], 0.8, 0.6, 0.5, 70.0).similarity == 70.0
        with pytest.raises(ValueError, match="similarity"):
            checked_report([0.8], 0.8, 0.6, 0.5, 71.0)

    def test_k_one_ignores_alpha(self):
        faces = unequal_faces()
        result = compare(*faces, ScoringConfig(k=1.0))
        assert result.alpha < 1.0
        assert result.similarity == 100.0 * result.feature_score
        literal = compare(*faces, ScoringConfig(k=1.0, alpha_mode=AlphaMode.LITERAL))
        assert literal.alpha != result.alpha
        assert literal.similarity == result.similarity

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="alpha must lie in"):
            checked_report([0.5], 0.5, 1.5, 0.5, 100.0)
        with pytest.raises(ValueError, match="k must"):
            ScoringConfig(k=-0.1)


class TestCompare:
    def test_self_comparison_is_perfect(self):
        face = make_face()
        report = compare(face, face)
        assert report.similarity == pytest.approx(100.0, abs=1e-9)
        assert report.alpha == 1.0
        assert report.feature_score == 1.0
        for row in report.features:
            assert row.entropy == 1.0
            assert row.membership == 1.0

    def test_doubled_face_is_perfect(self):
        face = make_face(width=128, height=128)
        report = compare(face, scaled_face(face, 2))
        assert report.similarity == pytest.approx(100.0, abs=0.1)

    def test_deterministic(self):
        f1 = make_face("a")
        f2 = make_face("b", width=140, height=120)
        assert compare(f1, f2) == compare(f1, f2)

    def test_feature_score_symmetry(self):
        f1 = make_face("a")
        f2 = make_face("b", width=140, height=120)
        fwd = compare(f1, f2)
        bwd = compare(f2, f1)
        assert fwd.feature_score == pytest.approx(bwd.feature_score, abs=1e-12)

    def test_complement_similarity_symmetry(self):
        f1 = make_face("a")
        f2 = make_face("b", width=140, height=120)
        config = ScoringConfig(alpha_mode=AlphaMode.COMPLEMENT)
        assert compare(f1, f2, config).similarity == pytest.approx(
            compare(f2, f1, config).similarity, abs=1e-9
        )

    def test_literal_asymmetry_exists(self):
        # partial overlap between masks of different areas: each direction
        # divides its own leftover by its own area
        big = make_face("a", outline=((5.0, 5.0), (95.0, 5.0), (95.0, 95.0), (5.0, 95.0)))
        shifted = make_face("b", outline=((40.0, 40.0), (99.0, 40.0), (99.0, 99.0), (40.0, 99.0)))
        config = ScoringConfig(alpha_mode=AlphaMode.LITERAL)
        assert compare(big, shifted, config).similarity != compare(shifted, big, config).similarity

    def test_joint_scale_invariance(self):
        f1 = make_face("a", width=640, height=640)
        landmarks = standard_landmarks(640, 640)
        landmarks["mouth_left"] = (240.0, 430.0)
        f2 = make_face("b", width=640, height=640, landmarks=landmarks,
                       outline=((70.0, 60.0), (580.0, 70.0), (560.0, 590.0), (60.0, 570.0)))
        base = compare(f1, f2, ScoringConfig(resolution_scale=raster_scale_for(f1, f2))).similarity
        for c in (0.5, 2.0, 3.7):
            g1, g2 = scaled_face(f1, c), scaled_face(f2, c)
            config = ScoringConfig(resolution_scale=raster_scale_for(g1, g2))
            assert compare(g1, g2, config).similarity == pytest.approx(base, abs=0.1)

    def test_monotone_degradation(self):
        memberships = []
        for ratio in [1.0 + 0.1 * i for i in range(21)]:
            _, mu = feature_membership(100.0, 100.0 * ratio, BellKernel())
            memberships.append(mu)
        assert all(a >= b for a, b in zip(memberships, memberships[1:]))

    def test_report_consistency(self):
        report = compare(make_face("a"), make_face("b", width=150, height=130))
        assert report.n == 6
        assert report.feature_score == pytest.approx(
            fmean(r.membership for r in report.features), abs=1e-12
        )
        expected = 100.0 * (report.feature_score * report.k + report.alpha * (1 - report.k))
        assert report.similarity == pytest.approx(expected, abs=1e-9)

    def test_report_serializes(self):
        report = compare(make_face("a"), make_face("b"))
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["n"] == 6
        assert doc["alpha_mode"] == "complement"
        assert doc["kernel"] == {"type": "bell", "r": 1.0}
        assert len(doc["features"]) == 6
        assert doc["similarity"] == report.similarity


class TestScorePairs:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        sizes=st.lists(st.sampled_from(IMAGE_SIZES), min_size=6, max_size=6),
        mode=st.sampled_from(list(AlphaMode)),
        resolution_scale=st.sampled_from([None, 1, 2]),
    )
    def test_equals_per_pair_compare(self, seed, sizes, mode, resolution_scale):
        population = generate_population(
            PopulationConfig(identity_count=2, captures_per_identity=3, capture_sigma=3.0, seed=seed)
        )
        faces = [rescale_face(lf.face, w, h) for lf, (w, h) in zip(population, sizes)]
        pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)] + [(5, 0), (3, 1), (2, 2)]
        config = ScoringConfig(k=0.7, alpha_mode=mode, resolution_scale=resolution_scale)
        reports = score_pairs(faces, pairs, config)
        assert len(reports) == len(pairs)
        for (i, j), report in zip(pairs, reports):
            expected = compare(faces[i], faces[j], config)
            assert report == expected
            assert dump_json(report.to_dict()) == dump_json(expected.to_dict())

    def test_each_face_rasterized_once_per_canvas(self, monkeypatch):
        calls = []
        original = fuzzyface.scoring.rasterize

        def counted(outline, canvas, scale):
            calls.append((canvas.width, canvas.height, scale))
            return original(outline, canvas, scale)

        monkeypatch.setattr(fuzzyface.scoring, "rasterize", counted)
        small = [make_face(f"s{i}", width=100, height=100) for i in range(3)]
        big = make_face("big", width=200, height=150)
        faces = small + [big]
        pairs = [(0, 1), (0, 2), (1, 2), (2, 1), (0, 3), (1, 3)]
        score_pairs(faces, pairs, ScoringConfig())
        # three faces on the 100 px canvas, then faces 0, 1 and 3 on the 200x150 one
        assert calls == [(100, 100, 6)] * 3 + [(200, 150, 3)] * 3

    def test_same_size_faces_are_not_rechecked(self, monkeypatch):
        faces = [make_face(f"s{i}", width=100, height=100) for i in range(3)]
        calls = []
        for module in (fuzzyface.features, fuzzyface.silhouette):
            original = module.polygon_is_simple
            monkeypatch.setattr(module, "polygon_is_simple",
                                lambda pts, original=original: calls.append(1) or original(pts))
        score_pairs(faces, [(0, 1), (0, 2), (1, 2)], ScoringConfig())
        # each outline was checked when its FaceInput was built, before the counting
        assert calls == []

    def test_empty_pair_list(self):
        assert score_pairs([make_face()], [], ScoringConfig()) == []


def dealt_faces(seed, sizes):
    """A seeded 2 x 3 population, each capture rescaled to its dealt size."""
    population = generate_population(
        PopulationConfig(identity_count=2, captures_per_identity=3, capture_sigma=3.0, seed=seed)
    )
    return [rescale_face(lf.face, w, h) for lf, (w, h) in zip(population, sizes)]


scoring_cases = dict(
    seed=st.integers(0, 10_000),
    sizes=st.lists(st.sampled_from(IMAGE_SIZES), min_size=6, max_size=6),
    kernel=st.sampled_from(list(DEFAULT_KERNELS.values())),
    resolution_scale=st.sampled_from([None, 1, 2]),
    k=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
)


class TestScoreInvariants:
    """Properties every report keeps, whatever the faces, sizes and settings."""

    @settings(max_examples=25, deadline=None)
    @given(mode=st.sampled_from(list(AlphaMode)), **scoring_cases)
    def test_similarity_in_range(self, seed, sizes, kernel, resolution_scale, k, mode):
        faces = dealt_faces(seed, sizes)
        config = ScoringConfig(k=k, alpha_mode=mode, kernel=kernel,
                               resolution_scale=resolution_scale)
        pairs = [(i, j) for i in range(6) for j in range(6)]
        for result in score_pairs(faces, pairs, config):
            assert 0.0 <= result.similarity <= 100.0

    @settings(max_examples=25, deadline=None)
    @given(**scoring_cases)
    def test_complement_is_symmetric(self, seed, sizes, kernel, resolution_scale, k):
        faces = dealt_faces(seed, sizes)
        config = ScoringConfig(k=k, alpha_mode=AlphaMode.COMPLEMENT, kernel=kernel,
                               resolution_scale=resolution_scale)
        for i in range(6):
            for j in range(i + 1, 6):
                forward = compare(faces[i], faces[j], config)
                backward = compare(faces[j], faces[i], config)
                assert forward.similarity == backward.similarity

    @settings(max_examples=25, deadline=None)
    @given(mode=st.sampled_from(list(AlphaMode)), **scoring_cases)
    def test_repeated_call_gives_the_same_bytes(self, seed, sizes, kernel, resolution_scale,
                                                k, mode):
        faces = dealt_faces(seed, sizes)
        config = ScoringConfig(k=k, alpha_mode=mode, kernel=kernel,
                               resolution_scale=resolution_scale)
        pairs = [(i, j) for i in range(6) for j in range(6) if i != j]
        first = [dump_json(r.to_dict()) for r in score_pairs(faces, pairs, config)]
        again = [dump_json(r.to_dict()) for r in score_pairs(faces, pairs, config)]
        assert first == again


class TestValidation:
    def test_config_bad_k(self):
        with pytest.raises(ValueError, match="k must"):
            ScoringConfig(k=1.5)

    @pytest.mark.parametrize("k", [True, "0.5", None])
    def test_config_k_must_be_a_number(self, k):
        with pytest.raises(ValueError, match="k must lie in"):
            ScoringConfig(k=k)

    def test_config_bad_mode(self):
        with pytest.raises(ValueError, match="alpha_mode"):
            ScoringConfig(alpha_mode="complement")

    def test_config_rejects_bell_outside_the_entropy_range(self):
        # r = 0.3 dips below 0 at entropy 1: compare would fail on every pair
        with pytest.raises(ValueError, match=r"bell kernel peak 'r' must be >= 0.5, got 0.3"):
            ScoringConfig(kernel=BellKernel(r=0.3))
        # r = 0.5 is the edge: membership falls to exactly 0 at entropy 1
        face = make_face()
        assert compare(face, face, ScoringConfig(kernel=BellKernel(r=0.5))).feature_score == 0.0

    def test_config_bad_scale(self):
        with pytest.raises(ValueError, match="resolution_scale"):
            ScoringConfig(resolution_scale=0)

    def test_tampered_report_rejected(self):
        rows = (FeatureRow("interocular", 60.0, 60.0, 1.0, 1.0),)
        with pytest.raises(ValueError, match="mean membership"):
            MatchReport(
                a_id="a", b_id="b", features=rows, feature_score=0.5, alpha=1.0,
                k=0.5, similarity=75.0, alpha_mode=AlphaMode.COMPLEMENT,
                kernel=BellKernel(), resolution_scale=1,
            )
        with pytest.raises(ValueError, match="similarity"):
            MatchReport(
                a_id="a", b_id="b", features=rows, feature_score=1.0, alpha=1.0,
                k=0.5, similarity=90.0, alpha_mode=AlphaMode.COMPLEMENT,
                kernel=BellKernel(), resolution_scale=1,
            )

    def test_empty_report_rejected(self):
        with pytest.raises(ValueError, match="at least one feature"):
            MatchReport(
                a_id="a", b_id="b", features=(), feature_score=1.0, alpha=1.0,
                k=0.5, similarity=100.0, alpha_mode=AlphaMode.COMPLEMENT,
                kernel=BellKernel(), resolution_scale=1,
            )
