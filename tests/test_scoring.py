"""The end-to-end comparison pipeline and its report invariants."""

import copy
import dataclasses
import json
import math
import re
import tracemalloc
from itertools import accumulate
from statistics import fmean

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fuzzyface.features
import fuzzyface.scoring
import fuzzyface.silhouette
from conftest import (
    make_face, raster_scale_for, scaled_face, shannon_entropy, standard_landmarks,
    stretch_refused_face, tiny_eyes_face, zero_area_face,
)
from fuzzyface import (
    DEFAULT_KERNELS,
    AlphaMode,
    BellKernel,
    FeatureRow,
    MatchReport,
    PopulationConfig,
    ScoringConfig,
    TrapezoidKernel,
    TriangleKernel,
    compare,
    feature_membership,
    generate_population,
    score_pairs,
)
from fuzzyface.fileio import dump_json
from fuzzyface.scoring import entropy_membership, normalize_pair, pair_scores
from fuzzyface.features import extract_features, rescale_face
from fuzzyface.silhouette import Canvas, alpha_from_masks, default_resolution_scale, rasterize
from fuzzyface.synthbench import labeled_pairs

IMAGE_SIZES = ((512, 512), (256, 384), (768, 512), (384, 768), (100, 140))

breakpoints = st.floats(-10.0, 10.0)
# every kernel type, each with the breakpoints its constructor accepts; a
# bell needs r >= 0.5 to stay in [0, 1] over the entropy range
any_kernel = st.one_of(
    st.floats(0.5, 1e6).map(BellKernel),
    st.lists(breakpoints, min_size=3, max_size=3, unique=True).map(
        lambda v: TriangleKernel(*sorted(v))),
    st.lists(breakpoints, min_size=4, max_size=4, unique=True).map(
        lambda v: TrapezoidKernel(*sorted(v))),
    st.sampled_from(list(DEFAULT_KERNELS.values())),
)
# kernels with int breakpoints, each type's own rule kept
int_kernel = st.one_of(
    st.integers(1, 10).map(BellKernel),
    st.lists(st.integers(-10, 10), min_size=3, max_size=3, unique=True).map(
        lambda v: TriangleKernel(*sorted(v))),
    st.lists(st.integers(-10, 10), min_size=4, max_size=4).map(sorted).filter(
        lambda v: v[0] < v[1] <= v[2] < v[3]).map(lambda v: TrapezoidKernel(*v)),
)
# where evaluate's Python floats overflow without a word, or an int peak
# rounds to its float, and a column must give the same bits with no warning
EXTREME_KERNELS = [
    BellKernel(0.5), BellKernel(2 ** 53 + 1), TriangleKernel(-1e308, 0.5, 1e308),
    TrapezoidKernel(-1e308, 0.25, 0.75, 1e308), TriangleKernel(0.0, 5e-324, 1.0),
    TrapezoidKernel(0, 0.5, 0.5, 1),
    # int spans that a float holds, between ints that a float does not
    TriangleKernel(1, 2 ** 53 + 1, 2 ** 54), TrapezoidKernel(1, 2 ** 53 + 1, 2 ** 53 + 1, 2 ** 54),
]
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
# independent draws, and pairs a, a * ratio with every ratio up to 1e300
measurements = st.one_of(
    st.tuples(positive, positive),
    st.tuples(positive, st.floats(1.0, 1e300)).map(lambda ar: (ar[0], ar[0] * ar[1])),
).filter(lambda ab: 0.0 < ab[1] < math.inf)

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

    @settings(max_examples=300, deadline=None)
    @given(ab=measurements, kernel=any_kernel)
    @example(ab=(1.0, 1e300), kernel=BellKernel())
    @example(ab=(5e-324, 1e300), kernel=BellKernel())  # p underflows to 0.0
    @example(ab=(1.7e308, 1.7e308), kernel=BellKernel())  # a + b overflows
    @example(ab=(3.0, 3.0 * (1 + 2 ** -52)), kernel=TrapezoidKernel())
    def test_equals_shannon_entropy_and_eval_membership(self, ab, kernel):
        # the two-value entropy against the general n-value reference
        try:
            expected_entropy = shannon_entropy(ab)
            expected = (expected_entropy, kernel.evaluate(expected_entropy))
        except ValueError:
            with pytest.raises(ValueError):
                feature_membership(*ab, kernel)
            return
        assert tuple(map(repr, feature_membership(*ab, kernel))) == tuple(map(repr, expected))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=300, deadline=None)
    @given(abs_=st.lists(measurements, min_size=1, max_size=12),
           kernel=st.one_of(any_kernel, int_kernel, st.sampled_from(EXTREME_KERNELS)))
    @example(abs_=[(1.0, 1e300)], kernel=BellKernel())
    @example(abs_=[(5e-324, 1e300)], kernel=BellKernel())  # p underflows to 0.0
    @example(abs_=[(1.7e308, 1.7e308)], kernel=BellKernel())  # a + b overflows
    @example(abs_=[(3.0, 3.0 * (1 + 2 ** -52))], kernel=TrapezoidKernel())
    @example(abs_=[(60.0, 66.0), (1.0, 3.0), (2.0, 2.0)], kernel=BellKernel(0.5))
    @example(abs_=[(60.0, 66.0), (1.0, 3.0), (2.0, 2.0)], kernel=BellKernel(1))  # an int peak
    @example(abs_=[(60.0, 66.0), (1.0, 3.0), (2.0, 2.0)], kernel=BellKernel(2 ** 53 + 1))
    @example(abs_=[(60.0, 66.0), (1.0, 3.0), (2.0, 2.0)], kernel=TriangleKernel(-1e308, 0.5, 1e308))
    @example(abs_=[(1.0, 3.0), (2.0, 2.0)], kernel=TriangleKernel(0, 1, 2))  # int breakpoints
    @example(abs_=[(1.0, 3.0), (2.0, 2.0)], kernel=TrapezoidKernel(-1, 0, 1, 2))
    def test_columns_equal_feature_membership(self, abs_, kernel):
        # the columns of score_pairs and pair_scores against the scalar
        # reference, as a (pairs x 1) block: each value bit for bit, or an
        # error from both; a block of pairs takes the kernel's column form
        values = np.array(abs_).T[:, :, None]  # the a and b of each pair
        expected = []
        for pair in abs_:
            try:
                expected.append(feature_membership(*pair, kernel))
            except ValueError:
                with pytest.raises(ValueError):
                    entropy_membership(values, kernel)
                return
        entropy, membership = entropy_membership(values, kernel)
        assert entropy.shape == membership.shape == values.shape[1:]
        assert list(zip(map(repr, entropy.ravel().tolist()),
                        map(repr, membership.ravel().tolist()))) == [
            tuple(map(repr, values)) for values in expected]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=300, deadline=None)
    @given(kernel=st.one_of(any_kernel, int_kernel, st.sampled_from(EXTREME_KERNELS)),
           entropies=st.lists(st.floats(0.0, 1.0), max_size=12))
    @example(kernel=BellKernel(), entropies=[])
    def test_kernel_columns_equal_evaluate(self, kernel, entropies):
        # at the bell's peak and at each breakpoint, a float either side of
        # it, and drawn entropies: evaluate_column against evaluate, bit for bit
        points = np.array([float(getattr(kernel, f.name)) for f in dataclasses.fields(kernel)])
        x = np.concatenate((points, np.nextafter(points, -np.inf), np.nextafter(points, np.inf),
                            [0.0, 0.5, 1.0], entropies))
        expected = [kernel.evaluate(value).hex() for value in x.tolist()]
        assert [value.hex() for value in kernel.evaluate_column(x).tolist()] == expected

    @pytest.mark.parametrize("a, b", [
        (0.0, 1.0), (1.0, -2.0), (-1.0, -3.0), (math.nan, 1.0), (1.0, math.inf), ("1", 2.0),
        (1.0, None),
    ])
    def test_measurements_must_be_positive_reals(self, a, b):
        with pytest.raises(ValueError, match="feature measurements must be positive reals"):
            feature_membership(a, b, BellKernel())


def checked_report(memberships, alpha, k, **derived):
    """A MatchReport over one row per membership; its checks run on construction."""
    rows = tuple(FeatureRow(f"f{i}", 60.0, 60.0, 1.0, mu) for i, mu in enumerate(memberships))
    return MatchReport(
        a_id="a", b_id="b", features=rows, alpha=alpha, k=k, alpha_mode=AlphaMode.COMPLEMENT,
        kernel=BellKernel(), resolution_scale=1, **derived,
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
    """The feature score is the mean membership; MatchReport derives it."""

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
        assert checked_report([0.930642, 1.0], 1.0, 1.0).feature_score == 0.965321

    def test_empty(self):
        with pytest.raises(ValueError, match="at least one feature"):
            checked_report([], 1.0, 0.5)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match=r"row 'f1' outside \[0, 1\]"):
            checked_report([0.5, 1.2], 1.0, 0.5)


class TestSimilarityScore:
    """similarity = 100 * (feature_score * k + alpha * (1 - k)), derived by MatchReport."""

    def test_perfect(self):
        face = make_face()
        for k in (0.0, 0.3, 1.0):
            assert compare(face, face, ScoringConfig(k=k)).similarity == 100.0

    def test_blend(self):
        result = compare(*unequal_faces(), ScoringConfig(k=0.5))
        assert result.alpha < 1.0 and result.feature_score < 1.0
        assert result.similarity == 100.0 * (result.feature_score * 0.5 + result.alpha * 0.5)
        assert checked_report([0.8], 0.6, 0.5).similarity == 100.0 * (0.8 * 0.5 + 0.6 * 0.5)

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
            checked_report([0.5], 1.5, 0.5)
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
        base = compare(f1, f2, ScoringConfig(resolution_scale=raster_scale_for(f1, f2)))
        for c in (0.5, 2.0, 3.7):
            g1, g2 = scaled_face(f1, c), scaled_face(f2, c)
            scaled = compare(g1, g2, ScoringConfig(resolution_scale=raster_scale_for(g1, g2)))
            assert scaled.similarity == pytest.approx(base.similarity, abs=0.1)
            # the features are ratios of lengths, so scaling cannot move them;
            # the 0.1 bound alone misses an offset added to every distance
            assert scaled.feature_score == pytest.approx(base.feature_score, abs=1e-12)

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

    def test_runs_the_scalar_forms(self, monkeypatch):
        # alpha_from_masks once, then feature_membership per feature, and
        # no step of the block engine; cold, then warm
        faces = unequal_faces()
        expected = scalar_report(*faces, ScoringConfig())
        calls = []
        for name in ("alpha_from_masks", "feature_membership"):
            original = getattr(fuzzyface.scoring, name)
            monkeypatch.setattr(fuzzyface.scoring, name, lambda *args, name=name,
                                original=original: calls.append(name) or original(*args))

        def refused(*args):
            raise AssertionError("compare called a step of the block engine")

        for name in ("_prepared", "_columns", "_overlaps", "entropy_membership"):
            monkeypatch.setattr(fuzzyface.scoring, name, refused)
        for _ in range(2):
            calls.clear()
            assert compare(*faces) == expected
            assert calls == ["alpha_from_masks"] + ["feature_membership"] * 6

    def test_report_serializes(self):
        report = compare(make_face("a"), make_face("b"))
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["n"] == 6
        assert doc["alpha_mode"] == "complement"
        assert doc["kernel"] == {"type": "bell", "r": 1.0}
        assert len(doc["features"]) == 6
        assert doc["similarity"] == report.similarity


equal_to_compare_cases = dict(
    seed=st.integers(0, 10_000),
    sizes=st.lists(st.sampled_from(IMAGE_SIZES), min_size=6, max_size=6),
    mode=st.sampled_from(list(AlphaMode)),
    resolution_scale=st.sampled_from([None, 1, 2]),
    kernel=any_kernel,
)
# one canvas for every pair: each face is prepared once for all of them
ONE_CANVAS = dict(seed=1, sizes=[(512, 512)] * 6, mode=AlphaMode.LITERAL,
                  resolution_scale=None, kernel=BellKernel())
# widths rise as heights fall, so each pair has a canvas of its own and
# each face is prepared once per pair it is in
CANVAS_PER_PAIR = dict(seed=2, sizes=[(200 + 60 * n, 500 - 60 * n) for n in range(6)],
                       mode=AlphaMode.COMPLEMENT, resolution_scale=2, kernel=TriangleKernel())
# every ordered pair, self pairs included, and three again
EQUAL_TO_COMPARE_PAIRS = [(i, j) for i in range(6) for j in range(6)] + [(5, 0), (3, 1), (2, 2)]


def scalar_report(face_a, face_b, config):
    """The pipeline one pair and one feature at a time, on the scalar forms: the reference."""
    canvas, norm_a, norm_b = normalize_pair(face_a, face_b)
    scale = config.resolution_scale or default_resolution_scale(canvas)
    alpha = alpha_from_masks(rasterize(norm_a.outline, canvas, scale),
                             rasterize(norm_b.outline, canvas, scale), config.alpha_mode)
    rows = tuple(FeatureRow(name, a, b, *feature_membership(a, b, config.kernel))
                 for (name, a), (_, b) in zip(extract_features(norm_a).items,
                                              extract_features(norm_b).items))
    return MatchReport(a_id=face_a.id, b_id=face_b.id, features=rows, alpha=alpha, k=config.k,
                       alpha_mode=config.alpha_mode, kernel=config.kernel,
                       resolution_scale=scale)


def assert_scores_equal_compare(seed, sizes, mode, resolution_scale, kernel):
    """score_pairs and compare equal the scalar reference, and pair_scores their values, to the bit."""
    faces = dealt_faces(seed, sizes)
    pairs = EQUAL_TO_COMPARE_PAIRS
    config = ScoringConfig(k=0.7, alpha_mode=mode, kernel=kernel,
                           resolution_scale=resolution_scale)
    reports = score_pairs(faces, pairs, config)
    assert len(reports) == len(pairs)
    for (i, j), report in zip(pairs, reports):
        expected = scalar_report(faces[i], faces[j], config)
        assert report == expected == compare(faces[i], faces[j], config)
        assert dump_json(report.to_dict()) == dump_json(expected.to_dict())
    # the columns: the same three values, to the bit (repr tells -0.0 from
    # 0.0 and a float from a numpy scalar)
    columns = [tuple(map(repr, scores)) for scores in pair_scores(faces, iter(pairs), config)]
    assert columns == [tuple(map(repr, (r.feature_score, r.alpha, r.similarity)))
                       for r in reports]


class OvershootKernel(TriangleKernel):
    """A kernel whose membership is 1.5 below an entropy of 1, outside [0, 1]."""

    def evaluate(self, x: float) -> float:
        return 1.5 if x < 1.0 else 1.0

    def evaluate_column(self, x: np.ndarray) -> np.ndarray:
        return np.where(x < 1.0, 1.5, 1.0)


def counted_fills(monkeypatch) -> list:
    """Each fill_outlines call of the engine from now on: (outlines, width, height, scale)."""
    calls = []
    original = fuzzyface.scoring.fill_outlines

    def counted(outlines, canvas, scale):
        calls.append((len(outlines), canvas.width, canvas.height, scale))
        return original(outlines, canvas, scale)

    monkeypatch.setattr(fuzzyface.scoring, "fill_outlines", counted)
    return calls


def counted_stretches(monkeypatch) -> list:
    """Each rescale_face call of the engine from now on: (face id, width, height)."""
    calls = []
    original = fuzzyface.scoring.rescale_face

    def counted(face, width, height):
        calls.append((face.id, width, height))
        return original(face, width, height)

    monkeypatch.setattr(fuzzyface.scoring, "rescale_face", counted)
    return calls


class TestScorePairs:
    @settings(max_examples=25, deadline=None)
    @given(**equal_to_compare_cases)
    @example(**ONE_CANVAS)
    @example(**CANVAS_PER_PAIR)
    def test_equals_per_pair_compare(self, seed, sizes, mode, resolution_scale, kernel):
        assert_scores_equal_compare(seed, sizes, mode, resolution_scale, kernel)

    @pytest.mark.parametrize("block", [1, 2, 4096])
    @pytest.mark.parametrize("pairs, kernel, message", [
        # (0, 2) has a zero-area mask and (3, 4) a face refused once stretched
        ([(0, 1), (1, 0), (0, 2), (3, 4), (1, 2)], TriangleKernel(), "mask has zero area"),
        ([(0, 1), (1, 0), (3, 4), (0, 2), (1, 2)], TriangleKernel(),
         "face 'found' stretched onto 768 x 768"),
        # a membership past 1 on (0, 1), which MatchReport refuses, before (3, 4)
        ([(0, 0), (1, 1), (0, 1), (3, 4)], OvershootKernel(), "outside [0, 1]: FeatureRow"),
        # a refused stretch before a pair with a bad index
        ([(0, 1), (3, 4), (0, 9)], TriangleKernel(), "face 'found' stretched onto 768 x 768"),
        # a share that rounds to 0, before a refused stretch: math.log2 of it
        # raised a bare "math domain error" in compare and both scorers
        ([(0, 1), (5, 0), (3, 4)], TriangleKernel(),
         "feature measurements 5e-324 and 30.0 have no entropy in floats: their sum overflows "
         "or a share rounds to 0"),
    ])
    def test_first_error_in_pair_order(self, monkeypatch, block, pairs, kernel, message):
        # both raise what a compare of each pair in turn raises first, though
        # a block prepares all its faces before it scores any pair
        monkeypatch.setattr(fuzzyface.scoring, "_BLOCK_PAIRS", block)
        faces = [*unequal_faces(), zero_area_face(), stretch_refused_face(),
                 make_face("big", width=768, height=768), tiny_eyes_face()]
        config = ScoringConfig(kernel=kernel)
        with pytest.raises(ValueError) as expected:
            for i, j in pairs:
                compare(faces[i], faces[j], config)
        assert message in str(expected.value)
        for score in (score_pairs, pair_scores):
            with pytest.raises(ValueError) as raised:
                score(faces, pairs, config)
            assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize("block", [1, 4096])
    @pytest.mark.parametrize("pair", [(-1, 0), (True, 0), (0, 9), (0,), (0, np.True_),
                                      (0.0, 1), (0, 1, 2), None, (0, 2 ** 70), [1, False]])
    def test_bad_pair_indices_are_refused(self, monkeypatch, block, pair):
        # named in its words, before a later stretch-refused pair is reached
        monkeypatch.setattr(fuzzyface.scoring, "_BLOCK_PAIRS", block)
        faces = [*unequal_faces(), stretch_refused_face(), make_face("big", width=768, height=768)]
        for score in (score_pairs, pair_scores):
            for pairs in ([(0, 1), pair, (2, 3)], [(0, 1), pair]):
                with pytest.raises(ValueError) as raised:
                    score(faces, pairs)
                assert str(raised.value) == (f"pair {pair!r} must be two integer indices into "
                                             f"the 4 faces")

    def test_numpy_indices_score_as_ints(self):
        faces = unequal_faces()
        pairs = [(0, 1), (1, 0), (1, 1)]
        numpy_pairs = [(np.int64(0), np.int32(1)), np.array([1, 0]), (np.uint8(1), 1)]
        for score in (score_pairs, pair_scores):
            assert repr(score(faces, numpy_pairs)) == repr(score(faces, pairs))
            assert repr(score(faces, [[0, 1], [1, 0], [1, 1]])) == repr(score(faces, pairs))

    @pytest.mark.parametrize("mode", list(AlphaMode))
    @pytest.mark.parametrize("kernel", DEFAULT_KERNELS.values(), ids=DEFAULT_KERNELS.keys())
    def test_self_pairs_repeated_faces_and_lone_keys_equal_compare(self, mode, kernel):
        faces = dealt_faces(9, [(512, 512), (256, 384), (768, 512), (384, 768), (100, 140),
                                (256, 384)])
        faces += [faces[1], faces[4]]  # one face at two indices
        # (0, 0) and (4, 4) are each the one pair of their canvas: keys of
        # one face; (1, 6), (6, 1), (6, 6) and (1, 1) put one face in two
        # slots of the 256 x 384 key, and (7, 2) meets face 4 at index 7
        pairs = [(0, 0), (4, 4), (1, 6), (6, 1), (6, 6), (1, 2), (7, 2), (2, 2), (3, 5),
                 (0, 3), (5, 1), (1, 1)]
        config = ScoringConfig(k=0.3, alpha_mode=mode, kernel=kernel)
        expected = [compare(copy.deepcopy(faces[i]), copy.deepcopy(faces[j]), config)
                    for i, j in pairs]
        for _ in range(2):  # cold, then warm
            assert [repr(r) for r in score_pairs(faces, pairs, config)] == list(map(repr, expected))
            assert repr(pair_scores(faces, pairs, config)) == repr(
                [(r.feature_score, r.alpha, r.similarity) for r in expected])

    @pytest.mark.parametrize("count", [1, 2, 36])
    @pytest.mark.parametrize("kernel", DEFAULT_KERNELS.values(), ids=DEFAULT_KERNELS.keys())
    @pytest.mark.parametrize("scorer", [score_pairs, pair_scores])
    def test_a_block_of_pairs_calls_no_evaluate(self, monkeypatch, scorer, kernel, count):
        # its memberships are the kernel's column form, with no frame per
        # value, in a block of one pair too
        faces = dealt_faces(3, list(IMAGE_SIZES[:3]) * 2)
        pairs = [(i, j) for i in range(6) for j in range(6)][:count]
        config = ScoringConfig(kernel=kernel)
        expected = repr([scorer(faces, [pair], config)[0] for pair in pairs])

        def refused(self, x):
            raise AssertionError("evaluate called on a block of pairs")

        monkeypatch.setattr(type(kernel), "evaluate", refused)
        assert repr(scorer(faces, pairs, config)) == expected

    def test_each_face_rasterized_once_per_canvas(self, monkeypatch):
        calls = counted_fills(monkeypatch)
        small = [make_face(f"s{i}", width=100, height=100) for i in range(3)]
        big = make_face("big", width=200, height=150)
        faces = small + [big]
        pairs = [(0, 1), (0, 2), (1, 2), (2, 1), (0, 3), (1, 3)]
        score_pairs(faces, pairs, ScoringConfig())
        # one fill per canvas: the three faces on the 100 px canvas, then
        # faces 0, 1 and 3 on the 200x150 one
        assert calls == [(3, 100, 100, 6), (3, 200, 150, 3)]
        calls.clear()
        # a block whose preparation raises keeps no face of the canvas that
        # raised, and its pairs are then compared in turn: the first pair's
        # faces are filled together, and the second pair raises on its third face
        faces = [make_face("a", 768, 768), make_face("b", 768, 768), stretch_refused_face()]
        with pytest.raises(ValueError, match="stretched onto 768 x 768"):
            score_pairs(faces, [(0, 1), (0, 2)], ScoringConfig())
        assert calls == [(2, 768, 768, 1)]

    @pytest.mark.parametrize("scorer", [score_pairs, pair_scores])
    def test_each_canvas_built_once(self, monkeypatch, scorer):
        calls = []
        original = fuzzyface.scoring.Canvas

        def counted(width, height):
            calls.append((width, height))
            return original(width, height)

        monkeypatch.setattr(fuzzyface.scoring, "Canvas", counted)
        faces = dealt_faces(3, [(512, 512), (256, 384), (768, 512), (384, 768), (100, 140),
                                (256, 384)])
        pairs = [(i, j) for i in range(6) for j in range(6)]
        scorer(faces, pairs, ScoringConfig())
        sizes = [(max(faces[i].image_width, faces[j].image_width),
                  max(faces[i].image_height, faces[j].image_height)) for i, j in pairs]
        # one call per distinct size, in size order: by width, then height
        assert calls == sorted(set(sizes))
        assert len(calls) < len(pairs)

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
        assert pair_scores([make_face()], [], ScoringConfig()) == []


def counted_overlaps(monkeypatch) -> list:
    """The engine's overlap counts from now on: "alone" per pair, ("packed", pairs, masks) per key."""
    calls = []
    alone, packed = fuzzyface.scoring.overlap_counts, fuzzyface.scoring.packed_overlap_counts

    def counted_alone(a, b):
        calls.append("alone")
        return alone(a, b)

    def counted_packed(masks, first, second):
        calls.append(("packed", len(first), len(masks)))
        return packed(masks, first, second)

    monkeypatch.setattr(fuzzyface.scoring, "overlap_counts", counted_alone)
    monkeypatch.setattr(fuzzyface.scoring, "packed_overlap_counts", counted_packed)
    return calls


class TestOverlapCounting:
    """A key's pairs are counted packed when they number at least twice its faces."""

    def test_a_compare_makes_no_engine_count(self, monkeypatch):
        # it counts its one pair through alpha_from_masks, outside the engine
        calls = counted_overlaps(monkeypatch)
        compare(*unequal_faces())
        compare(make_face("a"), make_face("b"))  # one canvas, two faces
        assert calls == []

    def test_genuine_pairs_are_counted_alone(self, monkeypatch):
        # the CLI calibrate's block: 30 genuine pairs over 30 faces on one canvas
        population = generate_population(PopulationConfig(10, 3, seed=4))
        pairs = [(i, j) for i, j, label in labeled_pairs(population) if label == "genuine"]
        calls = counted_overlaps(monkeypatch)
        pair_scores([labeled.face for labeled in population], pairs)
        assert calls == ["alone"] * 30

    def test_all_pairs_of_one_canvas_are_packed(self, monkeypatch):
        faces = dealt_faces(5, [(512, 512)] * 6)
        pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        expected = [repr(compare(faces[i], faces[j])) for i, j in pairs]
        calls = counted_overlaps(monkeypatch)
        assert [repr(report) for report in score_pairs(faces, pairs)] == expected
        assert calls == [("packed", 15, 6)]

    def test_one_canvas_example_is_packed(self, monkeypatch):
        # test_equals_per_pair_compare's ONE_CANVAS example takes the packed
        # path in score_pairs and pair_scores
        calls = counted_overlaps(monkeypatch)
        assert_scores_equal_compare(**ONE_CANVAS)
        assert calls == [("packed", len(EQUAL_TO_COMPARE_PAIRS), 6)] * 2

    def test_a_block_packs_one_key_and_counts_another_alone(self, monkeypatch):
        faces = [*dealt_faces(6, [(300, 300)] * 5), make_face("big", width=400, height=420)]
        pairs = [(0, 5)] + [(i, j) for i in range(5) for j in range(i + 1, 5)] + [(5, 5)]
        expected = repr([compare(faces[i], faces[j]) for i, j in pairs])
        calls = counted_overlaps(monkeypatch)
        assert repr(score_pairs(faces, pairs)) == expected
        # the ten pairs of the 300 px canvas over five faces; the others, on
        # canvases of one or two faces, alone
        assert calls == [("packed", 10, 5), "alone", "alone"]

    def test_packed_temporaries_stay_under_a_mebibyte(self):
        # eight faces of about 1000 x 950 px on a 4096 px canvas: their masks
        # hold about 7 MB, which the count takes in bands
        faces = [rescale_face(labeled.face, 4096, 4096)
                 for labeled in generate_population(PopulationConfig(4, 2, seed=8))]
        pair_scores(faces, [(i, i) for i in range(8)])  # the masks, made beforehand
        masks = sum(face._prepared[4096, 4096, 1][1].bits.nbytes for face in faces)
        assert masks > 6 * 2 ** 20
        pairs = [(i, j) for i in range(8) for j in range(i + 1, 8)]
        tracemalloc.start()
        try:
            scores = pair_scores(faces, pairs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        assert repr(scores) == repr([pair_scores(faces, [pair])[0] for pair in pairs])


class TestPreparedMemo:
    """A face keeps its features and mask by (canvas width, height, raster scale), for later calls."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000),
           sizes=st.lists(st.sampled_from(IMAGE_SIZES), min_size=6, max_size=6),
           repeats=st.lists(st.integers(0, 5), max_size=4),
           mode=st.sampled_from(list(AlphaMode)),
           resolution_scale=st.sampled_from([None, 1, 2]),
           kernel=st.sampled_from(list(DEFAULT_KERNELS.values())))
    @example(seed=0, sizes=list(IMAGE_SIZES) + [(256, 384)], repeats=[1, 1, 4],
             mode=AlphaMode.LITERAL, resolution_scale=None, kernel=BellKernel())
    def test_warm_memos_score_as_fresh_faces(self, seed, sizes, repeats, mode,
                                             resolution_scale, kernel):
        faces = dealt_faces(seed, sizes)
        faces += [faces[i] for i in repeats]  # one object at several indices
        pairs = [(i, j) for i in range(len(faces)) for j in range(len(faces))]
        config = ScoringConfig(alpha_mode=mode, kernel=kernel, resolution_scale=resolution_scale)

        def fresh(i, j):  # new objects, with empty memos that see one canvas only
            return [copy.deepcopy(faces[i]), copy.deepcopy(faces[j])]

        reports = [repr(score_pairs(fresh(i, j), [(0, 1)], config)[0]) for i, j in pairs]
        scores = repr([pair_scores(fresh(i, j), [(0, 1)], config)[0] for i, j in pairs])
        for _ in range(2):  # the same objects again, their memos warm
            assert [repr(r) for r in score_pairs(faces, pairs, config)] == reports
            assert repr(pair_scores(faces, pairs, config)) == scores
        assert all(face._prepared for face in faces)

    def test_each_face_stretched_once_over_calls(self, monkeypatch):
        calls = counted_stretches(monkeypatch)
        small, big = make_face("s", width=100, height=100), make_face("b", width=200, height=150)
        for _ in range(3):
            compare(small, big)
            score_pairs([big, small], [(0, 1), (1, 1)])
        assert calls == [("s", 200, 150), ("b", 200, 150), ("s", 100, 100)]
        # one entry per key, each at the default scale of its canvas
        assert set(small._prepared) == {(200, 150, 3), (100, 100, 6)}
        values, mask = small._prepared[200, 150, 3]
        stretched = rescale_face(small, 200, 150)
        assert values == tuple(value for _, value in extract_features(stretched).items)
        # and its mask, as rasterize fills it
        alone = rasterize(stretched.outline, Canvas(200, 150), 3)
        assert (mask.offset, mask.frame) == (alone.offset, alone.frame)
        assert np.array_equal(mask.bits, alone.bits)

    def test_refused_stretch_keeps_no_entry(self):
        face, big = stretch_refused_face(), make_face("big", width=768, height=768)
        for _ in range(2):  # the second compare takes the same steps and words
            with pytest.raises(ValueError) as exc:
                compare(face, big)
            assert str(exc.value) == ("face 'found' stretched onto 768 x 768: "
                                      "outline is self-intersecting")
            assert face._prepared == {} and big._prepared == {}
        compare(face, make_face("tall", width=512, height=768))
        assert set(face._prepared) == {(512, 768, 1)}  # at the default scale

    def test_refused_frame_keeps_no_mask(self):
        face, other = make_face("a"), make_face("b")
        compare(face, other)  # a mask at the default scale, 6
        huge = ScoringConfig(resolution_scale=100)  # a 10000 x 10000 px frame
        fresh = make_face("c")
        for _ in range(2):
            for scorer in (score_pairs, pair_scores):
                with pytest.raises(ValueError, match="raster frame 10000 x 10000"):
                    scorer([fresh, face], [(0, 1)], huge)
        assert set(face._prepared) == {(100, 100, 6)}
        assert fresh._prepared == {}

    def test_each_face_rasterized_once_over_calls(self, monkeypatch):
        calls, stretches = counted_fills(monkeypatch), counted_stretches(monkeypatch)
        faces = [make_face("s0"), make_face("s1"), make_face("b", width=200, height=150)]
        pairs = [(0, 1), (0, 2), (1, 2), (2, 0)]
        for _ in range(3):
            compare(faces[0], faces[2])
            score_pairs(faces, pairs)
            pair_scores(faces + faces, pairs + [(3, 5), (4, 4)])  # one face at two indices
        # s0 and b on 200x150 at scale 3 (the compare); then s0 and s1 on
        # 100x100 at scale 6, and s1 on 200x150; later calls fill nothing
        assert calls == [(2, 200, 150, 3), (2, 100, 100, 6), (1, 200, 150, 3)]
        # each face is stretched once per key, as it is filled
        assert stretches == [("s0", 200, 150), ("b", 200, 150), ("s0", 100, 100),
                             ("s1", 100, 100), ("s1", 200, 150)]
        calls.clear()
        stretches.clear()
        for _ in range(2):
            pair_scores(faces, pairs, ScoringConfig(resolution_scale=1))
            compare(faces[1], faces[0], ScoringConfig(resolution_scale=1))
        # a new scale is a new key: its faces are stretched and filled again,
        # key by key in canvas size order, and in index order within a key
        assert calls == [(2, 100, 100, 1), (3, 200, 150, 1)]
        assert stretches == [("s0", 100, 100), ("s1", 100, 100), ("s0", 200, 150),
                             ("s1", 200, 150), ("b", 200, 150)]
        assert [sorted(face._prepared) for face in faces] == [
            [(100, 100, 1), (100, 100, 6), (200, 150, 1), (200, 150, 3)]] * 2 + [
            [(200, 150, 1), (200, 150, 3)]]

    def test_a_key_keeps_entries_only_when_all_its_faces_pass(self, monkeypatch):
        calls = counted_fills(monkeypatch)
        first = make_face("a", width=768, height=768)
        faces = [first, stretch_refused_face()]
        for scorer in (score_pairs, pair_scores):
            # the first face of the key passes, the second is refused
            with pytest.raises(ValueError, match="face 'found' stretched onto 768 x 768"):
                scorer(faces, [(0, 1)])
            assert first._prepared == {} and faces[1]._prepared == {}
        assert calls == []
        score_pairs([first], [(0, 0)])  # the face alone is prepared there
        assert calls == [(1, 768, 768, 1)]
        assert set(first._prepared) == {(768, 768, 1)}

    def test_warm_masks_at_each_scale_score_as_fresh_faces(self):
        faces = dealt_faces(7, [(512, 512), (256, 384), (100, 140), (256, 384)])
        pairs = [(i, j) for i in range(len(faces)) for j in range(len(faces))]

        def fresh(i, j):
            return [copy.deepcopy(faces[i]), copy.deepcopy(faces[j])]

        for resolution_scale in (1, 2, None, 1):  # the same faces, their masks kept
            config = ScoringConfig(resolution_scale=resolution_scale)
            reports = [repr(score_pairs(fresh(i, j), [(0, 1)], config)[0]) for i, j in pairs]
            scores = repr([pair_scores(fresh(i, j), [(0, 1)], config)[0] for i, j in pairs])
            assert [repr(r) for r in score_pairs(faces, pairs, config)] == reports
            assert repr(pair_scores(faces, pairs, config)) == scores
        # (100, 140) meets canvases of 512, 384 and 140 px: default scales 1, 2 and 4
        assert set(faces[2]._prepared) == {(512, 512, 1), (512, 512, 2), (256, 384, 1),
                                           (256, 384, 2), (100, 140, 1), (100, 140, 2),
                                           (100, 140, 4)}


GROUPING_SIZES = ((100, 100), (140, 100), (100, 140), (120, 90), (90, 120))


@st.composite
def grouping_blocks(draw):
    """Image sizes, the face that also sits at a second index, and a block of 1, 2 or many pairs."""
    sizes = draw(st.lists(st.sampled_from(GROUPING_SIZES), min_size=1, max_size=5))
    twice = draw(st.integers(0, len(sizes) - 1))
    length = draw(st.one_of(st.sampled_from([1, 2]), st.integers(3, 40)))
    index = st.integers(0, len(sizes))  # the last index is the face at two indices
    # all plain ints, or each pair's indices of some int type, numpy's included
    kinds = st.sampled_from([int, np.int64, np.int32, np.uint8]) if draw(st.booleans()) else \
        st.just(int)
    pairs = draw(st.lists(st.tuples(index, index, kinds), min_size=length, max_size=length))
    return sizes, twice, [(kind(i), kind(j)) for i, j, kind in pairs]


class TestGrouping:
    """_prepared groups a block's pairs by key, in key order, each key's slots one run."""

    @settings(max_examples=60, deadline=None)
    @given(block=grouping_blocks(), resolution_scale=st.sampled_from([None, 1, 2]))
    # sizes and indices met out of order: the keys and each key's slots still ascend
    @example(block=([(140, 100), (100, 100)], 0, [(0, 0), (1, 1)]), resolution_scale=None)
    @example(block=([(100, 100), (100, 100)], 1, [(1, 0), (2, 1), (0, 2)]), resolution_scale=1)
    @example(block=([(120, 90)], 0, [(np.int64(1), np.int64(0))]), resolution_scale=2)
    def test_keys_ascend_and_each_key_is_one_run(self, block, resolution_scale):
        sizes, twice, pairs = block
        faces = [make_face(f"f{k}", w, h) for k, (w, h) in enumerate(sizes)]
        faces.append(faces[twice])  # one face at two indices
        config = ScoringConfig(resolution_scale=resolution_scale)
        keys, key_slots, slot_faces, values, masks, pair_keys, slots = \
            fuzzyface.scoring._prepared(faces, pairs, config)
        assert len(pair_keys) == len(slots) == len(pairs)
        assert len(slot_faces) == len(values) == len(masks) == sum(key_slots)
        assert keys == sorted(set(keys))  # distinct and ascending
        starts = [0, *accumulate(key_slots)]
        slot_of = {}  # (key, index) -> its slot
        for (i, j), key, (a, b) in zip(pairs, pair_keys.tolist(), slots.tolist()):
            # the pair's own faces, on normalize_pair's canvas at the config's scale
            assert slot_faces[a] is faces[i] and slot_faces[b] is faces[j]
            width = max(faces[i].image_width, faces[j].image_width)
            height = max(faces[i].image_height, faces[j].image_height)
            scale = resolution_scale or default_resolution_scale(Canvas(width, height))
            assert keys[key] == (width, height, scale)
            for index, slot in ((i, a), (j, b)):
                assert starts[key] <= slot < starts[key + 1]  # inside its key's run
                assert masks[slot] is faces[index]._prepared[keys[key]][1]
                assert values[slot].tolist() == list(faces[index]._prepared[keys[key]][0])
                assert slot_of.setdefault((key, int(index)), slot) == slot
        # one slot per (key, index), in key order, then index order, in a
        # block of one pair too
        assert sorted(slot_of, key=slot_of.get) == sorted(slot_of)
        assert sorted(slot_of.values()) == list(range(len(slot_faces)))


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

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), pair=st.sampled_from([(0, 1), (0, 2), (1, 3), (2, 3)]),
           mode=st.sampled_from(list(AlphaMode)))
    def test_joint_scaling_keeps_the_score(self, seed, pair, mode):
        population = generate_population(PopulationConfig(2, 2, seed=seed))
        face_a, face_b = (population[i].face for i in pair)

        def similarity(a, b):
            # a raster of at least 4096 px a side keeps sampling noise well
            # below the bound; at 2048 it reaches 0.116 (seed 52, pair (0, 1))
            scale = raster_scale_for(a, b, target=4096)
            return compare(a, b, ScoringConfig(alpha_mode=mode, resolution_scale=scale)).similarity

        base = similarity(face_a, face_b)
        for c in (0.25, 0.5, 1.5, 2, 3):  # the 512 px sides stay whole
            scaled = similarity(scaled_face(face_a, c), scaled_face(face_b, c))
            assert scaled == pytest.approx(base, abs=0.1)


class TestValidation:
    def test_config_bad_k(self):
        with pytest.raises(ValueError, match="k must"):
            ScoringConfig(k=1.5)

    @pytest.mark.parametrize("k", [True, "0.5", None])
    def test_config_k_must_be_a_number(self, k):
        with pytest.raises(ValueError, match="k must lie in"):
            ScoringConfig(k=k)

    @pytest.mark.parametrize("k", [10 ** 400, -10 ** 400, math.inf, math.nan],
                             ids=["huge", "-huge", "inf", "nan"])
    def test_k_beyond_any_float_is_refused_in_words(self, k):
        # an int too large for a float raised OverflowError here once
        for build in (lambda: ScoringConfig(k=k), lambda: checked_report([1.0], 0.0, k)):
            with pytest.raises(ValueError, match=r"mixing weight k must lie in \[0, 1\], got"):
                build()

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
        # the derived terms cannot be passed in, so they cannot disagree with the rows
        with pytest.raises(TypeError, match="feature_score"):
            checked_report([1.0], 1.0, 0.5, feature_score=0.5)
        with pytest.raises(TypeError, match="similarity"):
            checked_report([1.0], 1.0, 0.5, similarity=90.0)

    @pytest.mark.parametrize("k", [2.0, -1.0, math.nan, True])
    def test_report_k_must_lie_in_the_unit_interval(self, k):
        # ScoringConfig's rule and message; at k = 2.0 the similarity was 200.0
        with pytest.raises(ValueError, match=r"mixing weight k must lie in \[0, 1\], got"):
            checked_report([1.0], 0.0, k)

    def test_empty_report_rejected(self):
        with pytest.raises(ValueError, match="at least one feature"):
            MatchReport(
                a_id="a", b_id="b", features=(), alpha=1.0, k=0.5,
                alpha_mode=AlphaMode.COMPLEMENT, kernel=BellKernel(), resolution_scale=1,
            )

    @pytest.mark.parametrize("context, message", [
        ({"alpha_mode": "complement"}, "alpha_mode must be an AlphaMode, got 'complement'"),
        ({"kernel": "bell"}, "unknown kernel 'bell'"),
        ({"kernel": BellKernel(0.3)}, "bell kernel peak 'r' must be >= 0.5, got 0.3"),
    ])
    def test_report_context_passes_the_config_checks(self, context, message):
        # to_dict would raise on the first two, and no config can hold any of them
        settings = {"alpha_mode": AlphaMode.COMPLEMENT, "kernel": BellKernel(), **context}
        with pytest.raises(ValueError, match=re.escape(message)):
            MatchReport(a_id="a", b_id="b", features=(FeatureRow("f0", 60.0, 60.0, 1.0, 1.0),),
                        alpha=1.0, k=0.5, resolution_scale=1, **settings)

    @pytest.mark.parametrize("alpha", [True, False, "0.5", None])
    def test_report_alpha_must_be_a_number(self, alpha):
        # a bool was written out as "alpha": true; a string raised TypeError
        with pytest.raises(ValueError, match=r"alpha must lie in \[0, 1\], got"):
            checked_report([1.0], alpha, 0.5)

    @pytest.mark.parametrize("entropy, membership", [
        (True, True), (1.0, True), (False, 0.5), ("0.5", 0.5), (0.5, "0.5"), (None, 0.5),
    ])
    def test_report_row_terms_must_be_numbers(self, entropy, membership):
        row = FeatureRow("f0", 60.0, 60.0, entropy, membership)
        with pytest.raises(ValueError, match=r"feature row 'f0' outside \[0, 1\]: FeatureRow"):
            MatchReport(
                a_id="a", b_id="b", features=(row,), alpha=1.0, k=0.5,
                alpha_mode=AlphaMode.COMPLEMENT, kernel=BellKernel(), resolution_scale=1,
            )

    def test_report_ids_must_be_strings(self):
        # a None id was written out as "b": null
        with pytest.raises(ValueError, match="report ids must be non-empty strings, got 'a' and None"):
            MatchReport(
                a_id="a", b_id=None, features=(FeatureRow("f0", 60.0, 60.0, 1.0, 1.0),),
                alpha=1.0, k=0.5, alpha_mode=AlphaMode.COMPLEMENT, kernel=BellKernel(),
                resolution_scale=1,
            )

    @pytest.mark.parametrize("scale", [-3, 0, 2.0, True])
    def test_report_scale_must_be_a_whole_number(self, scale):
        # a scale of -3 was written out as it was
        with pytest.raises(ValueError, match=r"resolution_scale must be an integer >= 1, got"):
            MatchReport(
                a_id="a", b_id="b", features=(FeatureRow("f0", 60.0, 60.0, 1.0, 1.0),),
                alpha=1.0, k=0.5, alpha_mode=AlphaMode.COMPLEMENT, kernel=BellKernel(),
                resolution_scale=scale,
            )

    @pytest.mark.parametrize("a, b", [
        (-5.0, 60.0), (60.0, math.nan), (0.0, 60.0), (60.0, math.inf), (True, 60.0),
        ("60", 60.0), (60.0, None),
    ])
    def test_report_measurements_must_be_positive_reals(self, a, b):
        # a NaN measurement was written out as NaN, which is not JSON
        row = FeatureRow("f0", a, b, 1.0, 1.0)
        with pytest.raises(ValueError,
                           match=r"feature row 'f0' measurements must be positive reals: FeatureRow"):
            MatchReport(
                a_id="a", b_id="b", features=(row,), alpha=1.0, k=0.5,
                alpha_mode=AlphaMode.COMPLEMENT, kernel=BellKernel(), resolution_scale=1,
            )

    def test_report_accepts_int_terms(self):
        # an int is a number; only bools and other types are refused
        report = checked_report([1], 0, 0.5)
        assert report.alpha == 0 and report.feature_score == 1.0
