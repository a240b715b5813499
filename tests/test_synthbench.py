"""Synthetic population generation and the verification evaluator."""

import numpy as np
import pytest

import fuzzyface as ff
from fuzzyface import (
    EvalReport,
    GenerationError,
    PopulationConfig,
    ScoringConfig,
    evaluate,
    generate_population,
    rank_auc,
    report_from_scores,
    roc_points,
)


def brute_force_auc(genuine, impostor):
    g = np.asarray(genuine, dtype=float)
    m = np.asarray(impostor, dtype=float)
    wins = (g[:, None] > m[None, :]).sum() + 0.5 * (g[:, None] == m[None, :]).sum()
    return wins / (g.size * m.size)


def trapezoid_auc(points):
    area = 0.0
    for (f0, t0), (f1, t1) in zip(points, points[1:]):
        area += (f1 - f0) * (t1 + t0) / 2.0
    return area


class TestGeneration:
    def test_population_shape(self):
        pop = generate_population(PopulationConfig(3, 2, seed=5))
        assert len(pop) == 6
        assert [lf.identity for lf in pop] == ["id000"] * 2 + ["id001"] * 2 + ["id002"] * 2
        assert pop[0].face.id == "id000_c00"
        assert pop[5].face.id == "id002_c01"

    def test_seeded_determinism(self):
        config = PopulationConfig(2, 2, seed=7)
        assert generate_population(config) == generate_population(config)

    def test_different_seeds_differ(self):
        a = generate_population(PopulationConfig(2, 2, seed=7))
        b = generate_population(PopulationConfig(2, 2, seed=8))
        assert a != b

    def test_zero_capture_noise_duplicates_captures(self):
        pop = generate_population(PopulationConfig(2, 3, capture_sigma=0.0, seed=9))
        for i in (0, 3):
            captures = pop[i : i + 3]
            assert captures[0].face.landmarks == captures[1].face.landmarks
            assert captures[0].face.outline == captures[2].face.outline

    def test_zero_capture_noise_scores_perfect(self):
        pop = generate_population(PopulationConfig(2, 2, capture_sigma=0.0, seed=9))
        report = evaluate(pop, ScoringConfig(k=0.5), threshold=99.0)
        assert all(s == pytest.approx(100.0, abs=1e-9) for s in report.genuine_scores)
        assert max(report.impostor_scores) < 100.0
        assert report.auc == 1.0

    def test_faces_are_valid(self):
        pop = generate_population(PopulationConfig(4, 2, identity_sigma=10.0, seed=1))
        for lf in pop:
            fv = ff.extract_features(lf.face)
            assert all(v > 0 for _, v in fv.items)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="identity_count"):
            PopulationConfig(0, 2)
        with pytest.raises(ValueError, match="captures_per_identity"):
            PopulationConfig(2, 0)
        with pytest.raises(ValueError, match="identity_sigma"):
            PopulationConfig(2, 2, identity_sigma=-1.0)
        with pytest.raises(ValueError, match="seed"):
            PopulationConfig(2, 2, seed=-1)

    def test_retry_exhaustion(self):
        with pytest.raises(GenerationError, match="sigmas"):
            generate_population(PopulationConfig(1, 1, identity_sigma=1e5, seed=0))


class TestRankAuc:
    def test_identical_multisets(self):
        assert rank_auc([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.5

    def test_strict_separation(self):
        assert rank_auc([10.0, 11.0], [1.0, 2.0, 3.0]) == 1.0
        assert rank_auc([1.0], [5.0, 6.0]) == 0.0

    def test_hand_case(self):
        #  wins: 95>80, 95>90, 85>80; loss: 85<90
        assert rank_auc([95.0, 85.0], [80.0, 90.0]) == 0.75

    def test_matches_brute_force(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            genuine = rng.integers(0, 20, size=rng.integers(1, 40)).astype(float)
            impostor = rng.integers(0, 20, size=rng.integers(1, 40)).astype(float)
            assert rank_auc(genuine, impostor) == pytest.approx(
                brute_force_auc(genuine, impostor), abs=1e-9
            )

    def test_matches_roc_trapezoid(self):
        rng = np.random.default_rng(54)
        for _ in range(30):
            genuine = rng.integers(0, 10, size=rng.integers(2, 30)).astype(float)
            impostor = rng.integers(0, 10, size=rng.integers(2, 30)).astype(float)
            points = roc_points(genuine, impostor)
            assert trapezoid_auc(points) == pytest.approx(
                rank_auc(genuine, impostor), abs=1e-9
            )

    def test_empty_inputs(self):
        with pytest.raises(ValueError):
            rank_auc([], [1.0])


class TestRocPoints:
    def test_endpoints(self):
        points = roc_points([3.0, 5.0], [1.0, 2.0])
        assert points[0] == (0.0, 0.0)
        assert points[-1] == (1.0, 1.0)

    def test_monotone(self):
        rng = np.random.default_rng(8)
        points = roc_points(rng.normal(5, 2, 50), rng.normal(3, 2, 70))
        for (f0, t0), (f1, t1) in zip(points, points[1:]):
            assert f1 >= f0 and t1 >= t0


class TestReportFromScores:
    def test_accuracy_hand_case(self):
        report = report_from_scores([95.0, 85.0], [80.0, 90.0], threshold=88.0)
        assert report.accuracy_at_threshold == 0.5
        assert report.auc == 0.75
        assert report.genuine_mean == 90.0
        assert report.impostor_mean == 85.0

    def test_stddev_population_convention(self):
        report = report_from_scores([90.0, 100.0], [50.0], threshold=80.0)
        assert report.genuine_stddev == 5.0
        assert report.impostor_stddev == 0.0

    def test_requires_both_classes(self):
        with pytest.raises(ValueError, match="genuine"):
            report_from_scores([], [1.0], threshold=50.0)
        with pytest.raises(ValueError, match="impostor"):
            report_from_scores([1.0], [], threshold=50.0)

    def test_threshold_range(self):
        with pytest.raises(ValueError, match="threshold"):
            report_from_scores([90.0], [50.0], threshold=150.0)

    def test_report_round_trips_to_dict(self):
        report = report_from_scores([95.0, 85.0], [80.0, 90.0], threshold=88.0)
        doc = report.to_dict()
        assert doc["auc"] == 0.75
        assert doc["roc_points"][0] == [0.0, 0.0]

    def test_invalid_roc_rejected(self):
        with pytest.raises(ValueError, match="monotone"):
            EvalReport(
                genuine_scores=(1.0,), impostor_scores=(0.0,),
                genuine_mean=1.0, genuine_stddev=0.0,
                impostor_mean=0.0, impostor_stddev=0.0,
                roc_points=((0.0, 0.5), (0.0, 0.2), (1.0, 1.0)),
                auc=1.0, threshold=50.0, accuracy_at_threshold=1.0,
            )


class TestEvaluate:
    def test_pair_partition(self):
        pop = generate_population(PopulationConfig(3, 2, seed=3))
        report = evaluate(pop, ScoringConfig(k=0.5), threshold=95.0)
        assert len(report.genuine_scores) == 3          # one per identity
        assert len(report.impostor_scores) == 12        # C(6,2) - 3

    def test_deterministic(self):
        pop = generate_population(PopulationConfig(3, 2, seed=3))
        a = evaluate(pop, ScoringConfig(k=0.5), threshold=95.0)
        b = evaluate(pop, ScoringConfig(k=0.5), threshold=95.0)
        assert a == b

    def test_needs_two_identities(self):
        pop = generate_population(PopulationConfig(1, 3, seed=3))
        with pytest.raises(ValueError, match="impostor"):
            evaluate(pop, ScoringConfig(k=0.5), threshold=95.0)

    def test_needs_repeat_captures(self):
        pop = generate_population(PopulationConfig(3, 1, seed=3))
        with pytest.raises(ValueError, match="genuine"):
            evaluate(pop, ScoringConfig(k=0.5), threshold=95.0)

    def test_mean_genuine_decays_with_capture_noise(self):
        # averaged over seeds, more capture noise cannot make genuine pairs
        # look more alike
        sigmas = (0.0, 1.0, 2.0, 4.0, 8.0)
        means = []
        for sigma in sigmas:
            scores = []
            for seed in range(20):
                pop = generate_population(
                    PopulationConfig(3, 2, capture_sigma=sigma, seed=seed)
                )
                by_identity = {}
                for lf in pop:
                    by_identity.setdefault(lf.identity, []).append(lf.face)
                for faces in by_identity.values():
                    scores.append(ff.compare(faces[0], faces[1]).similarity)
            means.append(float(np.mean(scores)))
        assert all(a >= b for a, b in zip(means, means[1:]))
        assert means[0] == pytest.approx(100.0, abs=1e-9)
