"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines alongside the pytest verdicts.
"""

import json
import math
import random
import time

import numpy as np
import pytest

import fuzzyface as ff
from conftest import (
    entropy_oracle, feature_entropy, make_face, raster_scale_for, scaled_face, standard_landmarks,
)
from fuzzyface.cli import main as cli_main


def test_criterion_1_identity():
    """Every face compared with itself scores a perfect 100."""
    started = time.perf_counter()
    population = ff.generate_population(
        ff.PopulationConfig(identity_count=25, captures_per_identity=4, seed=3)
    )
    assert len(population) == 100
    for labeled in population:
        report = ff.compare(labeled.face, labeled.face)
        assert report.similarity == pytest.approx(100.0, abs=1e-9)
        for row in report.features:
            assert row.entropy == pytest.approx(1.0, abs=1e-12)
            assert row.membership == pytest.approx(1.0, abs=1e-12)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"\ncriterion 1 PASS: 100 self-comparisons all exactly 100 in {elapsed:.2f}s")


def test_criterion_2_entropy_oracle():
    """Entropy matches a 50-digit oracle and is scale invariant."""
    rng = random.Random(20240817)
    worst = 0.0
    for _ in range(1000):
        a = rng.uniform(1e-9, 100.0)
        b = rng.uniform(1e-9, 100.0)
        got = feature_entropy(a, b)
        worst = max(worst, abs(got - entropy_oracle([a, b])))
    assert worst <= 1e-12

    assert feature_entropy(1, 3) == pytest.approx(0.811278, abs=1e-6)

    worst_scale = 0.0
    for c in (0.1, 7.0, 1000.0):
        for _ in range(200):
            a = rng.uniform(1e-3, 100.0)
            b = rng.uniform(1e-3, 100.0)
            gap = abs(feature_entropy(c * a, c * b) - feature_entropy(a, b))
            worst_scale = max(worst_scale, gap)
    assert worst_scale <= 1e-12
    print(f"\ncriterion 2 PASS: oracle gap {worst:.2e}, scale-invariance gap {worst_scale:.2e}")


def test_criterion_3_membership_closed_forms():
    """Kernels match their closed forms on a dense grid with all breakpoints."""
    bell = ff.BellKernel(r=1.0)
    assert bell.evaluate(0.0) == 0.0
    assert bell.evaluate(1.0) == 1.0
    assert bell.evaluate(0.5) == pytest.approx(0.58410, abs=1e-5)

    tri = ff.TriangleKernel(p=0.0, r=1.0, q=2.0)
    trap = ff.TrapezoidKernel(p=0.0, s=0.9, t=1.0, q=1.1)
    worst = 0.0
    for kernel, xs, fs in (
        (tri, [0.0, 1.0, 2.0], [0.0, 1.0, 0.0]),
        (trap, [0.0, 0.9, 1.0, 1.1], [0.0, 1.0, 1.0, 0.0]),
    ):
        grid = np.unique(np.concatenate([
            np.linspace(xs[0] - 0.25, xs[-1] + 0.25, 1000),
            np.linspace(xs[0] - 0.013, xs[-1] + 0.007, 137),
            np.array(xs),
        ]))
        assert grid.size >= 1000
        assert all(b in grid for b in xs)
        expected = np.interp(grid, xs, fs)
        for x, e in zip(grid, expected):
            worst = max(worst, abs(kernel.evaluate(float(x)) - e))
    assert worst <= 1e-12
    print(f"\ncriterion 3 PASS: bell closed form holds; piecewise grid gap {worst:.2e}")


def test_criterion_4_alpha_oracle():
    """Overlap scores match exact pixel counts; window overlaps count exactly."""
    def square_face(face_id, lo, hi):
        outline = ((lo, lo), (hi, lo), (hi, hi), (lo, hi))
        return make_face(face_id, width=20, height=20,
                         landmarks=standard_landmarks(20, 20), outline=outline)

    def alpha(face_a, face_b, mode, scale=None):
        config = ff.ScoringConfig(alpha_mode=mode, resolution_scale=scale)
        return ff.compare(face_a, face_b, config).alpha

    outer = square_face("a", 5.0, 15.0)
    inner = square_face("b", 6.0, 14.0)
    # scale 26 puts the 20 px canvas at 520 raster pixels
    got_complement = alpha(outer, inner, ff.AlphaMode.COMPLEMENT, 26)
    got_literal = alpha(outer, inner, ff.AlphaMode.LITERAL, 26)
    assert got_complement == pytest.approx(0.64, abs=0.01)
    assert got_literal == pytest.approx(0.36, abs=0.01)

    assert alpha(outer, outer, ff.AlphaMode.COMPLEMENT) == 1.0
    assert alpha(outer, outer, ff.AlphaMode.LITERAL) == 1.0

    left = square_face("a", 1.0, 8.0)
    right = square_face("b", 12.0, 19.0)
    assert alpha(left, right, ff.AlphaMode.COMPLEMENT) == 0.0
    assert alpha(left, right, ff.AlphaMode.LITERAL) == 1.0

    # masks at random offsets in one frame, scored against full-frame set algebra
    rng = np.random.default_rng(2718)
    checked = 0
    for _ in range(200):
        frame = tuple(int(v) for v in rng.integers(1, 40, size=2))
        masks, full = [], []
        for _ in range(2):
            h, w = (int(rng.integers(1, n + 1)) for n in frame)
            row, col = int(rng.integers(0, frame[0] - h + 1)), int(rng.integers(0, frame[1] - w + 1))
            bits = rng.random((h, w)) < rng.random()
            masks.append(ff.BinaryMask(bits, offset=(row, col), frame=frame))
            pasted = np.zeros(frame, dtype=bool)
            pasted[row:row + h, col:col + w] = bits
            full.append(pasted)
        (a, b), (fa, fb) = masks, full
        if a.area == 0 or b.area == 0:
            continue
        inter = int(np.count_nonzero(fa & fb))
        leftover_a = int(np.count_nonzero(fa & ~fb))
        assert leftover_a + inter == a.area
        assert ff.alpha_from_masks(a, b) == inter / int(np.count_nonzero(fa | fb))
        if leftover_a:
            assert ff.alpha_from_masks(a, b, ff.AlphaMode.LITERAL) == leftover_a / a.area
        checked += 1
    print(f"\ncriterion 4 PASS: complement {got_complement}, literal {got_literal}, "
          f"window overlaps exact on {checked} random pairs")


def test_criterion_5_size_invariance():
    """Rescaling one input's image leaves the similarity unchanged.

    Faces are rebased to 640 px so every scale keeps dimensions integral,
    and the raster is pinned fine enough that sampling noise sits well
    below the 0.1 budget being tested.
    """
    population = ff.generate_population(
        ff.PopulationConfig(identity_count=10, captures_per_identity=2, seed=11)
    )
    faces = [scaled_face(labeled.face, 1.25) for labeled in population]
    pairs = [(faces[i], faces[j]) for i in range(len(faces)) for j in range(i + 1, len(faces))]
    pairs = pairs[:20]

    worst = 0.0
    for f1, f2 in pairs:
        base_config = ff.ScoringConfig(k=0.5, resolution_scale=raster_scale_for(f1, f2))
        base = ff.compare(f1, f2, base_config).similarity
        for c in (0.5, 2.0, 3.7):
            resized = scaled_face(f2, c)
            config = ff.ScoringConfig(k=0.5, resolution_scale=raster_scale_for(f1, resized))
            drift = abs(ff.compare(f1, resized, config).similarity - base)
            worst = max(worst, drift)
    assert worst <= 0.1
    print(f"\ncriterion 5 PASS: worst drift {worst:.4f} over 20 pairs x (0.5, 2, 3.7)")


def test_criterion_6_calibration_trace():
    """The two-sample hand trace, single-sample convergence, and bracket safety."""
    state = ff.CalibrationState()
    state.update(ff.CalibrationSample(0.98, 0.40))
    state.update(ff.CalibrationSample(0.96, 0.30))
    assert state.k1 == pytest.approx(0.984848, abs=1e-6)
    assert state.finalize() == pytest.approx(0.992424, abs=1e-6)

    repeat = ff.CalibrationState()
    sample = ff.CalibrationSample(0.97, 0.55)
    for _ in range(50):
        repeat.update(sample)
    assert repeat.k1 == pytest.approx(ff.solve_weight(0.95, 0.97, 0.55), abs=1e-6)

    rng = random.Random(31415)
    for _ in range(1000):
        state = ff.CalibrationState()
        for _ in range(rng.randint(1, 12)):
            state.update(ff.CalibrationSample(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)))
            if state.initialized:
                assert 0.0 <= state.k1 <= state.k2 <= 1.0
                assert 0.0 <= state.finalize() <= 1.0
    print("\ncriterion 6 PASS: hand trace, convergence, and 1000 random streams hold")


def test_criterion_7_separation():
    """Genuine pairs outscore impostor pairs by a clear margin on the pinned seed."""
    started = time.perf_counter()
    population = ff.generate_population(ff.PopulationConfig(
        identity_count=20, captures_per_identity=3,
        identity_sigma=6.0, capture_sigma=1.0, outline_sigma=2.0, seed=42,
    ))
    config = ff.ScoringConfig(k=0.5, alpha_mode=ff.AlphaMode.COMPLEMENT)
    report = ff.evaluate(population, config, threshold=95.0)
    elapsed = time.perf_counter() - started

    margin = report.genuine_mean - report.impostor_mean
    assert margin >= 5.0
    assert report.auc >= 0.8

    genuine = np.asarray(report.genuine_scores)
    impostor = np.asarray(report.impostor_scores)
    wins = (genuine[:, None] > impostor[None, :]).sum()
    ties = (genuine[:, None] == impostor[None, :]).sum()
    brute = (wins + 0.5 * ties) / (genuine.size * impostor.size)
    assert report.auc == pytest.approx(brute, abs=1e-9)
    assert elapsed < 60.0
    print(f"\ncriterion 7 PASS: margin {margin:.2f}, auc {report.auc:.4f} "
          f"(= brute force), {elapsed:.1f}s")


def test_criterion_8_determinism_and_round_trip(tmp_path, capsys):
    """Identical invocations are byte-identical; files round-trip exactly."""
    # synth twice into separate directories
    args = ["synth", "--identities", "2", "--captures", "2", "--seed", "7"]
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(args + ["-o", str(dir_a)]) == 0
    assert cli_main(args + ["-o", str(dir_b)]) == 0
    capsys.readouterr()
    names = sorted(p.name for p in dir_a.iterdir())
    assert names == sorted(p.name for p in dir_b.iterdir())
    for name in names:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    # compare twice, byte-identical stdout
    face = str(dir_a / "id000_c00.json")
    other = str(dir_a / "id001_c01.json")
    assert cli_main(["compare", face, other]) == 0
    out1 = capsys.readouterr().out
    assert cli_main(["compare", face, other]) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2
    json.loads(out1)  # machine parsable

    # load -> save -> load preserves everything
    loaded = ff.load_face(dir_a / "id000_c00.json")
    resaved = tmp_path / "resaved.json"
    ff.save_face(loaded, resaved)
    assert ff.load_face(resaved) == loaded
    assert resaved.read_bytes() == (dir_a / "id000_c00.json").read_bytes()
    print("\ncriterion 8 PASS: byte-identical outputs and exact round-trips")
