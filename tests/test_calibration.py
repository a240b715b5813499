"""Bracket updates of the mixing weight, traced by hand and swept randomly."""

import random

import pytest

from fuzzyface import (
    CalibrationSample,
    CalibrationState,
    DegenerateSampleError,
    calibrate,
    solve_weight,
)

# an int too large for a float
BIG = pytest.param(10**400, id="10**400")


class TestSolveWeight:
    def test_ninety_five_target(self):
        # (0.95 - 0.40) / (0.98 - 0.40)
        assert solve_weight(0.95, 0.98, 0.40) == pytest.approx(0.948276, abs=1e-6)

    def test_unit_target_clamps(self):
        # raw value 0.60 / 0.58 exceeds 1
        assert solve_weight(1.0, 0.98, 0.40) == 1.0

    def test_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            solve_weight(0.95, 0.5, 0.5)
        with pytest.raises(DegenerateSampleError):
            solve_weight(0.95, 0.3, 0.6)

    def test_bad_target(self):
        with pytest.raises(ValueError, match="target"):
            solve_weight(0.0, 0.9, 0.1)
        with pytest.raises(ValueError, match="target"):
            solve_weight(1.5, 0.9, 0.1)

    def test_candidates_are_ordered(self):
        rng = random.Random(17)
        for _ in range(200):
            alpha = rng.uniform(0.0, 1.0)
            fs = rng.uniform(alpha + 1e-9, 1.0)
            assert solve_weight(0.95, fs, alpha) <= solve_weight(1.0, fs, alpha)


class TestStateUpdates:
    def test_first_sample_seeds_bracket(self):
        state = CalibrationState()
        assert not state.initialized
        state.update(CalibrationSample(0.98, 0.40))
        assert state.initialized
        assert state.k1 == pytest.approx(0.948276, abs=1e-6)
        assert state.k2 == 1.0
        assert state.n == 1
        assert state.skipped == 0

    def test_two_sample_trace(self):
        state = CalibrationState()
        state.update(CalibrationSample(0.98, 0.40))
        state.update(CalibrationSample(0.96, 0.30))
        # second candidate 0.65/0.66 lands inside the bracket and replaces k1;
        # the unit-target candidate clamps to 1 and averages into k2
        assert state.k1 == pytest.approx(0.984848, abs=1e-6)
        assert state.k2 == 1.0
        assert state.n == 2
        assert state.finalize() == pytest.approx(0.992424, abs=1e-6)

    def test_degenerate_sample_skipped(self):
        state = CalibrationState()
        state.update(CalibrationSample(0.98, 0.40))
        before = (state.k1, state.k2, state.n)
        state.update(CalibrationSample(0.5, 0.5))
        assert (state.k1, state.k2, state.n) == before
        assert state.skipped == 1

    def test_repeated_sample_convergence(self):
        state = CalibrationState()
        sample = CalibrationSample(0.98, 0.40)
        for _ in range(50):
            state.update(sample)
        assert state.k1 == pytest.approx(solve_weight(0.95, 0.98, 0.40), abs=1e-6)
        assert state.k2 == pytest.approx(solve_weight(1.0, 0.98, 0.40), abs=1e-6)
        assert state.n == 50

    def test_replay_is_deterministic(self):
        rng = random.Random(23)
        samples = [
            CalibrationSample(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0))
            for _ in range(100)
        ]
        a = calibrate(samples)
        b = calibrate(samples)
        assert (a.k1, a.k2, a.n, a.skipped) == (b.k1, b.k2, b.n, b.skipped)

    def test_bracket_invariants_over_random_streams(self):
        rng = random.Random(4242)
        for _ in range(200):
            state = CalibrationState()
            for _ in range(rng.randint(1, 30)):
                state.update(CalibrationSample(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)))
                if state.initialized:
                    assert 0.0 <= state.k1 <= state.k2 <= 1.0
                    assert 0.0 <= state.finalize() <= 1.0

    def test_sample_validation(self):
        with pytest.raises(ValueError, match="feature_score"):
            CalibrationSample(1.2, 0.5)
        with pytest.raises(ValueError, match="alpha"):
            CalibrationSample(0.5, -0.1)

    @pytest.mark.parametrize("value", ["0.5", True, None, BIG])
    def test_sample_terms_must_be_finite_numbers(self, value):
        with pytest.raises(ValueError, match="feature_score must be a finite number"):
            CalibrationSample(value, 0.1)
        with pytest.raises(ValueError, match="alpha must be a finite number"):
            CalibrationSample(0.5, value)


class TestFinalize:
    def test_midpoint(self):
        state = CalibrationState(k1=0.948276, k2=1.0, n=1)
        assert state.finalize() == pytest.approx(0.974138, abs=1e-6)

    def test_degenerate_bracket(self):
        state = CalibrationState(k1=1.0, k2=1.0, n=3)
        assert state.finalize() == 1.0

    def test_traced_midpoint(self):
        state = CalibrationState(k1=0.984848, k2=1.0, n=2)
        assert state.finalize() == pytest.approx(0.992424, abs=1e-6)

    def test_uninitialized(self):
        with pytest.raises(ValueError, match="empty"):
            CalibrationState().finalize()

    def test_calibrate_stream(self):
        state = calibrate(
            [CalibrationSample(0.98, 0.40), CalibrationSample(0.96, 0.30)]
        )
        assert state.finalize() == pytest.approx(0.992424, abs=1e-6)
