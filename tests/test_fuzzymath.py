"""Entropy and membership kernels against closed forms and a high-precision oracle."""

import math
import random
from dataclasses import dataclass

import mpmath
import numpy as np
import pytest

from conftest import entropy_oracle, feature_entropy
from fuzzyface import (
    DEFAULT_KERNELS,
    BellKernel,
    TrapezoidKernel,
    TriangleKernel,
    kernel_from_dict,
    kernel_to_dict,
)

mpmath.mp.dps = 50

# an int too large for a float
BIG = pytest.param(10**400, id="10**400")


class TestShannonEntropy:
    def test_uniform_pair(self):
        assert feature_entropy(1, 1) == 1.0

    def test_degenerate_pair(self):
        # both measurements are positive, so the entropy nears 0 but never reaches it
        assert 0.0 < feature_entropy(5.0, 5e-300) < 1e-290

    def test_one_three(self):
        h = feature_entropy(1, 3)
        assert h == pytest.approx(0.811278, abs=1e-6)
        assert h == pytest.approx(entropy_oracle([1, 3]), abs=1e-12)

    def test_ratio_invariance_two_six(self):
        assert feature_entropy(2, 6) == pytest.approx(entropy_oracle([1, 3]), abs=1e-12)

    def test_matches_oracle_on_random_pairs(self):
        rng = random.Random(2024)
        for _ in range(300):
            a = rng.uniform(1e-6, 100.0)
            b = rng.uniform(1e-6, 100.0)
            assert feature_entropy(a, b) == pytest.approx(entropy_oracle([a, b]), abs=1e-12)

    def test_permutation_symmetry(self):
        rng = random.Random(7)
        for _ in range(50):
            a = rng.uniform(1e-3, 10.0)
            b = rng.uniform(1e-3, 10.0)
            assert feature_entropy(a, b) == pytest.approx(feature_entropy(b, a), abs=1e-12)

    @pytest.mark.parametrize("c", [0.1, 7.0, 1000.0])
    def test_scale_invariance(self, c):
        rng = random.Random(31)
        for _ in range(100):
            a = rng.uniform(1e-3, 100.0)
            b = rng.uniform(1e-3, 100.0)
            assert feature_entropy(c * a, c * b) == pytest.approx(feature_entropy(a, b), abs=1e-12)

    def test_two_elements_hit_one_iff_equal(self):
        rng = random.Random(5)
        for _ in range(100):
            a = rng.uniform(1e-3, 100.0)
            assert abs(feature_entropy(a, a * (1 + 1e-10)) - 1.0) <= 1e-12
            assert feature_entropy(a, a * 1.001) < 1.0 - 1e-8

    def test_range_bounds(self):
        rng = random.Random(13)
        for _ in range(100):
            a = rng.uniform(1e-9, 50.0)
            b = a * 10.0 ** rng.uniform(-300.0, 300.0)
            assert 0.0 <= feature_entropy(a, b) <= 1.0

    def test_errors(self):
        for a, b in ((1.0, -0.5), (0.0, 0.0), (1.0, float("nan"))):
            with pytest.raises(ValueError, match="positive reals"):
                feature_entropy(a, b)
        with pytest.raises(ValueError):  # a + b overflows, so both shares are 0
            feature_entropy(1e308, 1e308)


class TestBellKernel:
    def test_peak_is_exact(self):
        assert BellKernel(r=1.0).evaluate(1.0) == 1.0

    def test_zero_at_origin(self):
        assert BellKernel(r=1.0).evaluate(0.0) == 0.0

    def test_half_point(self):
        # 0.75 * exp(-0.25)
        oracle = float((1 - mpmath.mpf("0.25")) * mpmath.exp(-mpmath.mpf("0.25")))
        assert BellKernel().evaluate(0.5) == pytest.approx(oracle, abs=1e-12)
        assert BellKernel().evaluate(0.5) == pytest.approx(0.58410, abs=1e-5)

    def test_symmetry_about_peak(self):
        kernel = BellKernel(r=2.5)
        for d in np.linspace(0.0, 2.5, 40):
            assert kernel.evaluate(2.5 + d) == pytest.approx(kernel.evaluate(2.5 - d), abs=1e-12)

    def test_strictly_decreasing_away_from_peak(self):
        kernel = BellKernel(r=1.0)
        values = [kernel.evaluate(1.0 + d) for d in np.linspace(0.0, 1.0, 200)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_unit_interval_on_supported_band(self):
        kernel = BellKernel(r=1.0)
        for x in np.linspace(0.0, 2.0, 500):
            assert 0.0 <= kernel.evaluate(x) <= 1.0

    def test_literal_outside_band_goes_negative(self):
        # no clamping by design; the scoring pipeline only feeds entropy in [0, 1]
        assert BellKernel(r=1.0).evaluate(2.5) < 0.0

    def test_invalid_peak(self):
        with pytest.raises(ValueError, match="positive"):
            BellKernel(r=0.0)
        with pytest.raises(ValueError, match="positive"):
            BellKernel(r=-2.0)

    @pytest.mark.parametrize("r", [True, "2", None, [1.0], BIG, math.nan])
    def test_peak_must_be_a_finite_number(self, r):
        # BellKernel(r=True) was accepted, and its saved model did not load
        with pytest.raises(ValueError, match="bell peak must be a finite number"):
            BellKernel(r=r)


class TestPiecewiseKernels:
    def test_triangle_examples(self):
        tri = TriangleKernel(p=0.0, r=1.0, q=2.0)
        assert tri.evaluate(0.5) == 0.5
        assert tri.evaluate(1.0) == 1.0
        assert tri.evaluate(0.0) == 0.0
        assert tri.evaluate(2.0) == 0.0
        assert tri.evaluate(-1.0) == 0.0
        assert tri.evaluate(2.1) == 0.0

    def test_trapezoid_examples(self):
        trap = TrapezoidKernel(p=0.0, s=1.0, t=2.0, q=3.0)
        assert trap.evaluate(1.5) == 1.0
        assert trap.evaluate(3.5) == 0.0
        assert trap.evaluate(0.5) == 0.5
        assert trap.evaluate(2.5) == 0.5
        assert trap.evaluate(3.0) == 0.0

    @pytest.mark.parametrize("p,r,q", [(0.0, 1.0, 2.0), (-1.0, 0.25, 3.0)])
    def test_triangle_matches_interp_oracle(self, p, r, q):
        tri = TriangleKernel(p=p, r=r, q=q)
        grid = np.unique(np.concatenate([
            np.linspace(p - 0.5, q + 0.5, 997), np.array([p, r, q])
        ]))
        expected = np.interp(grid, [p, r, q], [0.0, 1.0, 0.0])
        for x, e in zip(grid, expected):
            got = tri.evaluate(float(x))
            assert abs(got - e) <= 1e-12
            assert 0.0 <= got <= 1.0

    @pytest.mark.parametrize("p,s,t,q", [(0.0, 0.9, 1.0, 1.1), (-2.0, -1.0, 1.5, 4.0)])
    def test_trapezoid_matches_interp_oracle(self, p, s, t, q):
        trap = TrapezoidKernel(p=p, s=s, t=t, q=q)
        grid = np.unique(np.concatenate([
            np.linspace(p - 0.5, q + 0.5, 996), np.array([p, s, t, q])
        ]))
        expected = np.interp(grid, [p, s, t, q], [0.0, 1.0, 1.0, 0.0])
        for x, e in zip(grid, expected):
            got = trap.evaluate(float(x))
            assert abs(got - e) <= 1e-12
            assert 0.0 <= got <= 1.0

    def test_continuity_at_breakpoints(self):
        tri = TriangleKernel(p=0.0, r=1.0, q=2.0)
        trap = TrapezoidKernel(p=0.0, s=0.9, t=1.0, q=1.1)
        for kernel, breakpoints in ((tri, (0.0, 1.0, 2.0)), (trap, (0.0, 0.9, 1.0, 1.1))):
            for b in breakpoints:
                below = kernel.evaluate(math.nextafter(b, -math.inf))
                above = kernel.evaluate(math.nextafter(b, math.inf))
                at = kernel.evaluate(b)
                assert abs(below - at) <= 1e-12
                assert abs(above - at) <= 1e-12

    def test_invalid_breakpoints(self):
        with pytest.raises(ValueError, match="p < r < q"):
            TriangleKernel(p=1.0, r=1.0, q=2.0)
        with pytest.raises(ValueError, match="p < s <= t < q"):
            TrapezoidKernel(p=0.0, s=2.0, t=1.0, q=3.0)
        with pytest.raises(ValueError, match="finite"):
            TriangleKernel(p=0.0, r=float("inf"), q=2.0)

    @pytest.mark.parametrize("value", ["0", True, None, math.inf])
    def test_breakpoints_must_be_finite_numbers(self, value):
        with pytest.raises(ValueError, match="triangle breakpoint 'p' must be a finite number"):
            TriangleKernel(p=value)
        with pytest.raises(ValueError, match="trapezoid breakpoint 'q' must be a finite number"):
            TrapezoidKernel(q=value)


class TestKernelSerialization:
    @pytest.mark.parametrize("name", sorted(DEFAULT_KERNELS))
    def test_round_trip_defaults(self, name):
        kernel = DEFAULT_KERNELS[name]
        assert kernel_from_dict(kernel_to_dict(kernel)) == kernel

    def test_round_trip_custom(self):
        kernel = TrapezoidKernel(p=-2.0, s=-1.0, t=1.5, q=4.0)
        assert kernel_from_dict(kernel_to_dict(kernel)) == kernel

    def test_unknown_type(self):
        with pytest.raises(ValueError, match="unknown kernel type"):
            kernel_from_dict({"type": "cauchy"})
        with pytest.raises(ValueError, match="unknown kernel type"):
            kernel_from_dict({"type": ["bell"]})
        with pytest.raises(ValueError, match="missing field"):
            kernel_from_dict({"type": "bell"})

    def test_unknown_field(self):
        # silently dropped once: this loaded as BellKernel(r=1.0)
        with pytest.raises(ValueError, match="kernel type 'bell': 'p', 'q'"):
            kernel_from_dict({"type": "bell", "p": 0.0, "r": 1.0, "q": 2.0})

    @pytest.mark.parametrize("value", [[1], "2", True, None, BIG, math.nan])
    def test_field_must_be_a_finite_number(self, value):
        # [1] raised TypeError, and "2" loaded as BellKernel(r=2.0)
        with pytest.raises(ValueError, match="kernel field 'r' must be a finite number"):
            kernel_from_dict({"type": "bell", "r": value})

    def test_integer_fields_load_as_floats(self):
        kernel = kernel_from_dict({"type": "triangle", "p": 0, "r": 1, "q": 2})
        assert kernel == TriangleKernel() and type(kernel.r) is float

    def test_subclass_serializes_as_its_base(self):
        @dataclass(frozen=True)
        class NamedBell(BellKernel):
            label: str = "wide"

        assert kernel_to_dict(NamedBell(r=2.0)) == {"type": "bell", "r": 2.0}
