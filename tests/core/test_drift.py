"""Tests for the CUSUM drift detector."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.drift import CusumDriftDetector


class TestValidation:
    def test_threshold_positive(self):
        with pytest.raises(ValueError):
            CusumDriftDetector(threshold=0.0)

    def test_drift_non_negative(self):
        with pytest.raises(ValueError):
            CusumDriftDetector(drift=-0.1)

    def test_warmup_at_least_one(self):
        with pytest.raises(ValueError):
            CusumDriftDetector(warmup=0)


class TestDetection:
    def make(self, **kwargs):
        defaults = dict(threshold=4.0, drift=0.5, warmup=3)
        defaults.update(kwargs)
        return CusumDriftDetector(**defaults)

    def test_never_fires_during_warmup(self):
        detector = self.make(warmup=5)
        for value in ([100, 0.9], [1, 0.1], [500, 1.0], [2, 0.2], [100, 0.9]):
            assert detector.update(value) is False
        assert detector.is_warm

    def test_stationary_stream_never_fires(self):
        detector = self.make()
        rng = np.random.default_rng(0)
        # Noise well below the 2% reference-std floor never accumulates.
        for _ in range(3):
            detector.update([100.0 + rng.normal(scale=0.5), 0.95])
        fired = [
            detector.update([100.0 + rng.normal(scale=0.5), 0.95]) for _ in range(50)
        ]
        assert not any(fired)

    def test_sustained_downward_shift_fires(self):
        detector = self.make()
        for _ in range(3):
            detector.update([100.0, 0.95])
        assert any(detector.update([60.0, 0.70]) for _ in range(6))

    def test_sustained_upward_shift_fires_too(self):
        detector = self.make()
        for _ in range(3):
            detector.update([100.0, 0.95])
        assert any(detector.update([180.0, 0.95]) for _ in range(6))

    def test_identical_repeated_observations_supported(self):
        # The deterministic replayer often yields bit-identical observations;
        # the reference std is floored, not zero.
        detector = self.make()
        for _ in range(3):
            detector.update([100.0, 0.95])
        assert detector.update([100.0, 0.95]) is False
        assert any(detector.update([90.0, 0.95]) for _ in range(8))

    def test_reference_std_floor_is_two_percent_of_the_mean(self):
        detector = self.make(threshold=1.0, drift=0.5)
        for _ in range(3):
            detector.update([100.0, 0.95])
        # A 1% shift is half a floored std: exactly the drift allowance, so
        # the cumulative sums never grow.
        assert not any(detector.update([99.0, 0.95]) for _ in range(20))
        assert detector.statistic == 0.0
        # A 4% shift is two floored stds: 1.5 per step over the allowance.
        assert detector.update([96.0, 0.95])
        assert detector.statistic == pytest.approx(1.5)

    def test_statistic_grows_with_shift(self):
        detector = self.make(threshold=1e9)
        for _ in range(3):
            detector.update([100.0, 0.95])
        detector.update([100.0, 0.95])
        quiet = detector.statistic
        for _ in range(5):
            detector.update([10.0, 0.1])
        assert detector.statistic > quiet

    def test_reset_forgets_reference_and_sums(self):
        detector = self.make()
        for _ in range(3):
            detector.update([100.0, 0.95])
        for _ in range(5):
            detector.update([10.0, 0.1])
        detector.reset()
        assert not detector.is_warm
        assert detector.statistic == 0.0
        # The post-reset reference is the new level: no alarm on it.
        for _ in range(3):
            detector.update([10.0, 0.1])
        assert detector.update([10.0, 0.1]) is False

    def test_dimension_change_rejected(self):
        detector = self.make(warmup=1)
        detector.update([1.0, 2.0])
        with pytest.raises(ValueError):
            detector.update([1.0, 2.0, 3.0])
