"""Unit tests for the typed parameter specs."""

import math

import numpy as np
import pytest

from repro.config.parameters import (
    CategoricalParameter,
    FloatParameter,
    IntParameter,
)


class TestFloatParameter:
    def test_validate_accepts_values_inside_bounds(self):
        parameter = FloatParameter("x", low=0.0, high=1.0, default=0.5)
        assert parameter.validate(0.0)
        assert parameter.validate(1.0)
        assert parameter.validate(0.3)

    def test_validate_rejects_values_outside_bounds(self):
        parameter = FloatParameter("x", low=0.0, high=1.0, default=0.5)
        assert not parameter.validate(-0.01)
        assert not parameter.validate(1.01)
        assert not parameter.validate(float("nan"))
        assert not parameter.validate("0.5")

    def test_clip_limits_to_bounds(self):
        parameter = FloatParameter("x", low=2.0, high=4.0, default=3.0)
        assert parameter.clip(1.0) == 2.0
        assert parameter.clip(9.0) == 4.0
        assert parameter.clip(3.3) == pytest.approx(3.3)

    def test_unit_round_trip(self):
        parameter = FloatParameter("x", low=2.0, high=10.0, default=5.0)
        for value in (2.0, 3.7, 10.0):
            assert parameter.from_unit(parameter.to_unit(value)) == pytest.approx(value)

    def test_log_scale_round_trip(self):
        parameter = FloatParameter("x", low=1.0, high=1024.0, default=32.0, log_scale=True)
        assert parameter.from_unit(0.0) == pytest.approx(1.0)
        assert parameter.from_unit(1.0) == pytest.approx(1024.0)
        assert parameter.from_unit(parameter.to_unit(32.0)) == pytest.approx(32.0)

    def test_log_scale_midpoint_is_geometric(self):
        parameter = FloatParameter("x", low=1.0, high=100.0, default=10.0, log_scale=True)
        assert parameter.from_unit(0.5) == pytest.approx(10.0)

    def test_invalid_bounds_raise(self):
        with pytest.raises(ValueError):
            FloatParameter("x", low=1.0, high=1.0, default=1.0)
        with pytest.raises(ValueError):
            FloatParameter("x", low=0.0, high=1.0, default=2.0)
        with pytest.raises(ValueError):
            FloatParameter("x", low=0.0, high=1.0, default=0.5, log_scale=True)

    def test_sample_within_bounds(self, rng):
        parameter = FloatParameter("x", low=-1.0, high=1.0, default=0.0)
        samples = [parameter.sample(rng) for _ in range(50)]
        assert all(-1.0 <= s <= 1.0 for s in samples)

    def test_grid_spans_range(self):
        parameter = FloatParameter("x", low=0.0, high=1.0, default=0.5)
        grid = parameter.grid(5)
        assert grid[0] == pytest.approx(0.0)
        assert grid[-1] == pytest.approx(1.0)
        assert len(grid) == 5


class TestIntParameter:
    def test_validate_rejects_bool_and_float(self):
        parameter = IntParameter("n", low=1, high=10, default=5)
        assert not parameter.validate(True)
        assert not parameter.validate(5.0)
        assert parameter.validate(5)
        assert parameter.validate(np.int64(7))

    def test_clip_rounds_to_nearest_integer(self):
        parameter = IntParameter("n", low=1, high=10, default=5)
        assert parameter.clip(3.6) == 4
        assert parameter.clip(0) == 1
        assert parameter.clip(99) == 10

    def test_unit_round_trip(self):
        parameter = IntParameter("n", low=4, high=64, default=16)
        for value in (4, 16, 33, 64):
            assert parameter.from_unit(parameter.to_unit(value)) == value

    def test_log_scale_round_trip(self):
        parameter = IntParameter("n", low=16, high=1024, default=128, log_scale=True)
        for value in (16, 128, 512, 1024):
            assert parameter.from_unit(parameter.to_unit(value)) == value

    def test_from_unit_extremes(self):
        parameter = IntParameter("n", low=2, high=9, default=5)
        assert parameter.from_unit(0.0) == 2
        assert parameter.from_unit(1.0) == 9
        assert parameter.from_unit(-3.0) == 2
        assert parameter.from_unit(7.0) == 9

    def test_sample_is_integer_within_bounds(self, rng):
        parameter = IntParameter("n", low=1, high=6, default=3)
        samples = [parameter.sample(rng) for _ in range(50)]
        assert all(isinstance(s, int) and 1 <= s <= 6 for s in samples)

    def test_invalid_defaults_raise(self):
        with pytest.raises(ValueError):
            IntParameter("n", low=1, high=10, default=11)
        with pytest.raises(ValueError):
            IntParameter("n", low=10, high=1, default=5)


class TestCategoricalParameter:
    def test_default_is_first_choice_when_unspecified(self):
        parameter = CategoricalParameter("c", choices=["a", "b", "c"])
        assert parameter.default == "a"

    def test_validate_and_clip(self):
        parameter = CategoricalParameter("c", choices=["a", "b"], default="b")
        assert parameter.validate("a")
        assert not parameter.validate("z")
        assert parameter.clip("z") == "b"

    def test_unit_round_trip_for_every_choice(self):
        choices = ["FLAT", "HNSW", "IVF_FLAT", "SCANN"]
        parameter = CategoricalParameter("index", choices=choices)
        for choice in choices:
            assert parameter.from_unit(parameter.to_unit(choice)) == choice

    def test_from_unit_partitions_the_interval_evenly(self):
        parameter = CategoricalParameter("c", choices=["a", "b", "c", "d"])
        assert parameter.from_unit(0.1) == "a"
        assert parameter.from_unit(0.3) == "b"
        assert parameter.from_unit(0.6) == "c"
        assert parameter.from_unit(0.99) == "d"

    def test_duplicate_choices_raise(self):
        with pytest.raises(ValueError):
            CategoricalParameter("c", choices=["a", "a"])

    def test_single_choice_raises(self):
        with pytest.raises(ValueError):
            CategoricalParameter("c", choices=["only"])

    def test_grid_returns_all_choices(self):
        parameter = CategoricalParameter("c", choices=["a", "b", "c"])
        assert parameter.grid(100) == ["a", "b", "c"]
