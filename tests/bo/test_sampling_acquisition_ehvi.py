"""Unit tests for sampling and acquisition functions."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from repro.bo.acquisition import expected_improvement, probability_of_feasibility
from repro.bo.ehvi import monte_carlo_ehvi
from repro.bo.sampling import latin_hypercube, uniform_samples


class TestSampling:
    def test_latin_hypercube_stratification(self):
        rng = np.random.default_rng(0)
        samples = latin_hypercube(20, 5, rng)
        assert samples.shape == (20, 5)
        for column in range(5):
            strata = np.floor(samples[:, column] * 20).astype(int)
            assert sorted(strata.tolist()) == list(range(20))

    def test_latin_hypercube_within_unit_cube(self):
        rng = np.random.default_rng(1)
        samples = latin_hypercube(50, 3, rng)
        assert np.all((samples >= 0.0) & (samples <= 1.0))

    def test_uniform_samples_shape_and_range(self):
        rng = np.random.default_rng(2)
        samples = uniform_samples(30, 4, rng)
        assert samples.shape == (30, 4)
        assert np.all((samples >= 0.0) & (samples < 1.0))

    @pytest.mark.parametrize("function", [latin_hypercube, uniform_samples])
    def test_invalid_sizes_rejected(self, function):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            function(0, 3, rng)
        with pytest.raises(ValueError):
            function(3, 0, rng)


class TestExpectedImprovement:
    def test_zero_when_mean_far_below_incumbent_and_no_variance(self):
        value = expected_improvement(np.array([0.0]), np.array([1e-9]), best_observed=10.0)
        assert value[0] == pytest.approx(0.0, abs=1e-9)

    def test_equals_mean_gap_when_no_uncertainty(self):
        value = expected_improvement(np.array([12.0]), np.array([1e-9]), best_observed=10.0)
        assert value[0] == pytest.approx(2.0, abs=1e-6)

    def test_at_the_incumbent_equals_std_times_the_normal_density_at_zero(self):
        # No exploration margin: a mean equal to the incumbent has z = 0.
        value = expected_improvement(np.array([10.0]), np.array([2.0]), best_observed=10.0)
        assert value[0] == pytest.approx(2.0 / np.sqrt(2.0 * np.pi))

    def test_uncertainty_increases_ei_below_incumbent(self):
        low = expected_improvement(np.array([9.0]), np.array([0.1]), best_observed=10.0)
        high = expected_improvement(np.array([9.0]), np.array([3.0]), best_observed=10.0)
        assert high[0] > low[0]

    def test_non_negative(self):
        rng = np.random.default_rng(4)
        values = expected_improvement(rng.normal(size=50), rng.uniform(0.01, 2, 50), 0.5)
        assert np.all(values >= 0)


class TestNormalWithoutScipyStats:
    """The acquisition functions compute the standard normal CDF and PDF
    without ``scipy.stats``; the values are ``scipy.stats.norm``'s bit for bit."""

    def test_values_equal_scipy_stats_norm(self):
        z = np.linspace(-8.0, 8.0, 100_001)
        mean, std = 1.5 * z + 0.25, np.full(z.shape, 1.5)
        improvement = mean - 0.25
        scaled = improvement / std
        expected = np.maximum(improvement * stats.norm.cdf(scaled) + std * stats.norm.pdf(scaled), 0.0)
        assert expected_improvement(mean, std, best_observed=0.25).tobytes() == expected.tobytes()
        feasible = probability_of_feasibility(z, np.ones_like(z), threshold=0.0)
        assert feasible.tobytes() == stats.norm.cdf(z).tobytes()

    def test_import_repro_leaves_scipy_stats_unloaded(self):
        source = Path(__file__).resolve().parents[2] / "src"
        path = os.pathsep.join(filter(None, [str(source), os.environ.get("PYTHONPATH")]))
        environment = {**os.environ, "PYTHONPATH": path}
        result = subprocess.run(
            [sys.executable, "-c", "import sys, repro; print('scipy.stats' in sys.modules)"],
            env=environment, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"


class TestProbabilityOfFeasibility:
    def test_half_at_threshold(self):
        value = probability_of_feasibility(np.array([0.9]), np.array([0.1]), threshold=0.9)
        assert value[0] == pytest.approx(0.5)

    def test_increases_with_mean(self):
        low = probability_of_feasibility(np.array([0.8]), np.array([0.05]), 0.9)
        high = probability_of_feasibility(np.array([0.99]), np.array([0.05]), 0.9)
        assert high[0] > low[0]

    def test_bounded_in_unit_interval(self):
        rng = np.random.default_rng(5)
        values = probability_of_feasibility(rng.normal(size=20), rng.uniform(0.01, 1, 20), 0.0)
        assert np.all((values >= 0) & (values <= 1))


class TestMonteCarloEHVI:
    def test_dominating_candidate_scores_higher(self):
        front = np.array([[1.0, 1.0]])
        means = np.array([[2.0, 2.0], [0.5, 0.5]])
        stds = np.full((2, 2), 0.01)
        values = monte_carlo_ehvi(means, stds, front, np.zeros(2), num_samples=128)
        assert values[0] > values[1]
        assert values[1] == pytest.approx(0.0, abs=1e-6)

    def test_deterministic_given_rng(self):
        front = np.array([[1.0, 1.0]])
        means = np.array([[1.5, 1.5]])
        stds = np.array([[0.3, 0.3]])
        first = monte_carlo_ehvi(means, stds, front, np.zeros(2), rng=np.random.default_rng(1))
        second = monte_carlo_ehvi(means, stds, front, np.zeros(2), rng=np.random.default_rng(1))
        assert np.allclose(first, second)

    def test_low_uncertainty_matches_analytic_rectangle(self):
        # With an empty front and negligible uncertainty, EHVI reduces to the
        # rectangle area spanned by the mean and the reference point.
        means = np.array([[2.0, 3.0]])
        stds = np.full((1, 2), 1e-6)
        value = monte_carlo_ehvi(means, stds, np.empty((0, 2)), np.zeros(2), num_samples=16)
        assert value[0] == pytest.approx(6.0, rel=1e-3)

    def test_empty_candidates(self):
        values = monte_carlo_ehvi(
            np.empty((0, 2)), np.empty((0, 2)), np.empty((0, 2)), np.zeros(2)
        )
        assert values.shape == (0,)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            monte_carlo_ehvi(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((1, 2)), np.zeros(2))
        with pytest.raises(ValueError):
            monte_carlo_ehvi(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((1, 2)), np.zeros(3))
