"""Tests for the batch q-EHVI substrate: fantasized GPs and joint hypervolume."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bo.ehvi import greedy_qehvi_scores, monte_carlo_ehvi, monte_carlo_qehvi
from repro.bo.gp import GaussianProcessRegressor
from repro.bo.pareto import (
    batch_hypervolume_2d,
    hypervolume_2d,
    joint_hypervolume_improvement_2d,
)


@pytest.fixture()
def fitted_gp(rng):
    X = rng.random((25, 4))
    y = np.sin(3.0 * X[:, 0]) + X[:, 1] ** 2 + 0.1 * X[:, 2]
    return GaussianProcessRegressor(optimize_hyperparameters=False).fit(X, y), X


class TestFantasizedGP:
    def test_fantasized_matches_prediction_at_fantasy_points(self, fitted_gp, rng):
        gp, _ = fitted_gp
        points = rng.random((3, 4))
        fantasies = gp.predict(points).mean
        conditioned = gp.fantasized(points, fantasies)
        prediction = conditioned.predict(points)
        assert np.allclose(prediction.mean, fantasies, atol=1e-6)
        # Conditioning on an observation collapses the posterior there.
        assert (prediction.std < gp.predict(points).std).all()

    def test_fantasized_matches_full_refit(self, fitted_gp, rng):
        gp, X = fitted_gp
        points = rng.random((2, 4))
        fantasies = gp.predict(points).mean
        conditioned = gp.fantasized(points, fantasies)

        refit = GaussianProcessRegressor(optimize_hyperparameters=False)
        refit.kernel = gp.kernel
        refit.noise = gp.noise
        y_original = gp.predict(X).mean  # noise-free recovery is close enough here
        refit.fit(np.vstack([X, points]), np.concatenate([y_original, fantasies]))

        queries = rng.random((6, 4))
        a, b = conditioned.predict(queries), refit.predict(queries)
        assert np.allclose(a.mean, b.mean, atol=0.05)
        assert np.allclose(a.std, b.std, atol=0.05)

    def test_fantasized_leaves_original_untouched(self, fitted_gp, rng):
        gp, _ = fitted_gp
        before = gp.num_observations
        gp.fantasized(rng.random((2, 4)), np.zeros(2))
        assert gp.num_observations == before

    def test_fantasized_requires_fit(self):
        with pytest.raises(RuntimeError):
            GaussianProcessRegressor().fantasized(np.zeros((1, 2)), np.zeros(1))


class TestJointHypervolume:
    def test_batch_hypervolume_matches_scalar(self, rng):
        reference = np.array([0.1, -0.2])
        sets = rng.random((30, 6, 2)) * 2.0 - 0.2
        batched = batch_hypervolume_2d(sets, reference)
        scalar = np.array([hypervolume_2d(s, reference) for s in sets])
        assert np.allclose(batched, scalar)

    def test_joint_improvement_matches_brute_force(self, rng):
        reference = np.zeros(2)
        front = rng.random((5, 2))
        batches = rng.random((20, 3, 2)) * 1.5
        joint = joint_hypervolume_improvement_2d(batches, front, reference)
        base = hypervolume_2d(front, reference)
        brute = np.array(
            [hypervolume_2d(np.vstack([front, b]), reference) - base for b in batches]
        )
        assert np.allclose(joint, brute)

    def test_joint_improvement_empty_front(self, rng):
        reference = np.zeros(2)
        batches = rng.random((8, 2, 2))
        joint = joint_hypervolume_improvement_2d(batches, np.empty((0, 2)), reference)
        brute = np.array([hypervolume_2d(b, reference) for b in batches])
        assert np.allclose(joint, brute)

    def test_duplicate_points_add_no_volume(self):
        reference = np.zeros(2)
        front = np.array([[1.0, 1.0]])
        batch = np.array([[[1.0, 1.0], [1.0, 1.0]]])
        assert joint_hypervolume_improvement_2d(batch, front, reference)[0] == 0.0


class TestMonteCarloQEHVI:
    def test_q1_matches_single_point_estimator(self, rng):
        means = np.array([[1.2, 0.8]])
        stds = np.array([[0.3, 0.2]])
        observed = rng.random((6, 2))
        reference = np.zeros(2)
        single = monte_carlo_ehvi(
            means, stds, observed, reference, num_samples=512, rng=np.random.default_rng(4)
        )
        joint = monte_carlo_qehvi(
            means, stds, observed, reference, num_samples=512, rng=np.random.default_rng(4)
        )
        assert joint == pytest.approx(float(single[0]))

    def test_joint_batch_no_double_counting(self):
        # Two identical candidates must not be worth more than one of them.
        means = np.array([[1.0, 1.0], [1.0, 1.0]])
        stds = np.full((2, 2), 1e-9)
        observed = np.array([[0.5, 0.5]])
        reference = np.zeros(2)
        pair = monte_carlo_qehvi(means, stds, observed, reference, num_samples=64)
        single = monte_carlo_qehvi(means[:1], stds[:1], observed, reference, num_samples=64)
        assert pair == pytest.approx(single, rel=1e-6)

    def test_greedy_scores_empty_prefix_match_ehvi(self, rng):
        empty = np.empty((0, 2))
        means = rng.random((5, 2))
        stds = rng.random((5, 2)) * 0.1 + 0.05
        observed = rng.random((4, 2))
        reference = np.zeros(2)
        greedy = greedy_qehvi_scores(
            empty, empty, means, stds, observed, reference,
            num_samples=256, rng=np.random.default_rng(9),
        )
        single = monte_carlo_ehvi(
            means, stds, observed, reference,
            num_samples=256, rng=np.random.default_rng(9),
        )
        assert np.allclose(greedy, single)

    def test_greedy_scores_penalize_candidates_covered_by_prefix(self):
        # The joint score of prefix + duplicate equals the prefix's own
        # improvement (the duplicate adds nothing), while a diverse candidate
        # contributes on top — so the greedy argmax picks diversity.
        prefix_means = np.array([[1.0, 0.4]])
        prefix_stds = np.full((1, 2), 1e-9)
        candidates = np.array([[1.0, 0.4], [0.4, 1.0]])
        candidate_stds = np.full((2, 2), 1e-9)
        scores = greedy_qehvi_scores(
            prefix_means, prefix_stds, candidates, candidate_stds,
            np.array([[0.2, 0.2]]), np.zeros(2), num_samples=32,
            rng=np.random.default_rng(0),
        )
        prefix_alone = monte_carlo_qehvi(
            prefix_means, prefix_stds, np.array([[0.2, 0.2]]), np.zeros(2), num_samples=32
        )
        assert scores[0] == pytest.approx(prefix_alone, rel=1e-6)
        assert scores[1] > scores[0]

    def test_diverse_batch_beats_duplicated_batch(self):
        observed = np.array([[0.2, 0.2]])
        reference = np.zeros(2)
        stds = np.full((2, 2), 1e-9)
        duplicated = monte_carlo_qehvi(
            np.array([[1.0, 0.4], [1.0, 0.4]]), stds, observed, reference, num_samples=32
        )
        diverse = monte_carlo_qehvi(
            np.array([[1.0, 0.4], [0.4, 1.0]]), stds, observed, reference, num_samples=32
        )
        assert diverse > duplicated


class TestRngThreading:
    """greedy_qehvi_scores must draw fresh noise per call from a shared generator.

    The old fixed-seed fallback re-drew the *same* Monte-Carlo noise on
    every rng-less call, correlating the batch slots of sequential-greedy
    q-EHVI construction.
    """

    def test_greedy_scores_require_a_generator(self):
        empty = np.empty((0, 2))
        means = np.array([[1.0, 1.0]])
        stds = np.array([[0.3, 0.3]])
        with pytest.raises(TypeError):
            greedy_qehvi_scores(empty, empty, means, stds, empty, np.zeros(2))

    def test_successive_calls_advance_the_shared_generator(self):
        empty = np.empty((0, 2))
        means = np.array([[1.0, 1.0]])
        stds = np.array([[0.5, 0.5]])
        shared = np.random.default_rng(3)
        first = greedy_qehvi_scores(
            empty, empty, means, stds, empty, np.zeros(2), num_samples=32, rng=shared
        )
        second = greedy_qehvi_scores(
            empty, empty, means, stds, empty, np.zeros(2), num_samples=32, rng=shared
        )
        # Same inputs, same generator object: the second call must consume
        # fresh noise, so the Monte-Carlo estimates differ (decorrelated).
        assert not np.allclose(first, second)
        # Re-seeding reproduces the whole sequence, so determinism is kept.
        replay = np.random.default_rng(3)
        assert np.allclose(
            first,
            greedy_qehvi_scores(
                empty, empty, means, stds, empty, np.zeros(2), num_samples=32, rng=replay
            ),
        )

    def test_entry_points_keep_a_reproducible_default(self):
        means = np.array([[1.0, 1.0]])
        stds = np.array([[0.3, 0.3]])
        observed = np.array([[0.5, 0.5]])
        first = monte_carlo_ehvi(means, stds, observed, np.zeros(2), num_samples=16)
        second = monte_carlo_ehvi(means, stds, observed, np.zeros(2), num_samples=16)
        assert np.allclose(first, second)
        joint_a = monte_carlo_qehvi(means, stds, observed, np.zeros(2), num_samples=16)
        joint_b = monte_carlo_qehvi(means, stds, observed, np.zeros(2), num_samples=16)
        assert joint_a == pytest.approx(joint_b)
