"""Unit tests for Gaussian-process regression."""

import numpy as np
import pytest
from scipy import linalg, optimize

import repro.bo.gp as gp_module
from repro.bo.gp import GaussianProcessRegressor
from repro.bo.kernels import Matern52Kernel, cdist_squared


def toy_function(X):
    return np.sin(3.0 * X[:, 0]) + 0.5 * X[:, 1] ** 2


@pytest.fixture(scope="module")
def fitted_gp():
    rng = np.random.default_rng(0)
    X = rng.random((60, 2))
    y = toy_function(X)
    return GaussianProcessRegressor(seed=0).fit(X, y), X, y


class TestFit:
    def test_requires_data(self):
        gp = GaussianProcessRegressor()
        with pytest.raises(ValueError):
            gp.fit(np.empty((0, 2)), np.empty(0))
        with pytest.raises(ValueError):
            gp.fit(np.zeros((3, 2)), np.zeros(4))

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            GaussianProcessRegressor().predict(np.zeros((1, 2)))

    def test_is_fitted_flag(self, fitted_gp):
        gp, X, _ = fitted_gp
        assert gp.is_fitted
        assert gp.num_observations == X.shape[0]

    def test_interpolates_training_data(self, fitted_gp):
        gp, X, y = fitted_gp
        prediction = gp.predict(X[:10])
        assert np.allclose(prediction.mean, y[:10], atol=0.05)

    def test_generalizes_to_unseen_points(self, fitted_gp):
        gp, _, _ = fitted_gp
        rng = np.random.default_rng(99)
        X_test = rng.random((30, 2))
        prediction = gp.predict(X_test)
        rmse = np.sqrt(np.mean((prediction.mean - toy_function(X_test)) ** 2))
        assert rmse < 0.25

    def test_uncertainty_higher_away_from_data(self):
        X = np.array([[0.5, 0.5]] * 10)
        y = np.ones(10)
        gp = GaussianProcessRegressor(optimize_hyperparameters=False).fit(X, y)
        near = gp.predict(np.array([[0.5, 0.5]]))
        far = gp.predict(np.array([[0.0, 0.0]]))
        assert far.std[0] > near.std[0]

    def test_output_scale_is_restored(self):
        rng = np.random.default_rng(1)
        X = rng.random((30, 2))
        y = 1000.0 + 500.0 * toy_function(X)
        gp = GaussianProcessRegressor(seed=1).fit(X, y)
        prediction = gp.predict(X[:5])
        assert np.allclose(prediction.mean, y[:5], rtol=0.05)

    def test_constant_targets_handled(self):
        X = np.random.default_rng(2).random((10, 3))
        y = np.full(10, 7.0)
        gp = GaussianProcessRegressor().fit(X, y)
        prediction = gp.predict(X)
        assert np.allclose(prediction.mean, 7.0, atol=1e-6)

    def test_single_observation(self):
        gp = GaussianProcessRegressor().fit(np.array([[0.3, 0.3]]), np.array([2.0]))
        prediction = gp.predict(np.array([[0.3, 0.3]]))
        assert prediction.mean[0] == pytest.approx(2.0, abs=1e-3)


# -- the per-fit objective against the seed's per-call one ---------------------------


def seed_matern52(a, b, lengthscale, variance):
    """The seed's ``Matern52Kernel.__call__``, hyper-parameters cast as its ``__init__`` cast them."""
    lengthscale, variance = float(lengthscale), float(variance)
    distances = np.sqrt(cdist_squared(a, b)) / lengthscale
    scaled = np.sqrt(5.0) * distances
    return variance * (1.0 + scaled + scaled**2 / 3.0) * np.exp(-scaled)


class SeedFitRegressor(GaussianProcessRegressor):
    """The seed's hyper-parameter fit, kept as the oracle: every likelihood
    evaluation re-derives the distances, rebuilds the bound lists, adds an
    n x n ``np.diag`` and goes through ``scipy.linalg.cholesky``/``cho_solve``."""

    def _negative_log_marginal_likelihood(self, log_params, X, y, noise_scale=None):
        log_params = np.clip(log_params, [b[0] for b in self._LOG_BOUNDS], [b[1] for b in self._LOG_BOUNDS])
        lengthscale, variance, noise = np.exp(log_params)
        scale = np.ones(X.shape[0]) if noise_scale is None else noise_scale
        covariance = seed_matern52(X, X, lengthscale, variance) + np.diag(noise * scale + 1e-9)
        try:
            chol = linalg.cholesky(covariance, lower=True)
        except linalg.LinAlgError:
            return 1e12
        alpha = linalg.cho_solve((chol, True), y)
        log_determinant = 2.0 * np.sum(np.log(np.diag(chol)))
        value = 0.5 * float(y @ alpha) + 0.5 * log_determinant + 0.5 * X.shape[0] * np.log(2.0 * np.pi)
        return float(value)

    def _fit_hyperparameters(self, X, y, noise_scale=None):
        rng = np.random.default_rng(self.seed)
        starts = [np.log([0.3, 1.0, max(self.noise, 1e-4)])]
        for _ in range(2):
            starts.append(
                np.log(
                    [
                        float(rng.uniform(0.1, 1.0)),
                        float(rng.uniform(0.5, 2.0)),
                        float(rng.uniform(1e-4, 1e-2)),
                    ]
                )
            )
        best_value = np.inf
        best_params = starts[0]
        for start in starts:
            result = optimize.minimize(
                self._negative_log_marginal_likelihood,
                start,
                args=(X, y, noise_scale),
                method="Nelder-Mead",
                options={"maxiter": 120, "xatol": 1e-3, "fatol": 1e-3},
            )
            if result.fun < best_value:
                best_value = float(result.fun)
                best_params = result.x
        best_params = np.clip(
            best_params, [b[0] for b in self._LOG_BOUNDS], [b[1] for b in self._LOG_BOUNDS]
        )
        lengthscale, variance, noise = np.exp(best_params)
        self.kernel = self.kernel.with_parameters(float(lengthscale), float(variance))
        self.noise = float(noise)


def design(n, d, *, duplicated, stale, seed=5):
    """A design in the unit cube with standardized targets and noise weights.

    ``duplicated`` copies the first half of the rows over the second (exact
    zero distances, a covariance that is singular but for the noise);
    ``stale`` inflates the noise of a leading third, as a warm start does.
    """
    rng = np.random.default_rng(seed + 1000 * n + d)
    X = rng.random((n, d))
    if duplicated:
        X[n - n // 2 :] = X[: n // 2]
    y = rng.normal(size=n)
    y = (y - y.mean()) / y.std()
    noise_scale = None
    if stale:
        noise_scale = np.ones(n)
        noise_scale[: max(1, n // 3)] = 25.0
    return X, y, noise_scale


def log_parameter_vectors(seed=9):
    """Log hyper-parameters inside, on and outside ``_LOG_BOUNDS``."""
    lower, upper = np.array(GaussianProcessRegressor._LOG_BOUNDS).T
    rng = np.random.default_rng(seed)
    inside = rng.uniform(lower, upper, size=(8, 3))
    on = np.array([lower, upper, [lower[0], upper[1], lower[2]], [upper[0], lower[1], upper[2]]])
    outside = np.array([lower - 3.0, upper + 3.0, [-50.0, 0.0, 50.0], [7.5, -9.0, -0.5], [0.0, 40.0, -40.0]])
    return np.vstack([inside, on, outside])


@pytest.mark.parametrize("stale", [False, True], ids=["plain", "stale-prefix"])
@pytest.mark.parametrize("duplicated", [False, True], ids=["distinct", "duplicates"])
@pytest.mark.parametrize("d", [1, 16, 27])
@pytest.mark.parametrize("n", [4, 5, 17, 36, 120])
def test_objective_equals_seed_objective(n, d, duplicated, stale):
    X, y, noise_scale = design(n, d, duplicated=duplicated, stale=stale)
    gp = GaussianProcessRegressor()
    objective = gp._marginal_likelihood_objective(X, y, noise_scale)
    seed = SeedFitRegressor()
    vectors = log_parameter_vectors()
    expected = [seed._negative_log_marginal_likelihood(v, X, y, noise_scale) for v in vectors]
    # A stack of one per vector, and all 17 vectors as one stack.
    for log_params, value in zip(vectors, expected):
        alone = objective(log_params[None, :])
        assert alone.dtype == np.float64 and alone.shape == (1,)
        assert float(alone[0]) == value
    stacked = objective(vectors)
    assert stacked.dtype == np.float64 and stacked.shape == (len(vectors),)
    assert stacked.tolist() == expected
    # The objective is a function of its argument alone: a second pass repeats the first.
    assert objective(vectors.copy()).tobytes() == stacked.tobytes()


def assert_same_fit(gp, seed, X_test):
    assert gp.kernel.lengthscale == seed.kernel.lengthscale
    assert gp.kernel.variance == seed.kernel.variance
    assert gp.noise == seed.noise
    assert gp._alpha.tobytes() == seed._alpha.tobytes()
    assert gp._cholesky.tobytes() == seed._cholesky.tobytes()
    ours, theirs = gp.predict(X_test), seed.predict(X_test)
    assert ours.mean.tobytes() == theirs.mean.tobytes()
    assert ours.std.tobytes() == theirs.std.tobytes()


@pytest.mark.parametrize("stale", [False, True], ids=["plain", "stale-prefix"])
@pytest.mark.parametrize("duplicated", [False, True], ids=["distinct", "duplicates"])
@pytest.mark.parametrize("n,d", [(4, 27), (9, 1), (17, 16), (36, 27)])
def test_fit_equals_seed_fit(n, d, duplicated, stale):
    X, y, noise_scale = design(n, d, duplicated=duplicated, stale=stale)
    y = 40.0 + 7.0 * y
    X_test = np.random.default_rng(n).random((11, d))
    gp = GaussianProcessRegressor(seed=3).fit(X, y, noise_scale=noise_scale)
    seed = SeedFitRegressor(seed=3).fit(X, y, noise_scale=noise_scale)
    assert_same_fit(gp, seed, X_test)
    # A refit starts Nelder-Mead from the previous fit's noise.
    gp.fit(X, y[::-1], noise_scale=noise_scale)
    seed.fit(X, y[::-1], noise_scale=noise_scale)
    assert_same_fit(gp, seed, X_test)
    fantasy_X = X_test[:2]
    fantasy_y = gp.predict(fantasy_X).mean
    assert_same_fit(gp.fantasized(fantasy_X, fantasy_y), seed.fantasized(fantasy_X, fantasy_y), X_test)


def test_kernel_call_is_the_form_over_distances():
    rng = np.random.default_rng(12)
    a, b = rng.random((13, 27)), rng.random((7, 27))
    b[3] = a[5]
    kernel = Matern52Kernel(lengthscale=np.float64(0.37), variance=np.float64(1.9))
    gram = kernel(a, b)
    assert gram.tobytes() == kernel.over_distances(np.sqrt(cdist_squared(a, b))).tobytes()
    assert gram.tobytes() == seed_matern52(a, b, 0.37, 1.9).tobytes()


# -- what the unchecked LAPACK calls rely on -------------------------------------------


class TestFitInputs:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("argument", ["X", "y", "noise_scale"])
    def test_non_finite_input_rejected(self, argument, bad):
        X, y, _ = design(8, 3, duplicated=False, stale=False)
        arrays = {"X": X, "y": y, "noise_scale": np.ones(8)}
        arrays[argument] = arrays[argument].copy()
        arrays[argument][(2, 1) if argument == "X" else 2] = abs(bad) if argument == "noise_scale" else bad
        gp = GaussianProcessRegressor()
        with pytest.raises(ValueError, match=rf"^{argument} must be finite"):
            gp.fit(arrays["X"], arrays["y"], noise_scale=arrays["noise_scale"])
        assert not gp.is_fitted

    def test_failed_factorisation_is_a_large_value_not_an_error(self, monkeypatch):
        X, y, _ = design(12, 4, duplicated=True, stale=False)
        calls = []

        def failing_potrf(a, lower=0, **options):
            calls.append(lower)
            return a, 3  # "the leading minor of order 3 is not positive definite"

        monkeypatch.setattr(gp_module, "dpotrf", failing_potrf)
        gp = GaussianProcessRegressor(seed=1)
        assert gp._marginal_likelihood_objective(X, y)(np.zeros((1, 3))).tolist() == [1e12]
        gp.fit(X, y)
        assert len(calls) > 3 and all(calls)
        assert gp.is_fitted
        assert np.isfinite(gp.predict(X).mean).all()


@pytest.mark.parametrize("noise", [np.nan, np.inf, -np.inf, -1.0, 0.0])
def test_noise_must_be_finite_and_positive(noise):
    with pytest.raises(ValueError, match="noise must be finite and positive"):
        GaussianProcessRegressor(noise=noise)
