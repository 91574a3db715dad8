"""Exact Gaussian-process regression.

A compact, dependency-light GP: Matern 5/2 kernel, observation noise, output
standardization, and maximum-marginal-likelihood hyper-parameter fitting via
a small multi-start grid + Nelder-Mead refinement.  At tuning scale (tens of
observations, dimension 27) one likelihood evaluation is a 36 x 36 Cholesky,
but a fit makes ~512 of them, so what an evaluation does besides its linear
algebra decides what a recommendation costs: with the distance matrix
re-derived and SciPy's checked wrappers crossed on every evaluation, the
recommendation step was 59 % of the median tuning iteration on glove-small,
three quarters of it this fit.  So the objective is built once per fit over
everything that depends on the data alone, the inputs are checked finite
once, in :meth:`GaussianProcessRegressor.fit`, and an evaluation calls LAPACK
directly — the same arithmetic in the same order, hence the same fit.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy import linalg, optimize
from scipy.linalg.lapack import dpotrf, dpotrs

from repro.bo.kernels import Matern52Kernel, cdist_squared

__all__ = ["GaussianProcessRegressor", "GPPrediction"]


@dataclass(frozen=True)
class GPPrediction:
    """Posterior mean and standard deviation at the queried points."""

    mean: np.ndarray
    std: np.ndarray


class GaussianProcessRegressor:
    """Exact GP regression with a Matern 5/2 kernel on the unit hypercube.

    Parameters
    ----------
    noise:
        Initial observation-noise variance (in standardized output units).
    optimize_hyperparameters:
        If true (default), lengthscale, signal variance and noise are fitted
        by maximizing the log marginal likelihood every time :meth:`fit` is
        called.
    seed:
        Seed for the hyper-parameter multi-start.
    """

    def __init__(
        self,
        *,
        noise: float = 1e-4,
        optimize_hyperparameters: bool = True,
        seed: int = 0,
    ) -> None:
        self.noise = float(noise)
        self.optimize_hyperparameters = bool(optimize_hyperparameters)
        self.seed = int(seed)
        self.kernel = Matern52Kernel()
        self._X: np.ndarray | None = None
        self._y_mean = 0.0
        self._y_std = 1.0
        self._y_standardized: np.ndarray | None = None
        self._alpha: np.ndarray | None = None
        self._cholesky: np.ndarray | None = None

    # -- fitting ---------------------------------------------------------------

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called with at least one observation."""
        return self._alpha is not None

    @property
    def num_observations(self) -> int:
        """Number of training observations."""
        return 0 if self._X is None else int(self._X.shape[0])

    def _standardize(self, y: np.ndarray) -> np.ndarray:
        self._y_mean = float(np.mean(y))
        spread = float(np.std(y))
        self._y_std = spread if spread > 1e-12 else 1.0
        return (y - self._y_mean) / self._y_std

    #: Bounds on the log hyper-parameters, keeping the optimizer in a sane region.
    _LOG_BOUNDS = ((-4.0, 2.0), (-4.0, 3.0), (-12.0, 0.0))

    def _marginal_likelihood_objective(
        self, X: np.ndarray, y: np.ndarray, noise_scale: np.ndarray | None = None
    ) -> Callable[[np.ndarray], float]:
        """The negative log marginal likelihood of ``(X, y)`` as a function of the log hyper-parameters.

        Everything that depends on the data alone — the distance matrix (the
        kernel is isotropic), the noise weights, the bounds, the constant —
        is computed here, once per fit; an evaluation is then the Matern
        form, one ``potrf`` and one ``potrs`` (GPML Alg. 2.1).
        """
        n = X.shape[0]
        root = np.sqrt(cdist_squared(X, X))
        scale = np.ones(n) if noise_scale is None else noise_scale
        lower, upper = np.array(self._LOG_BOUNDS).T
        constant = 0.5 * n * np.log(2.0 * np.pi)

        def objective(log_params: np.ndarray) -> float:
            lengthscale, variance, noise = np.exp(np.clip(log_params, lower, upper))
            covariance = self.kernel.with_parameters(lengthscale, variance).over_distances(root)
            covariance.reshape(-1)[:: n + 1] += noise * scale + 1e-9  # the diagonal, in place
            chol, info = dpotrf(covariance, lower=True)
            if info > 0:  # not positive definite
                return 1e12
            alpha, _ = dpotrs(chol, y, lower=True)
            log_determinant = 2.0 * np.log(chol.diagonal()).sum()
            return float(0.5 * float(y @ alpha) + 0.5 * log_determinant + constant)

        return objective

    def _fit_hyperparameters(
        self, X: np.ndarray, y: np.ndarray, noise_scale: np.ndarray | None = None
    ) -> None:
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
        objective = self._marginal_likelihood_objective(X, y, noise_scale)
        best_value = np.inf
        best_params = starts[0]
        for start in starts:
            result = optimize.minimize(
                objective,
                start,
                method="Nelder-Mead",
                options={"maxiter": 120, "xatol": 1e-3, "fatol": 1e-3},
            )
            if result.fun < best_value:
                best_value = float(result.fun)
                best_params = result.x
        best_params = np.clip(best_params, *np.array(self._LOG_BOUNDS).T)
        lengthscale, variance, noise = np.exp(best_params)
        self.kernel = self.kernel.with_parameters(float(lengthscale), float(variance))
        self.noise = float(noise)

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        *,
        noise_scale: np.ndarray | None = None,
    ) -> "GaussianProcessRegressor":
        """Fit the GP to observations ``(X, y)``.

        ``X`` lives in the unit hypercube, ``y`` is a 1-D array of objective
        values (any scale; standardization is handled internally).

        ``noise_scale`` optionally re-weights observations: a per-point
        multiplier on the observation-noise variance (1 = trust normally,
        larger = trust less).  Down-weighted points act as soft priors — the
        posterior mean follows them only where no trusted observation
        disagrees — which is how warm-started re-tuning keeps stale pre-drift
        observations without letting them overrule fresh measurements.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float).reshape(-1)
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y must have the same number of rows")
        if X.shape[0] == 0:
            raise ValueError("cannot fit a GP to zero observations")
        if noise_scale is not None:
            noise_scale = np.asarray(noise_scale, dtype=float).reshape(-1)
            if noise_scale.shape[0] != X.shape[0]:
                raise ValueError("noise_scale must have one entry per observation")
            if np.any(noise_scale <= 0):
                raise ValueError("noise_scale entries must be positive")
        # Checked once here: the likelihood evaluations call LAPACK unchecked.
        for name, array in (("X", X), ("y", y), ("noise_scale", noise_scale)):
            if array is not None and not np.isfinite(array).all():
                raise ValueError(f"{name} must be finite")
        self._X = X
        standardized = self._standardize(y)
        if self.optimize_hyperparameters and X.shape[0] >= 4:
            self._fit_hyperparameters(X, standardized, noise_scale)
        scale = np.ones(X.shape[0]) if noise_scale is None else noise_scale
        covariance = self.kernel(X, X) + np.diag(self.noise * scale + 1e-9)
        self._cholesky = linalg.cholesky(covariance, lower=True)
        self._y_standardized = standardized
        self._alpha = linalg.cho_solve((self._cholesky, True), standardized)
        return self

    def fantasized(self, X_new: np.ndarray, y_new: np.ndarray) -> "GaussianProcessRegressor":
        """A copy of the GP conditioned on fantasy observations ``(X_new, y_new)``.

        The copy shares the fitted hyper-parameters and output standardization
        and extends the Cholesky factor by a rank-``q`` block update — an
        :math:`O(n^2 q)` operation instead of the :math:`O((n+q)^3)` refit —
        which is what makes sequential-greedy q-EHVI batch construction cheap.
        ``y_new`` is given in original output units (e.g. the posterior mean at
        ``X_new``, the "Kriging believer" fantasy).  The original GP is left
        untouched.
        """
        if not self.is_fitted:
            raise RuntimeError("the GP has not been fitted")
        X_new = np.atleast_2d(np.asarray(X_new, dtype=float))
        y_new = np.asarray(y_new, dtype=float).reshape(-1)
        if X_new.shape[0] != y_new.shape[0]:
            raise ValueError("X_new and y_new must have the same number of rows")
        if X_new.shape[1] != self._X.shape[1]:
            raise ValueError("X_new has the wrong dimension")

        # Block-Cholesky update: K' = [[K, k], [k.T, K_new]] factors as
        # [[L, 0], [B, C]] with B = solve(L, k).T and C = chol(K_new - B B.T).
        cross = self.kernel(self._X, X_new)
        solved = linalg.solve_triangular(self._cholesky, cross, lower=True)
        new_block = (
            self.kernel(X_new, X_new)
            + (self.noise + 1e-9) * np.eye(X_new.shape[0])
            - solved.T @ solved
        )
        # Guard against loss of positive definiteness from near-duplicate points.
        new_chol = linalg.cholesky(new_block + 1e-10 * np.eye(X_new.shape[0]), lower=True)

        n_old, n_new = self._X.shape[0], X_new.shape[0]
        extended = np.zeros((n_old + n_new, n_old + n_new))
        extended[:n_old, :n_old] = self._cholesky
        extended[n_old:, :n_old] = solved.T
        extended[n_old:, n_old:] = new_chol

        clone = GaussianProcessRegressor(
            noise=self.noise,
            optimize_hyperparameters=False,
            seed=self.seed,
        )
        clone.kernel = self.kernel
        clone._y_mean = self._y_mean
        clone._y_std = self._y_std
        clone._X = np.vstack([self._X, X_new])
        clone._y_standardized = np.concatenate(
            [self._y_standardized, (y_new - self._y_mean) / self._y_std]
        )
        clone._cholesky = extended
        clone._alpha = linalg.cho_solve((extended, True), clone._y_standardized)
        return clone

    # -- prediction --------------------------------------------------------------

    def predict(self, X: np.ndarray) -> GPPrediction:
        """Posterior mean and standard deviation at ``X`` (original output units)."""
        if not self.is_fitted:
            raise RuntimeError("the GP has not been fitted")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        cross = self.kernel(X, self._X)
        mean = cross @ self._alpha
        solved = linalg.solve_triangular(self._cholesky, cross.T, lower=True)
        prior_variance = np.diag(self.kernel(X, X)).copy()
        variance = prior_variance - np.einsum("ij,ij->j", solved, solved)
        np.maximum(variance, 1e-12, out=variance)
        std = np.sqrt(variance)
        return GPPrediction(
            mean=mean * self._y_std + self._y_mean,
            std=std * self._y_std,
        )
