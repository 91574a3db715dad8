"""Exact Gaussian-process regression.

A compact, dependency-light GP: Matern 5/2 kernel, observation noise, output
standardization, and maximum-marginal-likelihood hyper-parameter fitting via
three Nelder-Mead starts.  At tuning scale (tens of observations, dimension
27) one likelihood evaluation is a 36 x 36 Cholesky, but a fit makes ~512 of
them, so what an evaluation does besides its linear algebra decides what a
recommendation costs.  Three things keep a fit at its linear algebra:

* the objective is built once per fit over everything that depends on the
  data alone, the inputs are checked finite once, in
  :meth:`GaussianProcessRegressor.fit`, and an evaluation calls LAPACK
  directly;
* the optimizer is :func:`_nelder_mead`, a generator port of SciPy's
  unbounded Nelder-Mead that yields each point it wants evaluated, so the
  caller decides when to evaluate it;
* the three starts advance in lockstep (:func:`_minimize_in_lockstep`): each
  round evaluates one pending point per start as one stacked likelihood, the
  elementwise kernel work done once over a ``(k, n, n)`` stack and only the
  factorisation per start.

Every element of the stack is computed by the same expression as a lone
evaluation and the port keeps SciPy's arithmetic term for term, so each start
visits the points SciPy visits and the fit returns the same hyper-parameters.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Generator, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import linalg
from scipy.linalg.lapack import dpotrf, dpotrs

from repro.bo.kernels import Matern52Kernel, cdist_squared, matern52

__all__ = ["GaussianProcessRegressor", "GPPrediction"]


class NelderMeadResult(NamedTuple):
    """Where a Nelder-Mead search ended: the best vertex, its value, the
    iterations it ran and the evaluations it asked for (SciPy's ``x``,
    ``fun``, ``nit`` and ``nfev``)."""

    x: np.ndarray
    fun: float
    nit: int
    nfev: int


def _nelder_mead(
    x0: Sequence[float], *, maxiter: int, xatol: float, fatol: float
) -> Generator[tuple[float, ...], float, NelderMeadResult]:
    """Nelder-Mead as a generator: it yields each point and is sent its value.

    A line-for-line port of SciPy 1.17.1's ``_minimize_neldermead`` without
    bounds, adaptive parameters or an evaluation limit: the same initial
    simplex (each coordinate x 1.05, or 0.00025 where it is zero), the same
    reflection, expansion, contraction and shrink terms with the same
    association, and ``np.argsort`` for the vertex order, so tied values
    break as SciPy's do.  The vertices are tuples of floats: every operation
    on them is one IEEE operation per coordinate, as in SciPy's arrays.
    Returns (as ``StopIteration.value``) what ``scipy.optimize.minimize``
    reports as ``x``, ``fun``, ``nit`` and ``nfev``.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    x0 = tuple(float(value) for value in x0)
    n = len(x0)
    simplex = [x0]
    for k in range(n):
        vertex = list(x0)
        vertex[k] = (1 + 0.05) * vertex[k] if vertex[k] != 0 else 0.00025
        simplex.append(tuple(vertex))
    values = []
    for vertex in simplex:
        values.append((yield vertex))
    evaluations = n + 1

    def ordered(simplex, values):
        order = np.array(values).argsort().tolist()  # what np.argsort(values) does
        return [simplex[i] for i in order], [values[i] for i in order]

    # SciPy sorts the first simplex twice (a second sort may move ties).
    simplex, values = ordered(*ordered(simplex, values))
    iterations = 1
    while iterations < maxiter:
        best, worst = simplex[0], simplex[-1]
        if all(abs(a - b) <= xatol for vertex in simplex[1:] for a, b in zip(vertex, best)) and all(
            abs(values[0] - value) <= fatol for value in values[1:]
        ):
            break
        xbar = tuple(sum(column[1:], column[0]) / n for column in zip(*simplex[:-1]))
        reflected = tuple((1 + rho) * c - rho * w for c, w in zip(xbar, worst))
        f_reflected = yield reflected
        evaluations += 1
        shrink = False
        if f_reflected < values[0]:
            expanded = tuple((1 + rho * chi) * c - rho * chi * w for c, w in zip(xbar, worst))
            f_expanded = yield expanded
            evaluations += 1
            if f_expanded < f_reflected:
                simplex[-1], values[-1] = expanded, f_expanded
            else:
                simplex[-1], values[-1] = reflected, f_reflected
        elif f_reflected < values[-2]:
            simplex[-1], values[-1] = reflected, f_reflected
        elif f_reflected < values[-1]:
            contracted = tuple((1 + psi * rho) * c - psi * rho * w for c, w in zip(xbar, worst))
            f_contracted = yield contracted
            evaluations += 1
            if f_contracted <= f_reflected:
                simplex[-1], values[-1] = contracted, f_contracted
            else:
                shrink = True
        else:
            inside = tuple((1 - psi) * c + psi * w for c, w in zip(xbar, worst))
            f_inside = yield inside
            evaluations += 1
            if f_inside < values[-1]:
                simplex[-1], values[-1] = inside, f_inside
            else:
                shrink = True
        if shrink:
            for j in range(1, n + 1):
                simplex[j] = tuple(b + sigma * (v - b) for v, b in zip(simplex[j], simplex[0]))
                values[j] = yield simplex[j]
                evaluations += 1
        iterations += 1
        simplex, values = ordered(simplex, values)
    return NelderMeadResult(np.array(simplex[0]), float(np.min(values)), iterations, evaluations)


def _minimize_in_lockstep(
    objective: Callable[[np.ndarray], np.ndarray],
    starts: Sequence[Sequence[float]],
    *,
    maxiter: int,
    xatol: float,
    fatol: float,
) -> list[NelderMeadResult]:
    """One Nelder-Mead search per start, advanced together.

    ``objective`` maps a ``(k, d)`` stack of points to their ``k`` values.
    Each round stacks the one point every unfinished search is waiting on
    and evaluates them in one call; a search that stops drops out of the
    stack.  Each search is the one it would be alone, because a value depends
    on its point only.
    """
    searches = [_nelder_mead(start, maxiter=maxiter, xatol=xatol, fatol=fatol) for start in starts]
    pending = {i: next(search) for i, search in enumerate(searches)}
    results: list[NelderMeadResult | None] = [None] * len(searches)
    while pending:
        values = objective(np.array(list(pending.values())))
        for i, value in zip(list(pending), values):
            try:
                pending[i] = searches[i].send(float(value))
            except StopIteration as stop:
                del pending[i]
                results[i] = stop.value
    return results


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
        Initial observation-noise variance (in standardized output units); a
        finite, positive number.
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
        if not (math.isfinite(noise) and noise > 0):
            raise ValueError(f"noise must be finite and positive, got {noise!r}")
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
    ) -> Callable[[np.ndarray], np.ndarray]:
        """The negative log marginal likelihood of ``(X, y)`` over a stack of log hyper-parameters.

        Everything that depends on the data alone — the distance matrix (the
        kernel is isotropic), the noise weights, the bounds, the constant —
        is computed here, once per fit.  The objective maps a ``(k, 3)``
        stack (a single point is a stack of one) to its ``k`` values: clip,
        ``exp``, the Matern form and the diagonal add run once over a
        ``(k, n, n)`` stack, then each start gets one ``potrf`` and one
        ``potrs`` (GPML Alg. 2.1).
        """
        n = X.shape[0]
        root = np.sqrt(cdist_squared(X, X))
        scale = np.ones(n) if noise_scale is None else noise_scale
        lower, upper = np.array(self._LOG_BOUNDS).T
        constant = 0.5 * n * np.log(2.0 * np.pi)

        def objective(log_params: np.ndarray) -> np.ndarray:
            params = np.exp(np.clip(log_params, lower, upper))
            lengthscale, variance, noise = params.T[:, :, None, None]
            covariances = matern52(root, lengthscale, variance)
            covariances.reshape(len(params), -1)[:, :: n + 1] += noise[:, 0] * scale + 1e-9  # the diagonals
            values = np.empty(len(params))
            for i, covariance in enumerate(covariances):
                chol, info = dpotrf(covariance, lower=True)
                if info > 0:  # not positive definite
                    values[i] = 1e12
                    continue
                alpha, _ = dpotrs(chol, y, lower=True)
                log_determinant = 2.0 * np.log(chol.diagonal()).sum()
                values[i] = 0.5 * float(y @ alpha) + 0.5 * log_determinant + constant
            return values

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
        for result in _minimize_in_lockstep(objective, starts, maxiter=120, xatol=1e-3, fatol=1e-3):
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
