"""The Nelder-Mead port and its lockstep driver against SciPy's Nelder-Mead."""

import numpy as np
import pytest
from scipy import optimize

import repro.bo.gp as gp_module
from repro.bo.gp import GaussianProcessRegressor
from tests.bo.test_gp import design

NM_OPTIONS = {"maxiter": 120, "xatol": 1e-3, "fatol": 1e-3}


def scipy_nelder_mead(function, start, options=NM_OPTIONS):
    return optimize.minimize(function, np.asarray(start, dtype=float), method="Nelder-Mead", options=options)


def lockstep(function, starts, options=NM_OPTIONS):
    """Run ``function`` (of one point) under the lockstep driver, one call per stacked row."""
    stacked = lambda points: np.array([function(point) for point in points])  # noqa: E731
    return gp_module._minimize_in_lockstep(stacked, starts, **options)


def assert_same_search(ours, theirs):
    assert ours.x.tobytes() == np.asarray(theirs.x, dtype=float).tobytes()
    assert ours.fun == theirs.fun
    assert ours.nit == theirs.nit
    assert ours.nfev == theirs.nfev


def quadratic(point):
    return float((point[0] - 0.7) ** 2 + 3.0 * (point[1] + 0.2) ** 2 + 0.5 * point[0] * point[1])


def plateau(point):
    """Flat at the failure value outside a box: ties from the first simplex on."""
    if np.any(np.abs(point) > 0.5):
        return 1e12
    return float(np.round(np.sum(point**2), 1))


def rosenbrock(point):
    return float(sum(100.0 * (point[1:] - point[:-1] ** 2) ** 2 + (1.0 - point[:-1]) ** 2))


def likelihood(n, d, seed=3):
    X, y, noise_scale = design(n, d, duplicated=False, stale=seed % 2 == 1, seed=seed)
    objective = GaussianProcessRegressor()._marginal_likelihood_objective(X, y, noise_scale)
    return lambda point: float(objective(point[None, :])[0])


GP_STARTS = [np.log([0.3, 1.0, 1e-4]), np.log([0.62, 1.31, 4.4e-3]), np.log([0.17, 0.71, 9.1e-3])]

NM_CASES = {
    "likelihood-4x27": (likelihood(4, 27), GP_STARTS),
    "likelihood-9x1": (likelihood(9, 1, seed=4), GP_STARTS),
    "likelihood-17x16": (likelihood(17, 16), GP_STARTS),
    "likelihood-36x27": (likelihood(36, 27, seed=6), GP_STARTS),
    "quadratic": (quadratic, [[0.0, 0.0], [2.0, -1.0], [0.0, 5.0]]),
    "plateau": (plateau, [[0.6, 0.0], [0.0, 0.0], [0.3, -0.45], [3.0, 3.0]]),
    "rosenbrock": (rosenbrock, [[-1.2, 1.0, 0.0], [0.0, 0.0, 0.0]]),
}


@pytest.mark.parametrize("case", sorted(NM_CASES))
def test_nelder_mead_equals_scipy(case):
    function, starts = NM_CASES[case]
    solo = [lockstep(function, [start])[0] for start in starts]
    for start, ours in zip(starts, solo):
        assert_same_search(ours, scipy_nelder_mead(function, start))
    # In lockstep, each start is the search it is alone.
    for ours, alone in zip(lockstep(function, starts), solo):
        assert_same_search(ours, alone)


def test_nelder_mead_cases_stop_both_ways():
    """The cases cover searches that converge and searches cut at ``maxiter``,
    and a plateau whose first simplex ties at the failure value."""
    stops = {
        case: [scipy_nelder_mead(function, start).nit for start in starts]
        for case, (function, starts) in NM_CASES.items()
    }
    everything = [nit for nits in stops.values() for nit in nits]
    assert max(everything) == NM_OPTIONS["maxiter"]
    assert min(everything) < NM_OPTIONS["maxiter"]
    assert all(plateau(vertex) == 1e12 for vertex in ([0.6, 0.0], [0.63, 0.0], [0.6, 0.00025]))


@pytest.mark.parametrize("maxiter", [1, 2, 7, 400])
def test_nelder_mead_equals_scipy_at_any_iteration_limit(maxiter):
    options = dict(NM_OPTIONS, maxiter=maxiter)
    for start in ([-1.2, 1.0, 0.0], [0.5, -0.5, 2.0]):
        ours = lockstep(rosenbrock, [start], options)[0]
        assert_same_search(ours, scipy_nelder_mead(rosenbrock, start, options))
