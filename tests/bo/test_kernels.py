"""Unit tests for the GP kernels."""

import numpy as np
import pytest

from repro.bo.kernels import Matern52Kernel, cdist_squared


class TestCdistSquared:
    def test_matches_direct_computation(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(6, 4))
        b = rng.normal(size=(9, 4))
        direct = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        assert np.allclose(cdist_squared(a, b), direct, atol=1e-10)

    def test_non_negative(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(5, 3))
        assert np.all(cdist_squared(a, a) >= 0)


@pytest.mark.parametrize("kernel_class", [Matern52Kernel])
class TestKernelProperties:
    def test_diagonal_equals_variance(self, kernel_class):
        kernel = kernel_class(lengthscale=0.5, variance=2.0)
        x = np.random.default_rng(2).normal(size=(7, 3))
        gram = kernel(x, x)
        assert np.allclose(np.diag(gram), 2.0, atol=1e-8)

    def test_symmetry(self, kernel_class):
        kernel = kernel_class(lengthscale=0.4)
        x = np.random.default_rng(3).normal(size=(6, 2))
        gram = kernel(x, x)
        assert np.allclose(gram, gram.T, atol=1e-10)

    def test_positive_semidefinite(self, kernel_class):
        kernel = kernel_class(lengthscale=0.7)
        x = np.random.default_rng(4).normal(size=(10, 3))
        eigenvalues = np.linalg.eigvalsh(kernel(x, x))
        assert eigenvalues.min() > -1e-8

    def test_decays_with_distance(self, kernel_class):
        kernel = kernel_class(lengthscale=0.5, variance=1.0)
        origin = np.zeros((1, 2))
        near = np.array([[0.1, 0.0]])
        far = np.array([[3.0, 0.0]])
        assert kernel(origin, near)[0, 0] > kernel(origin, far)[0, 0]

    def test_invalid_hyperparameters_rejected(self, kernel_class):
        with pytest.raises(ValueError):
            kernel_class(lengthscale=0.0)
        with pytest.raises(ValueError):
            kernel_class(lengthscale=1.0, variance=-1.0)

    def test_with_parameters_returns_new_kernel(self, kernel_class):
        kernel = kernel_class(lengthscale=0.5, variance=1.0)
        other = kernel.with_parameters(0.9, 2.0)
        assert other is not kernel
        assert other.lengthscale == 0.9
        assert kernel.lengthscale == 0.5
