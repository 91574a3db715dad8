"""Covariance kernels for Gaussian-process regression."""

from __future__ import annotations

import numpy as np

__all__ = ["Matern52Kernel", "cdist_squared", "matern52"]


def cdist_squared(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of two matrices."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    a_norm = np.einsum("ij,ij->i", a, a)[:, None]
    b_norm = np.einsum("ij,ij->i", b, b)[None, :]
    squared = a_norm - 2.0 * (a @ b.T) + b_norm
    np.maximum(squared, 0.0, out=squared)
    return squared


def matern52(distances: np.ndarray, lengthscale, variance) -> np.ndarray:
    """The Matern 5/2 form over Euclidean distances.

    ``lengthscale`` and ``variance`` are floats, or arrays that broadcast
    against ``distances`` — shape ``(k, 1, 1)`` over a stack of ``k`` copies
    gives ``k`` kernels, each element the value the float form gives it.
    """
    # variance * (1 + s + s**2 / 3) * exp(-s) with s = sqrt(5) * (d / l), each
    # product and sum computed in place (IEEE + and * commute, so every
    # element is the value of that expression).
    scaled = distances / lengthscale
    scaled *= np.sqrt(5.0)
    form = scaled * scaled
    form /= 3.0
    form += scaled + 1.0
    form *= variance
    np.negative(scaled, out=scaled)
    form *= np.exp(scaled, out=scaled)
    return form


class Matern52Kernel:
    """Matern 5/2 kernel, the surrogate kernel used by the paper (Section IV-B)."""

    def __init__(self, lengthscale: float = 0.3, variance: float = 1.0) -> None:
        if lengthscale <= 0 or variance <= 0:
            raise ValueError("lengthscale and variance must be positive")
        self.lengthscale = float(lengthscale)
        self.variance = float(variance)

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.over_distances(np.sqrt(cdist_squared(a, b)))

    def over_distances(self, distances: np.ndarray) -> np.ndarray:
        """The kernel over a matrix of Euclidean distances (it is isotropic)."""
        return matern52(distances, self.lengthscale, self.variance)

    def with_parameters(self, lengthscale: float, variance: float) -> "Matern52Kernel":
        """A copy of the kernel with new hyper-parameters."""
        return Matern52Kernel(lengthscale=lengthscale, variance=variance)
