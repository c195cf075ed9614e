"""Dense oracles for the test suite.

Every oracle computes the quantity a fast path approximates, by the most
direct dense route available: pairwise covariance assembly, full linear
solves, exact log-determinants. They share no code with the library's
FFT/Krylov implementations.
"""

import numpy as np

from kryging.grid import GridSpec, matern_corr


def pairwise_distances(grid: GridSpec) -> np.ndarray:
    pts = grid.node_coords()
    return np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)


def dense_corr(grid: GridSpec, rho: float, nu: float = 0.5) -> np.ndarray:
    """Dense n x n correlation matrix from pairwise distances."""
    return matern_corr(pairwise_distances(grid), rho, nu)


def dense_solution(S, A, b, sigma2, tau2):
    """Latent estimate from the full regularized normal equations."""
    lhs = np.linalg.inv(S) / sigma2 + (A.T @ A) / tau2
    return np.linalg.solve(lhs, A.T @ b / tau2)


def dense_negative_profile(S, A, y, X, beta, sigma2, tau2):
    """Exact negative profile objective (up to constants): the dense
    counterpart of the value assembled by profile_loglik."""
    p, n = A.shape
    b = y - X @ beta
    xh = dense_solution(S, A, b, sigma2, tau2)
    psi = b - A @ xh
    _, ld = np.linalg.slogdet(S)
    quad = xh @ np.linalg.solve(S, xh)
    return 0.5 * (
        p * np.log(tau2) + psi @ psi / tau2 + n * np.log(sigma2) + ld + quad / sigma2
    )
