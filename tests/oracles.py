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


def circulant_embedding(base: np.ndarray, m1: int, m2: int) -> np.ndarray:
    """The (m2, m1) block-circulant embedding of an (n2, n1) lag array,
    entry by entry: position (j2, j1) holds the lag (min(j2, m2 - j2),
    min(j1, m1 - j1)) when that lag is on the lattice, else zero."""
    n2, n1 = base.shape
    emb = np.zeros((m2, m1))
    for j2 in range(m2):
        for j1 in range(m1):
            l2, l1 = min(j2, m2 - j2), min(j1, m1 - j1)
            if l2 < n2 and l1 < n1:
                emb[j2, j1] = base[l2, l1]
    return emb


def complex_embedding_sample(eigs: np.ndarray, n1: int, n2: int, rng) -> np.ndarray:
    """One circulant-embedding draw by the full complex route: normals
    a + ib over the whole (m2, m1) embedding scaled by the square root of
    the clamped spectrum, a complex 2-D inverse FFT, and the real part of
    the leading (n2, n1) block."""
    lam = np.maximum(eigs, 0.0)
    noise = rng.standard_normal(lam.shape) + 1j * rng.standard_normal(lam.shape)
    field = np.fft.ifft2(np.sqrt(lam) * noise) * np.sqrt(lam.size)
    return field.real[:n2, :n1].ravel()
