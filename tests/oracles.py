"""Dense oracles and test-only views for the test suite.

Every oracle computes the quantity a fast path approximates, by the most
direct dense route available: pairwise covariance assembly, full linear
solves, exact log-determinants. They share no code with the library's
FFT/Krylov implementations.

The views below them rebuild, from a library object, what the pipeline
never needs in full: the latent Golub-Kahan basis, the full embedding
spectrum, and selection maps for co-located data. :func:`latent_basis`
is the one exception to the rule above: it calls the library's
``SparseMap.apply_t`` so that it rounds exactly like the recurrence.
"""

import numpy as np
from scipy import fft as sfft

from kryging.gengk import GenGKFactorization
from kryging.grid import GridSpec, matern_corr
from kryging.mapping import SparseMap
from kryging.toeplitz import BttbOperator


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
    counterpart of the value assembled by evaluate_objective."""
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


def half_spectrum_sample(eigs: np.ndarray, n1: int, n2: int, rng) -> np.ndarray:
    """One circulant-embedding draw by the half-spectrum route, written out
    from the full (m2, m1) spectrum: both normal arrays drawn in full, the
    Hermitian part sqrt(lam) (a_even + i b_odd) on the non-negative axis-1
    frequencies, ``ifft`` along axis 0 keeping the lattice rows, then
    ``irfft`` along axis 1."""
    m2, m1 = eigs.shape
    a = rng.standard_normal((m2, m1))
    b = rng.standard_normal((m2, m1))
    neg = np.ix_(-np.arange(m2) % m2, -np.arange(m1 // 2 + 1) % m1)
    half = (slice(None), slice(0, m1 // 2 + 1))
    h = np.sqrt(np.maximum(eigs[half], 0.0)) * (
        (a[half] + a[neg]) / 2 + 1j * ((b[half] - b[neg]) / 2)
    )
    rows = sfft.ifft(h, axis=0, overwrite_x=True)[:n2]
    field = sfft.irfft(rows, n=m1, axis=1)[:, :n1]
    return (field * np.sqrt(m2 * m1)).ravel()


def latent_basis(fact: GenGKFactorization) -> np.ndarray:
    """Latent-space basis V_k of a factorization, shape (n, k).

    Replays the latent steps alpha_i v_i = A' u_i / tau2 - beta_i v_{i-1}
    from U and B with the same operations in the same order as
    ``gengk_factorize`` (A' through the factorization's own map), so each
    column is bitwise the vector the recurrence used. A transposed view of
    row-major (k, n) storage, like U.
    """
    V = np.empty((fact.k, fact.amap.n))
    for i in range(fact.k):
        w = fact.amap.apply_t(fact.U[:, i])
        w /= fact.tau2
        if i:
            w -= V[i - 1] * fact.B[i, i - 1]
        np.divide(w, fact.B[i, i], out=V[i])
    return V.T


def projected_coefficients(fact: GenGKFactorization, sigma2: float) -> np.ndarray:
    """Dense solve of the projected ridge system
    (B'B + I/sigma2) z = beta1 B' e1 of a factorization."""
    B = fact.B
    return np.linalg.solve(B.T @ B + np.eye(fact.k) / sigma2, fact.beta1 * B[0])


def full_spectrum(op: BttbOperator) -> np.ndarray:
    """The full (m2, m1) clamped minimal-embedding spectrum of ``op``.

    The spectrum is even in both axes, so frequency (k2, k1) is read from
    the stored quarter at index (min(k2, m2 - k2), min(k1, m1 - k1)).
    """
    m1, m2 = op.embed_dims
    k1, k2 = np.arange(m1), np.arange(m2)
    return op._quarter[np.ix_(np.minimum(k2, m2 - k2), np.minimum(k1, m1 - k1))]


def selection_map(indices, n: int) -> SparseMap:
    """Row-selection map for observations co-located with lattice nodes
    ``indices`` (an identity matrix with rows removed)."""
    indices = np.asarray(indices, dtype=int)
    p = indices.size
    return SparseMap(np.ones(p), indices, np.arange(p + 1), (p, n))


def identity_map(n: int) -> SparseMap:
    """Map observing every one of the n lattice nodes, in order."""
    return selection_map(np.arange(n), n)
