"""Generalized Golub-Kahan bidiagonalization and the projected solve.

Builds paired bases U (noise-weighted orthogonal, U'U = tau2 I) and V
(covariance-weighted orthonormal, V' Sigma V = I) for the Krylov subspace
of the regularized weighted least-squares problem, together with the
bidiagonal projection B. In exact arithmetic the factorization satisfies

    A Sigma V_k = U_{k+1} B_k
    U_{k+1}' U_{k+1} = tau2 I
    V_k' Sigma V_k = I_k

and these identities are the correctness contract tested against dense
oracles. One scaled matvec with Sigma is spent per iteration. U is always
re-orthogonalized against its earlier vectors, and that alone keeps V
Sigma-orthonormal in floating point.

Only U ((k+1) x p) and B are stored; the latent basis V (k x n) is not.
The recurrence's latent step, alpha_i v_i = A' u_i / tau2 - beta_i v_{i-1},
reads in matrix form

    V_k L_k' = A' U_k / tau2,   L_k = B[:k, :k] (lower bidiagonal),

so the latent estimate m = V_k z is A' (U_k g) / tau2 with L_k' g = z: a
bidiagonal back substitution, one product with U and one A' application.
The regularized estimate is then x* = Sigma m, one covariance matvec.
The projected system for z is tridiagonal, so :func:`solve` runs in O(k)
scalar steps.

The reductions (the re-orthogonalization coefficients U r, alpha's inner
product, beta's and ||b||'s norms, the product with U in the solve) run
through ``np.einsum`` without ``optimize``, which never calls BLAS and
sums in one fixed order; a threaded BLAS splits these sums differently
for each thread count. The re-orthogonalization's update U' c is not a
reduction over p: OpenBLAS computes each of its p outputs on one thread,
so it rounds alike under any thread count, and it runs there, where two
threads roughly halve it. Inside :func:`_blas_free`, which the bootstrap
holds around each replicate's factorization, the update is an einsum
too, so concurrent replicates never contend for the BLAS thread pool.
Either way a factorization gives bitwise the same B and U whatever the
BLAS thread count (a test pins this). The solve makes no BLAS call at
any k: its recurrences run on Python floats and its product with U is an
einsum.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .mapping import SparseMap
from .toeplitz import BttbOperator

__all__ = ["GenGKFactorization", "KrygingSolution", "gengk_factorize", "solve"]

BREAKDOWN_REL_TOL = 1e-14

_without_blas = threading.local()


@contextmanager
def _blas_free():
    """Factorize on this thread without any BLAS call until the block ends."""
    previous = getattr(_without_blas, "active", False)
    _without_blas.active = True
    try:
        yield
    finally:
        _without_blas.active = previous


def _dot(a, b) -> float:
    """Inner product of two vectors, summed without BLAS."""
    return float(np.einsum("i,i->", a, b))


@dataclass
class GenGKFactorization:
    """Output of :func:`gengk_factorize`.

    Stores the observation-space basis U and the projection B, plus the
    mapping and nugget needed to map coefficients back to the latent
    space; the latent basis is never stored.

    Attributes
    ----------
    k : int
        Effective subspace order (<= requested order on breakdown).
    beta1 : float
        Norm of the right-hand side in the noise metric, ||b||_2 / tau.
    U : ndarray, shape (p, k+1)
        Observation-space basis; the final column is zero if the
        recurrence broke down while computing it. A transposed view of
        row-major (k+1, p) storage, so each basis vector is contiguous.
    B : ndarray, shape (k+1, k)
        Bidiagonal projection with diagonals alpha and subdiagonals beta.
    amap : SparseMap
        The observation mapping the factorization was built with.
    tau2 : float
        The nugget variance it was built with.
    breakdown_at : int or None
        Iteration at which a normalizer vanished or the basis filled its
        space (n latent or p observation vectors), if any; v_{k+1} is never
        computed (B and the solve do not read it), so it cannot break down.
    """

    k: int
    beta1: float
    U: np.ndarray
    B: np.ndarray
    amap: SparseMap
    tau2: float
    breakdown_at: int | None = None


@dataclass
class KrygingSolution:
    """Regularized latent estimate and its projected coefficients.

    ``quad = ||z||^2`` approximates the covariance-weighted quadratic form
    of the latent estimate and feeds straight into the profile likelihood.
    ``m = V_k z`` is the latent estimate before the covariance matvec
    (``x_star = Sigma m``), computed without V_k (see :func:`solve`); the
    rho-gradient reuses it.
    """

    z: np.ndarray
    x_star: np.ndarray
    quad: float
    m: np.ndarray


def gengk_factorize(
    amap: SparseMap,
    sigma_op: BttbOperator,
    b: np.ndarray,
    tau2: float,
    k: int,
) -> GenGKFactorization:
    """Run k steps of generalized Golub-Kahan bidiagonalization.

    Parameters
    ----------
    amap : SparseMap
        Observation mapping, p x n.
    sigma_op : BttbOperator
        Latent covariance operator (correlation scale; the partial sill
        enters the downstream solve through the regularization).
    b : ndarray, shape (p,)
        Mean-removed observations; must not be all zero.
    tau2 : float
        Nugget variance, > 0.
    k : int
        Requested subspace order, >= 1. Truncated on breakdown.

    Each new u is re-orthogonalized against all earlier U rows in the
    noise metric. That one-sided projection also keeps V Sigma-orthonormal
    to working precision (Simon & Zha 2000), so V needs no projection of
    its own and the Krylov space's exhaustion shows up as a breakdown.
    Once n latent or p observation vectors exist, the next one must vanish,
    so the loop stops there without testing a normalizer that is only
    rounding noise. Only the latest latent vector is kept while the loop
    runs; U and B determine the rest.
    """
    b = np.asarray(b, dtype=float)
    if tau2 <= 0:
        raise ValueError(f"tau2 must be positive, got {tau2}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    bnorm = math.sqrt(_dot(b, b))
    if bnorm == 0:
        raise ValueError("right-hand side is identically zero")

    tau = math.sqrt(tau2)
    blas_free = getattr(_without_blas, "active", False)
    # one basis vector per row, so every update touches contiguous memory;
    # the loop below stops by step n or p, so a larger k allocates no more
    size = min(k, amap.n, amap.p)
    U = np.zeros((size + 1, amap.p))
    B = np.zeros((size + 1, size))
    # scratch for the terms subtracted from the latent and observation vectors
    latent, proj = np.empty(amap.n), np.empty(amap.p)

    beta1 = bnorm / tau
    np.divide(b, beta1, out=U[0])

    k_eff = k
    breakdown_at = None
    v = beta = None
    for i in range(k):
        if i == amap.n:  # v_1..v_n already span the latent space
            k_eff = breakdown_at = i
            break
        # latent step: alpha_i v_i = A' u_i / tau2 - beta_i v_{i-1}
        w = amap.apply_t(U[i])
        w /= tau2
        if v is not None:
            w -= np.multiply(v, beta, out=latent)
        t = sigma_op.matvec(w)
        alpha = math.sqrt(max(_dot(w, t), 0.0))
        if i == 0:
            tol = BREAKDOWN_REL_TOL * max(beta1, alpha, 1.0)
            if alpha <= tol:
                raise ValueError("first basis vector vanished: A^T b is zero")
        elif alpha <= tol:
            k_eff = breakdown_at = i
            break
        B[i, i] = alpha
        v = w
        v /= alpha
        t /= alpha  # Sigma @ v_i

        r = amap.apply(t)
        r -= np.multiply(U[i], alpha, out=proj)
        coef = np.einsum("ij,j->i", U[: i + 1], r)
        coef /= tau2
        if blas_free:
            np.einsum("ij,i->j", U[: i + 1], coef, out=proj)
        else:
            np.matmul(U[: i + 1].T, coef, out=proj)
        r -= proj
        beta = math.sqrt(_dot(r, r)) / tau
        if beta <= tol or i + 1 == amap.p:  # or u_1..u_p span R^p
            k_eff = breakdown_at = i + 1
            break
        B[i + 1, i] = beta
        np.divide(r, beta, out=U[i + 1])

    return GenGKFactorization(
        k=k_eff,
        beta1=beta1,
        U=U[: k_eff + 1].T,
        B=B[: k_eff + 1, :k_eff],
        amap=amap,
        tau2=tau2,
        breakdown_at=breakdown_at,
    )


def solve(
    fact: GenGKFactorization, sigma2: float, sigma_op: BttbOperator
) -> KrygingSolution:
    """Recover the regularized latent estimate from a factorization.

    Solves the k x k projected ridge system
    (B'B + I/sigma2) z = B' beta1 e1 and maps back without the latent
    basis: m = V_k z = A' (U_k g) / tau2 with L_k' g = z, L_k = B[:k, :k],
    then x* = Sigma m with one covariance matvec.

    B is lower bidiagonal (alpha_i on the diagonal, beta_{i+1} below it),
    so B'B + I/sigma2 is tridiagonal, with diagonal
    alpha_i^2 + beta_{i+1}^2 + 1/sigma2 and off-diagonal
    alpha_{i+1} beta_{i+1}, and B' beta1 e1 = beta1 alpha_1 e1. One
    LDL' elimination and one back substitution solve it, and the upper
    bidiagonal L_k' g = z is one more back substitution: O(k) scalar
    recurrences in Python floats, so no step of the solve calls BLAS at
    any k.
    """
    if sigma2 <= 0:
        raise ValueError(f"sigma2 must be positive, got {sigma2}")
    k = fact.k
    alpha = fact.B.diagonal().tolist()
    beta = fact.B.diagonal(-1).tolist()  # beta[i] sits below alpha[i]
    ridge = 1.0 / sigma2
    # forward elimination of the tridiagonal system: pivots d, right-hand side y
    d = [alpha[0] * alpha[0] + beta[0] * beta[0] + ridge]
    y = [fact.beta1 * alpha[0]]
    for i in range(1, k):
        off = alpha[i] * beta[i - 1]
        ell = off / d[i - 1]
        d.append(alpha[i] * alpha[i] + beta[i] * beta[i] + ridge - ell * off)
        y.append(-ell * y[i - 1])
    z = [0.0] * k
    g = [0.0] * k
    z[k - 1] = y[k - 1] / d[k - 1]
    g[k - 1] = z[k - 1] / alpha[k - 1]
    for i in range(k - 2, -1, -1):
        z[i] = (y[i] - alpha[i + 1] * beta[i] * z[i + 1]) / d[i]
        g[i] = (z[i] - beta[i] * g[i + 1]) / alpha[i]
    z = np.array(z)
    m = fact.amap.apply_t(np.einsum("ij,j->i", fact.U[:, :k], np.array(g)))
    m /= fact.tau2
    x_star = sigma_op.matvec(m)
    return KrygingSolution(z=z, x_star=x_star, quad=_dot(z, z), m=m)
