"""Approximate profile log-likelihood and its gradient.

The latent field is profiled out of the Gaussian log-likelihood and
replaced by its Krylov-subspace estimate, the covariance-weighted
quadratic form by the squared norm of the projected coefficients, and
the log-determinant by the BCCB frequency-subset approximation. The
gradient uses the analytic score in the precision parametrization
(lam2 = 1/sigma2, lam_e2 = 1/tau2) chain-ruled into optimizer space
(beta raw, variances and range log-transformed).

:func:`evaluate_objective` is the one evaluation path: the value from
the Golub-Kahan solve and the log-determinant, then the score from the
derivative operator. The fit calls it at every trial point. Both
operators have unit sill, as sigma2 enters the objective as a scalar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gengk import KrygingSolution, _dot, gengk_factorize, solve
from .grid import GridSpec, ThetaParams
from .mapping import SparseMap
from .toeplitz import BttbOperator, dlogdet_drho

__all__ = [
    "ModelData",
    "ObjectiveState",
    "evaluate_objective",
]


@dataclass(frozen=True)
class ModelData:
    """Observations bound to a latent lattice: responses, covariates,
    observation mapping, and grid geometry."""

    y: np.ndarray
    X: np.ndarray
    amap: SparseMap
    grid: GridSpec
    nu: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        object.__setattr__(self, "X", np.atleast_2d(np.asarray(self.X, dtype=float)))
        if self.X.shape[0] != self.y.size:
            raise ValueError("X and y row counts differ")
        for name, arr in (("y", self.y), ("X", self.X)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite values in {name}")
        if self.amap.p != self.y.size or self.amap.n != self.grid.n:
            raise ValueError("mapping shape inconsistent with data and grid")

    @property
    def p(self) -> int:
        return self.y.size

    @property
    def n(self) -> int:
        return self.grid.n


@dataclass
class ObjectiveState:
    """One evaluation of the negative approximate profile log-likelihood.

    The Golub-Kahan factorization behind ``solution`` is not kept, so a
    fit holds one factorization at a time.
    """

    theta: ThetaParams
    value: float
    solution: KrygingSolution
    grad: np.ndarray
    diagnostics: dict


def evaluate_objective(data: ModelData, theta: ThetaParams, k: int) -> ObjectiveState:
    """Negative approximate profile log-likelihood and its gradient.

    Solves for the latent estimate x* from b = y - X beta, forms the
    residual psi = b - A x*, and assembles (up to an additive constant)

        value = (p/2) log tau2 + psi'psi / (2 tau2)
              + (n/2) log sigma2 + logdet/2 + ||z||^2 / (2 sigma2)

    which is minimized during fitting. The gradient, ordered
    [beta..., log sigma2, log tau2, log rho], comes from the score in
    the precision parametrization

        d pl / d beta    = lam_e2 X' psi
        d pl / d lam2    = n / (2 lam2) - ||z||^2 / 2
        d pl / d rho     = -dlogdet/2 + (lam2/2) m' dSigma m,  m = V z
        d pl / d lam_e2  = p / (2 lam_e2) - psi'psi / 2

    with the log transforms contributing factors -lam2, -lam_e2 and rho;
    dlogdet is the rho-derivative of the log-determinant approximation
    (see :func:`dlogdet_drho`). The log-determinant is taken first, so an
    untrustworthy embedding raises :class:`EmbeddingError`, with its clamp
    counts in the message, before any matvec runs. A residual with
    A' b = 0 (b = 0 included) factorizes with k = 0, and its estimate
    x* = 0 is exact (see :func:`gengk_factorize`), so psi = b. The inner
    products and X' psi are einsum sums, like those of the Golub-Kahan
    solve, so the value and gradient are bitwise the same under any BLAS
    thread count.
    """
    op = BttbOperator.from_matern(data.grid, theta.rho, data.nu)
    ld = op.logdet()
    b = data.y - data.X @ theta.beta

    fact = gengk_factorize(data.amap, op, b, theta.tau2, k)
    k_eff = fact.k
    sol = solve(fact, theta.sigma2, op)
    del fact  # the basis is not needed past the solve
    psi = b - data.amap.apply(sol.x_star)
    psi2 = _dot(psi, psi)
    value = 0.5 * (
        data.p * math.log(theta.tau2)
        + psi2 / theta.tau2
        + data.n * math.log(theta.sigma2)
        + ld
        + sol.quad / theta.sigma2
    )

    dop = BttbOperator.from_matern_drho(data.grid, theta.rho, data.nu)
    dld = dlogdet_drho(op, dop)
    lam2, lam_e2 = theta.lam2, theta.lam_e2
    dsig_quad = _dot(sol.m, dop.matvec(sol.m))
    d_beta = lam_e2 * np.einsum("ij,i->j", data.X, psi)
    d_lam2 = data.n / (2.0 * lam2) - 0.5 * sol.quad
    d_rho = -0.5 * dld + 0.5 * lam2 * dsig_quad
    d_lam_e2 = data.p / (2.0 * lam_e2) - 0.5 * psi2
    # chain rule into [beta, log sigma2, log tau2, log rho] for -pl
    grad = np.concatenate([-d_beta, [lam2 * d_lam2, lam_e2 * d_lam_e2, -theta.rho * d_rho]])
    diagnostics = {
        "logdet": ld, "clamp_count": op.clamp_count, "clamp_fraction": op.clamp_fraction,
        "k_effective": k_eff, "dlogdet": dld,
    }
    return ObjectiveState(theta, value, sol, grad, diagnostics)
