"""Approximate profile log-likelihood and its gradient.

The latent field is profiled out of the Gaussian log-likelihood and
replaced by its Krylov-subspace estimate, the covariance-weighted
quadratic form by the squared norm of the projected coefficients, and
the log-determinant by the BCCB frequency-subset approximation. The
gradient uses the analytic score in the precision parametrization
(lam2 = 1/sigma2, lam_e2 = 1/tau2) chain-ruled into optimizer space
(beta raw, variances and range log-transformed).

:func:`evaluate_objective` builds the correlation and derivative
operators once and returns the value and the gradient together; the fit
calls it at every trial point. :func:`profile_loglik` and
:func:`gradient` expose its two halves on their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gengk import GenGKFactorization, KrygingSolution, gengk_factorize, solve
from .grid import GridSpec, MaternSpec, ThetaParams
from .mapping import SparseMap
from .toeplitz import DEFAULT_CLAMP_FAIL_FRACTION, BttbOperator, dlogdet_drho

__all__ = [
    "ModelData",
    "ObjectiveState",
    "evaluate_objective",
    "profile_loglik",
    "gradient",
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
    clamp_fail_fraction: float = DEFAULT_CLAMP_FAIL_FRACTION

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

    ``fact`` is the Golub-Kahan factorization behind ``solution``;
    :func:`evaluate_objective` drops it (None) once the solution is
    formed, so a fit holds one factorization at a time.
    """

    theta: ThetaParams
    value: float
    solution: KrygingSolution
    fact: GenGKFactorization | None
    grad: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)


def correlation_operator(data: ModelData, theta: ThetaParams) -> BttbOperator:
    """BTTB operator of the unit-sill Matern correlation at theta."""
    return BttbOperator.from_matern(
        data.grid,
        MaternSpec(1.0, theta.rho, data.nu),
        clamp_fail_fraction=data.clamp_fail_fraction,
    )


def derivative_operator(data: ModelData, theta: ThetaParams) -> BttbOperator:
    """BTTB operator of the rho-derivative of the correlation."""
    return BttbOperator.from_matern_drho(data.grid, MaternSpec(1.0, theta.rho, data.nu))


def _zero_solution(data: ModelData) -> KrygingSolution:
    return KrygingSolution(
        z=np.zeros(0),
        x_star=np.zeros(data.n),
        quad=0.0,
        psi_star=np.zeros(data.p),
    )


def profile_loglik(data: ModelData, theta: ThetaParams, k: int) -> ObjectiveState:
    """Evaluate the negative approximate profile log-likelihood.

    Runs the Golub-Kahan factorization on b = y - X beta, recovers the
    latent estimate, and assembles (up to an additive constant)

        value = (p/2) log tau2 + psi'psi / (2 tau2)
              + (n/2) log sigma2 + logdet/2 + ||z||^2 / (2 sigma2)

    which is minimized during fitting. Embedding failures propagate with
    clamp diagnostics attached.
    """
    return _profile_state(data, theta, correlation_operator(data, theta), k)


def _profile_state(
    data: ModelData, theta: ThetaParams, op: BttbOperator, k: int
) -> ObjectiveState:
    """:func:`profile_loglik` on a prebuilt correlation operator ``op``."""
    op.require_trustworthy()
    b = data.y - data.X @ theta.beta

    if np.linalg.norm(b) == 0.0:
        fact = None
        sol = _zero_solution(data)
    else:
        fact = gengk_factorize(data.amap, op, b, theta.tau2, k)
        sol = solve(fact, theta.sigma2, op, data.amap, b)

    ld = op.logdet()
    psi2 = float(sol.psi_star @ sol.psi_star)
    value = 0.5 * (
        data.p * math.log(theta.tau2)
        + psi2 / theta.tau2
        + data.n * math.log(theta.sigma2)
        + ld
        + sol.quad / theta.sigma2
    )
    return ObjectiveState(
        theta=theta,
        value=value,
        solution=sol,
        fact=fact,
        diagnostics={
            "logdet": ld,
            "clamp_count": op.clamp_count,
            "clamp_fraction": op.clamp_fraction,
            "k_effective": fact.k if fact is not None else 0,
        },
    )


def gradient(
    data: ModelData,
    theta: ThetaParams,
    solution: KrygingSolution,
    fact: GenGKFactorization | None,
    dlogdet: float,
) -> np.ndarray:
    """Gradient of the negative objective in optimizer space.

    Components are ordered [beta..., log sigma2, log tau2, log rho]. The
    score in the precision parametrization is

        d pl / d beta    = lam_e2 X' psi
        d pl / d lam2    = n / (2 lam2) - ||z||^2 / 2
        d pl / d rho     = -dlogdet/2 + (lam2/2) m' dSigma m,  m = V z
        d pl / d lam_e2  = p / (2 lam_e2) - psi'psi / 2

    and the log transforms contribute factors -lam2, -lam_e2 and rho.
    ``solution`` must come from the same theta; ``m`` is read from it, so
    ``fact`` is not needed and may be None. The rho-derivative trace
    ``dlogdet`` (see :func:`dlogdet_drho`) must be supplied for the same
    theta.
    """
    return _score(data, theta, solution, derivative_operator(data, theta), dlogdet)


def _score(
    data: ModelData,
    theta: ThetaParams,
    solution: KrygingSolution,
    dop: BttbOperator,
    dlogdet: float,
) -> np.ndarray:
    """:func:`gradient` on a prebuilt derivative operator ``dop``."""
    lam2, lam_e2 = theta.lam2, theta.lam_e2
    psi = solution.psi_star
    psi2 = float(psi @ psi)

    if solution.m is not None:
        dsig_quad = float(solution.m @ dop.matvec(solution.m))
    else:
        dsig_quad = 0.0

    d_beta = lam_e2 * (data.X.T @ psi)
    d_lam2 = data.n / (2.0 * lam2) - 0.5 * solution.quad
    d_rho = -0.5 * dlogdet + 0.5 * lam2 * dsig_quad
    d_lam_e2 = data.p / (2.0 * lam_e2) - 0.5 * psi2

    # chain rule into [beta, log sigma2, log tau2, log rho] for -pl
    return np.concatenate(
        [
            -d_beta,
            [lam2 * d_lam2, lam_e2 * d_lam_e2, -theta.rho * d_rho],
        ]
    )


def evaluate_objective(data: ModelData, theta: ThetaParams, k: int) -> ObjectiveState:
    """Objective value and gradient in one pass, sharing the operators.

    The returned state keeps the solution but not the factorization
    (``fact`` is None): the gradient reads only the solution, and a fit
    holding the accepted state would otherwise keep its basis alive
    while the trial point builds another.
    """
    op = correlation_operator(data, theta)
    state = _profile_state(data, theta, op, k)
    state.fact = None
    dop = derivative_operator(data, theta)
    dld = dlogdet_drho(op, dop)
    state.grad = _score(data, theta, state.solution, dop, dld)
    state.diagnostics["dlogdet"] = dld
    return state

