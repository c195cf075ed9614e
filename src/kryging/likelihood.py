"""Approximate profile log-likelihood, gradient, and Hessian estimates.

The latent field is profiled out of the Gaussian log-likelihood and
replaced by its Krylov-subspace estimate, the covariance-weighted
quadratic form by the squared norm of the projected coefficients, and
the log-determinant by the BCCB frequency-subset approximation. The
gradient uses the analytic score in the precision parametrization
(lam2 = 1/sigma2, lam_e2 = 1/tau2) chain-ruled into optimizer space
(beta raw, variances and range log-transformed).

Two Hessian estimates are available: a rank-one outer product of the
gradient (the default used inside the trust-region fit) and an optional
full approximation that replaces the profiled-state posterior covariance
by its low-rank Krylov representation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gengk import GenGKFactorization, KrygingSolution, gengk_factorize, solve
from .grid import (
    GridSpec,
    MaternSpec,
    ThetaParams,
    first_column_d2rho,
)
from .mapping import SparseMap
from .toeplitz import DEFAULT_CLAMP_FAIL_FRACTION, BttbOperator, dlogdet_drho

__all__ = [
    "ModelData",
    "ObjectiveState",
    "profile_loglik",
    "gradient",
    "hessian_rank_one",
    "hessian_full_approx",
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
    """One evaluation of the negative approximate profile log-likelihood."""

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


def profile_loglik(
    data: ModelData,
    theta: ThetaParams,
    k: int,
    reorthogonalize: bool = False,
    op: BttbOperator | None = None,
) -> ObjectiveState:
    """Evaluate the negative approximate profile log-likelihood.

    Runs the Golub-Kahan factorization on b = y - X beta, recovers the
    latent estimate, and assembles (up to an additive constant)

        value = (p/2) log tau2 + psi'psi / (2 tau2)
              + (n/2) log sigma2 + logdet/2 + ||z||^2 / (2 sigma2)

    which is minimized during fitting. Embedding failures propagate with
    clamp diagnostics attached.
    """
    if op is None:
        op = correlation_operator(data, theta)
    op.require_trustworthy()
    b = data.y - data.X @ theta.beta

    if np.linalg.norm(b) == 0.0:
        fact = None
        sol = _zero_solution(data)
    else:
        fact = gengk_factorize(
            data.amap, op, b, theta.tau2, k, reorthogonalize=reorthogonalize
        )
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
    op: BttbOperator | None = None,
    dop: BttbOperator | None = None,
    dlogdet: float | None = None,
) -> np.ndarray:
    """Gradient of the negative objective in optimizer space.

    Components are ordered [beta..., log sigma2, log tau2, log rho]. The
    score in the precision parametrization is

        d pl / d beta    = lam_e2 X' psi
        d pl / d lam2    = n / (2 lam2) - ||z||^2 / 2
        d pl / d rho     = -dlogdet/2 + (lam2/2) m' dSigma m,  m = V z
        d pl / d lam_e2  = p / (2 lam_e2) - psi'psi / 2

    and the log transforms contribute factors -lam2, -lam_e2 and rho.
    ``solution`` and ``fact`` must come from the same theta. The
    rho-derivative trace ``dlogdet`` is computed from the derivative
    operator unless supplied.
    """
    lam2, lam_e2 = theta.lam2, theta.lam_e2
    psi = solution.psi_star
    psi2 = float(psi @ psi)

    if dlogdet is None:
        if op is None:
            op = correlation_operator(data, theta)
        if dop is None:
            dop = derivative_operator(data, theta)
        dlogdet = dlogdet_drho(op, dop)

    if fact is not None and solution.z.size:
        if dop is None:
            dop = derivative_operator(data, theta)
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


def evaluate_objective(
    data: ModelData,
    theta: ThetaParams,
    k: int,
    reorthogonalize: bool = False,
) -> ObjectiveState:
    """Objective value and gradient in one pass, sharing the operators."""
    op = correlation_operator(data, theta)
    state = profile_loglik(data, theta, k, reorthogonalize=reorthogonalize, op=op)
    dop = derivative_operator(data, theta)
    dld = dlogdet_drho(op, dop)
    state.grad = gradient(
        data, theta, state.solution, state.fact, op=op, dop=dop, dlogdet=dld
    )
    state.diagnostics["dlogdet"] = dld
    return state


def hessian_rank_one(grad: np.ndarray, ridge: float = 0.0) -> np.ndarray:
    """Rank-one Hessian estimate g g' (+ ridge I).

    The outer product of the score estimates the information matrix, so
    for the minimized negative objective this is a PSD model Hessian.
    """
    g = np.asarray(grad, dtype=float)
    if not np.all(np.isfinite(g)):
        raise ValueError("gradient must be finite")
    h = np.outer(g, g)
    if ridge:
        h[np.diag_indices_from(h)] += ridge
    return h


def _d2_logdet_fd(data: ModelData, theta: ThetaParams, rel_step: float = 1e-4) -> float:
    """Central finite difference of the log-determinant rho-derivative."""
    h = rel_step * theta.rho
    vals = []
    for rho in (theta.rho + h, theta.rho - h):
        spec = MaternSpec(1.0, rho, data.nu)
        op = BttbOperator.from_matern(data.grid, spec)
        dop = BttbOperator.from_matern_drho(data.grid, spec)
        vals.append(dlogdet_drho(op, dop))
    return (vals[0] - vals[1]) / (2.0 * h)


def hessian_full_approx(
    data: ModelData,
    theta: ThetaParams,
    fact: GenGKFactorization,
    solution: KrygingSolution,
    op: BttbOperator | None = None,
    dop: BttbOperator | None = None,
    d2l: float | None = None,
) -> np.ndarray:
    """Full approximate Hessian of the profile log-likelihood.

    Entries are second derivatives with respect to
    (beta..., lam2, lam_e2, rho), assembled from the factorization by
    replacing the profiled-state posterior covariance with its low-rank
    representation

        Gamma ~= (Sigma - Z D Z') / lam2,   Z = Sigma V W,

    where W Theta W' diagonalizes B'B and D has entries
    theta_i / (theta_i + lam2). At full subspace order this reproduces
    the dense posterior covariance exactly.

    ``d2l`` is the second rho-derivative of the log-determinant; a
    central finite difference of the derivative trace is used when it is
    not supplied. Off the default fitting path.
    """
    if op is None:
        op = correlation_operator(data, theta)
    if dop is None:
        dop = derivative_operator(data, theta)
    lam2, lam_e2, rho = theta.lam2, theta.lam_e2, theta.rho
    X, A = data.X, data.amap
    n, p, q = data.n, data.p, data.X.shape[1]

    z = solution.z
    z0 = solution.psi_star
    V = fact.Vk
    U = fact.U
    B = fact.B
    theta_eig, W = np.linalg.eigh(B.T @ B)
    delta = theta_eig / (theta_eig + lam2)

    def proj(mcols: np.ndarray) -> np.ndarray:
        """W diag(delta) W' applied columnwise."""
        return W @ (delta[:, None] * (W.T @ mcols))

    def proj_vec(vec: np.ndarray) -> np.ndarray:
        return W @ (delta * (W.T @ vec))

    m = solution.m
    d2op = BttbOperator(
        data.grid, first_column_d2rho(data.grid, MaternSpec(1.0, rho, data.nu)), clamp=False
    )
    u_d = dop.matvec(m)  # dSigma (V z)
    u_2 = d2op.matvec(m)
    vtu = V.T @ u_d

    # Sigma-weighted crossproducts
    S_AtX = op.matmat(np.column_stack([A.apply_t(X[:, j]) for j in range(q)]))
    ASAtX = A.apply(S_AtX)  # (p, q)
    ASAtz0 = A.apply(op.matvec(A.apply_t(z0)))

    T1 = (X.T @ U) @ B  # (q, k)
    BtUtz0 = B.T @ (U.T @ z0)  # (k,)
    Ax_star = A.apply(solution.x_star)

    dim = q + 3
    H = np.zeros((dim, dim))
    iL, iE, iR = q, q + 1, q + 2  # lam2, lam_e2, rho

    # beta block
    H[:q, :q] = -lam_e2 * (X.T @ X) + (lam_e2**2 / lam2) * (
        X.T @ ASAtX - T1 @ proj(T1.T)
    )
    H[:q, iL] = (lam_e2 / lam2) * (X.T @ Ax_star - T1 @ proj_vec(z))
    H[:q, iE] = X.T @ z0 - (lam_e2 / lam2) * (
        X.T @ ASAtz0 - T1 @ proj_vec(BtUtz0)
    )
    H[:q, iR] = -lam_e2 * (X.T @ A.apply(u_d)) + lam_e2 * (T1 @ proj_vec(vtu))

    # lam2 block
    H[iL, iL] = -n / (2.0 * lam2**2) + (float(z @ z) - float(z @ proj_vec(z))) / lam2
    H[iL, iE] = -(float(z @ BtUtz0) - float(proj_vec(z) @ BtUtz0)) / lam2
    H[iL, iR] = -0.5 * float(m @ u_d) + float(vtu @ proj_vec(z))

    # lam_e2 block
    H[iE, iE] = -p / (2.0 * lam_e2**2) + (
        float(z0 @ ASAtz0) - float(BtUtz0 @ proj_vec(BtUtz0))
    ) / lam2
    H[iE, iR] = float(u_d @ A.apply_t(z0)) - float(vtu @ proj_vec(BtUtz0))

    # rho block
    if d2l is None:
        d2l = _d2_logdet_fd(data, theta)
    H[iR, iR] = (
        -0.5 * d2l
        + 0.5 * lam2 * float(m @ u_2)
        - lam2 * float(vtu @ proj_vec(vtu))
    )

    return np.triu(H) + np.triu(H, 1).T
