"""Regular lattice geometry and Matern covariance evaluation.

The latent field lives on an equispaced n1 x n2 lattice. Because the
covariance is stationary and the lattice is regular, the full covariance
matrix is block Toeplitz with Toeplitz blocks (BTTB) and is fully
determined by its first column, which this module generates along with
its derivative in the range parameter. Both have unit sill: the partial
sill sigma2 scales the covariance as a scalar, so every lattice operator
depends on the grid, rho and nu alone.

Lattice ordering convention: row-major with axis 1 fastest, i.e. the flat
index of node (j1, j2) is ``j2 * n1 + j1``. All BTTB/FFT machinery in
:mod:`kryging.toeplitz` depends on this ordering.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridSpec",
    "ThetaParams",
    "matern_corr",
    "matern_corr_drho",
    "first_column",
    "first_column_drho",
]


@dataclass(frozen=True)
class GridSpec:
    """Geometry of the regular 2-D lattice holding the latent field.

    Parameters
    ----------
    n1, n2 : int
        Number of grid points along the two axes, both >= 2. Any integer
        (a numpy one too) is stored as an int; a float raises TypeError.
    x_min, x_max, y_min, y_max : float
        Spatial extents. Axis 1 spans [x_min, x_max], axis 2 spans
        [y_min, y_max].
    """

    n1: int
    n2: int
    x_min: float = 0.0
    x_max: float = 1.0
    y_min: float = 0.0
    y_max: float = 1.0

    def __post_init__(self):
        for name in ("n1", "n2"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        if self.n1 < 2 or self.n2 < 2:
            raise ValueError(f"grid must be at least 2x2, got {self.n1}x{self.n2}")
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise ValueError("grid extents must have positive area")

    @property
    def dx1(self) -> float:
        """Spacing along axis 1."""
        return (self.x_max - self.x_min) / (self.n1 - 1)

    @property
    def dx2(self) -> float:
        """Spacing along axis 2."""
        return (self.y_max - self.y_min) / (self.n2 - 1)

    @property
    def n(self) -> int:
        """Total number of lattice nodes."""
        return self.n1 * self.n2

    def node_coords(self) -> np.ndarray:
        """All lattice nodes as an (n, 2) array in flat-index order."""
        x = self.x_min + self.dx1 * np.arange(self.n1)
        y = self.y_min + self.dx2 * np.arange(self.n2)
        xx, yy = np.meshgrid(x, y, indexing="xy")
        return np.column_stack([xx.ravel(), yy.ravel()])


@dataclass(frozen=True)
class ThetaParams:
    """Full model parameter vector: regression coefficients plus the
    Matern-plus-nugget covariance parameters.

    The precisions ``lam2 = 1/sigma2`` and ``lam_e2 = 1/tau2`` are exposed
    as properties; they are the parametrization in which the likelihood
    derivatives are simplest.
    """

    beta: np.ndarray
    sigma2: float
    tau2: float
    rho: float
    nu: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "beta", np.atleast_1d(np.asarray(self.beta, dtype=float)))
        if not np.all(np.isfinite(self.beta)):
            raise ValueError(f"beta must be finite, got {self.beta}")
        for name in ("sigma2", "tau2", "rho", "nu"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be finite and positive, got {v}")

    @property
    def lam2(self) -> float:
        """Latent-field precision 1/sigma2."""
        return 1.0 / self.sigma2

    @property
    def lam_e2(self) -> float:
        """Noise precision 1/tau2."""
        return 1.0 / self.tau2

    def to_optimizer_vector(self) -> np.ndarray:
        """Pack as [beta..., log sigma2, log tau2, log rho]."""
        return np.concatenate(
            [self.beta, [math.log(self.sigma2), math.log(self.tau2), math.log(self.rho)]]
        )

    @classmethod
    def from_optimizer_vector(cls, vec: np.ndarray, nu: float = 0.5) -> "ThetaParams":
        vec = np.asarray(vec, dtype=float)
        return cls(
            beta=vec[:-3],
            sigma2=math.exp(vec[-3]),
            tau2=math.exp(vec[-2]),
            rho=math.exp(vec[-1]),
            nu=nu,
        )


def _checked_distances(d, rho, nu) -> np.ndarray:
    """``d`` as a float array, once it and the parameters are valid."""
    if not (np.isfinite(rho) and rho > 0):
        raise ValueError(f"rho must be finite and positive, got {rho}")
    if not (np.isfinite(nu) and nu > 0):
        raise ValueError(f"nu must be finite and positive, got {nu}")
    d = np.asarray(d, dtype=float)
    if not np.all(np.isfinite(d)) or np.any(d < 0):
        raise ValueError("distances must be finite and nonnegative")
    return d


def matern_corr(d, rho: float, nu: float = 0.5):
    """Matern correlation at distance ``d``.

    Evaluates ``2^(1-nu)/Gamma(nu) * (sqrt(2 nu) d / rho)^nu *
    K_nu(sqrt(2 nu) d / rho)`` with the limit value 1 at d = 0.

    Parameters
    ----------
    d : float or ndarray
        Nonnegative distances.
    rho : float
        Spatial range, > 0.
    nu : float
        Smoothness, > 0. Closed forms are used for nu in {0.5, 1.5, 2.5};
        other values go through the modified Bessel function.
    """
    d = _checked_distances(d, rho, nu)

    if nu == 0.5:
        return np.exp(-d / rho)
    if nu == 1.5:
        u = (math.sqrt(3.0) / rho) * d
        return (1.0 + u) * np.exp(-u)
    if nu == 2.5:
        u = (math.sqrt(5.0) / rho) * d
        return (1.0 + u + u * u / 3.0) * np.exp(-u)

    from scipy import special  # loaded only for a general nu

    u = (math.sqrt(2.0 * nu) / rho) * d
    out = np.empty_like(u)
    pos = u > 0
    up = u[pos]
    coef = 2.0 ** (1.0 - nu) / special.gamma(nu)
    out[pos] = coef * up**nu * special.kv(nu, up)
    out[~pos] = 1.0
    return out if out.ndim else float(out)


def matern_corr_drho(d, rho: float, nu: float = 0.5):
    """Derivative of :func:`matern_corr` with respect to the range ``rho``.

    Uses the identity d/du [u^nu K_nu(u)] = -u^nu K_(nu-1)(u), which gives
    dC/drho = 2^(1-nu)/Gamma(nu) * u^(nu+1) K_(nu-1)(u) / rho for
    u = sqrt(2 nu) d / rho; the derivative is 0 at d = 0 where the
    correlation is pinned at 1.
    """
    d = _checked_distances(d, rho, nu)

    if nu == 0.5:
        return (d / rho**2) * np.exp(-d / rho)
    if nu == 1.5:
        u = (math.sqrt(3.0) / rho) * d
        return (u * u / rho) * np.exp(-u)
    if nu == 2.5:
        u = (math.sqrt(5.0) / rho) * d
        return (u * u / (3.0 * rho)) * (1.0 + u) * np.exp(-u)

    from scipy import special  # loaded only for a general nu

    u = (math.sqrt(2.0 * nu) / rho) * d
    out = np.zeros_like(u)
    pos = u > 0
    up = u[pos]
    coef = 2.0 ** (1.0 - nu) / special.gamma(nu)
    out[pos] = coef * up ** (nu + 1.0) * special.kv(nu - 1.0, up) / rho
    return out if out.ndim else float(out)


def _lag_distances(grid: GridSpec) -> np.ndarray:
    """Distances from node (0, 0) to every node, flat-index order."""
    dx = grid.dx1 * np.arange(grid.n1)
    dy = grid.dx2 * np.arange(grid.n2)
    return np.hypot(dx[None, :], dy[:, None]).ravel()


def first_column(grid: GridSpec, rho: float, nu: float) -> np.ndarray:
    """First column of the unit-sill lattice correlation matrix.

    Entry j is the Matern correlation between nodes 0 and j, in flat-index
    order (axis 1 fastest); entry 0 is 1. This single column determines
    the whole BTTB matrix.
    """
    return matern_corr(_lag_distances(grid), rho, nu)


def first_column_drho(grid: GridSpec, rho: float, nu: float) -> np.ndarray:
    """First column of d(correlation)/d(rho) on the lattice."""
    return matern_corr_drho(_lag_distances(grid), rho, nu)
