"""Synthetic dataset generation on a lattice.

Draws a zero-mean stationary field by circulant embedding, adds the
constant mean and Gaussian nugget noise, and optionally thins to an
irregular point set. All randomness flows from one seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .grid import GridSpec, ThetaParams
from .toeplitz import BttbOperator

__all__ = ["SimulatedField", "simulate_dataset"]


@dataclass
class SimulatedField:
    """A simulated realization: the full lattice truth plus the observed
    (possibly thinned) dataset."""

    x: np.ndarray  # latent field on the full lattice
    y: np.ndarray  # noisy observations on the full lattice
    dataset: Dataset  # observed rows (thinned when requested)


def simulate_dataset(
    grid: GridSpec,
    theta: ThetaParams,
    seed: int = 0,
    thin_fraction: float = 0.0,
) -> SimulatedField:
    """Simulate observations y = beta + x + noise on ``grid``.

    The latent field x is an exact draw from the stationary model via
    circulant embedding. With ``thin_fraction`` t > 0, a uniformly random
    (1 - t) share of the lattice rows is kept, producing an irregularly
    spaced dataset relative to any coarser modeling grid; a fraction that
    would keep no node raises ValueError.
    """
    if not 0.0 <= thin_fraction < 1.0:
        raise ValueError("thin_fraction must be in [0, 1)")
    keep = round(grid.n * (1.0 - thin_fraction))
    if keep == 0:
        raise ValueError(f"thin fraction {thin_fraction} keeps no node of the "
                         f"{grid.n1}x{grid.n2} grid")
    rng = np.random.default_rng(seed)
    op = BttbOperator.from_matern(grid, theta.rho, theta.nu)
    x = np.sqrt(theta.sigma2) * op.sample(rng)
    noise = np.sqrt(theta.tau2) * rng.standard_normal(grid.n)
    y = theta.beta[0] + x + noise

    kept = np.arange(grid.n)
    if thin_fraction > 0.0:
        kept = np.sort(rng.choice(grid.n, size=keep, replace=False))

    coords = grid.node_coords()
    dataset = Dataset(
        locations=coords[kept],
        y=y[kept],
        X=np.ones((kept.size, 1)),
        covariate_names=("intercept",),
    )
    return SimulatedField(x=x, y=y, dataset=dataset)
