"""Sparse mapping from irregular observation locations to the lattice.

Each observation is a convex combination of the latent values at the
(at most four) corners of the grid cell containing it, weighted by the
compactly supported Wendland kernel evaluated on a per-axis scaled
Chebyshev distance and normalized to sum to one. A point exactly on a
node maps to that node with weight 1, so co-located data reduces to a
row-selection matrix.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .grid import GridSpec

__all__ = ["wendland", "SparseMap", "build_map", "LocationError"]


class LocationError(ValueError):
    """Raised for observation locations outside the lattice extents."""


def wendland(d):
    """Wendland weight (1 - d)^4 (1 + 4 d) for d < 1, else 0."""
    d = np.asarray(d, dtype=float)
    w = np.where(d < 1.0, (1.0 - d) ** 4 * (1.0 + 4.0 * d), 0.0)
    return w if w.ndim else float(w)


class SparseMap:
    """Observation-to-lattice mapping in compressed sparse row form.

    Wraps a scipy CSR matrix of shape (p, n) whose rows are convex
    weights: nonnegative, summing to one, with at most four nonzeros.
    A CSR copy of the transpose is built once at construction and serves
    :meth:`apply_t`, so treat ``matrix`` as immutable.
    """

    def __init__(self, matrix: sparse.csr_matrix):
        self.matrix = sparse.csr_matrix(matrix)
        self.p, self.n = self.matrix.shape
        self._matrix_t = self.matrix.T.tocsr()

    @classmethod
    def selection(cls, indices: np.ndarray, n: int) -> "SparseMap":
        """Row-selection map for observations co-located with lattice
        nodes ``indices`` (an identity matrix with rows removed)."""
        indices = np.asarray(indices, dtype=int)
        p = indices.size
        mat = sparse.csr_matrix(
            (np.ones(p), (np.arange(p), indices)), shape=(p, n)
        )
        return cls(mat)

    @classmethod
    def identity(cls, n: int) -> "SparseMap":
        return cls.selection(np.arange(n), n)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """A @ v, lattice to observations."""
        v = np.asarray(v)
        if v.shape[0] != self.n:
            raise ValueError(f"expected length {self.n}, got {v.shape}")
        return self.matrix @ v

    def apply_t(self, u: np.ndarray) -> np.ndarray:
        """A.T @ u, observations to lattice."""
        u = np.asarray(u)
        if u.shape[0] != self.p:
            raise ValueError(f"expected length {self.p}, got {u.shape}")
        return self._matrix_t @ u

    def toarray(self) -> np.ndarray:
        return self.matrix.toarray()


# relative tolerance, in grid spacings, for a point to count as on a node
# or inside the extents
_NODE_TOL = 1e-9


def _snap(g: np.ndarray) -> np.ndarray:
    """Round cell coordinates within _NODE_TOL of an integer onto it."""
    nearest = np.round(g)
    return np.where(np.abs(g - nearest) <= _NODE_TOL, nearest, g)


def build_map(locations: np.ndarray, grid: GridSpec) -> SparseMap:
    """Build the Wendland mapping for ``locations`` on ``grid``.

    Parameters
    ----------
    locations : ndarray, shape (p, 2)
        Observation coordinates, all inside the grid extents.
    grid : GridSpec
        Latent lattice.

    Returns
    -------
    SparseMap
        Row i holds the normalized Wendland weights of observation i over
        the corners of its cell. Points on a node get a single unit
        weight; points on a cell edge get the two supporting nodes.

    Raises
    ------
    LocationError
        If any location falls outside the extents (reported by index);
        weights are convex only inside the lattice.
    """
    locations = np.atleast_2d(np.asarray(locations, dtype=float))
    if locations.shape[1] != 2:
        raise ValueError("locations must be (p, 2)")
    if not np.all(np.isfinite(locations)):
        raise LocationError("non-finite coordinates in locations")

    eps1 = _NODE_TOL * grid.dx1
    eps2 = _NODE_TOL * grid.dx2
    bad = np.nonzero(
        (locations[:, 0] < grid.x_min - eps1)
        | (locations[:, 0] > grid.x_max + eps1)
        | (locations[:, 1] < grid.y_min - eps2)
        | (locations[:, 1] > grid.y_max + eps2)
    )[0]
    if bad.size:
        raise LocationError(
            f"{bad.size} locations outside grid extents, first offenders: {bad[:5].tolist()}"
        )

    p = locations.shape[0]
    # fractional cell coordinates, snapped to a node within the extent
    # tolerance so on-node points keep a single unit weight; clip so
    # boundary points use the last cell
    g1 = np.clip(_snap((locations[:, 0] - grid.x_min) / grid.dx1), 0.0, grid.n1 - 1)
    g2 = np.clip(_snap((locations[:, 1] - grid.y_min) / grid.dx2), 0.0, grid.n2 - 1)
    i1 = np.minimum(g1.astype(int), grid.n1 - 2)
    i2 = np.minimum(g2.astype(int), grid.n2 - 2)

    # scaled Chebyshev distances to the four cell corners
    f1 = g1 - i1  # in [0, 1]
    f2 = g2 - i2
    d = np.empty((p, 4))
    d[:, 0] = np.maximum(f1, f2)  # corner (i1, i2)
    d[:, 1] = np.maximum(1.0 - f1, f2)  # corner (i1+1, i2)
    d[:, 2] = np.maximum(f1, 1.0 - f2)  # corner (i1, i2+1)
    d[:, 3] = np.maximum(1.0 - f1, 1.0 - f2)  # corner (i1+1, i2+1)
    w = wendland(d)
    rowsum = w.sum(axis=1)
    # preconditions guarantee every point has at least one corner with d < 1
    w /= rowsum[:, None]

    cols = np.empty((p, 4), dtype=int)
    cols[:, 0] = i2 * grid.n1 + i1
    cols[:, 1] = i2 * grid.n1 + i1 + 1
    cols[:, 2] = (i2 + 1) * grid.n1 + i1
    cols[:, 3] = (i2 + 1) * grid.n1 + i1 + 1

    keep = w > 0
    rows = np.repeat(np.arange(p), keep.sum(axis=1))
    mat = sparse.csr_matrix((w[keep], (rows, cols[keep])), shape=(p, grid.n))
    return SparseMap(mat)
