"""Sparse mapping from irregular observation locations to the lattice.

Each observation is a convex combination of the latent values at the
(at most four) corners of the grid cell containing it, weighted by the
compactly supported Wendland kernel evaluated on a per-axis scaled
Chebyshev distance and normalized to sum to one. A point exactly on a
node maps to that node with weight 1, so co-located data reduces to a
row-selection matrix.

The map is held as numpy CSR arrays. A row selection applies by
indexing, which is exact and needs no scipy; any other map applies
through scipy's CSR product, so only off-node locations import
``scipy.sparse``.
"""

from __future__ import annotations

import numpy as np

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

    Holds the CSR arrays ``data``, ``indices`` and ``indptr`` of a (p, n)
    matrix whose rows are convex weights: nonnegative, summing to one,
    with at most four nonzeros. When every row is a single unit weight
    on a node of its own (co-located data), ``apply`` gathers and
    ``apply_t`` scatters by node index. Any other map runs both through
    :attr:`matrix`.
    """

    def __init__(self, data, indices, indptr, shape: tuple):
        self.data = np.asarray(data, dtype=float)
        self.indices = np.asarray(indices)
        self.indptr = np.asarray(indptr)
        self.p, self.n = shape
        selection = (
            np.array_equal(self.indptr, np.arange(self.p + 1))
            and bool(np.all(self.data == 1.0))
            and np.bincount(self.indices, minlength=self.n).max(initial=0) <= 1
        )
        # numpy gathers and scatters by intp indices about twice as fast
        self._nodes = self.indices.astype(np.intp) if selection else None
        self._matrix = None

    @property
    def matrix(self):
        """The map as a scipy CSR matrix over the same arrays, built (and
        ``scipy.sparse`` imported) on first use."""
        # threads that race here each build an equal wrapper; one is kept
        if self._matrix is None:
            from scipy import sparse

            self._matrix = sparse.csr_matrix(
                (self.data, self.indices, self.indptr), shape=(self.p, self.n)
            )
        return self._matrix

    def apply(self, v: np.ndarray) -> np.ndarray:
        """A @ v, lattice to observations."""
        v = np.asarray(v)
        if v.shape[0] != self.n:
            raise ValueError(f"expected length {self.n}, got {v.shape}")
        if self._nodes is None:
            return self.matrix @ v
        out = v.take(self._nodes, axis=0)
        return out.astype(np.result_type(out, self.data), copy=False)

    def apply_t(self, u: np.ndarray) -> np.ndarray:
        """A.T @ u, observations to lattice."""
        u = np.asarray(u)
        if u.shape[0] != self.p:
            raise ValueError(f"expected length {self.p}, got {u.shape}")
        if self._nodes is None:
            return self.matrix.T @ u
        out = np.zeros((self.n, *u.shape[1:]), dtype=np.result_type(u, self.data))
        out[self._nodes] = u
        return out


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

    # int32 indices where they fit, as scipy would choose, so that
    # SparseMap.matrix wraps these arrays without a copy
    keep = w > 0
    index = np.int32 if max(4 * p, grid.n) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(p + 1, dtype=index)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    return SparseMap(w[keep], cols[keep].astype(index), indptr, (p, grid.n))
