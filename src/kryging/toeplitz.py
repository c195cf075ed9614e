"""FFT-accelerated operations on symmetric BTTB covariance matrices.

A stationary covariance on a regular n1 x n2 lattice is block Toeplitz
with Toeplitz blocks and embeds in a block-circulant (BCCB) matrix of
size (2*n1 - 1) x (2*n2 - 1) blocks, which the 2-D DFT diagonalizes.
That embedding gives O(n log n) matrix-vector products, a log-determinant
approximation over the leading n1 x n2 frequencies, its range-parameter
derivative, and exact Gaussian sampling. The embedding is real and even
in both axes, so its spectrum is real and even too: each operator
computes one quarter of it with real transforms and mirrors the rest.

The minimal (2*n_i - 1) embedding is mandatory for the log-determinant
(the frequency-subset rule depends on it); matrix-vector products run on
a padded fast-length embedding, which changes speed only, never the
extracted lattice values. Each matvec runs a pruned transform on that
fast-length layout: the zero padding is never materialized, and the row
transforms touch only the lattice's own rows on the way in and out.
"""

from __future__ import annotations

import numpy as np
from scipy import fft as sfft

from .grid import GridSpec, MaternSpec, first_column, first_column_drho

__all__ = ["BttbOperator", "EmbeddingError", "dlogdet_drho"]

# Relative floor applied to negative/near-zero embedding eigenvalues so the
# log-determinant stays finite; see the clamping notes in the README.
CLAMP_FLOOR_REL = 1e-12

# Beyond this clamped fraction the embedding is considered untrustworthy.
DEFAULT_CLAMP_FAIL_FRACTION = 0.05


class EmbeddingError(RuntimeError):
    """Raised when a positive-definite circulant embedding is unavailable
    or too many eigenvalues had to be clamped for results to be trusted."""


def _quarter_spectrum(base: np.ndarray, m1: int, m2: int) -> np.ndarray:
    """Spectrum of the (m2, m1) circulant embedding of the (n2, n1) lag
    array at frequencies 0..m2//2 by 0..m1//2.

    The embedding is real and even in both axes, so its spectrum is too,
    and two real transforms give this quarter: one along axis 1 of the n2
    base rows only (the mirrored rows have the same transform), then one
    along axis 0 of the even column sequence built from those rows.
    """
    n2, n1 = base.shape
    if m1 < 2 * n1 - 1 or m2 < 2 * n2 - 1:
        raise ValueError("embedding dimensions too small for exact products")
    rows = np.zeros((n2, m1))
    rows[:, :n1] = base
    rows[:, m1 - n1 + 1 :] = base[:, :0:-1]
    half = sfft.rfft(rows, axis=1).real
    cols = np.zeros((m2, half.shape[1]))
    cols[:n2] = half
    cols[m2 - n2 + 1 :] = half[:0:-1]
    return sfft.rfft(cols, axis=0).real


def _unfold(q: np.ndarray, m: int, axis: int) -> np.ndarray:
    """Extend frequencies 0..m//2 along ``axis`` to all m of an even
    spectrum, where frequency k equals frequency m - k."""
    h = q.shape[axis]
    tail = q[m - h : 0 : -1] if axis == 0 else q[:, m - h : 0 : -1]
    return np.concatenate([q, tail], axis=axis)


class BttbOperator:
    """Symmetric BTTB matrix defined by its first column on a lattice.

    Parameters
    ----------
    grid : GridSpec
        Lattice geometry; fixes n1, n2 and the flat-index ordering.
    first_col : ndarray, shape (n1*n2,)
        First column of the BTTB matrix (axis 1 fastest).
    clamp : bool
        Apply the eigenvalue floor to the embedding spectrum. Covariance
        operators use True; derivative operators (whose embedding spectrum
        is legitimately signed) use False.
    clamp_fail_fraction : float
        Maximum tolerated fraction of clamped eigenvalues before sampling
        and likelihood use refuse to proceed.
    """

    def __init__(
        self,
        grid: GridSpec,
        first_col: np.ndarray,
        clamp: bool = True,
        clamp_fail_fraction: float = DEFAULT_CLAMP_FAIL_FRACTION,
    ):
        first_col = np.asarray(first_col, dtype=float)
        if first_col.shape != (grid.n,):
            raise ValueError(f"first_col must have length {grid.n}, got {first_col.shape}")
        self.grid = grid
        self.first_col = first_col
        self.embed_dims = (2 * grid.n1 - 1, 2 * grid.n2 - 1)
        self.clamp_fail_fraction = clamp_fail_fraction

        base = first_col.reshape(grid.n2, grid.n1)
        m1, m2 = self.embed_dims
        eig = _unfold(_unfold(_quarter_spectrum(base, m1, m2), m2, 0), m1, 1)

        self.clamp_count = 0
        if clamp:
            top = eig.max()
            if not top > 0:
                raise EmbeddingError("no positive eigenvalue in the circulant embedding")
            floor = CLAMP_FLOOR_REL * top
            below = eig < floor
            self.clamp_count = int(below.sum())
            eig = np.where(below, floor, eig)
        self.eigs = eig

        # padded fast-length spectrum for matvecs only
        f1 = sfft.next_fast_len(m1, real=True)
        f2 = sfft.next_fast_len(m2, real=True)
        self._fast_dims = (f1, f2)
        # rfft2 layout: every axis-0 frequency, axis-1 frequencies 0..f1//2
        self._fast_eigs = _unfold(_quarter_spectrum(base, f1, f2), f2, 0)

    @classmethod
    def from_matern(cls, grid: GridSpec, spec: MaternSpec, **kwargs) -> "BttbOperator":
        return cls(grid, first_column(grid, spec), **kwargs)

    @classmethod
    def from_matern_drho(cls, grid: GridSpec, spec: MaternSpec, **kwargs) -> "BttbOperator":
        kwargs.setdefault("clamp", False)
        return cls(grid, first_column_drho(grid, spec), **kwargs)

    @property
    def clamp_fraction(self) -> float:
        return self.clamp_count / self.eigs.size

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """Product of the BTTB matrix with ``v`` via circulant embedding."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self.grid.n,):
            raise ValueError(f"vector must have length {self.grid.n}, got {v.shape}")
        n1, n2 = self.grid.n1, self.grid.n2
        f1, f2 = self._fast_dims
        # pruned 2-D transform: the zero padding stays implicit, so only the
        # n2 nonzero rows go through the row transforms in either direction
        spec = sfft.fft(sfft.rfft(v.reshape(n2, n1), n=f1, axis=1), n=f2, axis=0)
        spec *= self._fast_eigs
        rows = sfft.ifft(spec, axis=0, overwrite_x=True)[:n2]
        return sfft.irfft(rows, n=f1, axis=1)[:, :n1].ravel()

    def logdet(self) -> float:
        """Log-determinant approximation from the embedding spectrum.

        Sums the logs of the n1 x n2 leading-frequency eigenvalues of the
        (2*n1-1) x (2*n2-1) BCCB embedding. Exact asymptotically; the
        error shrinks as the grid grows.
        """
        sub = self._leading_eigs()
        if np.any(sub <= 0):
            raise EmbeddingError(
                f"nonpositive eigenvalues in log-determinant subset "
                f"(clamp_count={self.clamp_count})"
            )
        return float(np.log(sub).sum())

    def _leading_eigs(self) -> np.ndarray:
        return self.eigs[: self.grid.n2, : self.grid.n1]

    def require_trustworthy(self):
        """Fail when too much of the spectrum was clamped."""
        if self.clamp_fraction > self.clamp_fail_fraction:
            raise EmbeddingError(
                f"{self.clamp_count} embedding eigenvalues "
                f"({100 * self.clamp_fraction:.2f}%) below the positive floor "
                f"exceeds the {100 * self.clamp_fail_fraction:.1f}% threshold; "
                f"range parameter likely too large for this grid"
            )

    def sample(self, rng) -> np.ndarray:
        """One exact draw from N(0, Sigma) by circulant embedding.

        ``rng`` is an integer seed or a numpy Generator. Complex standard
        normals a + ib over the whole embedding are scaled by the square
        root of the embedding spectrum, and the real part of their inverse
        transform is kept on the lattice block. Because the spectrum is
        even, that real part is the transform of the Hermitian part
        sqrt(lam) (a_even + i b_odd), so only the non-negative axis-1
        frequencies are transformed: ``ifft`` along axis 0 keeping the
        lattice rows, then ``irfft`` along axis 1. Both normal arrays are
        still drawn in full, so the generator advances as it always has.
        Fails when the clamped fraction exceeds the operator's threshold.
        """
        self.require_trustworthy()
        rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
        m2, m1 = self.eigs.shape
        a = rng.standard_normal((m2, m1))
        b = rng.standard_normal((m2, m1))
        # frequency -k of each kept frequency k, in both axes
        neg = np.ix_(-np.arange(m2) % m2, -np.arange(m1 // 2 + 1) % m1)
        half = (slice(None), slice(0, m1 // 2 + 1))
        h = np.sqrt(np.maximum(self.eigs[half], 0.0)) * (
            (a[half] + a[neg]) / 2 + 1j * ((b[half] - b[neg]) / 2)
        )
        rows = sfft.ifft(h, axis=0, overwrite_x=True)[: self.grid.n2]
        field = sfft.irfft(rows, n=m1, axis=1)[:, : self.grid.n1]
        return (field * np.sqrt(m2 * m1)).ravel()


def dlogdet_drho(op: BttbOperator, dop: BttbOperator) -> float:
    """Derivative of the log-determinant approximation in rho.

    Computes trace(D1^-1 D2) over the same leading n1 x n2 frequency
    subset used by :meth:`BttbOperator.logdet`, where D1 and D2 are the
    embedding spectra of the covariance and its rho-derivative. Both
    operators must be built on the same grid.
    """
    if dop.grid != op.grid:
        raise ValueError("derivative operator built on a different grid")
    n1, n2 = op.grid.n1, op.grid.n2
    d1 = op.eigs[:n2, :n1]
    d2 = dop.eigs[:n2, :n1]
    if np.any(d1 <= 0):
        raise EmbeddingError(
            f"nonpositive eigenvalues in derivative trace (clamp_count={op.clamp_count})"
        )
    return float((d2 / d1).sum())
