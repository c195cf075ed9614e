"""FFT-accelerated operations on symmetric BTTB covariance matrices.

A stationary covariance on a regular n1 x n2 lattice is block Toeplitz
with Toeplitz blocks and embeds in a block-circulant (BCCB) matrix of
size (2*n1 - 1) x (2*n2 - 1) blocks, which the 2-D DFT diagonalizes.
That embedding gives O(n log n) matrix-vector products, a log-determinant
approximation over the leading n1 x n2 frequencies, its range-parameter
derivative, and exact Gaussian sampling. The embedding is real and even
in both axes, so its spectrum is real and even too, and real transforms
compute one quarter of it. Of the minimal embedding's spectrum an
operator stores only that quarter: n2 x n1 values, every distinct
eigenvalue, and exactly the leading block the log-determinant reads.
Sampling unfolds it along one axis only. The padded matvec spectrum is
stored in rfft2 layout.

The minimal (2*n_i - 1) embedding is mandatory for the log-determinant
(the frequency-subset rule depends on it); matrix-vector products run on
a padded fast-length embedding, which changes speed only, never the
extracted lattice values. Each matvec runs a pruned transform on that
fast-length layout: the row transforms touch only the lattice's own rows
on the way in and out. The transforms write into per-thread scratch kept
on the operator, so a matvec allocates only the vector it returns, and
threads may share one operator.

Every transform is ``np.fft`` (pocketfft, as in ``scipy.fft``), and the
fast lengths come from a private 5-smooth search, so the module needs no
scipy import.
"""

from __future__ import annotations

import threading

import numpy as np

from .grid import GridSpec, first_column, first_column_drho

__all__ = ["BttbOperator", "EmbeddingError", "dlogdet_drho"]

# Relative floor applied to negative/near-zero embedding eigenvalues so the
# log-determinant stays finite; see the clamping notes in the README.
CLAMP_FLOOR_REL = 1e-12

# Beyond this clamped fraction of the embedding spectrum, the
# log-determinant, its rho-derivative and sampling refuse the operator.
CLAMP_FAIL_FRACTION = 0.05


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
    rows = np.zeros((n2, m1))
    rows[:, :n1] = base
    rows[:, m1 - n1 + 1 :] = base[:, :0:-1]
    half = np.fft.rfft(rows, axis=1).real
    cols = np.zeros((m2, half.shape[1]))
    cols[:n2] = half
    cols[m2 - n2 + 1 :] = half[:0:-1]
    return np.fft.rfft(cols, axis=0).real


def _next_fast_len(n: int) -> int:
    """Smallest 5-smooth number (2^a 3^b 5^c) >= n: the transform
    lengths pocketfft runs fastest for real input."""
    best = 1 << (n - 1).bit_length()  # the power of two at or above n
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # smallest power of two times p35 that reaches n
            p2 = 1 << (-(-n // p35) - 1).bit_length()
            best = min(best, p2 * p35)
            p35 *= 3
        p5 *= 5
    return best


def _unfold(q: np.ndarray, m: int) -> np.ndarray:
    """Extend frequencies 0..m//2 along axis 0 to all m of an even
    spectrum, where frequency k equals frequency m - k."""
    return np.concatenate([q, q[m - q.shape[0] : 0 : -1]])


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

    Any spectrum builds an operator, and matvecs stay exact however much
    of it was clamped. The readers of the clamped spectrum,
    :meth:`logdet`, :func:`dlogdet_drho` and :meth:`sample`, raise
    :class:`EmbeddingError` when more than ``CLAMP_FAIL_FRACTION`` of it
    was clamped, or when an unclamped spectrum has a nonpositive
    eigenvalue.

    The operator stores the clamped n2 x n1 quarter of the
    minimal-embedding spectrum (n floats) and the padded rfft2 spectrum
    of its matvecs (about 2n floats). ``clamp_count`` counts the clamped
    eigenvalues of the full (2*n2-1) x (2*n1-1) spectrum, which is never
    built.
    """

    def __init__(self, grid: GridSpec, first_col: np.ndarray, clamp: bool = True):
        first_col = np.asarray(first_col, dtype=float)
        if first_col.shape != (grid.n,):
            raise ValueError(f"first_col must have length {grid.n}, got {first_col.shape}")
        self.grid = grid
        self.embed_dims = (2 * grid.n1 - 1, 2 * grid.n2 - 1)

        base = first_col.reshape(grid.n2, grid.n1)
        m1, m2 = self.embed_dims
        # both embedding lengths are odd, so the quarter is (n2, n1) and
        # holds each of its entries once, twice (rest of the zero row and
        # column) or four times in the full spectrum; copied, as the real
        # part is a view that would keep the complex transform alive
        quarter = _quarter_spectrum(base, m1, m2).copy()

        self.clamp_count = 0
        if clamp:
            top = quarter.max()
            if not top > 0:
                raise EmbeddingError("no positive eigenvalue in the circulant embedding")
            floor = CLAMP_FLOOR_REL * top
            below = quarter < floor
            self.clamp_count = int(
                4 * below.sum() - 2 * below[0].sum() - 2 * below[:, 0].sum() + below[0, 0]
            )
            quarter[below] = floor
        self._quarter = quarter

        # padded fast-length spectrum for matvecs only
        f1 = _next_fast_len(m1)
        f2 = _next_fast_len(m2)
        self._fast_dims = (f1, f2)
        # rfft2 layout: every axis-0 frequency, axis-1 frequencies 0..f1//2
        self._fast_eigs = _unfold(_quarter_spectrum(base, f1, f2), f2)
        self._scratch = threading.local()

    @classmethod
    def from_matern(cls, grid: GridSpec, rho: float, nu: float) -> "BttbOperator":
        return cls(grid, first_column(grid, rho, nu))

    @classmethod
    def from_matern_drho(cls, grid: GridSpec, rho: float, nu: float) -> "BttbOperator":
        return cls(grid, first_column_drho(grid, rho, nu), clamp=False)

    @property
    def clamp_fraction(self) -> float:
        return self.clamp_count / (self.embed_dims[0] * self.embed_dims[1])

    def _check_trustworthy(self):
        """Fail unless the stored spectrum is a covariance's: too much of it
        was clamped, or, unclamped, it has a nonpositive eigenvalue. A
        clamped spectrum is at least the floor everywhere."""
        if self.clamp_fraction > CLAMP_FAIL_FRACTION:
            raise EmbeddingError(
                f"{self.clamp_count} embedding eigenvalues "
                f"({100 * self.clamp_fraction:.2f}%) below the positive floor "
                f"exceeds the {100 * CLAMP_FAIL_FRACTION:.1f}% threshold; "
                f"range parameter likely too large for this grid"
            )
        if not self._quarter.min() > 0:
            raise EmbeddingError("nonpositive eigenvalues in an unclamped embedding spectrum")

    def _workspace(self) -> tuple:
        """This thread's spectrum and field arrays for :meth:`matvec`."""
        arrays = getattr(self._scratch, "arrays", None)
        if arrays is None:
            f1, f2 = self._fast_dims
            arrays = self._scratch.arrays = (
                np.empty((f2, f1 // 2 + 1), dtype=complex),
                np.empty((self.grid.n2, f1)),
            )
        return arrays

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """Product of the BTTB matrix with ``v`` via circulant embedding."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self.grid.n,):
            raise ValueError(f"vector must have length {self.grid.n}, got {v.shape}")
        n1, n2 = self.grid.n1, self.grid.n2
        f1 = self._fast_dims[0]
        spec, field = self._workspace()
        # pruned 2-D transform: only the n2 nonzero rows go through the row
        # transforms in either direction; the column transforms run in place
        np.fft.rfft(v.reshape(n2, n1), n=f1, axis=1, out=spec[:n2])
        spec[n2:] = 0.0
        np.fft.fft(spec, axis=0, out=spec)
        spec *= self._fast_eigs
        np.fft.ifft(spec, axis=0, out=spec)
        np.fft.irfft(spec[:n2], n=f1, axis=1, out=field)
        return field[:, :n1].flatten()

    def logdet(self) -> float:
        """Log-determinant approximation from the embedding spectrum.

        Sums the logs of the n1 x n2 leading-frequency eigenvalues of the
        (2*n1-1) x (2*n2-1) BCCB embedding. Exact asymptotically; the
        error shrinks as the grid grows. Fails on an untrustworthy
        embedding.
        """
        self._check_trustworthy()
        return float(np.log(self._quarter).sum())

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
        still drawn in full, so the generator advances as it always has,
        but one at a time: each is folded into the half spectrum and
        freed before the next is drawn. Fails on an untrustworthy
        embedding.
        """
        self._check_trustworthy()
        rng = np.random.default_rng(rng)
        m1, m2 = self.embed_dims
        h1 = m1 // 2 + 1
        # frequency -k of each kept frequency k, in both axes
        neg = np.ix_(-np.arange(m2) % m2, -np.arange(h1) % m1)
        h = np.empty((m2, h1), dtype=complex)
        a = rng.standard_normal((m2, m1))
        np.add(a[:, :h1], a[neg], out=h.real)
        h.real /= 2
        del a
        b = rng.standard_normal((m2, m1))
        np.subtract(b[:, :h1], b[neg], out=h.imag)
        h.imag /= 2
        del b
        h *= np.sqrt(_unfold(self._quarter, m2))
        rows = np.fft.ifft(h, axis=0, out=h)[: self.grid.n2]
        field = np.fft.irfft(rows, n=m1, axis=1)[:, : self.grid.n1]
        return (field * np.sqrt(m2 * m1)).ravel()


def dlogdet_drho(op: BttbOperator, dop: BttbOperator) -> float:
    """Derivative of the log-determinant approximation in rho.

    Computes trace(D1^-1 D2) over the same leading n1 x n2 frequency
    subset used by :meth:`BttbOperator.logdet`, where D1 and D2 are the
    embedding spectra of the covariance and its rho-derivative. Both
    operators must be built on the same grid, and ``op``'s embedding
    must be trustworthy.
    """
    if dop.grid != op.grid:
        raise ValueError("derivative operator built on a different grid")
    op._check_trustworthy()
    return float((dop._quarter / op._quarter).sum())
