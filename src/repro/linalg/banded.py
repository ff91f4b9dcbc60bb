"""Block-tridiagonal Cholesky of a banded SPD matrix.

The kinematic mass matrix is constant for a whole run and, in the
natural (lexicographic) dof order, banded: its half-bandwidth is about
one grid row of nodes. Cutting the rows into blocks at least as wide as
the band makes the matrix block-tridiagonal, so one Cholesky sweep over
the blocks factors it and every later solve is two sweeps of small
dense matmuls — applied to all right-hand-side columns at once.

The factor stores, per block row, the inverse of the diagonal L block
and the sub-diagonal L block. Storage is (2 nblocks - 1) * bs^2
doubles, about 2 n * bandwidth; `BandCholesky.nbytes` gives it before
anything is allocated, so callers can price the factor first.
"""

from __future__ import annotations

import numpy as np

from repro.linalg.csr import CSRMatrix

__all__ = ["BandCholesky", "half_bandwidth"]

# Floor on the block size: a narrow band would otherwise mean many tiny
# blocks, and the sweeps' per-block call overhead would dominate.
_MIN_BLOCK = 32


def half_bandwidth(a: CSRMatrix) -> int:
    """max |i - j| over the stored entries a_ij."""
    if a.nnz == 0:
        return 0
    rows = np.repeat(np.arange(a.nrows), np.diff(a.indptr))
    return int(np.max(np.abs(rows - a.indices)))


def _band_layout(a: CSRMatrix) -> tuple[int, int]:
    """(nblocks, block_size) with block_size >= the half-bandwidth.

    The block count is as large as the band allows, and the size the
    smallest that covers n with that many blocks, so the zero padding
    after row n stays under one row per block.
    """
    n = a.nrows
    nblocks = max(n // max(half_bandwidth(a), _MIN_BLOCK), 1)
    return nblocks, -(-n // nblocks)


class BandCholesky:
    """A = L L^T for a symmetric positive definite banded `CSRMatrix`."""

    def __init__(self, a: CSRMatrix):
        if a.nrows != a.ncols:
            raise ValueError("matrix must be square")
        n = a.nrows
        nb, bs = _band_layout(a)
        self.n, self.nblocks, self.block_size = n, nb, bs
        # Dense diagonal blocks D_i and sub-diagonal blocks E_i =
        # A[block i+1, block i]; the upper blocks are E_i^T by symmetry.
        # Padding rows past n get a unit diagonal (an identity tail).
        diag = np.zeros((nb, bs, bs))
        sub = np.zeros((max(nb - 1, 0), bs, bs))
        rows = np.repeat(np.arange(n), np.diff(a.indptr))
        cols = a.indices
        bi, bj = rows // bs, cols // bs
        on, below = bi == bj, bi == bj + 1
        diag[bi[on], rows[on] % bs, cols[on] % bs] = a.data[on]
        sub[bj[below], rows[below] % bs, cols[below] % bs] = a.data[below]
        pad = np.arange(n, nb * bs)
        diag[pad // bs, pad % bs, pad % bs] = 1.0
        # In place: diag[i] becomes L_ii^{-1}, sub[i] becomes
        # L_{i+1,i} = E_i L_ii^{-T}, from L_ii L_ii^T = D_i - L_{i,i-1} L_{i,i-1}^T.
        for i in range(nb):
            d = diag[i] if i == 0 else diag[i] - sub[i - 1] @ sub[i - 1].T
            diag[i] = np.linalg.inv(np.linalg.cholesky(d))
            if i + 1 < nb:
                sub[i] = sub[i] @ diag[i].T
        self.inv_diag = diag
        self.sub = sub

    @staticmethod
    def nbytes(a: CSRMatrix) -> int:
        """Bytes the factor of `a` will hold, computed without building it."""
        nb, bs = _band_layout(a)
        return 8 * (2 * nb - 1) * bs * bs

    def solve_flops(self, ncols: int) -> int:
        """Flops of one `solve` with `ncols` right-hand-side columns."""
        return 4 * (2 * self.nblocks - 1) * self.block_size**2 * ncols

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with A x = b; b is (n,) or (n, k), and x has b's shape."""
        b = np.asarray(b, dtype=np.float64)
        if b.ndim not in (1, 2) or b.shape[0] != self.n:
            raise ValueError(f"b must be ({self.n},) or ({self.n}, k)")
        k = 1 if b.ndim == 1 else b.shape[1]
        inv, low = self.inv_diag, self.sub
        y = np.zeros((self.nblocks, self.block_size, k))
        y.reshape(-1, k)[: self.n] = b.reshape(self.n, k)
        # Forward sweep L y = b, then backward L^T x = y, in place.
        y[0] = inv[0] @ y[0]
        for i in range(1, self.nblocks):
            y[i] = inv[i] @ (y[i] - low[i - 1] @ y[i - 1])
        y[-1] = inv[-1].T @ y[-1]
        for i in range(self.nblocks - 2, -1, -1):
            y[i] = inv[i].T @ (y[i] - low[i].T @ y[i + 1])
        return y.reshape(-1, k)[: self.n].reshape(b.shape)
