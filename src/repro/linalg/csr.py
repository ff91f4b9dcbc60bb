"""Compressed sparse row matrix with vectorized SpMV.

The kinematic mass matrix M_V of eq. (1) is global, symmetric and sparse;
the paper applies it through CUSPARSE's CSR SpMV (kernel 11 and the inner
loop of the CUDA-PCG kernel 9). This module is our from-scratch CSR: COO
assembly with duplicate summation, O(nnz) vectorized matvec, and the
diagnostics (diagonal extraction, symmetry check) the PCG layer needs.
"""

from __future__ import annotations

import numpy as np

__all__ = ["CSRMatrix"]


class CSRMatrix:
    """Square or rectangular CSR matrix over float64.

    Parameters are the classic three arrays. Rows are `indptr.size - 1`;
    column indices within a row are kept sorted (canonical form) so that
    structural comparisons and transpose round-trips are deterministic.
    """

    def __init__(self, data: np.ndarray, indices: np.ndarray, indptr: np.ndarray, shape: tuple[int, int]):
        self.data = np.asarray(data, dtype=np.float64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.shape = (int(shape[0]), int(shape[1]))
        if self.indptr.size != self.shape[0] + 1:
            raise ValueError("indptr length must be nrows + 1")
        if self.data.shape != self.indices.shape:
            raise ValueError("data and indices must have equal length")
        if self.indptr[0] != 0 or self.indptr[-1] != self.data.size:
            raise ValueError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if self.data.size and (self.indices.min() < 0 or self.indices.max() >= self.shape[1]):
            raise ValueError("column index out of range")
        # Row structure for `matvec`'s segmented sum, fixed at construction.
        self._row_has = np.diff(self.indptr) > 0
        self._row_starts = self.indptr[:-1][self._row_has]

    # -- Construction --------------------------------------------------------

    @classmethod
    def from_coo(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        shape: tuple[int, int],
        prune_tol: float = 0.0,
    ) -> "CSRMatrix":
        """Build from COO triplets, summing duplicate (row, col) entries.

        `prune_tol` drops entries with |value| <= tol after summation
        (useful to keep assembled mass matrices at their true stencil).
        """
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        vals = np.asarray(vals, dtype=np.float64).ravel()
        if not (rows.size == cols.size == vals.size):
            raise ValueError("rows, cols, vals must have equal length")
        nrows, ncols = int(shape[0]), int(shape[1])
        if rows.size:
            if rows.min() < 0 or rows.max() >= nrows:
                raise ValueError("row index out of range")
            if cols.min() < 0 or cols.max() >= ncols:
                raise ValueError("column index out of range")
        # Sort by (row, col) and sum runs of identical keys.
        key = rows * ncols + cols
        order = np.argsort(key, kind="stable")
        key = key[order]
        vals = vals[order]
        if key.size:
            first = np.empty(key.size, dtype=bool)
            first[0] = True
            np.not_equal(key[1:], key[:-1], out=first[1:])
            starts = np.flatnonzero(first)
            summed = np.add.reduceat(vals, starts)
            ukey = key[starts]
        else:
            summed = vals
            ukey = key
        if prune_tol > 0.0 and summed.size:
            keep = np.abs(summed) > prune_tol
            summed = summed[keep]
            ukey = ukey[keep]
        urows = ukey // ncols
        ucols = ukey % ncols
        indptr = np.zeros(nrows + 1, dtype=np.int64)
        np.add.at(indptr, urows + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(summed, ucols, indptr, (nrows, ncols))

    @classmethod
    def from_dense(cls, dense: np.ndarray, prune_tol: float = 0.0) -> "CSRMatrix":
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise ValueError("dense must be 2D")
        mask = np.abs(dense) > prune_tol
        rows, cols = np.nonzero(mask)
        return cls.from_coo(rows, cols, dense[rows, cols], dense.shape)

    @classmethod
    def identity(cls, n: int) -> "CSRMatrix":
        idx = np.arange(n, dtype=np.int64)
        return cls(np.ones(n), idx, np.arange(n + 1, dtype=np.int64), (n, n))

    # -- Properties -----------------------------------------------------------

    @property
    def nnz(self) -> int:
        return int(self.data.size)

    @property
    def nrows(self) -> int:
        return self.shape[0]

    @property
    def ncols(self) -> int:
        return self.shape[1]

    # -- Core kernels ----------------------------------------------------------

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """y = A @ x, vectorized over the nonzeros (the SpMV kernel)."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.ncols,):
            raise ValueError(f"x must have shape ({self.ncols},)")
        prod = self.data * x[self.indices]
        y = np.zeros(self.nrows)
        if prod.size:
            y[self._row_has] = np.add.reduceat(prod, self._row_starts)
        return y

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """x = A.T @ y without forming the transpose."""
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (self.nrows,):
            raise ValueError(f"y must have shape ({self.nrows},)")
        row_ids = np.repeat(np.arange(self.nrows), np.diff(self.indptr))
        out = np.zeros(self.ncols)
        np.add.at(out, self.indices, self.data * y[row_ids])
        return out

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.matvec(x)

    def diagonal(self) -> np.ndarray:
        """Extract the main diagonal (zeros where structurally absent)."""
        n = min(self.shape)
        diag = np.zeros(n)
        row_ids = np.repeat(np.arange(self.nrows), np.diff(self.indptr))
        hit = (row_ids == self.indices) & (row_ids < n)
        diag[row_ids[hit]] = self.data[hit]
        return diag

    def transpose(self) -> "CSRMatrix":
        row_ids = np.repeat(np.arange(self.nrows), np.diff(self.indptr))
        return CSRMatrix.from_coo(self.indices, row_ids, self.data, (self.ncols, self.nrows))

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        row_ids = np.repeat(np.arange(self.nrows), np.diff(self.indptr))
        out[row_ids, self.indices] = self.data
        return out

    def is_symmetric(self, tol: float = 1e-12) -> bool:
        if self.nrows != self.ncols:
            return False
        t = self.transpose()
        if t.nnz != self.nnz:
            return False
        return (
            np.array_equal(t.indptr, self.indptr)
            and np.array_equal(t.indices, self.indices)
            and bool(np.allclose(t.data, self.data, atol=tol, rtol=tol))
        )

    def scale_rows(self, s: np.ndarray) -> "CSRMatrix":
        """Return diag(s) @ A."""
        s = np.asarray(s, dtype=np.float64)
        if s.shape != (self.nrows,):
            raise ValueError("scale vector length mismatch")
        row_ids = np.repeat(np.arange(self.nrows), np.diff(self.indptr))
        return CSRMatrix(self.data * s[row_ids], self.indices.copy(), self.indptr.copy(), self.shape)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CSRMatrix(shape={self.shape}, nnz={self.nnz})"
