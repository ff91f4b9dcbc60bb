"""Batched SVD of 2x2 and 3x3 matrices.

Kernel 1 of the paper computes per-thread SVDs of the DIM x DIM Jacobian
to extract directional length scales for the artificial viscosity. We
obtain singular values/vectors from the symmetric eigendecomposition of
J^T J (right vectors V, sigma^2) and recover U = J V / sigma, with a
column-completion fallback when singular values vanish.

Conventions match `numpy.linalg.svd(..., full_matrices=False)` up to the
usual sign ambiguity, except singular values are returned *ascending* to
match our eigensolvers; `batched_svd` exposes a `descending` flag for
LAPACK-style ordering.
"""

from __future__ import annotations

import numpy as np

from repro.linalg.eig import eigvals_2x2, sym_eig_2x2, sym_eig_3x3, sym_eigvals

__all__ = ["batched_singular_values", "batched_svd"]


def _check(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] not in (2, 3):
        raise ValueError("expected batched 2x2 or 3x3 matrices")
    return a


def batched_singular_values(a: np.ndarray) -> np.ndarray:
    """Ascending singular values of (..., d, d) batches, d in {2, 3}.

    In 2D the entries of J^T J are formed elementwise and only its
    eigenvalues are computed (the CFL estimate's hot path needs one
    sigma_min per point, not a batched 2x2 matmul plus eigenvectors).
    """
    a = _check(a)
    if a.shape[-1] == 2:
        j00, j01 = a[..., 0, 0], a[..., 0, 1]
        j10, j11 = a[..., 1, 0], a[..., 1, 1]
        w = eigvals_2x2(j00 * j00 + j10 * j10, j00 * j01 + j10 * j11, j01 * j01 + j11 * j11)
    else:
        w = sym_eigvals(np.swapaxes(a, -1, -2) @ a)
    return np.sqrt(np.maximum(w, 0.0))


def batched_svd(a: np.ndarray, descending: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full SVD A = U diag(s) V^T of small square batches.

    Returns (U, s, V) — note V, not V^T. U and V are orthogonal with
    det-consistent completion when A is rank deficient.
    """
    a = _check(a)
    d = a.shape[-1]
    ata = np.swapaxes(a, -1, -2) @ a
    if d == 2:
        w, V = sym_eig_2x2(ata)
    else:
        w, V = sym_eig_3x3(ata)
    s = np.sqrt(np.maximum(w, 0.0))
    av = a @ V
    # U columns: normalize A v_i; when sigma_i ~ 0 the column is rebuilt
    # by orthogonal completion below.
    scale = np.maximum(s.max(axis=-1, keepdims=True), 1e-300)
    good = s > 1e-13 * scale
    with np.errstate(divide="ignore", invalid="ignore"):
        U = av / np.where(good[..., None, :], s[..., None, :], 1.0)
    if not good.all():
        flatU = U.reshape(-1, d, d)
        flatg = good.reshape(-1, d)
        for idx in np.flatnonzero(~flatg.all(axis=1)):
            g = flatg[idx]
            basis = [flatU[idx][:, j] for j in np.flatnonzero(g)]
            for j in np.flatnonzero(~g):
                # Gram-Schmidt a fresh column against what we have.
                for trial in np.eye(d):
                    v = trial.copy()
                    for b in basis:
                        v -= (v @ b) * b
                    nv = np.linalg.norm(v)
                    if nv > 1e-8:
                        v /= nv
                        break
                flatU[idx][:, j] = v
                basis.append(v)
        U = flatU.reshape(U.shape)
    if descending:
        U = U[..., ::-1]
        s = s[..., ::-1]
        V = V[..., ::-1]
    return U, s, V
