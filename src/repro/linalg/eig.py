"""Batched symmetric eigendecomposition of 2x2 and 3x3 matrices.

The tensor artificial viscosity evaluates, at every quadrature point, the
eigenvalues and eigenvectors of the symmetrized velocity gradient — the
per-thread workload of the paper's kernel 2. We use closed forms: the
quadratic formula in 2D and the trigonometric (Smith) method in 3D, with
a LAPACK fallback on the (measure-zero) batches where the analytic
eigenvector construction degenerates.

Eigenvalues are returned in ascending order; eigenvectors are the columns
of the returned matrix, matching `numpy.linalg.eigh` conventions so the
two paths are drop-in interchangeable in tests.
"""

from __future__ import annotations

import numpy as np

__all__ = ["eigvals_2x2", "sym_eig_2x2", "sym_eig_3x3", "sym_eigvals"]


def _check_sym(a: np.ndarray, d: int) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim < 2 or a.shape[-2:] != (d, d):
        raise ValueError(f"expected (..., {d}, {d}) matrices")
    return a


def eigvals_2x2(a00: np.ndarray, a01: np.ndarray, a11: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues (..., 2) of symmetric 2x2 batches given by
    their entries (quadratic formula; no eigenvectors are formed)."""
    mean = 0.5 * (a00 + a11)
    half_diff = 0.5 * (a00 - a11)
    radius = np.sqrt(half_diff * half_diff + a01 * a01)
    return np.stack([mean - radius, mean + radius], axis=-1)


def sym_eig_2x2(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of symmetric 2x2 batches.

    Returns (w, V) with w ascending (..., 2) and V (..., 2, 2) whose
    columns are unit eigenvectors.
    """
    a = _check_sym(a, 2)
    a00 = a[..., 0, 0]
    a01 = 0.5 * (a[..., 0, 1] + a[..., 1, 0])
    a11 = a[..., 1, 1]
    w = eigvals_2x2(a00, a01, a11)
    # Eigenvector for the larger eigenvalue: (a01, w_max - a00) or
    # (w_max - a11, a01); pick the better-conditioned of the two.
    wmax = w[..., 1]
    v1 = np.stack([a01, wmax - a00], axis=-1)
    v2 = np.stack([wmax - a11, a01], axis=-1)
    n1 = np.linalg.norm(v1, axis=-1)
    n2 = np.linalg.norm(v2, axis=-1)
    use2 = n2 > n1
    v = np.where(use2[..., None], v2, v1)
    n = np.where(use2, n2, n1)
    # Degenerate (a already diagonal with equal entries): any basis works.
    tiny = n < 1e-300
    v = np.where(tiny[..., None], np.broadcast_to([1.0, 0.0], v.shape), v)
    n = np.where(tiny, 1.0, n)
    v = v / n[..., None]
    V = np.empty(a.shape)
    # Column 1 = eigenvector of w_max; column 0 orthogonal to it.
    V[..., 0, 1] = v[..., 0]
    V[..., 1, 1] = v[..., 1]
    V[..., 0, 0] = -v[..., 1]
    V[..., 1, 0] = v[..., 0]
    return w, V


def _eigvals_3x3(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of symmetric 3x3 batches (Smith's method)."""
    a00 = a[..., 0, 0]
    a11 = a[..., 1, 1]
    a22 = a[..., 2, 2]
    a01 = 0.5 * (a[..., 0, 1] + a[..., 1, 0])
    a02 = 0.5 * (a[..., 0, 2] + a[..., 2, 0])
    a12 = 0.5 * (a[..., 1, 2] + a[..., 2, 1])
    q = (a00 + a11 + a22) / 3.0
    b00, b11, b22 = a00 - q, a11 - q, a22 - q
    p2 = (b00 * b00 + b11 * b11 + b22 * b22 + 2.0 * (a01 * a01 + a02 * a02 + a12 * a12)) / 6.0
    p = np.sqrt(np.maximum(p2, 0.0))
    # det(B)/2 with B = A - q I
    detB = (
        b00 * (b11 * b22 - a12 * a12)
        - a01 * (a01 * b22 - a12 * a02)
        + a02 * (a01 * a12 - b11 * a02)
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(p > 0.0, detB / (2.0 * p**3), 0.0)
    r = np.clip(r, -1.0, 1.0)
    phi = np.arccos(r) / 3.0
    w2 = q + 2.0 * p * np.cos(phi)
    w0 = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
    w1 = 3.0 * q - w0 - w2
    return np.stack([w0, w1, w2], axis=-1)


def sym_eig_3x3(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of symmetric 3x3 batches.

    Analytic eigenvalues everywhere; eigenvectors from cross products of
    the rows of (A - w I), falling back to numpy.linalg.eigh on batches
    where eigenvalues cluster (relative gap < 1e-6) or the cross products
    collapse.
    """
    a = _check_sym(a, 3)
    sym = 0.5 * (a + np.swapaxes(a, -1, -2))
    w = _eigvals_3x3(sym)
    flat = sym.reshape(-1, 3, 3)
    wf = w.reshape(-1, 3)
    n = flat.shape[0]
    V = np.empty((n, 3, 3))
    scale = np.maximum(np.abs(wf).max(axis=-1), 1e-300)
    gap01 = (wf[:, 1] - wf[:, 0]) / scale
    gap12 = (wf[:, 2] - wf[:, 1]) / scale
    degenerate = (gap01 < 1e-6) | (gap12 < 1e-6)
    ok = ~degenerate
    if ok.any():
        m = flat[ok]
        for col, which in ((0, 0), (2, 2)):
            b = m - wf[ok, which, None, None] * np.eye(3)
            # Cross products of row pairs all lie along the eigenvector.
            c0 = np.cross(b[:, 0], b[:, 1])
            c1 = np.cross(b[:, 0], b[:, 2])
            c2 = np.cross(b[:, 1], b[:, 2])
            cs = np.stack([c0, c1, c2], axis=1)
            norms = np.linalg.norm(cs, axis=-1)
            best = norms.argmax(axis=1)
            vec = cs[np.arange(cs.shape[0]), best]
            nv = norms[np.arange(cs.shape[0]), best]
            bad = nv < 1e-300
            if bad.any():
                degenerate_idx = np.flatnonzero(ok)[bad]
                degenerate[degenerate_idx] = True
            nv = np.where(bad, 1.0, nv)
            V[ok, :, col] = vec / nv[:, None]
        # Middle eigenvector: orthogonal completion keeps V orthonormal.
        V[ok, :, 1] = np.cross(V[ok, :, 2], V[ok, :, 0])
    still_ok = ~degenerate
    if degenerate.any():
        wd, Vd = np.linalg.eigh(flat[degenerate])
        wf[degenerate] = wd
        V[degenerate] = Vd
    # Re-orthonormalize the analytic columns (guards roundoff drift).
    if still_ok.any():
        v0 = V[still_ok, :, 0]
        v2 = V[still_ok, :, 2]
        v2 = v2 - (np.sum(v2 * v0, axis=-1, keepdims=True)) * v0
        v2 /= np.linalg.norm(v2, axis=-1, keepdims=True)
        V[still_ok, :, 2] = v2
        V[still_ok, :, 1] = np.cross(v2, v0)
    return wf.reshape(w.shape), V.reshape(a.shape)


def sym_eigvals(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of symmetric 2x2 or 3x3 batches."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError("expected batched square matrices")
    d = a.shape[-1]
    if d == 2:
        return eigvals_2x2(a[..., 0, 0], 0.5 * (a[..., 0, 1] + a[..., 1, 0]), a[..., 1, 1])
    if d == 3:
        sym = 0.5 * (a + np.swapaxes(a, -1, -2))
        return _eigvals_3x3(sym)
    raise ValueError("only 2x2 and 3x3 supported")
