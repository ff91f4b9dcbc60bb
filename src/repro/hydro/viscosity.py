"""Tensor artificial viscosity.

Following the paper's reference scheme (Dobrev, Kolev & Rieben, SIAM
J. Sci. Comp. 2012), shocks are captured by adding a tensor viscous
stress built, at every quadrature point, from the eigendecomposition of
the symmetrized velocity gradient:

    eps(v) = sum_k  lambda_k  s_k s_k^T           (eigenpairs)
    sigma_visc = sum_k  mu_k  lambda_k  s_k s_k^T

with a directional coefficient active only in compressing directions
(lambda_k < 0):

    mu_k = rho ( q2 * l_k^2 * |lambda_k| + q1 * psi_k * l_k * c_s )

l_k is the zone length scale *in the direction s_k*, measured through
the Jacobian: l_k = |J s_hat_k| / order with s_hat_k the unit reference
direction mapping to s_k. This per-point eigen/length-scale evaluation
is the SVD-and-eigenvalue workload the paper assigns to kernels 1-2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.linalg.eig import sym_eig_2x2, sym_eig_3x3
from repro.linalg.smallmat import batched_inverse

__all__ = [
    "ViscosityCoefficients",
    "ViscosityKernel",
    "tensor_viscosity",
    "directional_length",
]


@dataclass(frozen=True)
class ViscosityCoefficients:
    """Tunable q1 (linear) and q2 (quadratic) coefficients.

    Defaults follow the reference scheme: q1 = 0.5, q2 = 2.0. `use_cs`
    toggles the linear (sound-speed) term; disabling both terms turns
    the viscosity off entirely (useful for smooth-flow convergence
    tests).
    """

    q1: float = 0.5
    q2: float = 2.0
    enabled: bool = True

    def __post_init__(self):
        if self.q1 < 0 or self.q2 < 0:
            raise ValueError("viscosity coefficients must be non-negative")


def directional_length(jac: np.ndarray, directions: np.ndarray, order: int) -> np.ndarray:
    """Zone length scale along physical unit directions.

    jac : (..., dim, dim) Jacobians; directions : (..., dim, dim) whose
    *columns* are physical unit directions. Returns (..., dim) lengths:
    l_k = |J s_hat_k| / order, where s_hat_k = J^{-1} s_k normalized.
    """
    jinv = batched_inverse(jac)
    ref = np.einsum("...re,...ek->...rk", jinv, directions)
    norms = np.linalg.norm(ref, axis=-2)
    norms = np.maximum(norms, 1e-300)
    s_hat = ref / norms[..., None, :]
    phys = np.einsum("...dr,...rk->...dk", jac, s_hat)
    return np.linalg.norm(phys, axis=-2) / max(order, 1)


def tensor_viscosity(
    grad_v: np.ndarray,
    jac: np.ndarray,
    rho: np.ndarray,
    sound_speed: np.ndarray,
    order: int,
    coeffs: ViscosityCoefficients,
) -> tuple[np.ndarray, np.ndarray]:
    """Viscous stress and effective viscosity coefficient per point.

    Parameters are batched over (..., ) points: grad_v and jac are
    (..., dim, dim); rho and sound_speed are (...,).

    Returns
    -------
    sigma_visc : (..., dim, dim) symmetric viscous stress (zero where
        no direction is compressing).
    mu_max : (...,) largest directional coefficient, which the CFL
        time-step estimate consumes as the viscous wave-speed term.
    """
    grad_v = np.asarray(grad_v, dtype=np.float64)
    dim = grad_v.shape[-1]
    if not coeffs.enabled:
        return np.zeros_like(grad_v), np.zeros(grad_v.shape[:-2])
    eps = 0.5 * (grad_v + np.swapaxes(grad_v, -1, -2))
    if dim == 2:
        lam, vecs = sym_eig_2x2(eps)
    elif dim == 3:
        lam, vecs = sym_eig_3x3(eps)
    else:
        raise ValueError("tensor viscosity supports dim 2 and 3")
    lengths = directional_length(jac, vecs, order)  # (..., dim)
    compress = lam < 0.0
    mu = np.where(
        compress,
        rho[..., None]
        * (
            coeffs.q2 * lengths**2 * np.abs(lam)
            + coeffs.q1 * lengths * sound_speed[..., None]
        ),
        0.0,
    )
    # sigma_visc = sum_k mu_k lambda_k s_k s_k^T
    sigma = np.einsum("...k,...k,...ik,...jk->...ij", mu, lam, vecs, vecs, optimize=True)
    return sigma, mu.max(axis=-1)


class ViscosityKernel:
    """Fused, workspace-backed twin of `tensor_viscosity` for the hot path.

    Mathematically identical to the reference function (same eigenpairs,
    same mu_k formula) but restructured for zero steady-state
    allocations:

    * length scales use the identity J (J^{-1} s_k) = s_k: since s_k is
      a *unit* physical direction, |J s_hat_k| = 1 / |J^{-1} s_k|, so
      l_k = 1 / (|J^{-1} s_k| * order) — one small contraction instead
      of inverse + normalize + forward map + second norm;
    * the Jacobian inverse is read from the cached `GeometryAtPoints`
      (computed once per stage) instead of re-derived here;
    * every intermediate lives in a `Workspace` buffer and the three
      einsum contraction paths are planned once via `np.einsum_path`.

    Results agree with the reference to a few ULPs (different but
    equivalent floating-point orderings), well inside the 1e-13 parity
    budget of the engine tests.
    """

    def __init__(self, coeffs: ViscosityCoefficients, order: int):
        self.coeffs = coeffs
        self.order = max(int(order), 1)
        self._path_ref = "optimal"
        self._path_norm = "optimal"
        self._path_sigma = "optimal"

    def plan(self, nzones: int, nqp: int, dim: int) -> None:
        """Precompute einsum contraction paths for fixed batch shapes."""

        def shaped(*shape):
            return np.broadcast_to(np.float64(0.0), shape)

        mat = shaped(nzones, nqp, dim, dim)
        vec = shaped(nzones, nqp, dim)
        self._path_ref = np.einsum_path(
            "zkre,zkec->zkrc", mat, mat, optimize="optimal"
        )[0]
        self._path_norm = np.einsum_path(
            "zkrc,zkrc->zkc", mat, mat, optimize="optimal"
        )[0]
        self._path_sigma = np.einsum_path(
            "zkc,zkc,zkic,zkjc->zkij", vec, vec, mat, mat, optimize="optimal"
        )[0]

    def compute(
        self,
        grad_v: np.ndarray,
        geo,
        rho: np.ndarray,
        sound_speed: np.ndarray,
        ws,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Viscous stress + mu_max into workspace buffers.

        grad_v : (nz, nqp, dim, dim); geo supplies the cached inverse
        Jacobians; rho / sound_speed : (nz, nqp). The returned arrays
        are owned by `ws` and recycled on the next call.
        """
        dim = grad_v.shape[-1]
        sigma = ws.get("visc.sigma", grad_v.shape)
        mu_max = ws.get("visc.mu_max", grad_v.shape[:-2])
        if not self.coeffs.enabled:
            sigma[...] = 0.0
            mu_max[...] = 0.0
            return sigma, mu_max
        eps = ws.get("visc.eps", grad_v.shape)
        np.add(grad_v, np.swapaxes(grad_v, -1, -2), out=eps)
        eps *= 0.5
        if dim == 2:
            lam, vecs = sym_eig_2x2(eps)
        elif dim == 3:
            lam, vecs = sym_eig_3x3(eps)
        else:
            raise ValueError("tensor viscosity supports dim 2 and 3")
        # l_c = |J s_hat_c| / order with s_hat_c = J^{-1} s_c normalized;
        # J (J^{-1} s_c) = s_c and |s_c| = 1 give l_c = 1/(|J^{-1}s_c| order).
        ref = ws.get("visc.ref", grad_v.shape)
        np.einsum("zkre,zkec->zkrc", geo.inv, vecs, out=ref, optimize=self._path_ref)
        lengths = ws.get("visc.len", lam.shape)
        np.einsum("zkrc,zkrc->zkc", ref, ref, out=lengths, optimize=self._path_norm)
        np.sqrt(lengths, out=lengths)
        np.maximum(lengths, 1e-300, out=lengths)
        np.reciprocal(lengths, out=lengths)
        lengths /= self.order
        mu = ws.get("visc.mu", lam.shape)
        np.abs(lam, out=mu)
        mu *= self.coeffs.q2
        mu *= lengths
        mu *= lengths
        tmp = ws.get("visc.tmp", lam.shape)
        np.multiply(lengths, sound_speed[..., None], out=tmp)
        tmp *= self.coeffs.q1
        mu += tmp
        mu *= rho[..., None]
        mu[lam >= 0.0] = 0.0
        np.einsum(
            "zkc,zkc,zkic,zkjc->zkij", mu, lam, vecs, vecs,
            out=sigma, optimize=self._path_sigma,
        )
        np.max(mu, axis=-1, out=mu_max)
        return sigma, mu_max
