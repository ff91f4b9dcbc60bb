"""Momentum solve: M_V dv/dt = -F . 1, one column per velocity component.

The kinematic mass matrix is scalar (each velocity component sees the
same matrix) and constant in time, because Lagrangian mass is
conserved. Two solvers share one interface:

* `MomentumSolver`, the serial default, factors M_V once (on its first
  solve) and answers every later RK stage with two triangular sweeps
  over all components at once, plus a small per-component correction
  that pins the constrained dofs.
* `PCGMomentumSolver` runs `dim` independent Jacobi-PCG solves — the
  CPU (MFEM PCG) and GPU (kernel 9, CUDA-PCG) structure of the paper.
  The distributed solvers derive from it: their group-sum matvec is
  what the communication ledger prices, one reduction per iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hydro.boundary import BoundaryConditions
from repro.linalg.banded import BandCholesky
from repro.linalg.csr import CSRMatrix
from repro.linalg.pcg import pcg

__all__ = ["MomentumSolver", "PCGMomentumSolver", "MomentumSolveInfo"]

# Largest direct solve worth holding, counted at its peak while it is
# built (`_DirectSolve.nbytes`). Against PCG on serial 3D Sedov Q2, 10
# steps, ten alternating pairs: at 4^3 zones (6.3 MiB) the run takes 42%
# less time for +12% peak RSS; at 6^3 (40 MiB) 33% less time for +52%.
# Their first step, which builds the factor, is 19% and 110% slower.
# Peak RSS rose by about 0.8 of the estimate, so this budget keeps the
# rise near 15% of the ~45 MB a small run holds; past it (the factor
# grows as n * bandwidth) `MomentumSolver` iterates instead.
FACTOR_BUDGET_BYTES = 8 << 20


@dataclass
class MomentumSolveInfo:
    """Aggregate statistics for one momentum solve (all components).

    A direct solve reports zero iterations and SpMVs.
    """

    iterations: int
    spmv_count: int
    flops: int
    converged: bool


class PCGMomentumSolver:
    """Jacobi-PCG solver for the (constant) kinematic mass matrix."""

    def __init__(
        self,
        mass: CSRMatrix,
        bc: BoundaryConditions,
        tol: float = 1e-14,
        maxiter: int | None = None,
    ):
        if mass.nrows != mass.ncols:
            raise ValueError("mass matrix must be square")
        if bc.ndof != mass.nrows:
            raise ValueError("boundary conditions sized for a different space")
        self.mass = mass
        self.bc = bc
        self.tol = tol
        self.maxiter = maxiter if maxiter is not None else max(200, 10 * mass.nrows)
        self._diag = mass.diagonal()
        if np.any(self._diag <= 0):
            raise ValueError("kinematic mass matrix has non-positive diagonal")
        self.last_info: MomentumSolveInfo | None = None

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """One mass-matrix application — the distributed override point.

        `DistributedMomentumSolver` replaces this with the group-sum of
        rank-local operators; everything else (preconditioning, BC
        elimination, convergence accounting) is shared.
        """
        return self.mass.matvec(x)

    def _check_rhs(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=np.float64)
        if rhs.ndim != 2 or rhs.shape[0] != self.mass.nrows:
            raise ValueError("rhs must be (ndof, dim)")
        return rhs

    def solve(self, rhs: np.ndarray, x0: np.ndarray | None = None) -> np.ndarray:
        """Accelerations a with M a = rhs, constrained components zeroed.

        rhs : (ndof, dim). Returns (ndof, dim).
        """
        rhs = self._check_rhs(rhs)
        dim = rhs.shape[1]
        accel = np.zeros_like(rhs)
        iters = spmvs = flops = 0
        all_conv = True
        for d in range(dim):
            op = self.bc.eliminated_operator(self.matvec, d)
            diag = self.bc.eliminated_diagonal(self._diag, d)
            b = np.where(self.bc.component_mask(d), 0.0, rhs[:, d])
            guess = None if x0 is None else x0[:, d]
            res = pcg(op, b, diag=diag, x0=guess, tol=self.tol, maxiter=self.maxiter)
            accel[:, d] = res.x
            iters += res.iterations
            spmvs += res.spmv_count
            # callable operator: count SpMV flops explicitly
            flops += res.flops + res.spmv_count * 2 * self.mass.nnz
            all_conv &= res.converged
        accel[self.bc.mask] = 0.0
        self.last_info = MomentumSolveInfo(iters, spmvs, flops, all_conv)
        return accel


class _DirectSolve:
    """One band factor of the unconstrained M plus, per component d
    with constrained dofs C (neither none nor all), the correction
    G = W S^-1 with W = M^-1 P_C and S = P_C^T M^-1 P_C.

    Then z = M^-1 rhs and x = z - G z_C is the solution with x_C = 0
    and (M x)_i = rhs_i off C: the multiplier S^-1 z_C is the reaction
    that holds the constrained dofs at zero. A component with every
    dof constrained needs no correction — masking zeroes it.
    """

    def __init__(self, mass: CSRMatrix, bc: BoundaryConditions):
        self.factor = BandCholesky(mass)
        self.mask = bc.mask
        n = mass.nrows
        self.fixes: list[tuple[int, np.ndarray, np.ndarray]] = []
        for d in range(bc.dim):
            c = np.flatnonzero(bc.component_mask(d))
            if not 0 < c.size < n:
                continue
            unit = np.zeros((n, c.size))
            unit[c, np.arange(c.size)] = 1.0
            w = self.factor.solve(unit)
            self.fixes.append((d, c, w @ np.linalg.inv(w[c])))
        self.flops = self.factor.solve_flops(bc.dim) + sum(
            2 * g.size for _, _, g in self.fixes
        )

    @staticmethod
    def nbytes(mass: CSRMatrix, bc: BoundaryConditions) -> int:
        """Peak bytes while building, before anything is allocated: the
        factor, every correction, and the unit columns and M^-1 P_C of
        the widest component (one component is built at a time)."""
        n = mass.nrows
        counts = bc.mask.sum(axis=0)
        counts = counts[(counts > 0) & (counts < n)]
        widest = int(counts.max()) if counts.size else 0
        return BandCholesky.nbytes(mass) + 8 * n * (int(counts.sum()) + 2 * widest)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        z = self.factor.solve(np.where(self.mask, 0.0, rhs))
        for d, c, g in self.fixes:
            z[:, d] -= g @ z[c, d]
        z[self.mask] = 0.0
        return z


class MomentumSolver(PCGMomentumSolver):
    """Factor-once direct solver for the serial run.

    The factor is built on the first `solve`, not at construction, so
    set-up stays cheap for runs that never step; it then lives as long
    as this object (through `reset()`, the service warm pool and
    backend swaps that keep the solver). The solve falls back to PCG,
    and only then uses `tol` and `maxiter`, when the factor would exceed
    `FACTOR_BUDGET_BYTES` or M is not numerically positive definite (a
    quadrature rule too coarse for the order makes it singular).
    """

    def __init__(self, mass, bc, tol=1e-14, maxiter=None):
        super().__init__(mass, bc, tol=tol, maxiter=maxiter)
        # None until the first solve; False when it falls back to PCG.
        self._direct: _DirectSolve | bool | None = None

    def solve(self, rhs: np.ndarray, x0: np.ndarray | None = None) -> np.ndarray:
        """Accelerations a with M a = rhs, constrained components zeroed.

        rhs : (ndof, dim). Returns (ndof, dim). `x0` is used only by
        the PCG fallback.
        """
        rhs = self._check_rhs(rhs)
        if self._direct is None:
            self._direct = False
            if _DirectSolve.nbytes(self.mass, self.bc) <= FACTOR_BUDGET_BYTES:
                try:
                    self._direct = _DirectSolve(self.mass, self.bc)
                except np.linalg.LinAlgError:
                    pass  # not numerically SPD (e.g. under-integrated): iterate
        if self._direct is False:
            return super().solve(rhs, x0)
        accel = self._direct.solve(rhs)
        self.last_info = MomentumSolveInfo(0, 0, self._direct.flops, True)
        return accel
