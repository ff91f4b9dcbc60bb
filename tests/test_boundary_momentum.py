"""Tests for boundary conditions and the momentum solvers.

The `-k smoke` subset (CI's momentum lane) checks the serial direct
solve against the paper's PCG on every problem, and its lifetime
(lazy factor, warm reuse, backend parity).
"""

import hashlib

import numpy as np
import pytest

import repro.hydro.momentum as momentum
from repro.api import RunConfig, make_problem
from repro.fem.assembly import assemble_kinematic_mass
from repro.fem.geometry import GeometryEvaluator
from repro.fem.mesh import cartesian_mesh_2d
from repro.fem.quadrature import tensor_quadrature
from repro.fem.spaces import H1Space
from repro.hydro.boundary import BoundaryConditions
from repro.hydro.momentum import MomentumSolver, PCGMomentumSolver
from repro.hydro.solver import LagrangianHydroSolver
from repro.linalg.banded import BandCholesky, half_bandwidth
from repro.linalg.csr import CSRMatrix


def mass_and_space(k=2, n=2):
    mesh = cartesian_mesh_2d(n, n)
    sp = H1Space(mesh, k)
    quad = tensor_quadrature(2, 2 * k)
    geo = GeometryEvaluator(sp, quad).evaluate(sp.node_coords)
    rho = np.ones((mesh.nzones, quad.nqp))
    return assemble_kinematic_mass(sp, quad, rho, geo), sp


class TestBoundaryConditions:
    def test_box_symmetry_counts(self):
        _, sp = mass_and_space(k=2, n=2)
        bc = BoundaryConditions.box_symmetry(sp)
        # 5x5 node grid: 2 faces x 5 nodes per direction, corners carry both.
        assert bc.n_constrained == 2 * (2 * 5)

    def test_none(self):
        _, sp = mass_and_space()
        bc = BoundaryConditions.none(sp)
        assert bc.n_constrained == 0

    def test_apply_to_field(self, rng):
        _, sp = mass_and_space()
        bc = BoundaryConditions.box_symmetry(sp)
        v = rng.standard_normal((sp.ndof, 2))
        bc.apply_to_field(v)
        assert np.allclose(v[bc.mask], 0.0)
        free = ~bc.mask
        assert not np.allclose(v[free], 0.0)

    def test_constrain_component_range(self):
        _, sp = mass_and_space()
        bc = BoundaryConditions.none(sp)
        with pytest.raises(ValueError):
            bc.constrain(np.array([0]), 5)

    def test_eliminated_operator_is_spd(self, rng):
        mass, sp = mass_and_space()
        bc = BoundaryConditions.box_symmetry(sp)
        op = bc.eliminated_operator(mass.matvec, 0)
        n = sp.ndof
        # Build the dense operator and verify symmetry + positive diag.
        dense = np.column_stack([op(col) for col in np.eye(n)])
        assert np.allclose(dense, dense.T, atol=1e-12)
        assert np.all(np.linalg.eigvalsh(dense) > 0)


class TestMomentumSolver:
    def test_unconstrained_matches_direct(self, rng):
        mass, sp = mass_and_space()
        bc = BoundaryConditions.none(sp)
        solver = MomentumSolver(mass, bc, tol=1e-14)
        rhs = rng.standard_normal((sp.ndof, 2))
        a = solver.solve(rhs)
        dense = mass.to_dense()
        expect = np.linalg.solve(dense, rhs)
        assert np.allclose(a, expect, atol=1e-9)
        assert solver.last_info.converged

    def test_constrained_components_zero(self, rng):
        mass, sp = mass_and_space()
        bc = BoundaryConditions.box_symmetry(sp)
        solver = MomentumSolver(mass, bc)
        a = solver.solve(rng.standard_normal((sp.ndof, 2)))
        assert np.allclose(a[bc.mask], 0.0)

    def test_constrained_solution_satisfies_free_equations(self, rng):
        mass, sp = mass_and_space()
        bc = BoundaryConditions.box_symmetry(sp)
        solver = MomentumSolver(mass, bc, tol=1e-14)
        rhs = rng.standard_normal((sp.ndof, 2))
        a = solver.solve(rhs)
        # On free dofs of component d: (M a)_i == rhs_i.
        for d in range(2):
            free = ~bc.component_mask(d)
            resid = mass.matvec(a[:, d]) - rhs[:, d]
            assert np.allclose(resid[free], 0.0, atol=1e-9)

    def test_solve_info_populated(self, rng):
        mass, sp = mass_and_space()
        solver = PCGMomentumSolver(mass, BoundaryConditions.none(sp))
        solver.solve(rng.standard_normal((sp.ndof, 2)))
        info = solver.last_info
        assert info.iterations > 0
        assert info.flops > 0
        assert info.spmv_count >= info.iterations
        assert info.converged

    def test_direct_solve_info(self, rng):
        mass, sp = mass_and_space()
        solver = MomentumSolver(mass, BoundaryConditions.box_symmetry(sp))
        solver.solve(rng.standard_normal((sp.ndof, 2)))
        info = solver.last_info
        assert (info.iterations, info.spmv_count, info.converged) == (0, 0, True)
        assert info.flops > 0

    def test_shape_validation(self, rng):
        mass, sp = mass_and_space()
        solver = MomentumSolver(mass, BoundaryConditions.none(sp))
        with pytest.raises(ValueError):
            solver.solve(rng.standard_normal(sp.ndof))

    def test_bc_size_mismatch(self):
        mass, sp = mass_and_space()
        with pytest.raises(ValueError):
            MomentumSolver(mass, BoundaryConditions(sp.ndof + 1, 2))


def _build(name, order, zones, **cfg):
    config = RunConfig(order=order, zones=zones, **cfg)
    return LagrangianHydroSolver(make_problem(name, config), config)


def _digest(state) -> str:
    h = hashlib.sha256()
    for field in (state.v, state.e, state.x):
        h.update(np.ascontiguousarray(field).tobytes())
    return h.hexdigest()


class TestBandCholesky:
    @pytest.mark.parametrize("n, bw", [(1, 0), (37, 3), (100, 40), (257, 64)])
    def test_solve_matches_dense(self, rng, n, bw):
        a = np.zeros((n, n))
        for k in range(bw + 1):
            band = rng.uniform(-1.0, 1.0, n - k)
            a += np.diag(band, -k) + (np.diag(band, k) if k else 0)
        a += np.diag(np.abs(a).sum(axis=1) + 1.0)  # diagonally dominant: SPD
        csr = CSRMatrix.from_dense(a)
        assert half_bandwidth(csr) == bw
        factor = BandCholesky(csr)
        assert factor.block_size >= bw
        assert BandCholesky.nbytes(csr) == factor.inv_diag.nbytes + factor.sub.nbytes
        b = rng.standard_normal((n, 3))
        np.testing.assert_allclose(factor.solve(b), np.linalg.solve(a, b), rtol=0, atol=1e-12)
        np.testing.assert_allclose(factor.solve(b[:, 0]), np.linalg.solve(a, b[:, 0]),
                                   rtol=0, atol=1e-12)

    def test_rejects_bad_rhs(self):
        factor = BandCholesky(CSRMatrix.identity(4))
        with pytest.raises(ValueError):
            factor.solve(np.ones(5))


class TestDirectMomentumSolve:
    @pytest.mark.parametrize(
        "name, dim",
        [(p, 2) for p in ("sedov", "noh", "triple-pt", "taylor-green", "saltzman", "sod")]
        + [("sedov", 3), ("noh", 3)],
    )
    def test_smoke_matches_pcg_every_problem(self, name, dim, rng):
        orders, zone_counts = ((1, 2, 3), (2, 3, 4)) if dim == 2 else ((1, 2), (2, 3))
        for order in orders:
            for zones in zone_counts:
                s = _build(name, order, zones, dim=dim)
                rhs = rng.standard_normal((s.mass_v.nrows, dim))
                solver = MomentumSolver(s.mass_v, s.bc)
                direct = solver.solve(rhs)
                assert isinstance(solver._direct, momentum._DirectSolve), (order, zones)
                ref = PCGMomentumSolver(s.mass_v, s.bc).solve(rhs)
                scale = np.max(np.abs(ref))
                assert np.max(np.abs(direct - ref)) <= 1e-12 * scale, (order, zones)
                assert np.all(direct[s.bc.mask] == 0.0)
                s.close()

    def test_smoke_fully_constrained_component(self, rng):
        """Sod at Q1 pins every y-dof: that component has no free set."""
        s = _build("sod", 1, 3)
        assert s.bc.mask[:, 1].all() and not s.bc.mask[:, 0].all()
        rhs = rng.standard_normal((s.mass_v.nrows, 2))
        a = s.momentum.solve(rhs)
        assert np.all(a[:, 1] == 0.0)
        ref = PCGMomentumSolver(s.mass_v, s.bc).solve(rhs)
        assert np.max(np.abs(a - ref)) <= 1e-12 * np.max(np.abs(ref))
        s.close()

    def test_smoke_factor_is_lazy_and_survives_reset(self):
        s = _build("sedov", 2, 4)
        assert s.momentum._direct is None  # nothing factored at set-up
        cold = _digest(s.run(max_steps=4).state)
        factor = s.momentum._direct
        assert factor
        s.reset()
        assert _digest(s.run(max_steps=4).state) == cold
        assert s.momentum._direct is factor
        s.close()
        fresh = _build("sedov", 2, 4)
        assert _digest(fresh.run(max_steps=4).state) == cold
        fresh.close()

    def test_smoke_fused_and_hybrid_bit_identical(self):
        digests = []
        for backend in ("cpu-fused", "hybrid"):
            s = _build("sedov", 2, 4, backend=backend)
            digests.append(_digest(s.run(max_steps=4).state))
            s.close()
        assert digests[0] == digests[1]

    def test_smoke_ranks_keep_pcg(self):
        s = _build("sedov", 2, 4, ranks=2)
        assert type(s.momentum) is not MomentumSolver
        assert isinstance(s.momentum, PCGMomentumSolver)
        assert s.run(max_steps=2).workload.pcg_iterations > 0
        s.close()

    def test_over_budget_falls_back_to_pcg(self, rng, monkeypatch):
        mass, sp = mass_and_space(k=2, n=3)
        bc = BoundaryConditions.box_symmetry(sp)
        rhs = rng.standard_normal((sp.ndof, 2))
        monkeypatch.setattr(momentum, "FACTOR_BUDGET_BYTES", 0)
        solver = MomentumSolver(mass, bc)
        a = solver.solve(rhs)
        assert solver._direct is False
        assert solver.last_info.iterations > 0
        np.testing.assert_array_equal(a, PCGMomentumSolver(mass, bc).solve(rhs))

    def test_budget_splits_the_measured_3d_meshes(self):
        """3D Sedov Q2 was timed against PCG at 4^3 zones (factored) and
        6^3 (iterates): the budget must keep them on those sides."""
        for zones, fits in ((4, True), (6, False)):
            s = _build("sedov", 2, zones, dim=3)
            nbytes = momentum._DirectSolve.nbytes(s.mass_v, s.bc)
            assert (nbytes <= momentum.FACTOR_BUDGET_BYTES) is fits, zones
            s.close()

    def test_singular_mass_falls_back_to_pcg(self, rng):
        s = _build("sedov", 2, 4, quad_points_1d=2)  # under-integrated: M singular
        rhs = rng.standard_normal((s.mass_v.nrows, 2))
        a = s.momentum.solve(rhs)
        assert s.momentum._direct is False
        np.testing.assert_array_equal(a, PCGMomentumSolver(s.mass_v, s.bc).solve(rhs))
        s.close()
