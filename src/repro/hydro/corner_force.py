"""Corner force assembly — the computational hot spot of BLAST.

Implements equation (4)/(5)/(6): per zone z, the corner force matrix

    F_z = A_z B^T,
    (A_z)_{(i,d),k} = alpha_k [ sigma_hat(q_k) : J_z^{-1}(q_k)
                                 grad_hat w_i(q_k) e_d ] |J_z(q_k)|,
    (B)_{j,k} = phi_hat_j(q_k),

followed by the two contractions the time integrator needs: -F.1
(momentum right-hand side, kernel 8) and F^T v (energy right-hand side,
kernel 10).

Two interchangeable engines are provided:

* `ForceEngine` — the *batched* formulation of the paper's GPU redesign:
  every stage is a vectorized contraction over all zones and quadrature
  points at once, phase-split exactly along the kernel boundaries of the
  paper's Table 2 so the hardware cost models can meter each kernel.
* `corner_force_loops` — the original CPU structure (outer loop over
  zones, inner loop over quadrature points, scalar math per point),
  kept as the independently-written reference that the batched path is
  validated against.

`ForceEngine` itself has two modes. `fused=False` is the historical
allocate-per-call formulation. `fused=True` (the default) is the
zero-allocation hot path mirroring the paper's register-blocked GPU
kernels: all einsum contraction paths are planned once at construction,
every intermediate writes into a `Workspace` buffer, geometry is
evaluated once per RK2 stage into a read-only per-`x` cache, and the
corner-force matrix comes from `_contract_fz`, one of two pairwise plans
fixed from the shapes: at low order with at least as many zones as
quadrature points, T = sigma adj(J)^T contracted against a
gradW x (alpha B) table in one GEMM; otherwise T and A_z in workspace
buffers and one GEMM against (alpha B)^T. The two modes agree to a few ULPs (~1e-15 relative; the
contractions reorder mathematically-identical floating point).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.fem.geometry import GeometryAtPoints, GeometryEvaluator
from repro.fem.quadrature import QuadratureRule
from repro.fem.spaces import H1Space, L2Space
from repro.hydro.state import HydroState
from repro.hydro.viscosity import ViscosityCoefficients, ViscosityKernel, tensor_viscosity
from repro.hydro.workspace import Workspace
from repro.kernels.base import span_label
from repro.linalg.smallmat import batched_adjugate, batched_det
from repro.linalg.svd_small import batched_singular_values
from repro.telemetry.tracer import NULL_SPAN

__all__ = [
    "ForceEngine",
    "ForceResult",
    "PointData",
    "SumfactForceEngine",
    "SumfactStress",
    "corner_force_loops",
]

# Table 2 span names for the kernel-aligned stages of the fused path:
# geometry (adjugate/det/SVD), pointwise stress (EoS + grad v + viscosity),
# and the A_z B^T contraction (kernels 5/6/7, `_contract_fz`).
_K_GEOMETRY = span_label(1)
_K_STRESS = span_label(2)
_K_FORCE = span_label(7)

# Pairwise F_z path over (sigma, adj, gradW, alpha, B): T = sigma adj^T,
# alpha B, the gradW x (alpha B) table, then one GEMM of T against it.
_FZ_PAIRWISE_PATH = ["einsum_path", (0, 1), (1, 2), (0, 2), (0, 1)]


@dataclass
class PointData:
    """Per-(zone, quadrature point) thermodynamic fields."""

    rho: np.ndarray
    e: np.ndarray
    pressure: np.ndarray
    sound_speed: np.ndarray
    grad_v: np.ndarray
    sigma: np.ndarray
    mu_max: np.ndarray


@dataclass
class ForceResult:
    """Output of one corner-force evaluation.

    Fz has layout (nzones, ndof_h1_zone, dim, ndof_l2_zone); the paper's
    2D matrix view flattens (i, d) into the row index (e.g. 81 x 8 for
    3D Q2-Q1 zones).
    """

    Fz: np.ndarray
    geometry: GeometryAtPoints
    points: PointData
    dt_est: float
    valid: bool = True
    Az: np.ndarray | None = field(default=None, repr=False)


class ForceEngine:
    """Batched corner-force evaluator (the redesigned formulation).

    Parameters
    ----------
    kinematic, thermodynamic : the Qk / Qk-1 spaces.
    quad : shared quadrature rule (2k points per dimension reproduces
        the paper's operator shapes).
    eos : object with pressure(rho, e) and sound_speed(rho, e).
    rho0_qp : (nzones, nqp) initial density at quadrature points.
    geometry0 : initial-configuration geometry (sets the conserved
        pointwise mass rho0 |J0|).
    viscosity : tensor artificial viscosity coefficients.
    fused : select the zero-allocation workspace path (default) or the
        historical allocate-per-call path.
    workspace : buffer pool to use for the fused path (a private one is
        created when omitted).
    tracer : optional enabled `repro.telemetry.Tracer`; when given, the
        fused path emits one "kernel"-category span per Table 2 stage
        (geometry / pointwise stress / fused contraction).
    """

    def __init__(
        self,
        kinematic: H1Space,
        thermodynamic: L2Space,
        quad: QuadratureRule,
        eos,
        rho0_qp: np.ndarray,
        geometry0: GeometryAtPoints,
        viscosity: ViscosityCoefficients | None = None,
        fused: bool = True,
        workspace: Workspace | None = None,
        tracer=None,
    ):
        if kinematic.mesh is not thermodynamic.mesh:
            raise ValueError("spaces must share a mesh")
        self.kinematic = kinematic
        self.thermodynamic = thermodynamic
        self.quad = quad
        self.eos = eos
        self.viscosity = viscosity or ViscosityCoefficients()
        self.geom_eval = GeometryEvaluator(kinematic, quad)
        self.grad_table = self.geom_eval.grad_table  # (nqp, ndzH1, dim)
        self.B = thermodynamic.element.tabulate_B(quad)  # (ndzL2, nqp)
        self.basis_l2 = thermodynamic.element.tabulate(quad.points)  # (nqp, ndzL2)
        rho0_qp = np.asarray(rho0_qp, dtype=np.float64)
        if rho0_qp.shape != (kinematic.mesh.nzones, quad.nqp):
            raise ValueError("rho0_qp must be (nzones, nqp)")
        if not geometry0.check_valid():
            raise ValueError("initial geometry is tangled (det J0 <= 0)")
        # Strong mass conservation: rho(q,t) |J(q,t)| = rho0 |J0| forever.
        self.mass_qp = rho0_qp * geometry0.det
        self.order = kinematic.order
        self.fused = bool(fused)
        self.workspace = workspace if workspace is not None else Workspace()
        self.tracer = tracer if (tracer is not None and tracer.enabled) else None
        self._ldof = kinematic.ldof
        nz = kinematic.mesh.nzones
        nqp = quad.nqp
        ndz = kinematic.ndof_per_zone
        ndl2 = thermodynamic.ndof_per_zone
        dim = kinematic.dim
        self._fz_shape = (nz, ndz, dim, ndl2)
        # (ndl2, nqp) contiguous for the e interpolation matmul.
        self.basis_l2_T = np.ascontiguousarray(self.basis_l2.T)
        # Per-x geometry cache: two rotating slots keyed on array identity,
        # so the two most recent stage geometries stay live (RK2Avg needs
        # exactly that: the mid-step eval plus the end-of-step check, the
        # latter re-used as the next step's begin-of-step geometry).
        self._geo_cache: list[tuple[object, GeometryAtPoints] | None] = [None, None]
        self._geo_mru = 0
        self._fz_slot = 0
        # Per-span workspaces / sliced EOS for `compute_fused_span`,
        # keyed by (lo, hi) so repeated evaluations of the same zone
        # span are allocation-free after the first call.
        self._span_ws: dict[tuple[int, int], Workspace] = {}
        self._span_eos: dict[tuple[int, int], object] = {}
        # Contraction paths planned once for the fixed batch shapes
        # (np.broadcast_to gives shape-only stand-ins, no memory).

        def shaped(*shape):
            return np.broadcast_to(np.float64(0.0), shape)

        self._path_jac = np.einsum_path(
            "zid,kie->zkde", shaped(nz, ndz, dim), self.grad_table, optimize="optimal"
        )[0]
        self._path_gv = np.einsum_path(
            "zid,kir,zkre->zkde",
            shaped(nz, ndz, dim), self.grad_table, shaped(nz, nqp, dim, dim),
            optimize="optimal",
        )[0]
        # F_z plan, fixed from the shapes by measured thresholds
        # (`benchmarks/fz_plans.py`, DESIGN.md). The pairwise path builds
        # a gradW x (alpha B) table per call, so it needs nz >= nqp zones
        # to amortize it; per zone its GEMM costs dim times the two-stage
        # GEMM, which only pays while ndl2 <= 27 (to 2D Q5 and 3D Q3).
        self._fz_pairwise = nz >= nqp and ndl2 <= 27
        self._grad_rik = np.ascontiguousarray(self.grad_table.transpose(2, 1, 0))
        self._wb_T = np.ascontiguousarray((self.B * quad.weights).T)  # (nqp, ndl2)
        self._path_ftv = np.einsum_path(
            "zidj,zid->zj", shaped(*self._fz_shape), shaped(nz, ndz, dim),
            optimize="optimal",
        )[0]
        self._visc_kernel = ViscosityKernel(self.viscosity, self.order)
        self._visc_kernel.plan(nz, nqp, dim)

    # -- Kernel-aligned stages ---------------------------------------------

    def point_geometry(self, x: np.ndarray) -> GeometryAtPoints:
        """Kernels 1/3: Jacobians, determinants, adjugates at all points.

        On the fused path this is cached per `x` array (identity-keyed):
        each RK2 stage evaluates geometry exactly once and every consumer
        — corner force, viscosity length scales, dt control, validity
        checks — reads the same frozen `GeometryAtPoints`. The returned
        arrays are read-only; callers must treat `x` as immutable once
        passed in (all integrators allocate fresh position arrays).
        """
        if not self.fused:
            return self.geom_eval.evaluate(x)
        for slot in (0, 1):
            entry = self._geo_cache[slot]
            if entry is not None and entry[0] is x:
                self._geo_mru = slot
                return entry[1]
        slot = 1 - self._geo_mru
        ws = self.workspace
        nz, ndz, dim, _ = self._fz_shape
        nqp = self.quad.nqp
        xz = ws.get("xz", (nz, ndz, dim))
        np.take(x, self._ldof, axis=0, out=xz)
        jac = ws.get(f"geo{slot}.jac", (nz, nqp, dim, dim))
        np.einsum("zid,kie->zkde", xz, self.grad_table, out=jac, optimize=self._path_jac)
        det = ws.get(f"geo{slot}.det", (nz, nqp))
        batched_det(jac, out=det)
        adj = ws.get(f"geo{slot}.adj", (nz, nqp, dim, dim))
        batched_adjugate(jac, out=adj)
        geo = GeometryAtPoints(jac, det=det, adj=adj)
        if geo.check_valid():
            inv = ws.get(f"geo{slot}.inv", (nz, nqp, dim, dim))
            np.divide(adj, det[..., None, None], out=inv)
            geo.set_inv(inv)
        geo.freeze()
        self._geo_cache[slot] = (x, geo)
        self._geo_mru = slot
        return geo

    def velocity_gradient(self, v: np.ndarray, geo: GeometryAtPoints) -> np.ndarray:
        """Kernel 3: physical velocity gradient at all points.

        grad_v[z,k,d,e] = sum_i v_z[i,d] (J^{-T} grad_hat w_i)_e.
        Uses adj(J)/det to avoid forming explicit inverses.
        """
        vz = self.kinematic.gather(v)  # (nz, ndz, dim)
        ref_grad = np.einsum("zid,kir->zkdr", vz, self.grad_table, optimize=True)
        return np.einsum("zkdr,zkre->zkde", ref_grad, geo.adj, optimize=True) / geo.det[..., None, None]

    def point_thermo(self, e: np.ndarray, geo: GeometryAtPoints) -> tuple[np.ndarray, np.ndarray]:
        """Density (mass conservation) and energy interpolated at points."""
        rho = self.mass_qp / geo.det
        ez = self.thermodynamic.gather(e)  # (nz, ndzL2)
        e_qp = np.einsum("kj,zj->zk", self.basis_l2, ez, optimize=True)
        return rho, e_qp

    def point_stress(self, state: HydroState, geo: GeometryAtPoints) -> PointData:
        """Kernels 2/4: EOS, artificial viscosity, total stress sigma_hat."""
        rho, e_qp = self.point_thermo(state.e, geo)
        p = self.eos.pressure(rho, e_qp)
        cs = self.eos.sound_speed(rho, e_qp)
        grad_v = self.velocity_gradient(state.v, geo)
        sigma_visc, mu_max = tensor_viscosity(
            grad_v, geo.jac, rho, cs, self.order, self.viscosity
        )
        dim = geo.jac.shape[-1]
        sigma = sigma_visc - p[..., None, None] * np.eye(dim)
        return PointData(rho, e_qp, p, cs, grad_v, sigma, mu_max)

    def assemble_Az(self, points: PointData, geo: GeometryAtPoints) -> np.ndarray:
        """Kernels 5/6: A_z via batched DIM x DIM products.

        Az[z,k,i,d] = alpha_k sum_e sigma[z,k,d,e]
                       sum_r gradW[k,i,r] adj(J)[z,k,r,e]
        (|J| J^{-1} = adj(J) keeps the volume factor of eq. (5) implicit).
        """
        sig_adj = np.einsum("zkde,zkre->zkdr", points.sigma, geo.adj, optimize=True)
        az = np.einsum("kir,zkdr->zkid", self.grad_table, sig_adj, optimize=True)
        return az * self.quad.weights[None, :, None, None]

    def assemble_Fz(self, Az: np.ndarray) -> np.ndarray:
        """Kernel 7: F_z = A_z B^T, batched over zones."""
        return np.einsum("zkid,jk->zidj", Az, self.B, optimize=True)

    def force_times_one(self, Fz: np.ndarray) -> np.ndarray:
        """Kernel 8: per-zone -F.1 contribution (before global scatter)."""
        if self.fused and Fz.shape == self._fz_shape:
            out = self.workspace.get("rhs_mom_z", Fz.shape[:-1])
            np.sum(Fz, axis=-1, out=out)
            np.negative(out, out=out)
            return out
        return -Fz.sum(axis=-1)

    def force_transpose_times_v(self, Fz: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Kernel 10: per-zone F^T v (flat L2 layout)."""
        if self.fused and Fz.shape == self._fz_shape:
            ws = self.workspace
            vz = ws.get("vz_energy", Fz.shape[:3])
            np.take(v, self._ldof, axis=0, out=vz)
            out = ws.get("rhs_energy_z", (Fz.shape[0], Fz.shape[-1]))
            np.einsum("zidj,zid->zj", Fz, vz, out=out, optimize=self._path_ftv)
            return self.thermodynamic.scatter(out)
        vz = self.kinematic.gather(v)
        out = np.einsum("zidj,zid->zj", Fz, vz, optimize=True)
        return self.thermodynamic.scatter(out)

    def _dt_points(self, points: PointData, geo: GeometryAtPoints) -> np.ndarray:
        """Per-point CFL limits, (nzones, nqp).

        h = sigma_min(J) / order is the minimal directional zone length
        (the SVD of kernel 1); the viscous term adds mu / (rho h) to the
        acoustic speed, following the reference scheme.
        """
        smin = batched_singular_values(geo.jac)[..., 0]
        h = np.maximum(smin / max(self.order, 1), 1e-300)
        speed = points.sound_speed + 2.0 * points.mu_max / (points.rho * h)
        return h / np.maximum(speed, 1e-300)

    def estimate_dt(self, points: PointData, geo: GeometryAtPoints) -> float:
        """CFL-limited time step from per-point wave speeds."""
        return float(self._dt_points(points, geo).min())

    def estimate_dt_zones(self, points: PointData, geo: GeometryAtPoints) -> np.ndarray:
        """Per-zone CFL minima, (nzones,).

        The vectorized rank layer reduces these over a rank axis to get
        every simulated rank's local dt in one pass; min is exactly
        associative, so the global min over rank minima is bitwise the
        same float `estimate_dt` returns.
        """
        return self._dt_points(points, geo).min(axis=1)

    def compute_local(self, state: HydroState, zone_ids: np.ndarray) -> ForceResult:
        """Corner-force evaluation restricted to a zone subset.

        The rank-local computation of the paper's MPI layer: every
        quantity is per-zone independent, so a rank evaluates exactly
        its own zones' F_z (returned with leading dimension
        len(zone_ids)) plus the *local* dt estimate that feeds the
        global min reduction.
        """
        zone_ids = np.asarray(zone_ids, dtype=np.int64)
        xz = self.kinematic.gather(state.x)[zone_ids]
        geo = self.geom_eval.evaluate_local(xz)
        nloc = zone_ids.size
        if nloc == 0 or not geo.check_valid():
            empty = np.zeros(
                (nloc, self.kinematic.ndof_per_zone, self.kinematic.dim,
                 self.thermodynamic.ndof_per_zone)
            )
            return ForceResult(empty, geo, None, 0.0, valid=nloc == 0)
        vz = self.kinematic.gather(state.v)[zone_ids]
        ez = self.thermodynamic.gather(state.e)[zone_ids]
        rho = self.mass_qp[zone_ids] / geo.det
        e_qp = np.einsum("kj,zj->zk", self.basis_l2, ez, optimize=True)
        eos = self._eos_for_zones(zone_ids)
        p = eos.pressure(rho, e_qp)
        cs = eos.sound_speed(rho, e_qp)
        ref_grad = np.einsum("zid,kir->zkdr", vz, self.grad_table, optimize=True)
        grad_v = (
            np.einsum("zkdr,zkre->zkde", ref_grad, geo.adj, optimize=True)
            / geo.det[..., None, None]
        )
        sigma_visc, mu_max = tensor_viscosity(
            grad_v, geo.jac, rho, cs, self.order, self.viscosity
        )
        dim = geo.jac.shape[-1]
        sigma = sigma_visc - p[..., None, None] * np.eye(dim)
        points = PointData(rho, e_qp, p, cs, grad_v, sigma, mu_max)
        Az = self.assemble_Az(points, geo)
        Fz = self.assemble_Fz(Az)
        dt_est = self.estimate_dt(points, geo)
        return ForceResult(Fz, geo, points, dt_est, valid=True)

    def _eos_for_zones(self, zone_ids: np.ndarray):
        """Slice a per-zone-gamma EOS down to a zone subset."""
        gamma = getattr(self.eos, "gamma", None)
        if gamma is None or np.ndim(gamma) == 0:
            return self.eos
        g = np.asarray(gamma).reshape(self.kinematic.mesh.nzones, -1)
        return type(self.eos)(g[zone_ids])

    def _eos_for_span(self, lo: int, hi: int):
        """Span-sliced view of a per-zone-gamma EOS, cached per span."""
        gamma = getattr(self.eos, "gamma", None)
        if gamma is None or np.ndim(gamma) == 0:
            return self.eos
        eos = self._span_eos.get((lo, hi))
        if eos is None:
            g = np.asarray(gamma).reshape(self.kinematic.mesh.nzones, -1)
            eos = self._span_eos[(lo, hi)] = type(self.eos)(g[lo:hi])
        return eos

    def prepare_spans(self, spans) -> None:
        """Pre-create span workspaces on the shared arena.

        Called by the zone-parallel executor *before* forking workers, so
        every span's buffers are leased (and cache-warmed) in the parent
        and the children inherit them copy-on-write instead of each
        paying first-call allocation.
        """
        for lo, hi in spans:
            if (lo, hi) not in self._span_ws:
                self._span_ws[(lo, hi)] = Workspace(arena=self.workspace.arena)

    def compute_fused_span(self, state: HydroState, lo: int, hi: int) -> ForceResult:
        """Fused evaluation restricted to the contiguous zone span [lo, hi).

        The per-zone arithmetic is exactly `_compute_fused`'s: the same
        contractions over the same construction-time plans, applied to a
        row slice of each batched operand. Every contraction
        reduces within a zone (never across zones), so the result is
        *schedule-deterministic*: a fixed partition of the mesh into
        spans always produces the same bits, no matter how the spans are
        distributed over workers — the invariant the zone-parallel
        executor's bitwise tests rest on. The trivial span (0, nzones)
        is bitwise identical to `compute`. Sub-spans agree with the
        full-batch rows to the final contraction's BLAS blocking (the
        batch extent steers dgemm's accumulation order), in practice a
        ~1e-18 absolute reordering — far inside the engine's 1e-13
        parity budget.

        Each distinct span keeps a private `Workspace`, so steady-state
        evaluations allocate nothing and never thrash the full-batch
        buffers.
        """
        nz, ndz, dim, ndl2 = self._fz_shape
        if not (0 <= lo <= hi <= nz):
            raise ValueError(f"span [{lo}, {hi}) out of range for {nz} zones")
        nspan = hi - lo
        if nspan == 0:
            geo = GeometryAtPoints(np.zeros((0, self.quad.nqp, dim, dim)))
            return ForceResult(np.zeros((0, ndz, dim, ndl2)), geo, None, 0.0, valid=True)
        ws = self._span_ws.get((lo, hi))
        if ws is None:
            ws = self._span_ws[(lo, hi)] = Workspace(arena=self.workspace.arena)
        nqp = self.quad.nqp
        xz = ws.get("xz", (nspan, ndz, dim))
        np.take(state.x, self._ldof[lo:hi], axis=0, out=xz)
        jac = ws.get("jac", (nspan, nqp, dim, dim))
        np.einsum("zid,kie->zkde", xz, self.grad_table, out=jac, optimize=self._path_jac)
        det = ws.get("det", (nspan, nqp))
        batched_det(jac, out=det)
        adj = ws.get("adj", (nspan, nqp, dim, dim))
        batched_adjugate(jac, out=adj)
        geo = GeometryAtPoints(jac, det=det, adj=adj)
        if not geo.check_valid():
            return ForceResult(
                np.zeros((nspan, ndz, dim, ndl2)), geo, None, 0.0, valid=False
            )
        inv = ws.get("inv", (nspan, nqp, dim, dim))
        np.divide(adj, det[..., None, None], out=inv)
        geo.set_inv(inv)
        rho = ws.get("rho", (nspan, nqp))
        np.divide(self.mass_qp[lo:hi], det, out=rho)
        ez = self.thermodynamic.gather(state.e)[lo:hi]
        e_qp = ws.get("e_qp", (nspan, nqp))
        np.matmul(ez, self.basis_l2_T, out=e_qp)
        eos = self._eos_for_span(lo, hi)
        p = eos.pressure(rho, e_qp)
        cs = eos.sound_speed(rho, e_qp)
        vz = ws.get("vz", (nspan, ndz, dim))
        np.take(state.v, self._ldof[lo:hi], axis=0, out=vz)
        grad_v = ws.get("grad_v", (nspan, nqp, dim, dim))
        np.einsum(
            "zid,kir,zkre->zkde", vz, self.grad_table, inv,
            out=grad_v, optimize=self._path_gv,
        )
        sigma, mu_max = self._visc_kernel.compute(grad_v, geo, rho, cs, ws)
        for d in range(dim):
            sigma[..., d, d] -= p
        Fz = ws.get("Fz", (nspan, ndz, dim, ndl2))
        self._contract_fz(sigma, geo.adj, ws, Fz)
        points = PointData(rho, e_qp, p, cs, grad_v, sigma, mu_max)
        dt_est = self.estimate_dt(points, geo)
        return ForceResult(Fz, geo, points, dt_est, valid=True)

    def compute(self, state: HydroState, keep_az: bool = False) -> ForceResult:
        """Full corner-force evaluation at the given state.

        Dispatches to the fused zero-allocation path unless the engine
        was built with fused=False or the caller wants the weighted
        intermediate A_z (a debugging/analysis flag; the fused path never
        returns it).
        """
        if self.fused and not keep_az:
            return self._compute_fused(state)
        return self._compute_legacy(state, keep_az)

    def _compute_fused(self, state: HydroState) -> ForceResult:
        """Workspace-backed evaluation: planned contractions, no
        steady-state allocations; kernels 5/6/7 run as `_contract_fz`.
        """
        ws = self.workspace
        nz, ndz, dim, ndl2 = self._fz_shape
        tr = self.tracer
        with tr.span(_K_GEOMETRY, category="kernel") if tr else NULL_SPAN:
            geo = self.point_geometry(state.x)
        if not geo.check_valid():
            return ForceResult(
                Fz=np.zeros(self._fz_shape),
                geometry=geo,
                points=None,
                dt_est=0.0,
                valid=False,
            )
        with tr.span(_K_STRESS, category="kernel") if tr else NULL_SPAN:
            rho = ws.get("rho", (nz, self.quad.nqp))
            np.divide(self.mass_qp, geo.det, out=rho)
            ez = self.thermodynamic.gather(state.e)  # reshape view, no copy
            e_qp = ws.get("e_qp", (nz, self.quad.nqp))
            np.matmul(ez, self.basis_l2_T, out=e_qp)
            p = self.eos.pressure(rho, e_qp)
            cs = self.eos.sound_speed(rho, e_qp)
            vz = ws.get("vz", (nz, ndz, dim))
            np.take(state.v, self._ldof, axis=0, out=vz)
            grad_v = ws.get("grad_v", (nz, self.quad.nqp, dim, dim))
            np.einsum(
                "zid,kir,zkre->zkde", vz, self.grad_table, geo.inv,
                out=grad_v, optimize=self._path_gv,
            )
            sigma, mu_max = self._visc_kernel.compute(grad_v, geo, rho, cs, ws)
            for d in range(dim):
                sigma[..., d, d] -= p
        slot = self._fz_slot
        self._fz_slot = 1 - slot
        Fz = ws.get(f"Fz{slot}", self._fz_shape)
        with tr.span(_K_FORCE, category="kernel") if tr else NULL_SPAN:
            self._contract_fz(sigma, geo.adj, ws, Fz)
        points = PointData(rho, e_qp, p, cs, grad_v, sigma, mu_max)
        dt_est = self.estimate_dt(points, geo)
        return ForceResult(Fz, geo, points, dt_est, valid=True)

    def _contract_fz(
        self, sigma: np.ndarray, adj: np.ndarray, ws: Workspace, out: np.ndarray
    ) -> None:
        """Kernels 5/6/7: F_z of the zones in `sigma` / `adj`, into `out`.

        F_z[z,i,d,j] = sum_k alpha_k B[j,k] sum_r gradW[k,i,r] T[z,k,d,r],
        T[z,k,d,r] = sum_e sigma[z,k,d,e] adj(J)[z,k,r,e].
        Both plans are pairwise; `_fz_pairwise` picks one. The pairwise
        path forms T, then the (nqp, ndz, dim, ndl2) table
        gradW x (alpha B), then contracts the two in one GEMM. The
        two-stage form puts T and
        A_z[z,i,d,k] = sum_r gradW[k,i,r] T[z,k,d,r] in workspace
        buffers and makes F_z one GEMM of A_z, viewed as
        (zones * ndz * dim, nqp), against the constant (alpha B)^T;
        `out` must then be C-contiguous, as workspace buffers are.
        """
        if self._fz_pairwise:
            np.einsum(
                "zkde,zkre,kir,k,jk->zidj",
                sigma, adj, self.grad_table, self.quad.weights, self.B,
                out=out, optimize=_FZ_PAIRWISE_PATH,
            )
            return
        n, ndz, dim, ndl2 = out.shape
        nqp = self.quad.nqp
        T = ws.get("fz.T", (n, dim, dim, nqp))
        np.einsum("zkde,zkre->zdrk", sigma, adj, out=T)
        Az = ws.get("fz.Az", (n, ndz, dim, nqp))
        np.einsum("rik,zdrk->zidk", self._grad_rik, T, out=Az)
        np.matmul(Az.reshape(-1, nqp), self._wb_T, out=out.reshape(-1, ndl2))

    def _compute_legacy(self, state: HydroState, keep_az: bool = False) -> ForceResult:
        """Historical allocate-per-call evaluation (also serves keep_az)."""
        geo = self.point_geometry(state.x)
        if not geo.check_valid():
            return ForceResult(
                Fz=np.zeros(
                    (
                        self.kinematic.mesh.nzones,
                        self.kinematic.ndof_per_zone,
                        self.kinematic.dim,
                        self.thermodynamic.ndof_per_zone,
                    )
                ),
                geometry=geo,
                points=None,
                dt_est=0.0,
                valid=False,
            )
        points = self.point_stress(state, geo)
        Az = self.assemble_Az(points, geo)
        Fz = self.assemble_Fz(Az)
        dt_est = self.estimate_dt(points, geo)
        return ForceResult(
            Fz=Fz,
            geometry=geo,
            points=points,
            dt_est=dt_est,
            valid=True,
            Az=Az if keep_az else None,
        )


class SumfactStress:
    """Matrix-free stand-in for the dense corner-force matrix F_z.

    Carries the weighted quadrature-point stress

        T[z,k,d,r] = alpha_k sum_e sigma[z,k,d,e] adj(J)[z,k,r,e],

    which determines F_z exactly (F_z[z,i,d,j] = sum_{k,r} B[j,k]
    gradW[k,i,r] T[z,k,d,r]) but is O(nqp dim^2) per zone instead of
    O(ndz dim ndl2). The integrator only ever consumes F_z through
    `force_times_one` and `force_transpose_times_v`, and the sumfact
    engine applies both directly from T through the 1D contraction
    chains — the dense matrix is never materialized on this path.

    `shape` mirrors the dense layout so shape-keyed consumers can still
    identify the full-batch result.
    """

    __slots__ = ("T", "shape")

    def __init__(self, T: np.ndarray, fz_shape: tuple[int, int, int, int]):
        self.T = T
        self.shape = fz_shape


class SumfactForceEngine(ForceEngine):
    """Sum-factorized corner-force evaluator (matrix-free formulation).

    Same physics and kernel staging as the fused `ForceEngine`, but every
    basis contraction — geometry Jacobians, reference velocity gradients,
    L2 energy interpolation, and both force applications — runs through
    the 1D tensor-product chains of `fem.sumfact`: O(order^{d+1}) work
    per zone instead of the dense tables' O(order^{2d}). The dense F_z is
    never formed; `compute` returns a `SumfactStress` and the two
    integrator-facing applications are overridden to consume it.

    Agrees with the fused engine to contraction-reordering roundoff (the
    documented parity budget is 1e-10 relative per evaluation); the
    dense `compute_local` is inherited unchanged, so rank decomposition
    and the resilience layer compose exactly as with the other engines.
    """

    sumfact = True

    def __init__(self, *args, **kwargs):
        kwargs["fused"] = True
        super().__init__(*args, **kwargs)
        from repro.fem.sumfact import SumFactorizedOperators

        self._ops_h1 = SumFactorizedOperators(self.kinematic.element, self.quad)
        self._ops_l2 = SumFactorizedOperators(self.thermodynamic.element, self.quad)
        # Column sums of B (== 1 by partition of unity, kept exact): the
        # F.1 contraction reduces the L2 index analytically.
        self._b_colsum = np.ascontiguousarray(self.B.sum(axis=0))
        self._t_slot = 0
        nz, ndz, dim, ndl2 = self._fz_shape
        nqp = self.quad.nqp

        def shaped(*shape):
            return np.broadcast_to(np.float64(0.0), shape)

        self._path_gv_point = np.einsum_path(
            "zkdr,zkre->zkde",
            shaped(nz, nqp, dim, dim), shaped(nz, nqp, dim, dim),
            optimize="optimal",
        )[0]
        self._path_t = np.einsum_path(
            "k,zkde,zkre->zkdr",
            self.quad.weights, shaped(nz, nqp, dim, dim), shaped(nz, nqp, dim, dim),
            optimize="optimal",
        )[0]

    # -- kernel-aligned stages, factorized ----------------------------------

    def point_geometry(self, x: np.ndarray) -> GeometryAtPoints:
        """Kernels 1/3 with factorized Jacobians.

        jac[z,k,d,:] is the reference gradient of coordinate component d,
        contracted one 1D axis at a time; caching/freezing semantics are
        identical to the fused engine's.
        """
        for slot in (0, 1):
            entry = self._geo_cache[slot]
            if entry is not None and entry[0] is x:
                self._geo_mru = slot
                return entry[1]
        slot = 1 - self._geo_mru
        ws = self.workspace
        nz, ndz, dim, _ = self._fz_shape
        nqp = self.quad.nqp
        xz = ws.get("xz", (nz, ndz, dim))
        np.take(x, self._ldof, axis=0, out=xz)
        jac = ws.get(f"geo{slot}.jac", (nz, nqp, dim, dim))
        for d in range(dim):
            self._ops_h1.apply_G(xz[:, :, d], out=jac[:, :, d, :])
        det = ws.get(f"geo{slot}.det", (nz, nqp))
        batched_det(jac, out=det)
        adj = ws.get(f"geo{slot}.adj", (nz, nqp, dim, dim))
        batched_adjugate(jac, out=adj)
        geo = GeometryAtPoints(jac, det=det, adj=adj)
        if geo.check_valid():
            inv = ws.get(f"geo{slot}.inv", (nz, nqp, dim, dim))
            np.divide(adj, det[..., None, None], out=inv)
            geo.set_inv(inv)
        geo.freeze()
        self._geo_cache[slot] = (x, geo)
        self._geo_mru = slot
        return geo

    def compute(self, state: HydroState, keep_az: bool = False) -> ForceResult:
        if keep_az:
            return self._compute_legacy(state, keep_az)
        return self._compute_sumfact(state)

    def _compute_sumfact(self, state: HydroState) -> ForceResult:
        """Workspace-backed factorized evaluation ending in T, not F_z."""
        ws = self.workspace
        nz, ndz, dim, ndl2 = self._fz_shape
        nqp = self.quad.nqp
        tr = self.tracer
        with tr.span(_K_GEOMETRY, category="kernel") if tr else NULL_SPAN:
            geo = self.point_geometry(state.x)
        if not geo.check_valid():
            return ForceResult(
                Fz=np.zeros(self._fz_shape),
                geometry=geo,
                points=None,
                dt_est=0.0,
                valid=False,
            )
        with tr.span(_K_STRESS, category="kernel") if tr else NULL_SPAN:
            rho = ws.get("rho", (nz, nqp))
            np.divide(self.mass_qp, geo.det, out=rho)
            ez = self.thermodynamic.gather(state.e)  # reshape view, no copy
            e_qp = ws.get("e_qp", (nz, nqp))
            self._ops_l2.apply_B(ez, out=e_qp)
            p = self.eos.pressure(rho, e_qp)
            cs = self.eos.sound_speed(rho, e_qp)
            vz = ws.get("vz", (nz, ndz, dim))
            np.take(state.v, self._ldof, axis=0, out=vz)
            ref_grad = ws.get("sf.refgrad_v", (nz, nqp, dim, dim))
            for d in range(dim):
                self._ops_h1.apply_G(vz[:, :, d], out=ref_grad[:, :, d, :])
            grad_v = ws.get("grad_v", (nz, nqp, dim, dim))
            np.einsum(
                "zkdr,zkre->zkde", ref_grad, geo.inv,
                out=grad_v, optimize=self._path_gv_point,
            )
            sigma, mu_max = self._visc_kernel.compute(grad_v, geo, rho, cs, ws)
            for d in range(dim):
                sigma[..., d, d] -= p
        slot = self._t_slot
        self._t_slot = 1 - slot
        T = ws.get(f"sf.T{slot}", (nz, nqp, dim, dim))
        with tr.span(_K_FORCE, category="kernel") if tr else NULL_SPAN:
            np.einsum(
                "k,zkde,zkre->zkdr",
                self.quad.weights, sigma, geo.adj,
                out=T, optimize=self._path_t,
            )
        points = PointData(rho, e_qp, p, cs, grad_v, sigma, mu_max)
        dt_est = self.estimate_dt(points, geo)
        return ForceResult(SumfactStress(T, self._fz_shape), geo, points, dt_est, valid=True)

    # -- matrix-free force applications --------------------------------------

    def force_times_one(self, Fz) -> np.ndarray:
        """Kernel 8 from T: -F.1 = -G^T (colsum(B) * T) per component."""
        if not isinstance(Fz, SumfactStress):
            return super().force_times_one(Fz)
        ws = self.workspace
        nz, ndz, dim, _ = self._fz_shape
        nqp = self.quad.nqp
        out = ws.get("rhs_mom_z", (nz, ndz, dim))
        weighted = ws.get("sf.f1_weighted", (nz, nqp, dim))
        for d in range(dim):
            np.multiply(Fz.T[:, :, d, :], self._b_colsum[None, :, None], out=weighted)
            self._ops_h1.apply_G_T(weighted, out=out[:, :, d])
        np.negative(out, out=out)
        return out

    def force_transpose_times_v(self, Fz, v: np.ndarray) -> np.ndarray:
        """Kernel 10 from T: F^T v = B_l2^T (T : grad_ref v)."""
        if not isinstance(Fz, SumfactStress):
            return super().force_transpose_times_v(Fz, v)
        ws = self.workspace
        nz, ndz, dim, ndl2 = self._fz_shape
        nqp = self.quad.nqp
        vz = ws.get("vz_energy", (nz, ndz, dim))
        np.take(v, self._ldof, axis=0, out=vz)
        ref_grad = ws.get("sf.refgrad_e", (nz, nqp, dim, dim))
        for d in range(dim):
            self._ops_h1.apply_G(vz[:, :, d], out=ref_grad[:, :, d, :])
        contracted = ws.get("sf.contract_e", (nz, nqp))
        np.einsum("zkdr,zkdr->zk", Fz.T, ref_grad, out=contracted)
        out = ws.get("rhs_energy_z", (nz, ndl2))
        self._ops_l2.apply_B_T(contracted, out=out)
        return self.thermodynamic.scatter(out)

    def dense_force(self, Fz) -> np.ndarray:
        """Materialize the dense F_z from a `SumfactStress` (tests/benches).

        Not part of the hot path — parity checks against the fused
        engine need the full matrix.
        """
        if not isinstance(Fz, SumfactStress):
            return np.asarray(Fz)
        return np.einsum("zkdr,kir,jk->zidj", Fz.T, self.grad_table, self.B, optimize=True)


def corner_force_loops(engine: ForceEngine, state: HydroState) -> np.ndarray:
    """Reference CPU formulation: explicit zone / quadrature-point loops.

    Mirrors the paper's step 4/4.1/4.2 structure with scalar math at each
    point. O(nzones * nqp) Python-level iterations — use on small meshes
    to validate the batched engine.
    """
    mesh = engine.kinematic.mesh
    dim = mesh.dim
    nqp = engine.quad.nqp
    ndz = engine.kinematic.ndof_per_zone
    ndl2 = engine.thermodynamic.ndof_per_zone
    xz = engine.kinematic.gather(state.x)
    vz = engine.kinematic.gather(state.v)
    ez = engine.thermodynamic.gather(state.e)
    Fz = np.zeros((mesh.nzones, ndz, dim, ndl2))
    eye = np.eye(dim)

    def zone_eos(z: int):
        """Per-zone scalar-gamma view of a (possibly per-zone) EOS."""
        gamma = getattr(engine.eos, "gamma", None)
        if gamma is None or np.ndim(gamma) == 0:
            return engine.eos
        g = float(np.asarray(gamma).reshape(mesh.nzones, -1)[z, 0])
        return type(engine.eos)(g)

    for z in range(mesh.nzones):
        eos_z = zone_eos(z)
        for k in range(nqp):
            gw = engine.grad_table[k]  # (ndz, dim)
            jac = xz[z].T @ gw  # (dim, dim)
            det = np.linalg.det(jac)
            if det <= 0:
                raise RuntimeError(f"tangled zone {z} at point {k}")
            jinv = np.linalg.inv(jac)
            rho = engine.mass_qp[z, k] / det
            e_pt = float(engine.basis_l2[k] @ ez[z])
            p = float(np.asarray(eos_z.pressure(rho, e_pt)))
            cs = float(np.asarray(eos_z.sound_speed(rho, e_pt)))
            grad_v = vz[z].T @ gw @ jinv
            sigma_visc, _ = tensor_viscosity(
                grad_v[None], jac[None], np.array([rho]), np.array([cs]), engine.order, engine.viscosity
            )
            sigma = sigma_visc[0] - p * eye
            alpha = engine.quad.weights[k]
            contraction = gw @ (det * jinv) @ sigma.T  # (ndz, dim)
            for j in range(ndl2):
                Fz[z, :, :, j] += alpha * contraction * engine.B[j, k]
    return Fz
