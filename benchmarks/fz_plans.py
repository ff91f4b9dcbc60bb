"""Time the fused engine's two F_z plans against each other, per shape.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python benchmarks/fz_plans.py
    PYTHONPATH=src python benchmarks/fz_plans.py --shape 2,2,16 --shape 2,6,4 --reps 40

`ForceEngine._contract_fz` forms the corner force F_z either by the
pairwise einsum path (T = sigma adj^T against a gradW x (alpha B) table)
or by the two-stage form (T, A_z, one GEMM against (alpha B)^T); the
engine picks one from the shapes at construction. For each
(dim, order, zones per side) this times both plans on the same stress
and geometry, interleaved call by call, and prints the medians in ms,
the faster plan, and the plan the engine picks.
"""

from __future__ import annotations

import argparse
import statistics
import time

import numpy as np

DEFAULT_SHAPES = [
    (2, 1, 16), (2, 2, 4), (2, 2, 8), (2, 2, 16), (2, 3, 4), (2, 3, 8), (2, 3, 16),
    (2, 4, 4), (2, 4, 8), (2, 4, 12), (2, 5, 8), (2, 5, 14), (2, 6, 4), (2, 6, 12),
    (2, 6, 16), (2, 8, 3), (3, 1, 4), (3, 2, 3), (3, 2, 4), (3, 2, 5), (3, 3, 3),
    (3, 3, 6),
]


def _engine(dim: int, order: int, nz1d: int):
    from repro.fem.geometry import GeometryEvaluator
    from repro.fem.mesh import cartesian_mesh_2d, cartesian_mesh_3d
    from repro.fem.quadrature import tensor_quadrature
    from repro.fem.spaces import H1Space, L2Space
    from repro.hydro.corner_force import ForceEngine
    from repro.hydro.eos import GammaLawEOS

    mesh = cartesian_mesh_2d(nz1d, nz1d) if dim == 2 else cartesian_mesh_3d(nz1d, nz1d, nz1d)
    h1 = H1Space(mesh, order)
    l2 = L2Space(mesh, order - 1)
    quad = tensor_quadrature(dim, 2 * order)
    geo0 = GeometryEvaluator(h1, quad).evaluate(h1.node_coords)
    rho0 = np.ones((mesh.nzones, quad.nqp))
    return ForceEngine(h1, l2, quad, GammaLawEOS(), rho0, geo0), h1, l2


def time_plans(dim: int, order: int, nz1d: int, reps: int = 20) -> dict:
    """Median ms per `_contract_fz` call under each plan at one shape."""
    from repro.hydro.state import HydroState

    eng, h1, l2 = _engine(dim, order, nz1d)
    rng = np.random.default_rng(0)
    state = HydroState(
        0.1 * rng.standard_normal((h1.ndof, dim)), rng.random(l2.ndof) + 0.5,
        h1.node_coords.copy(), 0.0,
    )
    res = eng.compute(state)
    sigma, adj = res.points.sigma, res.geometry.adj
    out = np.empty(eng._fz_shape)
    picked = eng._fz_pairwise
    ms = {True: [], False: []}
    for _ in range(reps + 1):
        for plan in ms:
            eng._fz_pairwise = plan
            t0 = time.perf_counter()
            eng._contract_fz(sigma, adj, eng.workspace, out)
            ms[plan].append((time.perf_counter() - t0) * 1e3)
    eng._fz_pairwise = picked
    pairwise, two_stage = (statistics.median(ms[p][1:]) for p in (True, False))
    return {
        "dim": dim, "order": order, "nzones": eng._fz_shape[0], "nqp": eng.quad.nqp,
        "pairwise_ms": pairwise, "two_stage_ms": two_stage,
        "faster": "pairwise" if pairwise < two_stage else "two-stage",
        "picked": "pairwise" if picked else "two-stage",
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--shape", action="append", default=[],
                    help="dim,order,zones-per-side (repeatable)")
    ap.add_argument("--reps", type=int, default=20)
    args = ap.parse_args(argv)
    shapes = [tuple(int(v) for v in s.split(",")) for s in args.shape] or DEFAULT_SHAPES
    print(f"{'dim':>3} {'Q':>2} {'zones':>5} {'nqp':>4} {'pairwise':>9} {'two-stage':>9}  faster     picked")
    for dim, order, nz1d in shapes:
        r = time_plans(dim, order, nz1d, args.reps)
        print(f"{dim:>3} {order:>2} {r['nzones']:>5} {r['nqp']:>4} {r['pairwise_ms']:>9.3f} "
              f"{r['two_stage_ms']:>9.3f}  {r['faster']:<10} {r['picked']}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
