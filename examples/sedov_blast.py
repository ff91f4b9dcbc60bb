"""3D Sedov blast with verification against the self-similar solution.

    python examples/sedov_blast.py [--order K] [--zones N] [--t-final T]

Runs the paper's primary benchmark (Section 4) at configurable order
and resolution, tracking the shock front against the analytic
R(t) = (E t^2 / (alpha rho0))^(1/5) and reporting conservation,
time-step history and the workload profile the hardware models consume.
The hardware models price the paper's momentum PCG, so the march runs
with `PCGMomentumSolver` swapped in for the serial direct solve and
reports the real iteration counts.
"""

import argparse

import numpy as np

from repro.api import RunConfig, make_problem
from repro.hydro.momentum import PCGMomentumSolver
from repro.hydro.solver import LagrangianHydroSolver


def shock_front_radius(solver) -> float:
    """Radius of the density maximum (the numerical shock position)."""
    rho = solver.density_at_points().ravel()
    pts = solver.engine.geom_eval.physical_points(solver.state.x)
    r = np.linalg.norm(pts.reshape(-1, solver.kinematic.dim), axis=1)
    return float(r[np.argmax(rho)])


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--order", type=int, default=2, help="kinematic FE order k")
    ap.add_argument("--zones", type=int, default=4, help="zones per dimension")
    ap.add_argument("--t-final", type=float, default=0.08)
    ap.add_argument("--checkpoints", type=int, default=4)
    args = ap.parse_args()

    times = np.linspace(0, args.t_final, args.checkpoints + 1)[1:]

    cfg = RunConfig(dim=3, order=args.order, zones=args.zones, cfl=0.5)
    problem = make_problem("sedov", cfg)
    solver = LagrangianHydroSolver(problem, cfg)
    solver.install_momentum(PCGMomentumSolver(solver.mass_v, solver.bc))
    print(f"3D Sedov, Q{args.order}-Q{args.order - 1}, "
          f"{problem.mesh.nzones} zones, {solver.quad.nqp} qp/zone")

    e_init_total = solver.energies().total
    print(f"\n{'t':>8} {'steps':>6} {'R_shock':>8} {'R_analytic':>10} "
          f"{'rho_max':>8} {'E_total':>14}")
    total_steps = 0
    for t_stop in times:
        total_steps += solver.run(t_final=float(t_stop)).steps
        e = solver.energies()
        print(f"{solver.state.t:8.4f} {total_steps:6d} "
              f"{shock_front_radius(solver):8.4f} "
              f"{problem.shock_radius(solver.state.t):10.4f} "
              f"{solver.density_at_points().max():8.4f} {e.total:14.10f}")

    w = solver.workload
    print(f"\nworkload: {w.force_evals} corner-force evaluations, "
          f"{w.pcg_iterations} PCG iterations over {w.pcg_solves} solves "
          f"({w.pcg_iters_per_solve:.1f}/solve)")
    drift = solver.energies().total - e_init_total
    print(f"final |E - E0| / E0 = {abs(drift) / e_init_total:.2e}")
    solver.close()


if __name__ == "__main__":
    main()
