"""End-to-end energy-efficiency report (Sections 4-5 in one script).

    python examples/greenup_report.py

Measures a real solver run's workload through `repro.api.run` with
telemetry on (and its PCG iteration count from the same march with
`PCGMomentumSolver` swapped in), prices it on the simulated Sandy
Bridge node and K20, and prints the full energy story: CPU profile,
hybrid speedup, RAPL/NVML power levels, and the Table 7 greenup rows.
"""

from repro.api import RunConfig, make_problem, run
from repro.cpu import get_cpu
from repro.gpu import get_gpu
from repro.hydro.momentum import PCGMomentumSolver
from repro.hydro.solver import LagrangianHydroSolver
from repro.kernels import FEConfig
from repro.runtime.hybrid import HybridExecutor


def pcg_iterations_per_solve(cfg: RunConfig) -> float:
    """Momentum-PCG iterations per solve over the same march.

    The serial solver factors the mass matrix once and solves directly;
    the paper's CUDA-PCG is priced from a run with PCG swapped in.
    """
    solver = LagrangianHydroSolver(make_problem("sedov", cfg), cfg)
    solver.install_momentum(PCGMomentumSolver(solver.mass_v, solver.bc))
    with solver:
        return solver.run(t_final=cfg.t_final).workload.pcg_iters_per_solve


def main() -> None:
    # 1. Measure a real (small) run to calibrate the workload. Telemetry
    #    is on, so the manifest also carries the measured joule split.
    print("== measuring workload on a real 3D Sedov run ==")
    cfg = RunConfig(dim=3, order=2, zones=3, t_final=1.0, max_steps=8, telemetry=True)
    report = run("sedov", cfg)
    w = report.result.workload
    iters = pcg_iterations_per_solve(cfg)
    print(f"steps: {w.steps}, corner-force evals: {w.force_evals}, "
          f"PCG iterations/solve: {iters:.1f}")
    measured = report.manifest.energy["phases_j"]
    print("measured joules (simulated RAPL): "
          + "  ".join(f"{k} {v:.2f}J" for k, v in measured.items()))

    # 2. Price the paper-scale configurations on the simulated node.
    cpu, gpu = get_cpu("E5-2670"), get_gpu("K20")
    print(f"\n== modelled single node: 2x {cpu.name} + {gpu.name}, 8 MPI ==")
    for label, cfg in (
        ("Q2-Q1", FEConfig(3, 2, 16**3)),
        ("Q4-Q3", FEConfig(3, 4, 8**3)),
    ):
        ex = HybridExecutor(cfg, cpu, gpu, nmpi=8, pcg_iterations=iters)
        cpu_run = ex.cpu_only()
        hyb_run = ex.hybrid()
        rep = ex.greenup_report(method=label)
        f = cpu_run.step.fractions()
        print(f"\n{label} ({cfg.describe()})")
        print(f"  CPU-only : {cpu_run.step.total_s * 1e3:8.1f} ms/step at "
              f"{cpu_run.total_power_w:5.0f} W "
              f"(corner force {f['corner_force']:.0%}, CG {f['cg']:.0%})")
        print(f"  hybrid   : {hyb_run.step.total_s * 1e3:8.1f} ms/step at "
              f"{hyb_run.total_power_w:5.0f} W "
              f"(CPU {hyb_run.cpu_power_w:.0f} W + GPU {hyb_run.gpu_power_w:.0f} W)")
        print(f"  speedup {rep.speedup:5.2f}x   powerup {rep.powerup:4.2f}   "
              f"greenup {rep.greenup:5.2f}   energy saved {rep.energy_saved_fraction:4.0%}")
        paper = {"Q2-Q1": (1.9, 0.67, 1.27), "Q4-Q3": (2.5, 0.57, 1.42)}[label]
        print(f"  (paper:  {paper[0]:4.1f}x           {paper[1]:4.2f}"
              f"            {paper[2]:4.2f})")

    print("\nThe hybrid node draws more instantaneous power than the CPU"
          "\nalone (powerup < 1) but finishes enough sooner that the energy"
          "\nto solution drops — the paper's greenup > 1 conclusion.")


if __name__ == "__main__":
    main()
