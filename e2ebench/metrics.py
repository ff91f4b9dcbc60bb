"""Metric names, units and the small statistics every workload shares.

`END_TO_END` and `PER_LAYER` are the names and units a run prints
(with `--trace 0` and `--trace 1` respectively); `BENCHMARK.json` lists
the same names, and the tests check the two agree.
"""

from __future__ import annotations

import statistics

END_TO_END = {
    "setup_s": "s",
    "step_ms_p50": "ms",
    "solve_s": "s",
    "jobs_per_s": "1/s",
    "job_s_p50": "s",
    "job_s_p90": "s",
    "peak_rss_mb": "MB",
    "ok_rate": "ratio",
}

PER_LAYER = {
    # hydro.corner_force (per accepted step unless named otherwise)
    "force.ms_per_eval": "ms",
    "force.evals_per_step": "count",
    "force.share": "ratio",
    "force.geometry_ms": "ms",
    "force.eos_ms": "ms",
    "force.viscosity_ms": "ms",
    "force.dt_ms": "ms",
    "force.contract_ms": "ms",
    # hydro.momentum, linalg.pcg / csr
    "momentum.ms_per_solve": "ms",
    "momentum.share": "ratio",
    "momentum.pcg_iters_per_solve": "count",
    "momentum.matvec_us": "us",
    "momentum.matvec_gbs_computed": "GB/s",
    "momentum.flops_per_solve": "count",
    # hydro.integrator, linalg.blockdiag
    "rhs.assemble_ms": "ms",
    "energy.rhs_ms": "ms",
    "energy.solve_ms": "ms",
    "step.other_ms": "ms",
    # hydro.timestep
    "step.accept_ratio": "ratio",
    # fem.assembly, solver set-up (per construction)
    "setup.spaces_s": "s",
    "setup.mass_assembly_s": "s",
    "setup.backend_s": "s",
    # runtime.arena
    "arena.high_water_mb": "MB",
    "arena.allocs_steady": "count",
    # backends.distributed, runtime.mpi_sim
    "comm.messages_per_step": "count",
    "comm.bytes_per_step": "count",
    "comm.reductions_per_step": "count",
    "comm.collective_ms": "ms",
    "comm.exposed_modeled_ms": "ms",
    "rank.force_ms": "ms",
    "rank.momentum_ms": "ms",
    # service
    "fleet.queue_wait_ms": "ms",
    "fleet.setup_ms_cold": "ms",
    "fleet.reset_ms_warm": "ms",
    "fleet.run_ms": "ms",
    "fleet.overhead_ms": "ms",
    "fleet.journal_append_ms": "ms",
    "fleet.result_put_ms": "ms",
    "fleet.result_get_ms": "ms",
    "fleet.result_hit_ratio": "ratio",
    "fleet.warm_hit_ratio": "ratio",
    "fleet.retries": "count",
    "fleet.shed": "count",
    # sched, tuning
    "tuner.on_step_us": "us",
    "tuner.evaluations_per_job": "count",
    # the benchmark itself
    "trace.overhead_pct": "%",
    "trace.unattributed_pct": "%",
    "mem.alloc_peak_mb": "MB",
}


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def mean(values) -> float:
    values = list(values)
    return float(sum(values) / len(values)) if values else 0.0


def p90(values) -> float:
    """90th percentile (inclusive method; the single value for one sample)."""
    values = sorted(values)
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=10, method="inclusive")[8])


def positional_median(rows) -> list[float]:
    """Element-wise median over equally long sample rows (truncated to
    the shortest): one value per position of identical repetitions."""
    rows = [list(r) for r in rows if r]
    if not rows:
        return []
    n = min(len(r) for r in rows)
    return [float(statistics.median(r[i] for r in rows)) for i in range(n)]


def ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def emit(values: dict, units: dict) -> dict:
    """`{name: {"value", "unit"}}` for exactly the names in `units`."""
    missing = set(units) - set(values)
    if missing:
        raise KeyError(f"metrics not computed: {sorted(missing)}")
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
