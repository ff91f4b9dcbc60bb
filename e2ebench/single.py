"""Single-solver workloads: one `LagrangianHydroSolver` marching a fixed
number of steps, repeated until the run's time is up.

A repetition builds a fresh solver (one set-up sample), marches it
`steps` accepted steps from the Sedov initial state, checks the end
state, and closes it. The workloads differ only in the problem shape
and the simulated rank count; all of them run the default backend.
"""

from __future__ import annotations

import gc
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.api import RunConfig, make_problem
from repro.hydro.solver import LagrangianHydroSolver

import calibrate
import layers
import metrics as m
from host import peak_rss_mb
from probes import Probes, SpanStore, SpanTable
from reference import STATE_RTOL, compare

WORKLOADS = {
    "sedov-q2": {"physics": "sedov-q2", "order": 2, "zones": 16, "ranks": 0, "steps": 25},
    "sedov-q6": {"physics": "sedov-q6", "order": 6, "zones": 4, "ranks": 0, "steps": 12},
    "sedov-q2-r64": {"physics": "sedov-q2", "order": 2, "zones": 16, "ranks": 64, "steps": 25},
}
#: Far beyond the marched steps, so `steps` alone ends every march.
T_FINAL = 1.0
SMOKE_STEPS = 3
#: Solver constructions timed before each untraced repetition.
SETUP_PER_PASS = 3
#: Repetitions per pass at least, so every step position has several
#: samples to take the median of.
MIN_REPS = 3
#: RK2Avg conserves total energy to roundoff (~1e-15 relative).
ENERGY_RTOL = 1e-12
#: Zone masses are rho |J| w summed per zone: conserved to roundoff.
MASS_RTOL = 1e-13
#: Steps marched by the tracemalloc pass (arena steady state is reached
#: after the first two).
TRACEMALLOC_STEPS = 4


def build(spec: dict) -> LagrangianHydroSolver:
    cfg = RunConfig(order=spec["order"], zones=spec["zones"], ranks=spec["ranks"],
                    t_final=T_FINAL)
    return LagrangianHydroSolver(make_problem("sedov", cfg), cfg)


def zone_masses(solver, state) -> np.ndarray:
    geo = solver.engine.geom_eval.evaluate(state.x)
    if np.any(geo.det <= 0):
        return np.full(geo.det.shape[0], np.nan)
    rho = solver.engine.mass_qp / geo.det
    return (rho * geo.det * solver.quad.weights[None, :]).sum(axis=1)


def check(solver, result, spec: dict, steps: int, mass0: np.ndarray) -> dict:
    """Correctness of one march: step count, energy, mass, reference state."""
    e0 = result.energy_history[0].total
    drift = abs(result.energy_change) / abs(e0)
    mass1 = zone_masses(solver, result.state)
    mass_err = float(np.max(np.abs(mass1 - mass0) / np.abs(mass0)))
    state_err = compare(result.state, spec["physics"], steps)
    failures = []
    if result.steps != steps:
        failures.append(f"marched {result.steps} of {steps} steps")
    if not drift <= ENERGY_RTOL:
        failures.append(f"energy drift {drift:.3e} > {ENERGY_RTOL:.0e}")
    if not mass_err <= MASS_RTOL:
        failures.append(f"zone mass error {mass_err:.3e} > {MASS_RTOL:.0e}")
    worst = max(state_err.values())
    if not worst <= STATE_RTOL:
        failures.append(f"state differs from reference by {worst:.3e} > {STATE_RTOL:.0e}")
    return {"failures": failures, "energy_drift": drift, "mass_err": mass_err,
            "state_err": state_err}


def _timed_steps(solver, timeline: dict, kernel) -> None:
    """Record, per accepted step, its attempts' wall time (rejected ones
    included), when its first attempt started, and a calibration sample
    taken just before it (outside every timed interval)."""
    inner = solver.step
    pending = {"t0": None, "s": 0.0}

    def step(dt):
        if pending["t0"] is None:
            timeline["cal_s"].append(kernel())
            pending["t0"] = time.perf_counter()
        t0 = time.perf_counter()
        accepted = inner(dt)
        pending["s"] += time.perf_counter() - t0
        if accepted:
            timeline["step_s"].append(pending["s"])
            timeline["starts"].append(pending["t0"])
            pending["t0"], pending["s"] = None, 0.0
        return accepted

    solver.step = step


class _Reps:
    """Samples from repeated set-up + march repetitions.

    Every time is scaled to reference-host seconds by the calibration
    sample taken next to it (`calibrate`). Every repetition does
    identical work, so step k of one repetition and step k of another
    are samples of one quantity: `filtered_*` take the median over
    repetitions position by position, then the median (steps) or the
    sum (the march) over positions.
    """

    def __init__(self):
        self.setup_passes: list[list[float]] = []
        self.rep_setup_s: list[float] = []
        self.solve_s: list[float] = []
        self.raw_solve_s: list[float] = []
        self.steps: list[list[float]] = []
        self.segments: list[list[float]] = []
        self.checks: list[dict] = []

    @property
    def failed(self) -> int:
        return sum(1 for c in self.checks if c["failures"])

    def setup_s(self) -> float:
        return m.median(m.positional_median(self.setup_passes))

    def filtered_steps(self) -> list[float]:
        return m.positional_median(self.steps)

    def filtered_solve_s(self) -> float:
        return sum(m.positional_median(self.segments))


def _rep(spec: dict, steps: int, reps: _Reps, kernel=calibrate.kernel_s, on_solver=None):
    cal0 = kernel()
    t0 = time.perf_counter()
    solver = build(spec)
    t1 = time.perf_counter()
    timeline = {"step_s": [], "starts": [], "cal_s": []}
    try:
        mass0 = zone_masses(solver, solver.state)
        _timed_steps(solver, timeline, kernel)
        t2 = time.perf_counter()
        result = solver.run(t_final=T_FINAL, max_steps=steps)
        t3 = time.perf_counter()
        reps.checks.append(check(solver, result, spec, steps, mass0))
        if on_solver is not None:
            on_solver(solver, result)
    finally:
        solver.close()
    cal = timeline["cal_s"]
    # Intervals between step starts, less the calibration that opens
    # the next interval; each scaled by the sample taken at its start.
    marks = [t2, *timeline["starts"], t3]
    raw = [b - a - (cal[k] if k < len(cal) else 0.0)
           for k, (a, b) in enumerate(zip(marks, marks[1:]))]
    scale = [calibrate.REF_S / cal[max(k - 1, 0)] for k in range(len(raw))]
    reps.rep_setup_s.append((t1 - t0) * calibrate.REF_S / cal0)
    reps.raw_solve_s.append(sum(raw))
    reps.segments.append([r * f for r, f in zip(raw, scale)])
    reps.solve_s.append(sum(reps.segments[-1]))
    reps.steps.append([x * calibrate.REF_S / c for x, c in zip(timeline["step_s"], cal)])
    return result


def _loop(seconds: float, reps: _Reps, rep) -> None:
    """Call `rep` until `seconds` have passed and `MIN_REPS` repetitions ran."""
    start = time.perf_counter()
    while True:
        rep()
        if time.perf_counter() - start >= seconds and len(reps.checks) >= MIN_REPS:
            break


def _warm_up(spec: dict) -> None:
    solver = build(spec)
    solver.run(t_final=T_FINAL, max_steps=2)
    solver.close()


def _setup_pass(spec: dict) -> list[float]:
    """SETUP_PER_PASS constructions in reference-host seconds, after
    collecting the previous repetition's garbage."""
    gc.collect()
    row = []
    for _ in range(SETUP_PER_PASS):
        cal = calibrate.kernel_s()
        t0 = time.perf_counter()
        solver = build(spec)
        row.append((time.perf_counter() - t0) * calibrate.REF_S / cal)
        solver.close()
    return row


def _untraced(spec: dict, steps: int, seconds: float) -> _Reps:
    """Repetitions with no wrapper installed, each preceded by a set-up
    pass (so set-up passes are seconds apart, like the repetitions)."""
    reps = _Reps()

    def rep():
        reps.setup_passes.append(_setup_pass(spec))
        _rep(spec, steps, reps)

    _loop(seconds, reps, rep)
    return reps


def end_to_end(reps: _Reps, rss_mb: float) -> dict:
    attempted = len(reps.checks)
    setup = reps.setup_s()
    solve = reps.filtered_solve_s()
    jobs = [s + solve for s in reps.rep_setup_s]
    return {
        "setup_s": setup,
        "step_ms_p50": 1e3 * m.median(reps.filtered_steps()),
        "solve_s": solve,
        "jobs_per_s": m.ratio(1.0, setup + solve),
        "job_s_p50": m.median(jobs),
        "job_s_p90": m.p90(jobs),
        "peak_rss_mb": rss_mb,
        "ok_rate": 1.0 - m.ratio(reps.failed, attempted),
    }


def _traced_layers(traced: list[dict], untraced_step_ms: float, traced_step_ms: float,
                   alloc_peak_mb: float) -> tuple[dict, dict]:
    """Per-layer metrics over the traced repetitions (and their integrity)."""
    tables = [rep["table"] for rep in traced]
    accepted = sum(rep["result"].steps for rep in traced)
    values = layers.step_layers(tables, accepted)
    comms = [c for c in (getattr(rep["solver"].backend, "comm", None) for rep in traced)
             if c is not None]
    comm_s = sum(t.total_s("comm") for t in tables)
    values.update({
        "comm.messages_per_step": m.ratio(sum(c.traffic.messages for c in comms), accepted),
        "comm.bytes_per_step": m.ratio(sum(c.traffic.bytes for c in comms), accepted),
        "comm.reductions_per_step": m.ratio(sum(c.traffic.reductions for c in comms), accepted),
        "comm.collective_ms": 1e3 * m.ratio(comm_s, accepted),
        "comm.exposed_modeled_ms": 1e3 * m.ratio(sum(c.ledger.exposed_s for c in comms),
                                                 accepted),
        "arena.high_water_mb": max(rep["solver"].arena.stats()["high_water_bytes"]
                                   for rep in traced) / 1e6,
        "arena.allocs_steady": sum(rep["probes"].steady_allocs() for rep in traced),
        "trace.overhead_pct": 100.0 * (m.ratio(traced_step_ms, untraced_step_ms) - 1.0),
        "mem.alloc_peak_mb": alloc_peak_mb,
    })
    check = layers.integrity(tables, "march")
    values["trace.unattributed_pct"] = check["unattributed_pct"]
    layers.zero_fill(values, "fleet.")
    return values, check


def _alloc_peak_mb(spec: dict) -> float:
    """tracemalloc peak over one set-up and a short march (untraced)."""
    tracemalloc.start()
    try:
        solver = build(spec)
        solver.run(t_final=T_FINAL, max_steps=TRACEMALLOC_STEPS)
        solver.close()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def run(name: str, seconds: float, trace: bool, smoke: bool, out_dir: Path) -> dict:
    spec = WORKLOADS[name]
    steps = SMOKE_STEPS if smoke else spec["steps"]
    _warm_up(spec)
    if not trace:
        reps = _untraced(spec, steps, seconds)
        values = end_to_end(reps, peak_rss_mb())
        return {"values": values, "attempted": len(reps.checks), "failed": reps.failed,
                "record": _record(spec, steps, reps)}

    plain = _untraced(spec, steps, seconds / 2)
    traced = _Reps()
    traced_reps: list[dict] = []

    def traced_rep():
        store = SpanStore()
        with Probes(store) as probes:
            rep = {"probes": probes}
            _rep(spec, steps, traced, kernel=store.wrap("bench.calibrate", calibrate.kernel_s),
                 on_solver=lambda s, r: rep.update(solver=s, result=r))
        rep["table"] = SpanTable(store)
        traced_reps.append(rep)
        if len(traced_reps) == 1:
            store.write_chrome_trace(out_dir / f"trace-{name}.json")

    _loop(seconds / 2, traced, traced_rep)
    values, integrity = _traced_layers(
        traced_reps, 1e3 * m.median(plain.filtered_steps()),
        1e3 * m.median(traced.filtered_steps()),
        _alloc_peak_mb(spec))
    failed = plain.failed + traced.failed + (1 if integrity["failures"] else 0)
    record = _record(spec, steps, traced)
    record["untraced"] = _record(spec, steps, plain)
    record["integrity"] = integrity
    return {"values": values, "attempted": len(plain.checks) + len(traced.checks),
            "failed": failed, "record": record}


def _record(spec: dict, steps: int, reps: _Reps) -> dict:
    all_steps = [x for rep in reps.steps for x in rep]
    return {
        "workload_spec": dict(spec, steps=steps),
        "reps": len(reps.checks),
        "setup_samples": sum(len(r) for r in reps.setup_passes),
        "step_samples": len(all_steps),
        "step_positions": len(reps.filtered_steps()),
        "unfiltered": {
            "step_ms_p50": 1e3 * m.median(all_steps),
            "solve_s_p50": m.median(reps.solve_s),
            "raw_solve_s_p50": m.median(reps.raw_solve_s),
        },
        "solve_s": reps.solve_s,
        "setup_s": reps.setup_passes,
        "checks": reps.checks,
    }
