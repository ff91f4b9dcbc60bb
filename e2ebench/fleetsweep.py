"""The `fleet-sweep` workload: a closed loop against `SimulationFleet`.

One client thread submits a seeded job list from `jobmix` to a fleet of
`FLEET_WORKERS` worker threads, one job at a time: it submits a job,
waits for its result, and submits the next. The journal, the on-disk
result store and the shared tuning cache live in a fresh directory per
sweep, and nothing injects faults. Each sweep of a run draws its own
order of the same job catalog. Every job's source (the job it repeats,
or whose shape it reuses) has finished before it is submitted, so exact
repeats always find their result stored and warm reuses always find
their solver pooled: the measured shares equal the generated ones (both
are recorded).

One job in flight, not two: with two, a job's latency depended on
which other job it overlapped under the interpreter lock, and the
ten-run spread of every fleet timing stayed at 0.1-0.2 of its median
whatever the filter. With one, each job is a unit of identical work
from sweep to sweep, filtered like the single-solver workloads.

The warm pool holds every shape of a sweep. With the default four
slots the first shapes keep the pool and whether a later job finds its
solver depends on which shapes came first.
"""

from __future__ import annotations

import gc
import math
import shutil
import time
import tracemalloc
from pathlib import Path

from repro.api import RunConfig, make_problem
from repro.hydro.solver import LagrangianHydroSolver
from repro.service import AdmissionError, FleetConfig, SimulationFleet

import calibrate
import jobmix
import layers
import metrics as m
from host import peak_rss_mb
from probes import Probes, SpanStore, SpanTable, wrap_fleet

FLEET_WORKERS = 2
SMOKE_JOBS = 12
#: A job taking this long means the fleet hung: the run fails rather
#: than outliving its time limit.
JOB_TIMEOUT_S = 60.0
#: Sweeps per pass at least, so every job has several samples to take
#: the median of.
MIN_SWEEPS = 3
#: RK2Avg conserves total energy to roundoff in a closed domain.
DRIFT_RTOL = 1e-12
#: Problems whose boundary does work on the gas: the Saltzman piston
#: pushes energy in, so its check is that energy rose, not that it held.
DRIVEN = {"saltzman"}
#: Fixed cold set-up probe, timed before each untraced sweep: every
#: problem at Q2 on 3 zones, default backend.
SETUP_SHAPES = [(p, 2, 3) for p in jobmix.PROBLEMS]


def _build_setup_shape(problem, order, zones):
    cfg = RunConfig(order=order, zones=zones, t_final=jobmix.T_FINAL)
    return LagrangianHydroSolver(make_problem(problem, cfg), cfg)


def setup_pass() -> list[float]:
    """One cold construction of every `SETUP_SHAPES` solver, in
    reference-host seconds, after collecting the previous sweep's
    garbage."""
    gc.collect()
    row = []
    for shape in SETUP_SHAPES:
        cal = calibrate.kernel_s()
        t0 = time.perf_counter()
        solver = _build_setup_shape(*shape)
        row.append((time.perf_counter() - t0) * calibrate.REF_S / cal)
        solver.close()
    return row


class Sweep:
    """Outcome of one pass over a job list on a fresh fleet."""

    def __init__(self, jobs: list[jobmix.Job]):
        self.jobs = jobs
        self.submitted: dict[int, float] = {}
        self.latency: dict[int, float] = {}
        self.results: dict[int, object] = {}
        self.refused: dict[int, str] = {}
        #: calibration sample taken just before each job's submission
        self.cal: dict[int, float] = {}
        self.wall_s = 0.0
        self.rollup: dict = {}
        self.dequeued: dict[str, float] = {}
        self.arena_allocs_half: int | None = None
        self.store: SpanStore | None = None

    @staticmethod
    def job_id(job: jobmix.Job) -> str:
        return f"job-{job.index:03d}"


def run_sweep(jobs: list[jobmix.Job], work_dir: Path, store: SpanStore | None = None,
              kernel=calibrate.kernel_s) -> Sweep:
    """Submit `jobs` one at a time, each after a calibration sample."""
    sweep = Sweep(jobs)
    work_dir.mkdir(parents=True)
    shapes = {j.shape for j in jobs}
    fleet = SimulationFleet(
        FleetConfig(workers=FLEET_WORKERS, warm_pool_size=len(shapes)),
        journal_path=work_dir / "journal.jsonl",
        tuning_cache=work_dir / "tuning.json",
    )
    if store is not None:
        wrap_fleet(fleet, store, sweep.dequeued)
    start = time.perf_counter()
    try:
        for job in jobs:
            if job.index == len(jobs) // 2:
                sweep.arena_allocs_half = fleet.rollup()["arena"]["block_allocations"]
            sweep.cal[job.index] = kernel()
            t_submit = time.perf_counter()
            sweep.submitted[job.index] = t_submit
            try:
                handle = fleet.submit(job.problem, RunConfig(**job.config_kwargs()),
                                      job_id=Sweep.job_id(job))
            except AdmissionError as err:
                sweep.refused[job.index] = str(err)
                continue
            sweep.results[job.index] = handle.wait(timeout=JOB_TIMEOUT_S)
            sweep.latency[job.index] = time.perf_counter() - t_submit
        sweep.wall_s = time.perf_counter() - start
        sweep.rollup = fleet.rollup()
    finally:
        fleet.shutdown()
        shutil.rmtree(work_dir, ignore_errors=True)
    return sweep


def check(sweep: Sweep) -> list[str]:
    """One entry per failed job: refused, failed, drifted, or a repeat
    whose state digest differs from the run it repeats."""
    failures = []
    for job in sweep.jobs:
        if job.index in sweep.refused:
            failures.append(f"job {job.index} refused: {sweep.refused[job.index]}")
            continue
        res = sweep.results.get(job.index)
        if res is None or not res.ok:
            failures.append(f"job {job.index} {getattr(res, 'status', 'lost')}: "
                            f"{getattr(res, 'error', '')}")
            continue
        e0, e1 = res.energy_initial, res.energy_final
        if not (math.isfinite(e0) and math.isfinite(e1)):
            failures.append(f"job {job.index} energy not finite")
        elif job.problem in DRIVEN:
            if not e1 > e0:
                failures.append(f"job {job.index} ({job.problem}) energy did not rise")
        elif not abs(e1 - e0) <= DRIFT_RTOL * abs(e0):
            failures.append(f"job {job.index} energy drift {abs(e1 - e0) / abs(e0):.3e}")
        if job.kind == "repeat":
            src = sweep.results.get(job.source)
            if src is None or src.state_sha256 != res.state_sha256:
                failures.append(f"job {job.index} repeat of {job.source}: state digest differs")
    return failures


def realized_shares(sweep: Sweep) -> dict[str, float]:
    n = len(sweep.jobs)
    results = [r for r in sweep.results.values() if r is not None]
    cached = sum(1 for r in results if r.cached)
    warm = sum(1 for r in results if r.ok and not r.cached and r.warm)
    return {
        "repeat": cached / n,
        "warm": warm / n,
        "cold": (len(results) - cached - warm) / n,
        "hybrid": sum(j.hybrid for j in sweep.jobs) / n,
    }


class _Runs:
    """Repeated sweeps of one job catalog.

    Each job's latency (and per-step time) is scaled to reference-host
    seconds by the calibration sample taken just before it, then
    filtered per catalog item: the median over sweeps of the same job.
    """

    def __init__(self):
        self.sweeps: list[Sweep] = []
        self.failures: list[str] = []
        self.setup_passes: list[list[float]] = []

    @property
    def jobs(self) -> int:
        return sum(len(s.jobs) for s in self.sweeps)

    def setup_s(self) -> float:
        """Median over set-up shapes of each shape's median over passes."""
        return m.median(m.positional_median(self.setup_passes))

    def latencies(self) -> list[float]:
        """Raw latency of every job of every sweep (wall seconds)."""
        return [v for s in self.sweeps for v in s.latency.values()]

    def _by_item(self, value) -> list[float]:
        """Median over sweeps, per catalog item, of `value(sweep, job)`
        (None when the job has no value)."""
        samples: dict[int, list[float]] = {}
        for s in self.sweeps:
            for job in s.jobs:
                v = value(s, job)
                if v is not None:
                    samples.setdefault(job.item, []).append(v)
        return [m.median(v) for _, v in sorted(samples.items())]

    def item_latency(self) -> list[float]:
        def scaled(s, job):
            if job.index not in s.latency:
                return None
            return s.latency[job.index] * calibrate.REF_S / s.cal[job.index]
        return self._by_item(scaled)

    def item_step_s(self) -> list[float]:
        """Per-step time of each executed job (set-up included), scaled."""
        def scaled(s, job):
            r = s.results.get(job.index)
            if r is None or not r.ok or r.cached or not r.steps:
                return None
            return r.wall_s / r.steps * calibrate.REF_S / s.cal[job.index]
        return self._by_item(scaled)


def _loop(seed: int, n: int, seconds: float, work_root: Path, traced: bool = False) -> _Runs:
    """Sweeps on fresh fleets until `seconds` passed and `MIN_SWEEPS` ran.

    An untraced sweep is preceded by a set-up pass; a traced sweep gets
    its own span store and probes."""
    runs = _Runs()
    start = time.perf_counter()
    while True:
        work_dir = work_root / f"sweep-{len(runs.sweeps)}"
        jobs = jobmix.generate(seed, n, sweep=len(runs.sweeps))
        if traced:
            store = SpanStore()
            with Probes(store):
                sweep = run_sweep(jobs, work_dir, store,
                                  kernel=store.wrap("bench.calibrate", calibrate.kernel_s))
            sweep.store = store
        else:
            runs.setup_passes.append(setup_pass())
            sweep = run_sweep(jobs, work_dir)
        runs.sweeps.append(sweep)
        runs.failures += check(sweep)
        if time.perf_counter() - start >= seconds and len(runs.sweeps) >= MIN_SWEEPS:
            return runs


def end_to_end(runs: _Runs, rss_mb: float) -> dict:
    latency = runs.item_latency()
    solve = sum(latency)
    return {
        "setup_s": runs.setup_s(),
        "step_ms_p50": 1e3 * m.median(runs.item_step_s()),
        "solve_s": solve,
        "jobs_per_s": m.ratio(len(latency), solve),
        "job_s_p50": m.median(latency),
        "job_s_p90": m.p90(latency),
        "peak_rss_mb": rss_mb,
        "ok_rate": 1.0 - m.ratio(len(runs.failures), runs.jobs),
    }


def _fleet_layers(runs: _Runs, untraced_p50: float, alloc_peak_mb: float) -> tuple[dict, dict]:
    tables = [SpanTable(s.store) for s in runs.sweeps]
    accepted = sum((s.meta or {}).get("steps", 0) for t in tables for s in t.named("march"))
    values = layers.step_layers(tables, accepted)
    queue_wait, overhead = [], []
    for sweep, table in zip(runs.sweeps, tables):
        by_job: dict[str, dict] = {}
        for name in ("setup", "fleet.reset", "march"):
            for ti, s in table.roots(name):
                job = table.ancestor(ti, s, "fleet.job")
                if job is not None:
                    row = by_job.setdefault(job.meta["job_id"], {})
                    row[name] = row.get(name, 0.0) + s.duration_s
        for job in sweep.jobs:
            jid = Sweep.job_id(job)
            if jid in sweep.dequeued:
                queue_wait.append(sweep.dequeued[jid] - sweep.submitted[job.index])
            res = sweep.results.get(job.index)
            if res is not None and res.ok and not res.cached and job.index in sweep.latency:
                row = by_job.get(jid, {})
                overhead.append(sweep.latency[job.index] - sum(row.values()))

    def call_ms(name):
        return 1e3 * m.median(s.duration_s for t in tables for s in t.named(name))

    n = runs.jobs
    shares = [realized_shares(s) for s in runs.sweeps]
    half = [s for s in runs.sweeps if s.arena_allocs_half is not None]
    values.update({
        "fleet.queue_wait_ms": 1e3 * m.median(queue_wait),
        "fleet.setup_ms_cold": call_ms("setup"),
        "fleet.reset_ms_warm": call_ms("fleet.reset"),
        "fleet.run_ms": call_ms("march"),
        "fleet.overhead_ms": 1e3 * m.median(overhead),
        "fleet.journal_append_ms": call_ms("fleet.journal_append"),
        "fleet.result_put_ms": call_ms("fleet.result_put"),
        "fleet.result_get_ms": call_ms("fleet.result_get"),
        "fleet.result_hit_ratio": m.mean(s["repeat"] for s in shares),
        "fleet.warm_hit_ratio": m.mean(s["warm"] for s in shares),
        "fleet.retries": sum(s.rollup["jobs"]["retries"] for s in runs.sweeps),
        "fleet.shed": sum(s.rollup["jobs"]["shed"] for s in runs.sweeps),
        "arena.high_water_mb": max(s.rollup["arena"]["high_water_bytes"]
                                   for s in runs.sweeps) / 1e6,
        "arena.allocs_steady": sum(s.rollup["arena"]["block_allocations"]
                                   - s.arena_allocs_half for s in half),
        "trace.overhead_pct": 100.0 * (m.ratio(m.median(runs.item_latency()),
                                                untraced_p50) - 1.0),
        "mem.alloc_peak_mb": alloc_peak_mb,
    })
    check = layers.integrity(tables, "fleet.job")
    values["trace.unattributed_pct"] = check["unattributed_pct"]
    layers.zero_fill(values, "comm.")
    check["jobs"] = n
    return values, check


def _alloc_peak_mb(seed: int, work_root: Path) -> float:
    """tracemalloc peak over a short sweep (untraced)."""
    tracemalloc.start()
    try:
        run_sweep(jobmix.generate(seed, SMOKE_JOBS, sweep=-2), work_root / "tracemalloc")
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def run(seed: int, seconds: float, trace: bool, smoke: bool, out_dir: Path) -> dict:
    n = SMOKE_JOBS if smoke else jobmix.N_JOBS
    work_root = out_dir / f"work-{time.time_ns()}"
    try:
        for shape in SETUP_SHAPES:
            _build_setup_shape(*shape).close()
        run_sweep(jobmix.generate(seed, SMOKE_JOBS, sweep=-1), work_root / "warm-up")
        if not trace:
            runs = _loop(seed, n, seconds, work_root)
            values = end_to_end(runs, peak_rss_mb())
            return {"values": values, "attempted": runs.jobs,
                    "failed": len(runs.failures), "record": _record(runs)}
        plain = _loop(seed, n, seconds / 2, work_root / "plain")
        traced = _loop(seed, n, seconds / 2, work_root / "traced", traced=True)
        traced.sweeps[0].store.write_chrome_trace(out_dir / "trace-fleet-sweep.json")
        values, integrity = _fleet_layers(traced, m.median(plain.item_latency()),
                                          _alloc_peak_mb(seed, work_root))
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    failures = plain.failures + traced.failures
    record = _record(traced)
    record["untraced"] = _record(plain)
    record["integrity"] = integrity
    return {"values": values, "attempted": plain.jobs + traced.jobs,
            "failed": len(failures) + (1 if integrity["failures"] else 0), "record": record}


def _record(runs: _Runs) -> dict:
    jobs = runs.sweeps[0].jobs
    return {
        "jobs_per_sweep": len(jobs),
        "sweeps": len(runs.sweeps),
        "jobs": runs.jobs,
        "latency_samples": len(runs.latencies()),
        "unfiltered": {
            "job_s_p50": m.median(runs.latencies()),
            "job_s_p90": m.p90(runs.latencies()),
            "sweep_s_p50": m.median(s.wall_s for s in runs.sweeps),
        },
        "setup_s": runs.setup_passes,
        "designed_shares": jobmix.shares(jobs),
        "measured_shares": [realized_shares(s) for s in runs.sweeps],
        "failures": runs.failures[:20],
    }
