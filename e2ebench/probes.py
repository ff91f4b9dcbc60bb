"""Spans timed from outside the program.

Every span here comes from a wrapper this benchmark installs around a
public call of `repro` (a method on a solver's own objects, or a
module/class attribute patched for the duration of a traced run and
restored afterwards). The solver never sees a tracer: spans go into
plain `repro.telemetry.Tracer` instances owned by a `SpanStore`, one
tracer per thread (the tracer's open-span stack is per-thread state),
all sharing one epoch so their spans line up in the exported Chrome
trace.

Span names are the layer names the per-layer metrics are built from:

    march               LagrangianHydroSolver.run
    step                LagrangianHydroSolver.step (one attempt)
    force               integrator.force_fn
    force.geometry      ForceEngine.point_geometry, geom_eval.evaluate_local
    force.eos           EOS.pressure / EOS.sound_speed
    force.viscosity     ViscosityKernel.compute, corner_force.tensor_viscosity
    force.dt            ForceEngine.estimate_dt / estimate_dt_zones
    momentum.solve      MomentumSolver.solve
    momentum.matvec     MomentumSolver.matvec
    rhs.assemble        ForceEngine.force_times_one, H1Space.scatter_add
    energy.rhs          ForceEngine.force_transpose_times_v
    energy.solve        mass_e.solve
    comm                SimulatedComm collectives and waits
    setup               LagrangianHydroSolver construction
    setup.spaces        H1Space / L2Space construction
    setup.mass          kinematic / thermodynamic mass assembly
    setup.backend       backend construction, attach and finalize
    tuner.on_step       OnlineScheduler.on_step
    fleet.job           one job on a fleet worker (dequeue to next dequeue)
    fleet.submit        SimulationFleet.submit (client thread)
    fleet.reset         LagrangianHydroSolver.reset on a pooled solver
    fleet.journal_append, fleet.result_put, fleet.result_get
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

from repro.telemetry import Tracer, chrome_trace

CATEGORY = "bench"

_COMM_METHODS = (
    "allreduce_min", "allreduce_sum", "bcast", "iallreduce_min",
    "iallreduce_sum", "iallreduce_sum_stacked", "iallreduce_min_batch",
    "isend", "irecv", "wait", "waitall",
)


class SpanStore:
    """Per-thread `Tracer`s sharing one epoch."""

    def __init__(self):
        self._lock = threading.Lock()
        self._tracers: dict[int, Tracer] = {}
        self.epoch = time.perf_counter()

    def tracer(self) -> Tracer:
        ident = threading.get_ident()
        tracer = self._tracers.get(ident)
        if tracer is None:
            tracer = Tracer()
            tracer.epoch = self.epoch
            with self._lock:
                self._tracers[ident] = tracer
        return tracer

    def tracers(self) -> list[Tracer]:
        with self._lock:
            return list(self._tracers.values())

    def span(self, name: str, meta: dict | None = None):
        return self.tracer().span(name, CATEGORY, meta)

    def wrap(self, name: str, fn, after=None):
        """`fn` timed as a span; `after(span, args, result)` may add meta."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer = self.tracer()
            index = tracer.begin(name, CATEGORY)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if after is not None:
                after(tracer.spans[index], args, out)
            return out

        return wrapper

    def write_chrome_trace(self, path: Path) -> Path:
        """All threads' spans in one Chrome trace, one `tid` per thread."""
        events = []
        for tid, tracer in enumerate(self.tracers()):
            tracer.finish()
            for ev in chrome_trace(tracer)["traceEvents"]:
                ev["tid"] = tid
                events.append(ev)
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
        return path


class SpanTable:
    """Self and inclusive times of every span, by name and by root."""

    def __init__(self, store: SpanStore):
        self.spans = []  # (tracer_index, span)
        self.self_s: dict[tuple[int, int], float] = {}
        for ti, tracer in enumerate(store.tracers()):
            child = [0.0] * len(tracer.spans)
            for s in tracer.spans:
                if s.parent >= 0:
                    child[s.parent] += s.duration_s
            for s in tracer.spans:
                self.spans.append((ti, s))
                self.self_s[(ti, s.index)] = max(s.duration_s - child[s.index], 0.0)
        self._tracers = store.tracers()

    def named(self, name: str, outermost: bool = True) -> list:
        """Spans called `name` (only those with no same-named ancestor)."""
        out = []
        for ti, s in self.spans:
            if s.name != name:
                continue
            if outermost and self._ancestor_named(ti, s, name):
                continue
            out.append(s)
        return out

    def _ancestor_named(self, ti: int, s, name: str) -> bool:
        spans = self._tracers[ti].spans
        p = s.parent
        while p >= 0:
            if spans[p].name == name:
                return True
            p = spans[p].parent
        return False

    def ancestor(self, ti: int, s, name: str):
        spans = self._tracers[ti].spans
        p = s.parent
        while p >= 0:
            if spans[p].name == name:
                return spans[p]
            p = spans[p].parent
        return None

    def total_s(self, name: str) -> float:
        return sum(s.duration_s for s in self.named(name))

    def count(self, name: str) -> int:
        return len(self.named(name, outermost=False))

    def self_by_name(self, root: str) -> dict[str, float]:
        """Self seconds by span name inside every outermost `root` span."""
        out: dict[str, float] = defaultdict(float)
        for ti, s in self.spans:
            if s.name == root and not self._ancestor_named(ti, s, root):
                out[s.name] += self.self_s[(ti, s.index)]
            elif self.ancestor(ti, s, root) is not None:
                out[s.name] += self.self_s[(ti, s.index)]
        return dict(out)

    def self_total_s(self, name: str) -> float:
        """Self seconds of every span called `name`."""
        return sum(self.self_s[(ti, s.index)] for ti, s in self.spans if s.name == name)

    def layer_total_s(self, layer: str) -> float:
        """Wall seconds inside `layer` or its `layer.*` sub-spans, each
        interval counted once."""
        def inside(name):
            return name == layer or name.startswith(layer + ".")

        total = 0.0
        for ti, s in self.spans:
            if not inside(s.name):
                continue
            spans = self._tracers[ti].spans
            p = s.parent
            while p >= 0 and not inside(spans[p].name):
                p = spans[p].parent
            if p < 0:
                total += s.duration_s
        return total

    def root_self_s(self, root: str) -> float:
        return sum(self.self_s[(ti, s.index)] for ti, s in self.spans
                   if s.name == root and not self._ancestor_named(ti, s, root))

    def roots(self, name: str) -> list:
        """(tracer_index, span) of every outermost span called `name`."""
        return [(ti, s) for ti, s in self.spans
                if s.name == name and not self._ancestor_named(ti, s, name)]


class Patches:
    """setattr with restore-on-exit (class and module attributes).

    Fleet workers instrument solvers concurrently, so `set` is locked
    and patches each attribute once."""

    def __init__(self):
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []
        self._done: set[tuple[int, str]] = set()

    def set(self, owner, attr: str, value) -> None:
        with self._lock:
            key = (id(owner), attr)
            if key in self._done:
                return
            self._done.add(key)
            self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
            setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, old in reversed(self._saved):
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
        self._saved.clear()
        self._done.clear()


_MISSING = object()


def _set_meta(span, **meta) -> None:
    span.meta = {**(span.meta or {}), **meta}


class Probes:
    """Install every wrapper for one traced run; `close()` removes them.

    Process-wide patches (solver construction, set-up stages, viscosity,
    EOS classes, scheduler) are undone by `close()`; per-object wrappers
    live on the instrumented solvers, which the benchmark discards.
    """

    def __init__(self, store: SpanStore):
        self.store = store
        self.patches = Patches()
        #: one entry per instrumented solver: the solver, its accepted
        #: steps so far and its arena allocations after the second one
        self.solvers: list[dict] = []
        self._install_global()

    def close(self) -> None:
        self.patches.restore()

    def __enter__(self) -> "Probes":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- process-wide wrappers ----------------------------------------------

    def _install_global(self) -> None:
        import repro.backends
        import repro.backends.base
        import repro.hydro.corner_force as corner_force
        import repro.hydro.solver as solver_mod
        from repro.backends.distributed import DistributedBackend
        from repro.hydro.solver import LagrangianHydroSolver
        from repro.hydro.viscosity import ViscosityKernel
        from repro.sched import OnlineScheduler

        store, patch = self.store, self.patches
        probes = self

        orig_init = LagrangianHydroSolver.__init__

        @functools.wraps(orig_init)
        def init(solver, *args, **kwargs):
            with store.span("setup"):
                orig_init(solver, *args, **kwargs)
            probes.instrument(solver)

        patch.set(LagrangianHydroSolver, "__init__", init)
        for attr in ("H1Space", "L2Space"):
            patch.set(solver_mod, attr, store.wrap("setup.spaces", getattr(solver_mod, attr)))
        for attr in ("assemble_kinematic_mass", "assemble_thermodynamic_mass"):
            patch.set(solver_mod, attr, store.wrap("setup.mass", getattr(solver_mod, attr)))

        orig_make = repro.backends.base.make_backend

        def make_backend(name, **kwargs):
            with store.span("setup.backend"):
                backend = orig_make(name, **kwargs)
            for hook in ("attach", "finalize"):
                if hasattr(backend, hook):
                    setattr(backend, hook, store.wrap("setup.backend", getattr(backend, hook)))
            return backend

        patch.set(repro.backends.base, "make_backend", make_backend)
        patch.set(repro.backends, "make_backend", make_backend)
        for hook in ("attach", "finalize"):
            patch.set(DistributedBackend, hook,
                      store.wrap("setup.backend", getattr(DistributedBackend, hook)))

        patch.set(ViscosityKernel, "compute", store.wrap("force.viscosity", ViscosityKernel.compute))
        patch.set(corner_force, "tensor_viscosity",
                  store.wrap("force.viscosity", corner_force.tensor_viscosity))
        patch.set(OnlineScheduler, "on_step", store.wrap("tuner.on_step", OnlineScheduler.on_step))

    # -- per-solver wrappers --------------------------------------------------

    def instrument(self, solver) -> None:
        """Wrap one constructed solver's layers (instance attributes)."""
        store = self.store
        entry = {"solver": solver, "allocs_at_step2": None, "accepted": 0}
        self.solvers.append(entry)

        def after_step(span, args, accepted):
            _set_meta(span, accepted=bool(accepted))
            if accepted:
                entry["accepted"] += 1
                if entry["accepted"] == 2:
                    entry["allocs_at_step2"] = solver.arena.block_allocations

        def after_run(span, args, result):
            sched = getattr(solver, "scheduler", None)
            meta = {"steps": result.steps}
            if sched is not None:
                meta["tuner_evaluations"] = sched.report.evaluations
            _set_meta(span, **meta)

        solver.step = store.wrap("step", solver.step, after=after_step)
        solver.run = store.wrap("march", solver.run, after=after_run)
        solver.reset = store.wrap("fleet.reset", solver.reset)

        integ = solver.integrator
        integ.force_fn = store.wrap("force", integ.force_fn)
        mom = integ.momentum

        def after_solve(span, args, out):
            info = mom.last_info
            if info is not None:
                _set_meta(span, iters=info.iterations, flops=info.flops,
                          components=out.shape[1])

        mass = mom.mass
        # Bytes one CSR matvec must move (computed, not measured): values,
        # column indices, row pointers, x read once, y written once.
        matvec_bytes = (mass.data.nbytes + mass.indices.nbytes + mass.indptr.nbytes
                        + 8 * (mass.shape[0] + mass.shape[1]))

        def after_matvec(span, args, out):
            span.meta = {"bytes": matvec_bytes}

        mom.solve = store.wrap("momentum.solve", mom.solve, after=after_solve)
        mom.matvec = store.wrap("momentum.matvec", mom.matvec, after=after_matvec)
        integ.mass_e.solve = store.wrap("energy.solve", integ.mass_e.solve)

        engine = solver.engine
        for attr, name in (
            ("point_geometry", "force.geometry"),
            ("estimate_dt", "force.dt"),
            ("estimate_dt_zones", "force.dt"),
            ("force_times_one", "rhs.assemble"),
            ("force_transpose_times_v", "energy.rhs"),
        ):
            if hasattr(engine, attr):
                setattr(engine, attr, store.wrap(name, getattr(engine, attr)))
        geom_eval = getattr(engine, "geom_eval", None)
        if geom_eval is not None and hasattr(geom_eval, "evaluate_local"):
            geom_eval.evaluate_local = store.wrap("force.geometry", geom_eval.evaluate_local)
        kin = engine.kinematic
        kin.scatter_add = store.wrap("rhs.assemble", kin.scatter_add)
        eos_cls = type(engine.eos)
        for attr in ("pressure", "sound_speed"):
            if attr in vars(eos_cls):
                self.patches.set(eos_cls, attr, store.wrap("force.eos", vars(eos_cls)[attr]))

        comm = getattr(solver.backend, "comm", None)
        if comm is not None:
            for attr in _COMM_METHODS:
                if hasattr(comm, attr):
                    setattr(comm, attr, store.wrap("comm", getattr(comm, attr)))

    def steady_allocs(self) -> int:
        """Arena block allocations after each solver's second accepted step."""
        total = 0
        for entry in self.solvers:
            if entry["allocs_at_step2"] is not None:
                total += entry["solver"].arena.block_allocations - entry["allocs_at_step2"]
        return total


def wrap_fleet(fleet, store: SpanStore, dequeued: dict) -> None:
    """Wrap one `SimulationFleet`'s service calls (instance attributes).

    `fleet.queue.get` marks job boundaries on each worker thread: the
    previous job's span closes when the worker asks for more work, and
    a new `fleet.job` span opens when an entry comes back. `dequeued`
    receives job_id -> dequeue time (perf_counter seconds).
    """
    local = threading.local()
    queue = fleet.queue
    orig_get = queue.get

    def get(timeout=None):
        tracer = store.tracer()
        open_index = getattr(local, "job", -1)
        if open_index >= 0:
            tracer.end(open_index)
            local.job = -1
        entry = orig_get(timeout)
        if entry is not None:
            dequeued[entry.spec.job_id] = time.perf_counter()
            local.job = tracer.begin("fleet.job", CATEGORY, {"job_id": entry.spec.job_id})
        return entry

    queue.get = get
    fleet.submit = store.wrap("fleet.submit", fleet.submit)
    if fleet.journal is not None:
        fleet.journal.append = store.wrap("fleet.journal_append", fleet.journal.append)
    fleet.results.put = store.wrap("fleet.result_put", fleet.results.put)
    fleet.results.get = store.wrap("fleet.result_get", fleet.results.get)
