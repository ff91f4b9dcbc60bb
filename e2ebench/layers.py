"""Per-layer metrics from the spans of one or more traced runs.

Times "per step" are divided by accepted steps, so rejected attempts
show up as a larger per-step cost (and in `step.accept_ratio`). Self
time is a span's duration minus its wrapped children's; the self times
of every span under a root add up to the root's wall time, which
`integrity` checks.
"""

from __future__ import annotations

import metrics as m
from probes import SpanTable

#: Span self times must add up to their root's wall time within this share.
INTEGRITY_RTOL = 0.005


def _meta_sum(spans, key: str) -> float:
    return float(sum((s.meta or {}).get(key, 0) for s in spans))


def step_layers(tables: list[SpanTable], accepted: int) -> dict:
    """force.*, momentum.*, integrator, timestep, set-up, rank and tuner
    metrics summed over `tables`."""
    acc = accepted

    def tot(fn):
        return sum(fn(t) for t in tables)

    step_s = tot(lambda t: t.total_s("step"))
    force_s = tot(lambda t: t.total_s("force"))
    forces = tot(lambda t: len(t.named("force")))
    solves = [s for t in tables for s in t.named("momentum.solve")]
    momentum_s = sum(s.duration_s for s in solves)
    matvecs = [s for t in tables for s in t.named("momentum.matvec")]
    matvec_s = sum(s.duration_s for s in matvecs)
    setups = tot(lambda t: t.count("setup"))
    on_steps = [s for t in tables for s in t.named("tuner.on_step")]
    tuned = [s for t in tables for s in t.named("march")
             if "tuner_evaluations" in (s.meta or {})]

    def per_step_self(name):
        return 1e3 * m.ratio(tot(lambda t: t.self_total_s(name)), acc)

    def per_setup(name):
        return m.ratio(tot(lambda t: t.self_total_s(name)), setups)

    return {
        "force.ms_per_eval": 1e3 * m.ratio(force_s, forces),
        "force.evals_per_step": m.ratio(forces, acc),
        "force.share": m.ratio(tot(lambda t: t.layer_total_s("force")), step_s),
        "force.geometry_ms": per_step_self("force.geometry"),
        "force.eos_ms": per_step_self("force.eos"),
        "force.viscosity_ms": per_step_self("force.viscosity"),
        "force.dt_ms": per_step_self("force.dt"),
        "force.contract_ms": per_step_self("force"),
        "momentum.ms_per_solve": 1e3 * m.ratio(momentum_s, len(solves)),
        "momentum.share": m.ratio(momentum_s, step_s),
        "momentum.pcg_iters_per_solve": m.ratio(_meta_sum(solves, "iters"),
                                                _meta_sum(solves, "components")),
        "momentum.matvec_us": 1e6 * m.ratio(matvec_s, len(matvecs)),
        "momentum.matvec_gbs_computed": 1e-9 * m.ratio(_meta_sum(matvecs, "bytes"), matvec_s),
        "momentum.flops_per_solve": m.ratio(_meta_sum(solves, "flops"), len(solves)),
        "rhs.assemble_ms": per_step_self("rhs.assemble"),
        "energy.rhs_ms": per_step_self("energy.rhs"),
        "energy.solve_ms": per_step_self("energy.solve"),
        "step.other_ms": per_step_self("step"),
        "step.accept_ratio": m.ratio(acc, tot(lambda t: t.count("step"))),
        "setup.spaces_s": per_setup("setup.spaces"),
        "setup.mass_assembly_s": per_setup("setup.mass"),
        "setup.backend_s": per_setup("setup.backend"),
        "rank.force_ms": 1e3 * m.ratio(force_s, acc),
        "rank.momentum_ms": 1e3 * m.ratio(momentum_s, acc),
        "tuner.on_step_us": 1e6 * m.mean(s.duration_s for s in on_steps),
        "tuner.evaluations_per_job": m.mean(s.meta["tuner_evaluations"] for s in tuned),
    }


def integrity(tables: list[SpanTable], root: str) -> dict:
    """Self times under every `root` span against the roots' wall time."""
    root_s = sum(t.total_s(root) for t in tables)
    self_sum = sum(sum(t.self_by_name(root).values()) for t in tables)
    root_self = sum(t.root_self_s(root) for t in tables)
    failures = []
    if root_s <= 0 or abs(self_sum - root_s) > INTEGRITY_RTOL * root_s:
        failures.append(f"self times under '{root}' sum to {self_sum:.6f}s "
                        f"against {root_s:.6f}s of wall time")
    return {
        "root": root,
        "root_s": root_s,
        "self_sum_s": self_sum,
        "unattributed_pct": 100.0 * m.ratio(root_self, root_s),
        "failures": failures,
    }


def zero_fill(values: dict, prefix: str) -> None:
    """Metrics of a layer the workload does not exercise read 0."""
    for name in m.PER_LAYER:
        if name.startswith(prefix):
            values.setdefault(name, 0.0)
