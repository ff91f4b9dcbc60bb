"""Seeded, share-controlled job list for the `fleet-sweep` workload.

The fleet receives only this list. Every job is a short run of one of
the six problems at order 1-3 on a small mesh, and falls in exactly
one of three kinds, in fixed counts:

* `repeat` (25%): the same problem and configuration as an earlier
  executed job, so the fleet can answer it from the result store;
* `warm`   (25%): the solver shape of an earlier job with a different
  step count, so it can run on a pooled solver after `reset()`;
* `cold`   (50%): a shape no earlier job used, so it pays full set-up
  and writes a new result.

20% of each kind runs `backend="hybrid"` (the in-band tuner prices a
CPU/GPU split every step); the rest use the default backend. Cold
shapes are balanced over problems, orders and mesh sizes, and cold step
counts over `LENGTHS`. The jobs themselves come from a fixed catalog;
the seed (and the sweep number) decides the order they are submitted in.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

PROBLEMS = ("sedov", "noh", "triple-pt", "taylor-green", "saltzman", "sod")
ORDERS = (1, 2, 3)
ZONES = (2, 3, 4)
#: Step counts (max_steps) a job may march; warm reuses pick one their
#: shape has not run yet.
LENGTHS = (2, 3, 4, 5)
N_JOBS = 100
SHARES = {"repeat": 0.25, "warm": 0.25, "cold": 0.5}
HYBRID_SHARE = 0.2
#: Far beyond the marched steps, so max_steps alone ends every job.
T_FINAL = 1.0
#: Sampling period of hybrid jobs' in-band tuner, short enough that a
#: 2-5 step job prices candidates.
HYBRID_TUNE_PERIOD = 2


@dataclass(frozen=True)
class Job:
    index: int
    kind: str
    problem: str
    order: int
    zones: int
    hybrid: bool
    steps: int
    #: index of the job this one repeats or reuses the shape of
    source: int | None = None
    #: index into `catalog(n)`: the same item in every order
    item: int = 0

    @property
    def shape(self) -> tuple:
        return (self.problem, self.order, self.zones, self.hybrid)

    def config_kwargs(self) -> dict:
        kwargs = {"order": self.order, "zones": self.zones,
                  "t_final": T_FINAL, "max_steps": self.steps}
        if self.hybrid:
            kwargs.update(backend="hybrid", tune_period_steps=HYBRID_TUNE_PERIOD)
        return kwargs


def counts(n: int) -> dict[tuple[str, bool], int]:
    """Exact job counts per (kind, hybrid) for a list of `n` jobs."""
    kinds = {"repeat": round(SHARES["repeat"] * n), "warm": round(SHARES["warm"] * n)}
    kinds["cold"] = n - kinds["repeat"] - kinds["warm"]
    out = {}
    for kind, k in kinds.items():
        hybrid = round(HYBRID_SHARE * k)
        out[(kind, True)] = hybrid
        out[(kind, False)] = k - hybrid
    return out


def _cold_shapes(rng: random.Random, hybrid: bool, n: int) -> list[tuple]:
    """`n` distinct shapes, balanced over problems, orders and zones.

    Each problem walks a Latin square of (order, zones): every run of
    three consecutive shapes covers each order and each zone count once.
    Problems take turns, so any prefix is balanced across problems too;
    the seed only permutes the squares and the turn order.
    """
    problems = list(PROBLEMS)
    rng.shuffle(problems)
    walks = {}
    for p in problems:
        zones = list(ZONES)
        rng.shuffle(zones)
        shift = rng.randrange(len(ORDERS))
        walks[p] = [(ORDERS[(i + shift) % 3], zones[(i + r) % 3])
                    for r in range(3) for i in range(3)]
    shapes = [(p, *walks[p][k], hybrid) for k in range(9) for p in problems]
    if n > len(shapes):
        raise ValueError(f"only {len(shapes)} distinct shapes for {n} cold jobs")
    return shapes[:n]


#: Seed of the job catalog. Every `--seed` draws the same catalog and
#: only changes the order jobs are submitted in, so the work a sweep
#: does barely moves from one seed to the next.
CATALOG_SEED = 0


def catalog(n: int = N_JOBS) -> list[dict]:
    """The seed-independent multiset of jobs a list of `n` is drawn from.

    Cold jobs get the step counts of `LENGTHS` in turn. Warm reuses take
    the shapes of the first cold jobs with another step count, and
    exact repeats copy every other cold job; `source` indexes the list.
    """
    rng = random.Random(CATALOG_SEED)
    want = counts(n)
    items: list[dict] = []
    for hybrid in (False, True):
        shapes = _cold_shapes(rng, hybrid, want[("cold", hybrid)])
        colds = []
        for i, (problem, order, zones, _) in enumerate(shapes):
            colds.append(len(items))
            items.append({"kind": "cold", "problem": problem, "order": order, "zones": zones,
                          "hybrid": hybrid, "steps": LENGTHS[i % len(LENGTHS)],
                          "source": None})
        for i in range(want[("warm", hybrid)]):
            src = items[colds[i % len(colds)]]
            steps = LENGTHS[(LENGTHS.index(src["steps"]) + 1 + i // len(colds)) % len(LENGTHS)]
            items.append(dict(src, kind="warm", steps=steps, source=colds[i % len(colds)]))
        for i in range(want[("repeat", hybrid)]):
            k = colds[(2 * i + 1) % len(colds)]
            items.append(dict(items[k], kind="repeat", source=k))
    return items


def generate(seed: int, n: int = N_JOBS, sweep: int = 0) -> list[Job]:
    """The job list for `seed` and `sweep`: the catalog in a seeded order
    in which every warm reuse and repeat comes after the job it refers
    to. Each sweep of a run gets its own order, so one run averages over
    several orders rather than measuring one."""
    rng = random.Random(f"{seed}:{sweep}")
    items = catalog(n)
    position: dict[int, int] = {}
    pending = list(range(len(items)))
    jobs: list[Job] = []
    while pending:
        ready: dict[str, list[int]] = {}
        for k in pending:
            if items[k]["source"] is None or items[k]["source"] in position:
                ready.setdefault(items[k]["kind"], []).append(k)
        # Kinds are drawn in proportion to how many of them are left, so
        # repeats and warm reuses are spread through the list.
        left = {kind: sum(items[k]["kind"] == kind for k in pending) for kind in ready}
        pick = rng.randrange(sum(left.values()))
        for kind in sorted(ready):
            if pick < left[kind]:
                break
            pick -= left[kind]
        k = rng.choice(ready[kind])
        pending.remove(k)
        item = items[k]
        source = position[item["source"]] if item["source"] is not None else None
        position[k] = len(jobs)
        jobs.append(Job(len(jobs), item["kind"], item["problem"], item["order"],
                        item["zones"], item["hybrid"], item["steps"], source, item=k))
    return jobs


def shares(jobs: list[Job]) -> dict[str, float]:
    """Designed shares of a list (what the generator was asked for)."""
    n = len(jobs)
    return {
        "repeat": sum(j.kind == "repeat" for j in jobs) / n,
        "warm": sum(j.kind == "warm" for j in jobs) / n,
        "cold": sum(j.kind == "cold" for j in jobs) / n,
        "hybrid": sum(j.hybrid for j in jobs) / n,
    }
