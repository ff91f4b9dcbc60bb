"""Paired end-to-end timing of two node backends on one Sedov march.

    PYTHONPATH=src python benchmarks/pair_backends.py --order 6 --zones 4 --steps 12 --pairs 10

Runs the same serial 2D Sedov march once with each backend per pair,
alternating which one goes first, and prints each backend's wall time
per step (set-up included, as `repro.api.run` sees it) as median
[Q1, Q3], plus the number of pairs the second backend won. Pin BLAS to
one thread (e.g. OPENBLAS_NUM_THREADS=1) for numbers comparable across
hosts of different width.
"""

from __future__ import annotations

import argparse
import statistics
import time


def _ms_per_step(backend: str, order: int, zones: int, steps: int) -> float:
    from repro.api import RunConfig, run

    cfg = RunConfig(order=order, zones=zones, t_final=1.0, max_steps=steps, backend=backend)
    t0 = time.perf_counter()
    report = run("sedov", cfg)
    elapsed = time.perf_counter() - t0
    return elapsed * 1e3 / report.result.steps


def _summary(values: list[float]) -> str:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return f"{med:.2f} [{q1:.2f}, {q3:.2f}] ms/step"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", default="cpu-fused", help="first backend")
    ap.add_argument("--b", default="cpu-sumfact", help="second backend")
    ap.add_argument("--order", type=int, default=6)
    ap.add_argument("--zones", type=int, default=4, help="zones per dimension")
    ap.add_argument("--steps", type=int, default=12)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)

    times: dict[str, list[float]] = {args.a: [], args.b: []}
    for backend in times:  # warm imports and caches outside the pairs
        _ms_per_step(backend, args.order, args.zones, 1)
    for i in range(args.pairs):
        order = (args.a, args.b) if i % 2 == 0 else (args.b, args.a)
        for backend in order:
            times[backend].append(_ms_per_step(backend, args.order, args.zones, args.steps))
    wins = sum(b < a for a, b in zip(times[args.a], times[args.b]))
    print(f"Sedov Q{args.order} {args.zones}^2, {args.steps} steps, {args.pairs} alternating pairs")
    for backend, values in times.items():
        print(f"  {backend:12s} {_summary(values)}")
    print(f"  {args.b} faster in {wins}/{args.pairs} pairs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
