"""Layered end-to-end benchmark of the repro hydro stack.

    python3 e2ebench/run.py --workload sedov-q2 --seed 1 --seconds 15 --trace 0

Run from the root of a checkout: the program is imported from `src/`.
With `--trace 0` the last stdout line carries the end-to-end metrics,
measured with no wrapper installed; with `--trace 1` it carries the
per-layer metrics from a traced pass (plus an untraced pass of the same
length, for the tracing overhead). Every run checks the program's
outputs; a line before the result holds the run's record (host
context, sample counts, shares, checks), also written under
`e2ebench/out/`. `--smoke` shortens every workload to a few steps or
jobs (for the benchmark's own tests).
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from host import HostMonitor, cap_blas_threads, peak_rss_mb  # noqa: E402

cap_blas_threads()
sys.path.insert(0, str(ROOT / "src"))

import argparse  # noqa: E402
import json  # noqa: E402
import time  # noqa: E402

import repro  # noqa: E402,F401  (fails here, before any output, without src/)

import fleetsweep  # noqa: E402
import metrics  # noqa: E402
import single  # noqa: E402

WORKLOADS = (*single.WORKLOADS, "fleet-sweep")
OUT_DIR = HERE / "out"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="a few steps or jobs per workload (fast self-test)")
    args = parser.parse_args(argv)

    monitor = HostMonitor()
    OUT_DIR.mkdir(exist_ok=True)
    trace = bool(args.trace)
    t0 = time.perf_counter()
    if args.workload == "fleet-sweep":
        out = fleetsweep.run(args.seed, args.seconds, trace, args.smoke, OUT_DIR)
    else:
        out = single.run(args.workload, args.seconds, trace, args.smoke, OUT_DIR)
    units = metrics.PER_LAYER if trace else metrics.END_TO_END
    result = {
        "correct": out["failed"] == 0,
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": metrics.emit(out["values"], units),
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "elapsed_s": time.perf_counter() - t0,
        "peak_rss_mb": peak_rss_mb(),
        "host": monitor.finish(ROOT),
        "result": result,
        **out["record"],
    }
    path = OUT_DIR / f"record-{args.workload}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps({"record": record}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
