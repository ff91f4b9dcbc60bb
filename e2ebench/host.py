"""Host context recorded with every benchmark run.

A figure measured next to other work on a small shared host is a
different figure: the load average, the process's CPU share and the
BLAS thread count go into every record so such a run shows up in the
data rather than in the metric.
"""

from __future__ import annotations

import ctypes
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

#: BLAS threads per compute thread. Every workload's compute threads
#: (1 for the single-solver workloads, 2 fleet workers) times this stays
#: within `nproc` on a 2-core host.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> None:
    """Set the BLAS thread caps; must run before NumPy is imported."""
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS reports, or None if it can't be asked."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit(root: Path) -> str:
    """The checkout's commit, or "unknown" outside a git repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def peak_rss_mb() -> float:
    """Peak resident set size of this process (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class HostMonitor:
    """Load average and process CPU/wall around one measured run."""

    def __init__(self):
        self.load_before = os.getloadavg()
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()

    def finish(self, root: Path) -> dict:
        import numpy
        import scipy

        wall = time.perf_counter() - self._wall0
        cpu = time.process_time() - self._cpu0
        return {
            "nproc": os.cpu_count(),
            "loadavg_before": list(self.load_before),
            "loadavg_after": list(os.getloadavg()),
            "process_cpu_over_wall": cpu / wall if wall > 0 else 0.0,
            "blas_threads": blas_threads(),
            "blas_env": {var: os.environ.get(var) for var in BLAS_ENV},
            "git_commit": git_commit(root),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "platform": platform.platform(),
        }
