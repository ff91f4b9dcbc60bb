"""Host-speed calibration: a fixed piece of NumPy and Python work.

The shared host this benchmark was built on runs at one of two speeds
(a `sedov-q2` step takes ≈20 or ≈33 ms), and a slow stretch can last
longer than a whole run. The calibration kernel slows down with it: a
step measured next to a calibration sample keeps a steady ratio to it
(4.0-4.4 across both speeds) while the step itself moves by 1.6x.

So every timing the benchmark reports is scaled by `REF_S / kernel
time measured next to it`: it reads in seconds of the reference host at
its fast speed, and a slow host stretch cancels out. The kernel uses no
code from `src/`, so a change to the program moves only the numerator.
The raw wall times stay in each run's record.
"""

from __future__ import annotations

import time

import numpy as np

#: Kernel time on the reference host (2-core shared VM) in its fast
#: state: the 10th percentile over 2000 samples.
REF_S = 0.93e-3

_rng = np.random.default_rng(0)
_A = _rng.random((64, 9, 9))
_B = _rng.random((64, 9, 9))
_X = _rng.random(5000)


def kernel_s() -> float:
    """Time one pass of the calibration kernel (seconds)."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(8):
        acc += float(np.einsum("zij,zjk->zik", _A, _B).sum())
        acc += float(np.sort(_X)[10])
        for j in range(300):
            acc += j * 0.5
    elapsed = time.perf_counter() - t0
    if acc != acc:  # keeps the work observable
        raise FloatingPointError("calibration produced NaN")
    return elapsed
