"""Machine-speed calibration for the latency metrics.

On a shared machine the speed of one core drifts by a factor of up to two
over seconds to minutes, and a whole run can land in a slow or a fast
stretch.  The child process therefore times a fixed kernel right before and
right after each op.  The kernel is the same kind of work as the program's
hot path: interpreter loops around numpy calls on one-element arrays.  Every
reported time is scaled to the speed at which the kernel takes REFERENCE_S:

    reported = measured * REFERENCE_S / median(kernel times around the op)

The kernel does not touch the program, so a change to the program moves the
op's time and not the kernel's.  Raw times stay in the result file.
"""

from __future__ import annotations

import time

REFERENCE_S = 1.0e-3  # kernel time at the reference speed
REPEATS = 5


def kernel_times() -> list[float]:
    """REPEATS timings of the kernel, in seconds."""
    import numpy as np

    one = np.ones(1)
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        acc = 0.0
        for i in range(160):
            r = np.asarray(one * (0.5 + i * 1e-3))
            safe = np.where(np.abs(1.0 - r) < 1e-10, 0.5, r)
            acc += float(((1.0 - safe**3) / (1.0 - safe))[0])
        times.append(time.perf_counter() - start)
    return times


def calibrated(seconds: float, kernel_s: float) -> float:
    """``seconds`` measured while the kernel took ``kernel_s``, at the reference speed."""
    return seconds * REFERENCE_S / kernel_s
