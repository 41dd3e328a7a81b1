"""Host speed reference for the benchmark's timings.

On a shared virtual machine the speed a process gets drifts by tens of
percent within seconds and between minutes, with no steal time to show for
it, and the two cores drift independently.  So the benchmark times this
fixed kernel in the same process right before each interval it measures,
and reports the interval ``scaled``: in seconds on a host where the kernel
takes REFERENCE_S.  One kernel call is noisier than one operation, so a
single scaled time is noisier than its wall time; the medians over a run's
many intervals are not, and they follow the drift between and within runs
that unscaled wall times carry.  The kernel is benchmark code (small
complex matrix steps and float formatting, the mix the program's RK4 loops
and CSV output run), so a change to the program moves the scaled time and
leaves the kernel alone.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: Kernel seconds that scaled times refer to: about its median on a 2-core
#: x86_64 virtual machine with Python 3.11 and numpy 2.4, where the median
#: over one benchmark run ranged from 0.040 to 0.058 s.
REFERENCE_S = 0.04

_A = np.array([[0.1, 0.2], [0.3, -0.1]], dtype=complex)


def kernel_s() -> float:
    """Seconds one run of the reference kernel takes now."""
    start = perf_counter()
    y = np.eye(2, dtype=complex)
    for _ in range(3600):
        k1 = -(_A @ y)
        k2 = -(_A @ (y + 0.005 * k1))
        y = y + 0.01 * k2
    ",".join(f"{v:.17g}" for v in np.linspace(0.0, 1.0, 7200))
    return perf_counter() - start


def scaled(seconds: float, kernel: float) -> float:
    """``seconds`` measured right after the kernel took ``kernel`` seconds,
    expressed at the reference speed."""
    return seconds * REFERENCE_S / kernel
