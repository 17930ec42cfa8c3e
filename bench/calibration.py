"""Host-speed calibration: a fixed piece of work timed between operations.

The benchmark runs on a few vCPUs of a shared host.  Whether a vCPU's
hardware sibling is busy changes the speed of the same single-threaded code
by up to ~1.8x, in stretches of seconds to minutes, so raw latencies of
identical work spread by more than a regression bound.  ``kernel()`` does
work of the same kind as the library's hot path (scalar complex arithmetic
in the interpreter, ``cmath`` calls and small numpy arrays) and does not
touch ``dispersive_cqed``, so a change to the library cannot move it.

A latency is reported at nominal host speed: its measured seconds times
``NOMINAL_S / c``, with ``c`` the kernel's time measured next to it.  On an
uncontended vCPU of the benchmark's reference host ``c`` is about
``NOMINAL_S`` and the scaled value equals the wall time.
"""

from __future__ import annotations

import cmath
import time

import numpy as np

# Kernel time on an uncontended vCPU of the reference host (2-vCPU virtual
# machine, Python 3.11, numpy 2.4); fixed, so scaled values are comparable
# between runs and commits.
NOMINAL_S = 0.018
ITERATIONS = 30_000


def kernel() -> float:
    """Seconds taken by one fixed piece of interpreter and numpy work."""
    t0 = time.perf_counter()
    z, acc = 0.3 + 0.1j, 0j
    a = np.linspace(0.1, 1.0, 32)
    for i in range(ITERATIONS):
        z = cmath.sqrt(z * z + 1.0) * 0.5 + 0.01j
        acc += z / (1.0 + cmath.log(1.0 + z))
        if i % 24 == 0:
            a = np.sqrt(a * a + acc.real) * 0.5
    elapsed = time.perf_counter() - t0
    if not (cmath.isfinite(acc) and np.isfinite(a).all()):
        raise RuntimeError("calibration kernel produced a non-finite value")
    return elapsed
