"""The machine's current speed, from a fixed pure-Python loop.

On a shared virtual machine the speed a process gets drifts: a fixed
loop takes 23 ms or 33-37 ms depending on the second and on the CPU,
and slow spells last from seconds to minutes.  Every timed op (or, on
``serve_mix``, every block of requests) and every set-up launch is
preceded and followed by a speed reading (a set-up launch only
preceded), and its time is reported at the reference speed: the
measured time times :func:`scale` of the readings.  A change to the program moves the op
and not the loop, so it shows in full; a slow spell moves both, and
cancels.
"""

from __future__ import annotations

import os
import statistics
import time

#: Iterations of the loop: about 23 ms at full speed on an Intel Xeon
#: (family 6, model 143) KVM guest.
LOOP_ITERATIONS = 300_000
#: The loop's time at the reference speed: its full-speed time there.
REFERENCE_MS = 23.0


def loop_ms() -> float:
    """Milliseconds the fixed loop takes now."""
    start = time.perf_counter()
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i * i % 7
    return (time.perf_counter() - start) * 1000.0


def machine_ms() -> float:
    """Mean time of the loop on each CPU this process may use.

    The calling thread runs the loop pinned to one CPU after another
    (each CPU of a virtual machine drifts on its own), then gets its
    CPU set back.
    """
    cpus = os.sched_getaffinity(0)
    try:
        times = []
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(loop_ms())
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.mean(times)


def scale(*readings_ms: float) -> float:
    """Factor from a time measured between ``readings_ms`` (of
    :func:`loop_ms` or :func:`machine_ms`) to the reference speed."""
    return REFERENCE_MS / statistics.mean(readings_ms)
