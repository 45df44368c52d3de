"""The machine's speed of the moment, and the fastest CPU to run on.

On a shared two-core VM each CPU slows by up to ~1.5x for seconds at a
time, and over minutes the host as a whole drifts by as much.  A short
pure-Python loop (the spin) slows with it.  ``pin_fastest`` times the
spin on each CPU the process may use and pins the process to the
fastest one; ``speed_ns`` times it on the current CPU.  The runner
divides each operation's time by the spin timed next to it, so a figure
reads the same whichever phase of the machine it was taken in.
"""

from __future__ import annotations

import os
import time

#: a spin runs this many loop iterations, about 1.1 ms on a fast CPU here
SPIN = 20_000


def _spin_ns() -> int:
    start = time.perf_counter_ns()
    s = 0
    for i in range(SPIN):
        s += i * i % 7
    return time.perf_counter_ns() - start


def speed_ns() -> int:
    """The spin's time on the current CPU: the faster of two spins, in ns."""
    return min(_spin_ns(), _spin_ns())


def pin_fastest(cpus: list[int]) -> int:
    """Pin this process to the fastest of cpus and return its speed_ns().

    With one CPU, or if the system refuses the affinity change, the
    process stays where it is and the current CPU's speed is returned.
    """
    if len(cpus) < 2:
        return speed_ns()
    try:
        speeds = []
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            speeds.append((speed_ns(), cpu))
        best, cpu = min(speeds)
        os.sched_setaffinity(0, {cpu})
        return best
    except OSError:
        return speed_ns()
