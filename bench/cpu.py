"""Pin the benchmark to the least loaded CPU of a shared host.

Other tenants of a shared host load its CPUs unevenly, and the load moves
from one moment to the next.  Before each timed op the benchmark moves
itself to the CPU that runs a short probe loop fastest at that moment.  The
probe runs outside the timed region, and it runs at most once every
``REPICK_S`` seconds.
"""

from __future__ import annotations

import os
from time import perf_counter

#: Names the CPUs of the run for child processes, which start pinned to one.
CPUS_ENV = "HECKE5_BENCH_CPUS"
#: The CPUs this run may use, before any pinning.
ALL_CPUS = sorted(
    {int(c) for c in os.environ.get(CPUS_ENV, "").split(",") if c} or os.sched_getaffinity(0)
)
#: Shortest time between two probes.
REPICK_S = 0.02

_last_pick = float("-inf")


def _spin(n=5_000):
    total = 0
    for i in range(n):
        total += i * i % 7
    return total


def pin_quietest(force=False):
    """Pin this process (and the children it starts) to the fastest CPU right now."""
    global _last_pick
    now = perf_counter()
    if len(ALL_CPUS) < 2 or (not force and now - _last_pick < REPICK_S):
        return
    speeds = {}
    for cpu in ALL_CPUS:
        os.sched_setaffinity(0, {cpu})
        best = float("inf")
        for _ in range(3):
            t0 = perf_counter()
            _spin()
            best = min(best, perf_counter() - t0)
        speeds[cpu] = best
    os.sched_setaffinity(0, {min(speeds, key=speeds.get)})
    _last_pick = perf_counter()
