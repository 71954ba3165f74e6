"""How fast the host ran while a pass ran, so pass times can be put on
one scale.

A shared host's speed drifts: on a 2-vCPU VM the same pure-Python loop
takes 120 ms in one spell and 200-270 ms in the next, and spells last
from seconds to over a minute, so a minute-long run can fall wholly in
a slow one. Raw pass times then spread by more than any useful bound,
whatever statistic a run reports.

:func:`install` puts a probe into a pass process and, through a fork
hook, into every process forked from it (the pool workers). Every
``INTERVAL_S`` of the process's CPU time (``ITIMER_PROF``) the probe
runs two fixed loops, dictionary updates and reads at pseudo-random
places in a 4 MiB array, and records the thread CPU time they took, one
``<monotonic time> <seconds>`` line per probe in a file per process.
Probes are spaced by CPU time, so the busy processes, whose speed
decides the pass's time, give the samples. The probe costs about 1 % of
a process's CPU time and ``FOOTPRINT_MIB`` of its resident memory.

Both loops are needed. In some slow spells the simulator slows by more
than plain interpreter work does, as memory-bound code does when other
tenants share the host's caches. On a 2-vCPU VM, twelve ``sweep-cold``
passes whose raw times spanned a factor of 1.45 spanned 1.20 at
reference speed with the dictionary loop alone, 1.16 with the array
loop alone and 1.07 with both.

:func:`slowdown` turns the samples within a time window into the
window's slowdown against ``REF_PROBE_S``: 1.0 means the host ran at the
reference speed. A pass's reference-speed time is its wall time divided
by the slowdown of its window; that is the time ``run.py`` reports.
"""

from __future__ import annotations

import atexit
import os
import pathlib
import signal
import statistics
import time
from typing import List, Optional, Tuple

#: CPU seconds between probes in each process
INTERVAL_S = 0.05
#: the probe's time at the reference speed: about what it takes on an
#: unloaded 2-vCPU Xeon VM in its fast spells
REF_PROBE_S = 400e-6
_DICT_ITERS = 1500
_ARRAY_ITERS = 800
_ARRAY_BITS = 22
#: resident memory the probe adds to each process it runs in
FOOTPRINT_MIB = (1 << _ARRAY_BITS) / (1 << 20)

_state = {"out": None, "array": None, "x": 1}
_table: dict = {}


def _probe(_signum, _frame) -> None:
    start = time.thread_time()
    table = _table
    for i in range(_DICT_ITERS):
        key = i & 127
        table[key] = (table.get(key, 0) + i) & 0xFFFF
    array, mask, x = _state["array"], (1 << _ARRAY_BITS) - 1, _state["x"]
    for _ in range(_ARRAY_ITERS):
        x = (x * 1103515245 + 12345) & mask
        table[0] = (table[0] + array[x]) & 0xFFFF
    took = time.thread_time() - start
    _state["x"] = x
    _state["out"].write(f"{time.monotonic():.6f} {took:.8f}\n")


def _arm(directory: str) -> None:
    path = os.path.join(directory, f"probe-{os.getpid()}.txt")
    # Line-buffered: pool workers leave through os._exit, which flushes nothing.
    _state["out"] = open(path, "a", buffering=1)
    signal.signal(signal.SIGPROF, _probe)
    signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)


def _disarm() -> None:
    # The interpreter resets SIGPROF to its default (terminate) while it
    # shuts down, so the timer must stop first.
    signal.setitimer(signal.ITIMER_PROF, 0)


def install(directory: str) -> None:
    """Probe this process and every process later forked from it."""
    _state["array"] = bytearray(range(256)) * ((1 << _ARRAY_BITS) // 256)
    _arm(directory)
    atexit.register(_disarm)
    os.register_at_fork(after_in_child=lambda: _arm(directory))


def read_samples(directory: pathlib.Path) -> List[Tuple[float, float]]:
    """``(monotonic time, probe seconds)`` of every process's probes."""
    samples = []
    for path in directory.glob("probe-*.txt"):
        for line in path.read_text().splitlines():
            fields = line.split()
            if len(fields) == 2:  # a process killed mid-line leaves a stub
                samples.append((float(fields[0]), float(fields[1])))
    return samples


def slowdown(samples, start: float, end: float) -> Optional[float]:
    """How many times slower than the reference speed the host ran in
    ``[start, end]``, or None without samples there. Progress goes as
    1 / probe time, so the window's mean speed is the mean of
    ``REF_PROBE_S / probe``; a probe that an interrupt stretched then
    weighs little."""
    speeds = [REF_PROBE_S / took for t, took in samples if start <= t <= end and took > 0]
    if not speeds:
        return None
    return 1.0 / statistics.fmean(speeds)
