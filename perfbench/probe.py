"""Processor-speed probe: scales a child's wall time to a reference speed.

The benchmark runs on a few vCPUs of a shared host.  Each vCPU switches,
every few seconds and independently of the other, between a fast state
and one about 1.7 times slower (other tenants on the same physical core);
CPU time slows down with wall time, so the slowdown is in the processor,
not in waiting.  Raw wall times of the same CLI run spread by +-25%, and
whole run windows can fall into the slow state.

``SpeedProbe`` runs a thread in the benchmark's process that, every
``PERIOD_S`` while a child runs, moves itself to the vCPU the child last
ran on and times a fixed piece of work in its own CPU time: small numpy
mat-vec products in a Python loop, the operation mix of the solvers'
per-cell updates.  ``scale(t0, t1)`` is the mean of ``REFERENCE_S / p``
over the samples ``p`` taken in ``[t0, t1]``; a wall time multiplied by
it is the time the run would have taken at the probe's reference speed.
The probe costs the child well under 1% of its core.

``REFERENCE_S`` is a fixed constant, the probe's time on an uncontended
vCPU of the 2-vCPU Intel Xeon host the baseline was recorded on, so
scaled times of different invocations share one unit.  On another
processor the scaled times are those of a processor running the probe at
that speed.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np

REFERENCE_S = 2.2e-4
PERIOD_S = 0.05
PROBE_STEPS = 60


def _cpu_of(pid: int) -> int:
    """The CPU ``pid`` last ran on (field 39 of ``/proc/<pid>/stat``)."""
    with open(f"/proc/{pid}/stat") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[36])


class SpeedProbe:
    """Samples the speed of the vCPU a followed child runs on."""

    def __init__(self):
        self._pid = None
        self._samples: list[tuple[float, float]] = []   # (perf_counter, probe CPU s)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def follow(self, pid) -> None:
        """Sample on ``pid``'s vCPU from now on; ``None`` pauses sampling."""
        self._pid = pid

    def _loop(self) -> None:
        R = np.eye(7) * 0.3
        q = np.ones(7)
        while not self._stop.wait(PERIOD_S):
            pid = self._pid
            if pid is None:
                continue
            try:
                os.sched_setaffinity(0, {_cpu_of(pid)})
            except (OSError, ValueError, IndexError):   # the child just ended
                continue
            t0 = time.thread_time()
            f = np.zeros(7)
            for _ in range(PROBE_STEPS):
                d = q + R @ f
                f = f * 0.5 + d * 0.01
            self._samples.append((time.perf_counter(), time.thread_time() - t0))

    def scale(self, t0: float, t1: float) -> float:
        """Reference speed over measured speed, averaged over ``[t0, t1]``.

        A window too short to hold a sample uses the sample nearest to it.
        """
        inside = [p for t, p in self._samples if t0 <= t <= t1]
        if not inside:
            if not self._samples:
                raise RuntimeError("the speed probe took no sample")
            mid = 0.5 * (t0 + t1)
            inside = [min(self._samples, key=lambda s: abs(s[0] - mid))[1]]
        return sum(REFERENCE_S / p for p in inside) / len(inside)
