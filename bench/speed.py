"""The machine's speed, sampled while the benchmark runs.

On a shared host the speed of one core drifts by up to half within
seconds and minutes: the same combinatorics pass took from 5.3 to 7.9 CPU
seconds within four minutes on a 2-core KVM guest (Intel Xeon).  Medians
over the few passes that fit in a run do not average that out.  So while
a run is timed, a profiling timer fires after every INTERVAL_S of the
process's CPU time and its handler times a fixed pure-Python reference
loop.  The time of an operation at reference speed is its CPU time, less
the time spent in the handler, times REF_LOOP_S over the mean of the
middle half of the reference-loop times sampled while the operation ran.
On that guest this cut the spread (quartile distance over median) of
single passes from 15-22% to 4-7% on combinatorics, mc-3d and py-sweep.

CPU time rather than wall time leaves out the time the host takes the
core away.  It counts every thread of the process, and ``cpu_seconds``
adds the children it has waited for, so work moved off the main thread
is still counted; work run in parallel saves nothing.  While the timer
is armed, Linux reads the process's CPU clock only up to its last tick,
a few milliseconds, which is small against an operation.
"""

from __future__ import annotations

import resource
import signal
import statistics
import time

INTERVAL_S = 0.05
# The reference loop's time at reference speed: roughly its median on the
# machine the benchmark was written on, so that times at reference speed
# read close to the CPU seconds measured there.
REF_LOOP_S = 0.75e-3
# Samples taken when the probe starts, so that an operation too short to
# be sampled itself can use the latest ones.
LEAD_SAMPLES = 5
# The mark of the start of the process, for a probe entered first thing.
PROCESS_START = (0, 0.0, 0.0)


def reference_loop() -> int:
    s = 0
    for i in range(8000):
        s += i * i % 7
    return s


def cpu_seconds() -> float:
    """CPU time of this process and of the children it has waited for."""
    child = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + child.ru_utime + child.ru_stime


class SpeedProbe:
    """Samples the reference loop while it is entered (one at a time)."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0            # seconds the handler took, in total
        self._old = None

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        reference_loop()
        took = time.perf_counter() - t0
        self.samples.append(took)
        self.spent += took

    def __enter__(self) -> "SpeedProbe":
        for _ in range(LEAD_SAMPLES):
            self._sample()
        self._old = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._old)

    def start(self) -> tuple[int, float, float]:
        """A mark to pass to ``at_ref`` when the timed work has ended."""
        return len(self.samples), self.spent, cpu_seconds()

    def at_ref(self, mark: tuple[int, float, float]) -> float:
        """CPU seconds since ``mark``, at reference speed."""
        cpu = cpu_seconds()
        first, spent, cpu0 = mark
        window = self.samples[first:] or self.samples[-LEAD_SAMPLES:]
        own = cpu - cpu0 - (self.spent - spent)
        return own * REF_LOOP_S / middle_mean(window)


def middle_mean(values: list[float]) -> float:
    """Mean of the middle half of the values (all of them if fewer than 4)."""
    values = sorted(values)
    k = len(values) // 4
    return statistics.fmean(values[k:len(values) - k])
