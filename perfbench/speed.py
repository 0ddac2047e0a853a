"""Host speed, measured by a fixed pure-Python kernel run on a timer.

The benchmark runs on a few cores of a shared host whose speed moves by a
quarter or more within minutes as other tenants come and go.  Thread CPU
time slows as much as wall time does, so the cause is contention for the
core and its caches, not preemption, and no clock excludes it.  A kernel of
fixed work, in the same style as the library (Fraction arithmetic, small
tuples, dict counting), measures that speed.  While a pass runs, a SIGALRM
timer runs the kernel every INTERVAL_S, in the middle of library calls as
well as between them, so the samples cover the same stretch of time as the
work.  Their mean over NOMINAL_S is the pass's slowdown, and times are
reported as seconds at reference speed: measured seconds over the slowdown.
Items are timed with `Meter.clock`, which leaves the kernel's own time out.
The host's speed also swings within a second; those swings average out over
samples spread through the work, but not over one block of samples taken
after a long call, which tracked the library about half as well.

The kernel touches no library code, so a change to the library moves the
item times and not the slowdown.  The garbage collector is off while the
kernel runs, so no collection of the library's garbage is charged to it.
"""

from __future__ import annotations

import contextlib
import gc
import signal
import time
from fractions import Fraction

# kernel time on an uncontended core of a 2-core Xeon virtual machine,
# Python 3.11.7; a fixed scale, so reported times read as seconds there
NOMINAL_S = 0.0015
# timer period; the kernel then takes about a tenth of a pass
INTERVAL_S = 0.02


def kernel() -> Fraction:
    total = Fraction(0)
    counts: dict = {}
    for i in range(1, 400):
        total += Fraction(i % 7 + 1, i % 97 + 1)
        key = tuple(sorted((i * k) % 17 for k in range(5)))
        counts[key] = counts.get(key, 0) + 1
    return total


class Meter:
    """Kernel samples of one pass, and a clock that leaves them out."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._spent = 0.0  # seconds inside _run_kernel so far

    def _run_kernel(self, *_signal) -> None:
        start = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            kernel()
            self.samples.append(time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
            self._spent += time.perf_counter() - start

    def clock(self) -> float:
        """time.perf_counter() less the time spent running the kernel."""
        return time.perf_counter() - self._spent

    @contextlib.contextmanager
    def running(self):
        """Run the kernel every INTERVAL_S until the block ends."""
        previous = signal.signal(signal.SIGALRM, self._run_kernel)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def sample(self, seconds: float) -> None:
        """Run the kernel back to back for at least `seconds`, and at least once."""
        end = time.perf_counter() + seconds
        self._run_kernel()
        while time.perf_counter() < end:
            self._run_kernel()

    @property
    def slowdown(self) -> float:
        """Mean kernel time over NOMINAL_S: above 1 when the host is slower."""
        return sum(self.samples) / len(self.samples) / NOMINAL_S
