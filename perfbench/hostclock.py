"""Times intervals in seconds at the host's quiet speed.

On a shared host the speed a single-threaded process gets is not constant.
On a shared 2-vCPU KVM guest (Xeon) every kind of work, interpreter loops and NumPy kernels alike, ran either at
one speed or up to twice as slow, switching every second or so and leaning
to one side for minutes to hours; steal time stayed near zero and CPU time
rose with wall time, so neither clock sees it.  Medians over a run of the
program alone therefore moved by 30-60% between runs.

:class:`HostClock` samples the host's speed *while* the program runs: a
``SIGALRM`` every :data:`INTERVAL_S` runs a tiny fixed probe (a dict loop
and a few small einsums, about :data:`QUIET_PROBE_S`) and records its
time.  An interval is reported as its wall time, minus the time spent in
probes, times the mean of ``QUIET_PROBE_S / probe time`` over the samples
taken inside it: the seconds the interval would have taken at the quiet
speed.  The probe never touches ``repro``, so a change to the program
cannot move it.  Python runs signal handlers between bytecodes, so a long
NumPy call delays the next sample until it returns.
"""

from __future__ import annotations

import dataclasses
import signal
from time import perf_counter

import numpy as np

#: Seconds between samples.
INTERVAL_S = 0.01
#: Time of one probe at the quiet speed of the host above; reported times
#: are seconds at that speed.
QUIET_PROBE_S = 0.00022


@dataclasses.dataclass(frozen=True)
class Mark:
    start: float
    overhead: float
    speed_sum: float
    samples: int


@dataclasses.dataclass(frozen=True)
class Interval:
    wall_s: float
    #: Wall time minus the probes run inside the interval.
    net_s: float
    #: Mean quiet-over-measured probe speed inside the interval.
    speed: float

    @property
    def scaled_s(self) -> float:
        return self.net_s * self.speed


class HostClock:
    """Use as a context manager; :meth:`mark` and :meth:`since` time one
    interval, and :attr:`overhead` lets callers subtract probe time from
    intervals they time themselves."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._gate = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        self._states = rng.standard_normal((8, 2, 2, 64)) + 1j * rng.standard_normal((8, 2, 2, 64))
        self.overhead = 0.0
        self.speed_sum = 0.0
        self.samples = 0
        self.probe_times = []
        self._busy = False
        self._previous_handler = None

    def _probe(self) -> float:
        start = perf_counter()
        table = {}
        for i in range(1000):
            table[i % 97] = table.get(i % 97, 0) + i
        for _ in range(10):
            np.einsum("ab,xbyz->xayz", self._gate, self._states)
        return perf_counter() - start

    def sample(self) -> None:
        """Run one probe now and add it to the running sums."""
        if self._busy:  # a signal arrived during a sample
            return
        self._busy = True
        start = perf_counter()
        took = self._probe()
        self.speed_sum += QUIET_PROBE_S / took
        self.samples += 1
        self.probe_times.append(took)
        self.overhead += perf_counter() - start
        self._busy = False

    def __enter__(self) -> "HostClock":
        for _ in range(20):  # warm the probe's code paths and arrays
            self._probe()
        self._previous_handler = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def mark(self) -> Mark:
        """Start an interval, with one sample at its start."""
        speed_sum, samples = self.speed_sum, self.samples
        self.sample()
        return Mark(perf_counter(), self.overhead, speed_sum, samples)

    def since(self, mark: Mark) -> Interval:
        """End the interval ``mark`` started, with one sample at its end."""
        end = perf_counter()
        overhead = self.overhead - mark.overhead
        self.sample()
        speed = (self.speed_sum - mark.speed_sum) / (self.samples - mark.samples)
        wall = end - mark.start
        return Interval(wall, wall - overhead, speed)
