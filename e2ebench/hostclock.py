"""Host-speed calibration: a fixed pure-Python kernel timed between ops.

The shared host this benchmark runs on changes speed by tens of percent
over minutes (other tenants, a busy sibling vCPU), and every op slows by
about the same factor.  The kernel below is the benchmark's own code, not
the simulator's, so a change under ``src/`` cannot move it, and it does
what the simulator's hot loops do: integer arithmetic, attribute loads
and stores, method calls and short loops over small lists.  It allocates
no objects the garbage collector tracks, so it neither triggers a
collection of the simulator's heap nor leaves one behind.

The speed also wobbles within a run, by ten percent and more from one
second to the next, and the kernel's own pass times follow it (their
correlation with the simulator's op times is about 0.8).  So a run
samples the kernel at op boundaries, at most every :data:`EVERY_S`
seconds, leaves the samples out of every timing, and scales each op's
latency by the samples taken around that op (:meth:`HostClock.scale_at`),
and the rest of its time by the run's median sample
(:meth:`HostClock.scale`).  Every host time the benchmark reports thus
reads as seconds on a host where one kernel pass takes
:data:`REFERENCE_S`.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Tuple

#: One kernel pass, in seconds, on the host where the benchmark was set
#: (a 2-vCPU shared container, Python 3.11, in a quiet period).
REFERENCE_S = 0.020

#: Least host time between two samples; also how far around an op its
#: samples are looked for.
EVERY_S = 0.25

_SETS = 64
_WAYS = 8
_ACCESSES = 16_000


class _Line:
    __slots__ = ("tag", "stamp")

    def __init__(self) -> None:
        self.tag = -1
        self.stamp = 0


class _ToyCache:
    """A set-associative LRU cache, reset in place between passes."""

    def __init__(self) -> None:
        self.sets = [[_Line() for _ in range(_WAYS)] for _ in range(_SETS)]
        self.clock = 0

    def reset(self) -> None:
        for ways in self.sets:
            for line in ways:
                line.tag = -1
                line.stamp = 0
        self.clock = 0

    def access(self, address: int) -> bool:
        self.clock += 1
        ways = self.sets[address % _SETS]
        tag = address // _SETS
        victim = ways[0]
        for line in ways:
            if line.tag == tag:
                line.stamp = self.clock
                return True
            if line.stamp < victim.stamp:
                victim = line
        victim.tag = tag
        victim.stamp = self.clock
        return False


_CACHE = _ToyCache()


def kernel() -> int:
    """One pass: a pseudo-random address stream through the toy cache."""
    _CACHE.reset()
    state = 12345
    hits = 0
    for _ in range(_ACCESSES):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        hits += _CACHE.access((state >> 8) & 0xFFF)
    return hits


class HostClock:
    """Kernel samples of one process, and the scale they give."""

    def __init__(self) -> None:
        #: (``perf_counter`` at the pass's end, pass seconds).
        self.samples: List[Tuple[float, float]] = []
        #: Host seconds spent in samples, to take out of every timing.
        self.spent_s = 0.0
        self._next = 0.0

    def sample(self) -> None:
        started = time.perf_counter()
        kernel()
        ended = time.perf_counter()
        self.samples.append((ended, ended - started))
        self.spent_s += ended - started
        self._next = ended + EVERY_S

    def maybe_sample(self) -> None:
        if time.perf_counter() >= self._next:
            self.sample()

    def scale(self) -> float:
        """Factor from this process's host seconds to reference seconds."""
        if not self.samples:
            self.sample()
        return REFERENCE_S / statistics.median(d for _, d in self.samples)

    def scale_at(self, start: float, end: float) -> float:
        """The factor for host time spent between ``start`` and ``end``:
        from the samples taken within :data:`EVERY_S` of that interval,
        or the run's when there are none."""
        near = [
            d for t, d in self.samples if start - EVERY_S <= t <= end + EVERY_S
        ]
        if not near:
            return self.scale()
        return REFERENCE_S / statistics.median(near)
