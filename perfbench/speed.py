"""Host-speed probe: a fixed task timed between the benchmark's calls.

The benchmark runs on shared virtual machines whose speed swings: the
same seeded pure-Python task reads anywhere from 27 to 55 runs per
second within one minute, in CPU time as much as in wall time, so the
swing is the host's and no median over a run's own calls removes it.
Each vCPU swings on its own (two probes pinned one to each read
uncorrelated), so the probe reads the cores the call runs on:

- a serial call runs on the benchmark's own thread, so the probe times
  the task on that thread between calls, never inside one, and the
  call is scaled by the readings just around it;
- a parallel call (``mixed_batch``'s process workers hold both cores
  for up to a second) leaves that thread idle, so a probe thread times
  the task in its own CPU time every :data:`DURING_EVERY_S` while the
  call runs, on whichever core the scheduler gives it, and the call is
  scaled by those readings.  The thread takes a few percent of one
  core from the workers, the same for every version of the program.

Either way::

    scaled = measured * REFERENCE_PROBE_S / (median probe reading)

so a time reads as it would on a host where one probe takes
:data:`REFERENCE_PROBE_S`.  The task never touches ``repro``: a change to
the program under test moves the measured times and leaves the probe
alone, so it moves the scaled times by the same share.

Nothing here imports ``repro``; the benchmark's own tests check the
arithmetic with a fake clock and task.
"""

from __future__ import annotations

import gc
import random
import statistics
import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

#: Values the probe task sorts and buckets.
PROBE_VALUES = 8_000

#: Repeats per probe; a probe reads the median of them.
PROBE_REPEATS = 3

#: A probe is taken once this many seconds have passed since the last.
PROBE_EVERY_S = 0.1

#: A serial call is scaled by the median of this many readings on each
#: side of it.
PROBE_WINDOW = 2

#: While a parallel call runs, the probe thread reads the host this often.
DURING_EVERY_S = 0.04

#: Seconds one probe takes on the reference host (a 2-vCPU Xeon VM at
#: its steady speed); scaled times read as if measured there.
REFERENCE_PROBE_S = 0.0022


def make_task(size: int, seed: int = 20120401) -> Callable[[], None]:
    """A fixed seeded pure-Python task: sort, bucket, format, split."""
    rng = random.Random(seed)
    values = [rng.random() for __ in range(size)]

    def task() -> None:
        buckets: dict[int, int] = {}
        for value in sorted(values):
            key = int(value * 997)
            buckets[key] = buckets.get(key, 0) + 1
        text = ",".join(f"{key}:{count}" for key, count in buckets.items())
        text.split(",")

    return task


def time_task(
    task: Callable[[], None],
    repeats: int,
    clock: Callable[[], float] = time.perf_counter,
) -> float:
    """Median seconds of ``repeats`` runs of ``task``.

    The collector is paused, so the size of the heap the workload left
    behind does not leak into the reading.
    """
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for __ in range(repeats):
            start = clock()
            task()
            times.append(clock() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


class SpeedProbe:
    """Probe readings taken between calls, in the order they were taken."""

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        task: Callable[[], None] | None = None,
        thread_clock: Callable[[], float] = time.thread_time,
    ):
        self._clock = clock
        self._thread_clock = thread_clock
        self._task = task or make_task(PROBE_VALUES)
        #: Seconds of each probe reading.
        self.times: list[float] = []
        #: Wall seconds spent probing, repeats included.
        self.spent = 0.0
        self._last = -float("inf")

    @property
    def latest(self) -> int:
        """Index of the latest reading (-1 before the first)."""
        return len(self.times) - 1

    def sample(self) -> None:
        """Take a reading now."""
        start = self._clock()
        self.times.append(time_task(self._task, PROBE_REPEATS, self._clock))
        self._last = self._clock()
        self.spent += self._last - start

    def tick(self) -> None:
        """Take a reading if :data:`PROBE_EVERY_S` passed since the last."""
        if self._clock() - self._last >= PROBE_EVERY_S:
            self.sample()

    @contextmanager
    def during(self, every: float = DURING_EVERY_S) -> Iterator[None]:
        """Take readings from a probe thread while the block runs.

        Each reading is one run of the task in the thread's own CPU time,
        so waiting for the GIL or for a core does not count.  The
        collector is left alone: a worker forked while the thread runs
        must not inherit a paused collector.
        """
        stop = threading.Event()

        def read() -> None:
            while not stop.wait(every):
                start = self._thread_clock()
                self._task()
                self.times.append(self._thread_clock() - start)

        thread = threading.Thread(target=read, name="speed-probe")
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()

    def factor(self, before: int, after: int) -> float:
        """Scale factor of a call made after reading ``before`` that
        returned after reading ``after``."""
        return scale_factor(
            self.times, before, after, REFERENCE_PROBE_S, PROBE_WINDOW
        )


def scale_factor(
    times: Sequence[float],
    before: int,
    after: int,
    reference: float,
    window: int,
) -> float:
    """``reference`` over the median reading that describes one call.

    The call came after reading ``before`` and returned after reading
    ``after``.  Readings taken while it ran describe it best; without
    them, it takes readings ``before - window + 1`` through
    ``before + window``, clipped to those that exist.  With no reading
    at all the factor is 1.
    """
    during = times[before + 1: after + 1]
    if during:
        return reference / statistics.median(during)
    near = times[max(0, before - window + 1): before + window + 1]
    return reference / statistics.median(near) if near else 1.0
