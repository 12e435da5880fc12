"""Tests of the host-speed probe and the scaling of measured times.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import gc
import sys
import time
import weakref
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.run import timed_setup  # noqa: E402
from perfbench.speed import (  # noqa: E402
    DURING_EVERY_S,
    PROBE_EVERY_S,
    PROBE_REPEATS,
    REFERENCE_PROBE_S,
    SpeedProbe,
    scale_factor,
)
from perfbench.workloads import Meter  # noqa: E402


class SteppedClock:
    """A clock that advances by ``step`` per read; ``step`` may change."""

    def __init__(self, step: float) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


def test_a_serial_call_is_scaled_by_the_readings_around_it():
    times = [1.0, 2.0, 4.0, 8.0, 16.0]
    # Called after reading i, it sees readings i-1 .. i+2, clipped.
    assert [scale_factor(times, i, i, 4.0, 2) for i in range(5)] == [
        4.0 / 2.0,  # readings 0..2
        4.0 / 3.0,  # readings 0..3
        4.0 / 6.0,  # readings 1..4
        4.0 / 8.0,  # readings 2..4
        4.0 / 12.0,  # readings 3..4
    ]
    assert scale_factor([], -1, -1, 4.0, 2) == 1.0


def test_a_call_with_readings_during_it_is_scaled_by_those_alone():
    times = [1.0, 8.0, 2.0, 3.0, 16.0]
    assert scale_factor(times, 1, 3, 5.0, 2) == 5.0 / 2.5
    assert scale_factor(times, 0, 1, 4.0, 2) == 4.0 / 8.0


def test_a_host_twice_as_slow_scales_to_the_same_time():
    fast = [REFERENCE_PROBE_S] * 4
    slow = [2 * REFERENCE_PROBE_S] * 4
    for before, after in ((1, 1), (0, 2)):
        assert 0.1 * scale_factor(
            fast, before, after, REFERENCE_PROBE_S, 2
        ) == pytest.approx(
            0.2 * scale_factor(slow, before, after, REFERENCE_PROBE_S, 2)
        )


def test_probe_thread_reads_in_its_own_cpu_time_while_the_block_runs():
    thread_clock = SteppedClock(0.002)
    probe = SpeedProbe(task=lambda: None, thread_clock=thread_clock)
    with probe.during(every=0.001):
        time.sleep(0.05)
    taken = len(probe.times)
    assert taken >= 1
    assert probe.times == [pytest.approx(0.002)] * taken
    time.sleep(0.01)
    assert len(probe.times) == taken
    assert probe.spent == 0.0


def test_probe_reads_the_median_repeat_and_ticks_only_when_due():
    clock = SteppedClock(0.001)
    probe = SpeedProbe(clock=clock, task=lambda: None)
    probe.sample()
    # Each repeat reads the clock twice, one step apart.
    assert probe.times == [pytest.approx(0.001)]
    assert probe.latest == 0
    probe.tick()
    assert probe.latest == 0
    clock.now += PROBE_EVERY_S
    probe.tick()
    assert probe.latest == 1
    # Start, two reads per repeat, end: all spent probing.
    assert probe.spent == pytest.approx(2 * (2 * PROBE_REPEATS + 1) * 0.001)


def test_meter_scales_each_call_by_its_readings():
    cpu = SteppedClock(0.5)
    probe = SpeedProbe(clock=SteppedClock(0.001), task=lambda: None)
    meter = Meter(None, cpu, probe)
    probe.sample()
    __, first = meter.call("a", lambda: None)
    meter.outcome("a", ok=True)
    meter.latency("a", first)
    meter.end_round()
    __, second = meter.call("b", lambda: None)
    meter.outcome("a", ok=True)
    meter.outcome("b", ok=True)
    meter.latency("a", second)
    meter.latency("b", second)
    meter.end_round()
    assert meter.call_readings == [(0, 0), (1, 1)]
    assert meter.source_counts == [1, 2]
    assert meter.call_counts == [1, 1]
    assert meter.latency_calls == [0, 1, 1]
    times = meter.scaled(lambda before, after: 2.0 + before)
    assert times.walls == [2.0 * first, 3.0 * second]
    assert times.cpus == [1.0, 1.5]
    # Every sample of a key reads the median of the key's scaled samples.
    a = (2.0 * first + 3.0 * second) / 2
    assert times.latencies == [a, a, 3.0 * second]
    assert meter.scaled(None).walls == [first, second]


def test_a_parallel_meter_reads_during_the_call():
    probe = SpeedProbe(task=lambda: None)
    meter = Meter(None, SteppedClock(0.5), probe, parallel=True)
    probe.sample()
    meter.call("batch", time.sleep, 5 * DURING_EVERY_S)
    before, after = meter.call_readings[0]
    assert before == 0
    assert after > before


class _Cycle:
    """An object that only the cycle collector can free."""

    def __init__(self) -> None:
        self.me = self


@pytest.mark.parametrize("collect", [True, False])
def test_a_fresh_call_starts_from_a_collected_heap(collect):
    meter = Meter(None, SteppedClock(0.5), collect=collect)
    enabled = gc.isenabled()
    gc.disable()
    try:
        ref = weakref.ref(_Cycle())
        alive, __ = meter.call("x", lambda: ref() is not None)
    finally:
        if enabled:
            gc.enable()
    assert alive is not collect


class _SlowSetup:
    """A workload whose set-up takes one second and ticks the probe."""

    def __init__(self, clock: SteppedClock) -> None:
        self.clock = clock
        self.tick = lambda: None

    def setup(self) -> None:
        self.clock.now += 1.0
        self.tick()


def test_timed_setup_leaves_out_probing_and_scales_by_its_readings():
    clock = SteppedClock(0.0)
    probe = SpeedProbe(clock=clock, task=lambda: setattr(
        clock, "now", clock.now + 2 * REFERENCE_PROBE_S
    ))
    workload = _SlowSetup(clock)
    workload.tick = probe.tick
    clock.now = 10.0
    elapsed, scaled = timed_setup(workload, probe, clock)
    assert len(probe.times) == 3
    assert elapsed == pytest.approx(1.0)
    assert scaled == pytest.approx(0.5)
