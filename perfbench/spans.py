"""Span recording and the arithmetic the benchmark reports.

Spans live in memory as parallel lists and are written out once, when
the benchmark ends.  Each span has a name, a start, an end, the index of
the span that caused it (``-1`` for an operation root) and the id of the
operation it serves (the source or request), shared by every span of
that operation.

Nothing here imports ``repro``: the functions are plain arithmetic over
numbers, so the benchmark's own tests can check them on hand-made spans.
"""

from __future__ import annotations

import math
import os
import time
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

#: A tail percentile must leave at least this many samples beyond it.
TAIL_SAMPLES_BEYOND = 10

#: Name of the root span the harness opens around each public-API call.
OP_SPAN = "bench.op"


class SpanRecorder:
    """Collects nested spans from one thread, in memory.

    Spans are recorded only while an operation root is open, so set-up,
    checks and harness work between operations never enter the trace.
    A forked child stops recording: process workers inherit the patched
    functions, but their spans could not come home anyway.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._pid = os.getpid()
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[str] = []
        #: Counts tallied from the arguments and results of boundaries.
        self.tallies: dict[str, int] = {}
        self._stack: list[int] = []

    @property
    def recording(self) -> bool:
        """True inside an operation, in the process that made the recorder."""
        return bool(self._stack) and os.getpid() == self._pid

    def begin(self, name: str) -> int:
        """Open a span under the innermost open one; returns its index."""
        index = len(self.names)
        parent = self._stack[-1] if self._stack else -1
        self.names.append(name)
        self.parents.append(parent)
        self.ops.append(self.ops[parent] if parent >= 0 else "")
        self.ends.append(math.nan)
        self._stack.append(index)
        self.starts.append(self._clock())
        return index

    def end(self, index: int) -> None:
        """Close the innermost span, which must be ``index``."""
        self.ends[index] = self._clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while {popped} was open")

    @contextmanager
    def op(self, op_id: str) -> Iterator[int]:
        """Open an operation root span carrying ``op_id``."""
        if self._stack:
            raise RuntimeError("operations do not nest")
        index = self.begin(OP_SPAN)
        self.ops[index] = op_id
        try:
            yield index
        finally:
            self.end(index)

    def wrap(
        self,
        name: str,
        fn: Callable,
        tally: Callable[[tuple, object], dict[str, int]] | None = None,
    ) -> Callable:
        """``fn`` timed as a span named ``name`` whenever recording.

        ``tally(args, result)`` returns counts to add after a call that
        returned (a call that raised is timed but not tallied).
        """

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if tally is not None:
                for key, amount in tally(args, result).items():
                    self.tallies[key] = self.tallies.get(key, 0) + amount
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def rows(self) -> list[tuple[str, float, float, int, str]]:
        """Every span as ``(name, start, end, parent, op)``."""
        return list(
            zip(self.names, self.starts, self.ends, self.parents, self.ops)
        )


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent and overlapping children are
    merged, so a child that outlives its parent or two children sharing
    an instant never drive a self time below zero.
    """
    children: list[list[tuple[float, float]]] = [[] for __ in starts]
    for index, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append((starts[index], ends[index]))
    out = []
    for index, (start, end) in enumerate(zip(starts, ends)):
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children[index]):
            lo = max(child_start, reach)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(max(0.0, (end - start) - covered))
    return out


def decompose(
    names: Sequence[str],
    starts: Sequence[float],
    ends: Sequence[float],
    parents: Sequence[int],
    layer_of: Callable[[str], str | None],
) -> tuple[dict[str, float], float, float]:
    """Split the traced wall into layer self times plus a residual.

    The traced wall is the summed duration of the operation roots.  A
    span whose name ``layer_of`` maps to a layer metric adds its self
    time to that metric; every other span (the roots included) adds its
    self time to the residual.  Returns ``(layers, residual, wall)``;
    ``sum(layers.values()) + residual == wall`` up to float rounding.
    """
    own = self_times(starts, ends, parents)
    layers: dict[str, float] = {}
    wall = 0.0
    for index, name in enumerate(names):
        if parents[index] < 0:
            wall += ends[index] - starts[index]
        layer = layer_of(name)
        if layer is not None:
            layers[layer] = layers.get(layer, 0.0) + own[index]
    return layers, wall - sum(layers.values()), wall


def tail_percentile(samples: int) -> int | None:
    """The highest whole percentile with at least ten samples beyond it.

    ``None`` when there are too few samples for any tail percentile.
    """
    if samples <= TAIL_SAMPLES_BEYOND:
        return None
    best = None
    for percent in range(1, 100):
        rank = math.ceil(percent * samples / 100)
        if samples - rank >= TAIL_SAMPLES_BEYOND:
            best = percent
    return best


def percentile(values: Sequence[float], percent: float) -> float:
    """Nearest-rank percentile of ``values`` (``percent`` in (0, 100])."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(percent * len(ordered) / 100))
    return ordered[rank - 1]

