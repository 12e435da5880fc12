"""Tests of the benchmark's own arithmetic and output checks.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.probes import layer_of  # noqa: E402
from perfbench.spans import (  # noqa: E402
    OP_SPAN,
    SpanRecorder,
    decompose,
    percentile,
    self_times,
    tail_percentile,
)
from perfbench.workloads import (  # noqa: E402
    EXPECTED_COLD,
    MixedBatch,
    RegistryServe,
    compare,
    digest,
)


class FakeClock:
    """A clock that advances by one tick per read."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


# -- the percentile rule ----------------------------------------------------


@pytest.mark.parametrize(
    "samples, expected",
    [(5, None), (10, None), (11, 9), (20, 50), (99, 89), (100, 90),
     (150, 93), (1000, 99)],
)
def test_tail_percentile_is_highest_with_ten_beyond(samples, expected):
    assert tail_percentile(samples) == expected


@pytest.mark.parametrize("samples", [11, 37, 99, 100, 101, 250, 1000])
def test_tail_percentile_leaves_ten_samples_beyond_and_no_higher_does(
    samples,
):
    values = [float(index) for index in range(samples)]
    tail = tail_percentile(samples)
    beyond = sum(value > percentile(values, tail) for value in values)
    assert beyond >= 10
    if tail < 99:
        above = sum(value > percentile(values, tail + 1) for value in values)
        assert above < 10


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 50) == 3.0
    assert percentile(values, 100) == 5.0
    assert percentile(values, 1) == 1.0


# -- self time on nested spans ----------------------------------------------


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 9]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    assert self_times(starts, ends, parents) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_clips_and_merges_overlapping_children():
    # Two children overlapping each other and the parent's end.
    starts = [0.0, 1.0, 2.0]
    ends = [4.0, 3.0, 6.0]
    parents = [-1, 0, 0]
    assert self_times(starts, ends, parents)[0] == 1.0


def test_recorder_nests_wrapped_calls_and_shares_the_op_id():
    recorder = SpanRecorder(clock=FakeClock())
    inner = recorder.wrap("inner", lambda: "done")
    outer = recorder.wrap("outer", lambda: inner())
    assert outer() == "done"  # outside an operation: not recorded
    assert recorder.names == []
    with recorder.op("source-1"):
        outer()
    assert recorder.names == [OP_SPAN, "outer", "inner"]
    assert recorder.parents == [-1, 0, 1]
    assert recorder.ops == ["source-1"] * 3
    # clock reads: op 1, outer 2, inner 3/4, outer 5, op 6
    assert self_times(recorder.starts, recorder.ends, recorder.parents) == [
        2.0, 2.0, 1.0,
    ]


def test_recorder_times_a_call_that_raises_but_does_not_tally_it():
    recorder = SpanRecorder(clock=FakeClock())

    def boom():
        raise ValueError("boom")

    failing = recorder.wrap("boom", boom, tally=lambda a, r: {"n": 1})
    with recorder.op("x"):
        with pytest.raises(ValueError):
            failing()
    assert recorder.names == [OP_SPAN, "boom"]
    assert recorder.ends[1] > recorder.starts[1]
    assert recorder.tallies == {}


# -- the closed decomposition -----------------------------------------------


def test_layer_self_times_plus_residual_equal_the_traced_wall():
    names = [OP_SPAN, "htmlkit.tidy", "core.pipeline", "wrapper.extract",
             OP_SPAN, "service.overhead", "core.pipeline", "htmlkit.tidy"]
    starts = [0.0, 0.5, 2.0, 2.5, 10.0, 10.0, 10.5, 11.0]
    ends = [5.0, 1.5, 4.5, 4.0, 14.0, 14.0, 13.0, 12.5]
    parents = [-1, 0, 0, 2, -1, 4, 5, 6]
    layers, residual, wall = decompose(names, starts, ends, parents, layer_of)
    assert wall == 9.0
    assert layers == {
        "htmlkit.tidy_s": 2.5,
        "wrapper.extract_s": 1.5,
        "service.overhead_s": 1.5,
    }
    # residual: op self 1.5 + 0.0, pipeline self 1.0 + 1.0
    assert residual == pytest.approx(3.5)
    assert sum(layers.values()) + residual == pytest.approx(wall)


def test_decomposition_closes_on_recorded_spans():
    recorder = SpanRecorder(clock=FakeClock())
    tidy = recorder.wrap("htmlkit.tidy", lambda: None)
    pipeline = recorder.wrap("core.pipeline", lambda: [tidy() for __ in "ab"])
    for op_id in ("s1", "s2"):
        with recorder.op(op_id):
            pipeline()
            tidy()
    layers, residual, wall = decompose(
        recorder.names, recorder.starts, recorder.ends, recorder.parents,
        layer_of,
    )
    assert sum(layers.values()) + residual == pytest.approx(wall)
    assert residual >= 0.0


# -- output checks trip on perturbed results --------------------------------


def test_cold_catalog_check_trips_on_a_perturbed_grade():
    expected = json.loads(EXPECTED_COLD.read_text(encoding="utf-8"))
    assert compare(copy.deepcopy(expected), expected) == []
    assert expected["extracted_objects"] == 3768
    assert expected["discarded"] == ["emusic"]
    perturbed = copy.deepcopy(expected)
    perturbed["sources"]["zvents-list"]["correct"] -= 1
    perturbed["sources"]["zvents-list"]["incorrect"] += 1
    assert compare(perturbed, expected) == [
        "sources.zvents-list.correct: got 29, expected 30",
        "sources.zvents-list.incorrect: got 1, expected 0",
    ]


class _Named:
    def __init__(self, name: str) -> None:
        self.name = name


def test_registry_serve_check_trips_on_perturbed_objects(tmp_path):
    workload = RegistryServe(1, tmp_path, cores=1)
    objects = [{"title": "Kind of Blue", "artist": "Miles Davis"}]
    workload._reference = {"shop": digest(objects), "emusic": None}
    good = {"ok": True, "outcome": "hit", "objects": objects}
    assert workload._judge(_Named("shop"), good) is True
    assert workload.problems == []
    perturbed = copy.deepcopy(good)
    perturbed["objects"][0]["artist"] = "Miles"
    assert workload._judge(_Named("shop"), perturbed) is True
    assert workload.problems == ["shop: objects differ from set-up"]
    workload.problems.clear()
    miss = dict(good, outcome="miss")
    workload._judge(_Named("shop"), miss)
    assert workload.problems == ["shop: outcome 'miss', not a hit"]
    workload.problems.clear()
    replayed = {"ok": False, "outcome": "hit", "error": "source discarded"}
    assert workload._judge(_Named("emusic"), replayed) is False
    assert workload.problems == []


def test_mixed_batch_check_trips_on_a_perturbed_source_or_file(tmp_path):
    workload = MixedBatch(1, tmp_path, cores=1)
    workload._reference = {"a": "d1", "b": "d2"}
    workload._reference_files = {"index.json": b"{}"}
    outcomes = dict(workload._reference)
    files = dict(workload._reference_files)
    assert workload.compare_round(outcomes, files) == []
    assert workload.compare_round(dict(outcomes, b="other"), files) == [
        "b differs from the serial reference"
    ]
    assert workload.compare_round(outcomes, {"index.json": b"[]"}) == [
        "registry bytes differ from the serial reference"
    ]


@pytest.mark.parametrize("cores, workers", [(1, 1), (2, 2), (8, 2)])
def test_workers_are_capped_at_usable_cores(tmp_path, cores, workers):
    workload = MixedBatch(1, tmp_path, cores=cores)
    assert workload.requested_workers == 2
    assert workload.workers == workers
