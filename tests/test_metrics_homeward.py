"""Every worker-mutated counter survives the trip home.

The process backend's metrics story rests on one invariant: anything a
worker mutates on a counter-holding object reaches the parent through an
explicit homeward surface — pickled per-source :class:`MetricsRegistry`
objects adopted with ``adopt_source``, :class:`PreprocessCache` stats
adopted with ``adopt_cache_stats``, :class:`WrapperRegistry` stats
adopted with ``adopt_stats``.  These tests check it property-style:
drive randomized (but seeded) workloads, diff the mutated ``__dict__``
fields against a fresh instance, and assert each one either ships in the
homeward state or is explicitly accounted for by a documented side
channel.

A new field added to any of these classes without a homeward path fails
here with a message naming the field.  The seeded regression is the
process backend's original miss-counter bug: a worker counter absent
from ``__getstate__``, so every worker's misses vanish on merge
(:class:`BuggyShardStats`).  The field check names it without running
a worker, and :class:`TestMissCounterRegression` shows a real process
pool losing the misses.
"""

import pickle
import random
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.core.cache import PreprocessCache
from repro.core.pipeline import PipelineEvent
from repro.metrics import MetricsObserver, MetricsRegistry
from repro.registry import WrapperRegistry, signature_for
from repro.sod.dsl import parse_sod

#: Observer fields that deliberately do NOT ship through pickle->adopt,
#: each with the side channel that carries its information instead.  A
#: field missing from here *and* from the adopt surface is a bug.
OBSERVER_SIDE_CHANNELS = {
    # Live cache handles cannot cross the boundary; their counters ship
    # as a plain dict through adopt_cache_stats (summed on the parent).
    "_caches": "adopt_cache_stats",
}

#: WrapperRegistry fields that need no homeward path.  ``_index`` is
#: filesystem-backed: every store rewrites index.json, and workers stage
#: their writes for the parent, which re-reads the index.
REGISTRY_FILE_BACKED = {"_index"}

#: Fields that exist for intra-process safety only and carry no data.
TRANSPORT_EXEMPT = {"_lock"}


def _mutated_fields(instance, fresh) -> set[str]:
    """Names of ``__dict__`` entries differing from a fresh instance."""
    mutated = set()
    for name, value in instance.__dict__.items():
        if name in TRANSPORT_EXEMPT:
            continue
        if name not in fresh.__dict__ or fresh.__dict__[name] != value:
            mutated.add(name)
    return mutated


def unshipped_fields(instance, fresh, shipped) -> set[str]:
    """Mutated fields of ``instance`` that the ``shipped`` dict leaves behind.

    A field ships when ``shipped`` has its name, leading underscores
    dropped, as a key; a counter map shipped flat (``WrapperRegistry``'s
    ``_stats`` as ``stats()``) ships when every entry it changed appears
    in ``shipped`` with the same value.
    """
    missing = set()
    for name in _mutated_fields(instance, fresh):
        if name.lstrip("_") in shipped:
            continue
        value, before = instance.__dict__[name], fresh.__dict__.get(name)
        if isinstance(value, dict) and isinstance(before, dict) and all(
            shipped.get(key) == count
            for key, count in value.items()
            if before.get(key) != count
        ):
            continue
        missing.add(name)
    return missing


class BuggyShardStats:
    """Worker stats whose homeward state ships hits but not misses."""

    def __init__(self):
        self._hits = 0
        self._misses = 0

    def record(self, hit):
        if hit:
            self._hits += 1
        else:
            self._misses += 1

    def counts(self):
        return self._hits, self._misses

    def __getstate__(self):
        return {"hits": self._hits}

    def __setstate__(self, state):
        self._hits = state.get("hits", 0)
        self._misses = state.get("misses", 0)


class FixedShardStats(BuggyShardStats):
    """The repaired twin: both counters ship."""

    def __getstate__(self):
        return {"hits": self._hits, "misses": self._misses}


def _count_shard(task):
    """Worker entrypoint: count one shard's lookups."""
    stats_cls, outcomes = task
    stats = stats_cls()
    for hit in outcomes:
        stats.record(hit)
    return stats


def _drive_registry(registry: MetricsRegistry, seed: int) -> None:
    """A randomized-but-seeded workload touching every registry field."""
    rng = random.Random(seed)
    for index in range(rng.randint(3, 12)):
        registry.count(f"counter.{index % 4}", rng.randint(1, 9))
        registry.gauge(f"gauge.{index % 3}", rng.random())
        registry.observe(f"timer.{index % 2}", rng.random())


def _drive_cache(cache: PreprocessCache, seed: int) -> None:
    """Seeded page requests over a small pool: hits, misses, evictions."""
    rng = random.Random(seed)
    pool = [
        f"<html><body><p>page {index}</p></body></html>"
        for index in range(rng.randint(6, 9))
    ]
    for __ in range(rng.randint(12, 20)):
        cache.clean_page(rng.choice(pool))


SOD = parse_sod("concert(artist, date<kind=predefined>)")


def _drive_wrapper_registry(registry: WrapperRegistry, seed: int) -> None:
    """Seeded lookups, stores, conflicting stores and demotions."""
    rng = random.Random(seed)
    for index in range(rng.randint(4, 10)):
        fingerprint = f"fp-{rng.randint(0, 3)}"
        if registry.lookup(SOD, fingerprint) is None or rng.random() < 0.3:
            registry.put_discard(
                SOD,
                fingerprint,
                source=f"src-{index}",
                stage="wrapper",
                reason="seeded",
            )
        if rng.random() < 0.2:
            registry.demote(signature_for(SOD, fingerprint))


def _drive_observer(observer: MetricsObserver, seed: int) -> list[str]:
    """Feed pipeline events for a few sources; returns the source order."""
    rng = random.Random(seed)
    sources = [f"src-{index}" for index in range(rng.randint(2, 4))]
    observer.note_source_order(sources)
    for source in sources:
        for stage in ("preprocess", "annotate", "wrapping"):
            observer.on_stage_end(
                PipelineEvent(
                    kind="stage_end",
                    source=source,
                    stage=stage,
                    elapsed=rng.random(),
                    counters={"objects_extracted": rng.randint(0, 5)},
                ),
                None,
            )
        if rng.random() < 0.5:
            observer.on_stage_retry(
                PipelineEvent(
                    kind="stage_retry", source=source, stage="annotate"
                ),
                None,
            )
        observer.on_pipeline_end(
            PipelineEvent(
                kind="pipeline_end",
                source=source,
                elapsed=rng.random(),
                discarded=rng.random() < 0.3,
            ),
            None,
        )
    return sources


class TestRegistryHomeward:
    @pytest.mark.parametrize("seed", range(5))
    def test_every_mutated_field_is_in_getstate(self, seed):
        registry = MetricsRegistry()
        _drive_registry(registry, seed)
        assert _mutated_fields(registry, MetricsRegistry()), (
            "workload must touch at least one field"
        )
        missing = unshipped_fields(
            registry, MetricsRegistry(), registry.__getstate__()
        )
        assert not missing, (
            f"MetricsRegistry fields {sorted(missing)} are mutated but "
            "absent from __getstate__ — worker-side updates would be "
            "lost on merge (add them to __getstate__/__setstate__)"
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_pickle_roundtrip_preserves_observations(self, seed):
        registry = MetricsRegistry()
        _drive_registry(registry, seed)
        clone = pickle.loads(pickle.dumps(registry))
        assert clone.snapshot() == registry.snapshot()
        # The full per-field state matches, not just the summary.
        assert clone.__getstate__() == registry.__getstate__()


class TestObserverHomeward:
    @pytest.mark.parametrize("seed", range(5))
    def test_every_mutated_field_has_a_homeward_path(self, seed):
        observer = MetricsObserver()
        _drive_observer(observer, seed)
        cache = PreprocessCache()
        observer.observe_cache(cache)
        mutated = _mutated_fields(observer, MetricsObserver())
        # Fields whose contents ride the pickle->adopt path.
        adopted = {"_per_source", "_source_order", "_adopted_cache_stats"}
        unaccounted = mutated - adopted - set(OBSERVER_SIDE_CHANNELS)
        assert not unaccounted, (
            f"MetricsObserver fields {sorted(unaccounted)} are mutated "
            "during a run but have no homeward path — route them through "
            "adopt_* or document a side channel in OBSERVER_SIDE_CHANNELS"
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_pickle_adopt_reproduces_worker_snapshot(self, seed):
        # The exact parent-side merge the process backend performs:
        # note the order, adopt pickled per-source registries, adopt the
        # worker's cache stats as a dict.
        worker = MetricsObserver()
        sources = _drive_observer(worker, seed)
        worker.adopt_cache_stats({"hits": 3, "misses": 2, "races": 0,
                                  "entries": 1})
        parent = MetricsObserver()
        parent.note_source_order(sources)
        for source in worker.sources():
            shipped = pickle.loads(
                pickle.dumps(worker.source_registry(source))
            )
            parent.adopt_source(source, shipped)
        parent.adopt_cache_stats(worker.cache_stats())
        assert parent.snapshot() == worker.snapshot()

    def test_side_channel_names_are_real_methods(self):
        for field, channel in OBSERVER_SIDE_CHANNELS.items():
            assert field in MetricsObserver().__dict__
            assert callable(getattr(MetricsObserver, channel))


class TestCacheHomeward:
    @pytest.mark.parametrize("seed", range(5))
    def test_every_mutated_counter_is_in_stats(self, seed):
        cache = PreprocessCache(max_entries=4)
        _drive_cache(cache, seed)
        fresh = PreprocessCache(max_entries=4)
        assert {"hits", "misses"} <= _mutated_fields(cache, fresh)
        missing = unshipped_fields(cache, fresh, cache.stats())
        assert not missing, (
            f"PreprocessCache fields {sorted(missing)} are mutated but "
            "absent from stats() — a worker's counts would be lost in "
            "adopt_cache_stats"
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_adopted_stats_reproduce_worker_counts(self, seed):
        worker = PreprocessCache(max_entries=4)
        _drive_cache(worker, seed)
        parent = MetricsObserver()
        parent.adopt_cache_stats(pickle.loads(pickle.dumps(worker.stats())))
        assert parent.cache_stats() == worker.stats()


class TestWrapperRegistryHomeward:
    @pytest.mark.parametrize("seed", range(5))
    def test_every_mutated_counter_is_in_stats(self, seed, tmp_path):
        worker = WrapperRegistry(tmp_path)
        fresh = WrapperRegistry(tmp_path)
        _drive_wrapper_registry(worker, seed)
        assert "_stats" in _mutated_fields(worker, fresh)
        missing = unshipped_fields(worker, fresh, worker.stats())
        missing -= REGISTRY_FILE_BACKED
        assert not missing, (
            f"WrapperRegistry fields {sorted(missing)} are mutated but "
            "absent from stats() — a worker's counts would be lost in "
            "adopt_stats"
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_adopted_stats_reproduce_worker_counts(self, seed, tmp_path):
        worker = WrapperRegistry(tmp_path)
        _drive_wrapper_registry(worker, seed)
        parent = WrapperRegistry(tmp_path)
        parent.adopt_stats(pickle.loads(pickle.dumps(worker.stats())))
        assert parent.stats() == worker.stats()
        assert parent.index_rows() == worker.index_rows()


#: One lookup stream (every third lookup a miss), split over two shards.
OUTCOMES = [index % 3 != 0 for index in range(40)]


def _totals(results) -> tuple[int, int]:
    """Summed (hits, misses) over shard results."""
    counts = [stats.counts() for stats in results]
    return sum(h for h, __ in counts), sum(m for __, m in counts)


class TestMissCounterRegression:
    def test_field_check_names_the_dropped_counter(self):
        for cls, expected in (
            (BuggyShardStats, {"_misses"}),
            (FixedShardStats, set()),
        ):
            stats = _count_shard((cls, OUTCOMES))
            shipped = stats.__getstate__()
            assert unshipped_fields(stats, cls(), shipped) == expected

    def test_process_pool_loses_only_the_buggy_misses(self):
        tasks = [
            (cls, OUTCOMES[offset::2])
            for cls in (BuggyShardStats, FixedShardStats)
            for offset in (0, 1)
        ]
        with ProcessPoolExecutor(max_workers=2) as pool:
            shipped = list(pool.map(_count_shard, tasks))
        local = [_count_shard(task) for task in tasks]
        hits, misses = _totals(local[:2])
        assert misses > 0 and _totals(local[2:]) == (hits, misses)
        assert _totals(shipped[:2]) == (hits, 0), "buggy misses must vanish"
        assert _totals(shipped[2:]) == (hits, misses)
