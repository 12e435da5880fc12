"""Deterministic hash-mod sharding of the source-id space."""

import pytest

from repro.core.faults import SourceFailure
from repro.core.sharding import (
    ShardResult,
    ShardSpec,
    fold,
    partition,
    stable_shard,
)


class TestStableShard:
    def test_pinned_values(self):
        # sha256-based, so these are platform- and seed-independent
        # constants; a change here is a wire-format break.
        assert stable_shard("zvents-detail", 4) == 2
        assert stable_shard("zvents-list", 4) == 3
        assert stable_shard("amazon-books", 4) == 2

    def test_single_shard_takes_everything(self):
        assert stable_shard("anything", 1) == 0

    def test_range(self):
        names = [f"src-{i}" for i in range(200)]
        for count in (1, 2, 3, 7):
            assert all(0 <= stable_shard(name, count) < count for name in names)

    def test_all_shards_populated(self):
        names = [f"src-{i}" for i in range(200)]
        for count in (2, 4, 8):
            hit = {stable_shard(name, count) for name in names}
            assert hit == set(range(count))

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            stable_shard("x", 0)
        with pytest.raises(ValueError):
            stable_shard("x", -1)


class TestShardSpec:
    def test_contains_matches_stable_shard(self):
        spec = ShardSpec(index=1, count=3)
        for name in ("a", "b", "zvents-detail", "src-42"):
            assert spec.contains(name) == (stable_shard(name, 3) == 1)

    def test_partition_is_disjoint_and_exhaustive(self):
        names = [f"src-{i}" for i in range(100)]
        shards = [ShardSpec(index=i, count=4) for i in range(4)]
        parts = [shard.partition(names) for shard in shards]
        assert sorted(name for part in parts for name in part) == sorted(names)
        seen = set()
        for part in parts:
            assert not (set(part) & seen)
            seen.update(part)

    def test_partition_preserves_input_order(self):
        names = [f"src-{i}" for i in range(50)]
        part = ShardSpec(index=0, count=2).partition(names)
        assert part == [name for name in names if name in set(part)]

    def test_parse_round_trip(self):
        spec = ShardSpec.parse("2/5")
        assert spec == ShardSpec(index=2, count=5)
        assert str(spec) == "2/5"
        assert ShardSpec.parse(str(spec)) == spec

    @pytest.mark.parametrize(
        "text", ["", "1", "1/", "/2", "a/b", "2/2", "3/2", "-1/2", "0/0"]
    )
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            ShardSpec.parse(text)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ShardSpec(index=0, count=0)
        with pytest.raises(ValueError):
            ShardSpec(index=2, count=2)
        with pytest.raises(ValueError):
            ShardSpec(index=-1, count=2)

    def test_full_shard_contains_everything(self):
        spec = ShardSpec(index=0, count=1)
        assert all(spec.contains(f"src-{i}") for i in range(20))


class TestPartition:
    def test_matches_stable_shard_and_keeps_input_order(self):
        names = [f"src-{i}" for i in range(50)]
        shards = partition(names, 4)
        assert [index for index, __ in shards] == [0, 1, 2, 3]
        for index, ids in shards:
            assert ids == [n for n in names if stable_shard(n, 4) == index]

    def test_drops_empty_shards(self):
        assert partition(["only"], 8) == [(stable_shard("only", 8), ["only"])]
        assert partition([], 3) == []


class _Recorder:
    """Stands in for the observer and registry a fold hands state to."""

    def __init__(self):
        self.calls = []

    def adopt_source(self, source, registry):
        self.calls.append(("adopt", source, registry))

    def adopt_cache_stats(self, stats):
        self.calls.append(("cache", stats))

    def adopt_stats(self, stats):
        self.calls.append(("stats", stats))


class _Writes:
    """Staged writes that record when they are applied."""

    def __init__(self, source):
        self.source = source

    def apply_to(self, registry):
        registry.calls.append(("apply", self.source))


def _shard(ids, outcomes, **shipped):
    return ShardResult(
        ids=ids,
        outcomes=outcomes,
        writes={source: _Writes(source) for source in ids[: len(outcomes)]},
        wall_seconds=0.0,
        **shipped,
    )


class TestFold:
    # Input order a, b, c, d, e; the shards arrive in the other order.
    failure = SourceFailure(source="c", stage="wrapping", error="E: boom")

    def test_fail_fast_cuts_at_the_first_failure_in_input_order(self):
        registry = _Recorder()
        # The failing shard stopped at c and never ran e.
        shards = [
            _shard(("b", "d"), ("B", "D")),
            _shard(("a", "c", "e"), ("A", self.failure)),
        ]
        outcomes, first = fold(
            ["a", "b", "c", "d", "e"], shards, isolate=False, registry=registry
        )
        assert outcomes == ["A", "B"]
        assert first is self.failure
        assert registry.calls == [("apply", "a"), ("apply", "b")]

    def test_isolate_keeps_failures_and_adopts_shipped_state(self):
        observer, registry = _Recorder(), _Recorder()
        shards = [
            _shard(
                ("b", "d"),
                ("B", "D"),
                registries={"b": "mb", "d": "md"},
                registry_stats={"misses": 2},
                cache_stats={"misses": 5},
            ),
            _shard(("a", "c"), ("A", self.failure)),
        ]
        outcomes, first = fold(
            ["a", "b", "c", "d"],
            shards,
            metrics=[observer],
            registry=registry,
        )
        assert outcomes == ["A", "B", self.failure, "D"]
        assert first is None
        assert observer.calls == [
            ("adopt", "b", "mb"),
            ("adopt", "d", "md"),
            ("cache", {"misses": 5}),
        ]
        assert registry.calls == [
            ("stats", {"misses": 2}),
            ("apply", "a"),
            ("apply", "b"),
            ("apply", "c"),
            ("apply", "d"),
        ]
