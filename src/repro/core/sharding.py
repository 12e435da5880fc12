"""Deterministic hash-mod sharding of the source-id space.

Production-scale runs split a source catalog across processes or
machines; correctness of the order-pinned merges downstream (metrics,
wrapper registry) requires that the *partition itself* is a pure
function of the source ids.  Python's builtin ``hash`` is salted per
process (``PYTHONHASHSEED``), so membership is derived from SHA-256
instead: :func:`stable_shard` maps a source id to a shard index
byte-identically in every process, on every platform, under every hash
seed.

A :class:`ShardSpec` names one slice of an ``N``-way partition.  Every
source id belongs to exactly one shard, so running shards ``0/N ..
N-1/N`` and merging (metrics in input order, registry conflicts resolved
canonically) reproduces the unsharded run byte for byte — the contract
``tests/test_core_sharding.py`` and the byte-identity acceptance suite
pin down.

The same partition drives the fan-out inside one run.
``ObjectRunner.run_sources`` and the bench sweep both split a batch with
:func:`partition`, run each shard through their own per-shard loop
(in-process, or one worker process per shard), collect one
:class:`ShardResult` per shard and merge them with :func:`fold`, whose
result is pinned to input order and so cannot depend on the backend or
on scheduling.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.core.faults import SourceFailure

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.cache import PreprocessCache
    from repro.metrics.observer import MetricsObserver
    from repro.metrics.registry import MetricsRegistry
    from repro.registry.store import StagedWrites, WrapperRegistry

#: Bytes of the SHA-256 digest folded into the shard index.  8 bytes give
#: a uniform 64-bit key — far beyond any realistic shard count — while
#: keeping the modulo cheap.
_DIGEST_BYTES = 8


def stable_shard(source_id: str, count: int) -> int:
    """The shard index of ``source_id`` in an ``count``-way partition.

    Derived from the SHA-256 of the UTF-8 source id, so the assignment
    is identical across processes, platforms and ``PYTHONHASHSEED``
    values — unlike the salted builtin ``hash``.
    """
    if count < 1:
        raise ValueError(f"shard count must be >= 1, got {count}")
    digest = hashlib.sha256(source_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:_DIGEST_BYTES], "big") % count


@dataclass(frozen=True)
class ShardSpec:
    """One slice of a deterministic ``count``-way source partition."""

    index: int
    count: int

    def __post_init__(self) -> None:
        """Reject specs that do not name a slice of a real partition."""
        if self.count < 1:
            raise ValueError(f"shard count must be >= 1, got {self.count}")
        if not 0 <= self.index < self.count:
            raise ValueError(
                f"shard index must be in [0, {self.count}), got {self.index}"
            )

    @classmethod
    def parse(cls, text: str) -> "ShardSpec":
        """Parse the CLI spelling ``"I/N"`` (for example ``"0/4"``)."""
        index_text, sep, count_text = text.partition("/")
        if not sep or not index_text.strip() or not count_text.strip():
            raise ValueError(
                f"shard spec must look like I/N (for example 0/4), got {text!r}"
            )
        try:
            index = int(index_text)
            count = int(count_text)
        except ValueError as exc:
            raise ValueError(
                f"shard spec must be two integers I/N, got {text!r}"
            ) from exc
        return cls(index=index, count=count)

    def __str__(self) -> str:
        return f"{self.index}/{self.count}"

    def contains(self, source_id: str) -> bool:
        """Whether ``source_id`` belongs to this shard."""
        return stable_shard(source_id, self.count) == self.index

    def partition(self, source_ids: Iterable[str]) -> list[str]:
        """The ids belonging to this shard, keeping the input order."""
        return [sid for sid in source_ids if self.contains(sid)]


def partition(ids: Iterable[str], workers: int) -> list[tuple[int, list[str]]]:
    """The non-empty shards of a ``workers``-way hash-mod partition.

    ``(shard index, ids)`` pairs in shard-index order; ids keep their
    input order within a shard.  Membership is :func:`stable_shard`, so
    an id lands in the same shard under every backend and hash seed.
    """
    shards: list[list[str]] = [[] for __ in range(workers)]
    for source_id in ids:
        shards[stable_shard(source_id, workers)].append(source_id)
    return [(index, shard) for index, shard in enumerate(shards) if shard]


@dataclass(frozen=True)
class ShardResult:
    """What one shard's run hands to :func:`fold`.

    ``outcomes`` aligns with a prefix of ``ids``: a fail-fast shard
    stops at its first failure.  ``writes`` holds each run id's exported
    staged registry writes, except the id a fail-fast shard stopped
    at.  ``registries`` (per-source
    metrics) and the registry/cache counters are set only by a worker
    process, whose observer, registry handle and cache die with it (see
    :meth:`shipped`); an in-process shard records into the caller's
    live ones and leaves them empty.
    """

    ids: tuple[str, ...]
    outcomes: tuple[object, ...]
    writes: dict[str, "StagedWrites"]
    wall_seconds: float
    registries: dict[str, "MetricsRegistry"] = field(default_factory=dict)
    registry_stats: dict[str, int] | None = None
    cache_stats: dict[str, int] | None = None

    def shipped(
        self,
        metrics: "MetricsObserver",
        registry: "WrapperRegistry | None",
        cache: "PreprocessCache",
    ) -> "ShardResult":
        """This result plus the worker-side state the parent adopts."""
        return dataclasses.replace(
            self,
            registries={
                source: metrics.source_registry(source)
                for source in metrics.sources()
            },
            registry_stats=registry.stats() if registry is not None else None,
            cache_stats=cache.stats(),
        )


def fold(
    ids: Sequence[str],
    shards: Iterable[ShardResult],
    isolate: bool = True,
    metrics: Iterable["MetricsObserver"] = (),
    registry: "WrapperRegistry | None" = None,
) -> tuple[list[object], SourceFailure | None]:
    """Merge shard results into ``(outcomes, first failure)`` in ``ids`` order.

    Shipped worker state is adopted first: per-source metrics through
    :meth:`MetricsObserver.adopt_source` (whose merge order the caller
    pinned with ``note_source_order``), cache and registry counters
    summed.  Outcomes are then read back in input order.  Unless
    ``isolate``, the first :class:`SourceFailure` in input order ends
    the batch: it is returned apart, and only the outcomes before it
    are kept.  Every id a failing shard skipped lies after that
    failure, so the kept prefix is always complete.  Last, the kept
    ids' staged writes apply to ``registry`` in input order through
    :meth:`StagedWrites.apply_to` — the registry bytes a serial run of
    the same prefix writes.
    """
    observers = list(metrics)
    outcome_by_id: dict[str, object] = {}
    writes_by_id: dict[str, StagedWrites] = {}
    for shard in shards:
        for source_id, outcome in zip(shard.ids, shard.outcomes):
            outcome_by_id[source_id] = outcome
        for source_id, staged in shard.writes.items():
            writes_by_id[source_id] = staged
        for observer in observers:
            for source_id, shipped in shard.registries.items():
                observer.adopt_source(source_id, shipped)
            if shard.cache_stats is not None:
                observer.adopt_cache_stats(shard.cache_stats)
        if registry is not None and shard.registry_stats is not None:
            registry.adopt_stats(shard.registry_stats)
    outcomes: list[object] = []
    failure: SourceFailure | None = None
    for source_id in ids:
        outcome = outcome_by_id[source_id]
        if not isolate and isinstance(outcome, SourceFailure):
            failure = outcome
            break
        outcomes.append(outcome)
    if registry is not None:
        for source_id in ids[: len(outcomes)]:
            staged = writes_by_id.get(source_id)
            if staged is not None:
                staged.apply_to(registry)
    return outcomes, failure
