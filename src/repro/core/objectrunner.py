"""The ObjectRunner façade over the staged pipeline.

Typical use::

    runner = ObjectRunner(
        sod=parse_sod("concert(artist, date<kind=predefined>, ...)"),
        ontology=ontology,
        corpus=corpus,
        gazetteer_classes={"artist": "Artist", "theater": "Theater"},
    )
    result = runner.run_source("zvents", raw_html_pages)
    for instance in result.objects:
        print(instance.values)

The runner owns recognizer setup and the cross-cutting services —
preprocessing cache, observers, worker pool — and delegates the actual
dataflow to :class:`~repro.core.pipeline.Pipeline` over the stages
registered in :mod:`repro.core.stages`.  Subscribe a
:class:`~repro.core.pipeline.PipelineObserver` (for example a
:class:`~repro.core.pipeline.TraceObserver`) to watch stage-level timings
and counters of every run.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.baselines.interface import SystemOutput
from repro.core.cache import PreprocessCache
from repro.core.faults import (
    ISOLATE,
    FaultInjector,
    RetryPolicy,
    SleepFn,
    SourceFailure,
)
from repro.core.params import RunParams
from repro.core.sharding import ShardResult, fold, partition
from repro.core.pipeline import (
    DEFAULT_STAGE_ORDER,
    REGISTRY_STAGE_ORDER,
    Pipeline,
    PipelineContext,
    PipelineObserver,
    TimingObserver,
    build_stages,
)
from repro.core.results import MultiSourceResult, SourceResult
from repro.corpus.store import Corpus
from repro.errors import (
    MultiSourceError,
    ProcessBackendConfigError,
    SodError,
)
from repro.htmlkit.dom import Element
from repro.kb.ontology import Ontology
from repro.metrics.observer import MetricsObserver, monotonic_seconds
from repro.recognizers.base import Recognizer
from repro.recognizers.build import DictionaryBuilder
from repro.recognizers.gazetteer import GazetteerRecognizer
from repro.recognizers.predefined import predefined_names, predefined_recognizer
from repro.recognizers.registry import RecognizerRegistry
from repro.recognizers.rules import FullNodeRecognizer
from repro.registry.store import (
    StagedRegistryView,
    StagedWrites,
    WrapperRegistry,
)
from repro.sod.types import (
    KIND_IS_INSTANCE_OF,
    KIND_PREDEFINED,
    KIND_REGEX,
    SodType,
    entity_types,
)
from repro.wrapper.generate import Wrapper


@dataclass(frozen=True)
class _ProcessShardTask:
    """Everything one worker process needs to run its shard serially.

    Every field is picklable: the runner is *rebuilt* in the worker (with
    its own :class:`PreprocessCache`, :class:`MetricsObserver` and
    wrapper-registry handle) rather than shipped, because the live runner
    holds open observers.  ``params`` arrives pre-flattened to the serial
    backend so workers never recurse into fan-out.
    """

    sod: SodType
    registry: RecognizerRegistry
    ontology: Ontology | None
    corpus: Corpus | None
    gazetteer_classes: dict[str, str]
    extra_gazetteer_entries: dict[str, dict[str, float]]
    params: RunParams
    retry_policy: RetryPolicy | None
    registry_root: str | None
    items: tuple[tuple[str, tuple[str, ...]], ...]
    isolate: bool


def _run_process_shard(task: _ProcessShardTask) -> ShardResult:
    """Run one shard inside a worker process (module-level for pickling).

    Rebuilds the runner over a private registry handle and runs the
    same :meth:`ObjectRunner._run_shard` loop the in-process path
    uses.  Nothing is written to the shared registry here: the staged
    writes, per-source metrics and counters ship home for the parent's
    :func:`~repro.core.sharding.fold`.
    """
    observer = MetricsObserver()
    wrapper_registry = (
        WrapperRegistry(task.registry_root) if task.registry_root else None
    )
    runner = ObjectRunner(
        sod=task.sod,
        registry=task.registry,
        ontology=task.ontology,
        corpus=task.corpus,
        gazetteer_classes=task.gazetteer_classes,
        params=task.params,
        extra_gazetteer_entries=task.extra_gazetteer_entries,
        observers=(observer,),
        retry_policy=task.retry_policy,
        wrapper_registry=wrapper_registry,
    )
    observer.note_source_order(source for source, __ in task.items)
    shard = runner._run_shard(task.items, task.isolate)
    return shard.shipped(observer, wrapper_registry, runner.cache)


class ObjectRunner:
    """Targeted extraction for one SOD over any number of sources."""

    def __init__(
        self,
        sod: SodType,
        registry: RecognizerRegistry | None = None,
        ontology: Ontology | None = None,
        corpus: Corpus | None = None,
        gazetteer_classes: dict[str, str] | None = None,
        params: RunParams | None = None,
        extra_gazetteer_entries: dict[str, dict[str, float]] | None = None,
        observers: Iterable[PipelineObserver] = (),
        cache: PreprocessCache | None = None,
        fault_injector: FaultInjector | None = None,
        retry_policy: RetryPolicy | None = None,
        sleep: SleepFn | None = None,
        wrapper_registry: WrapperRegistry | None = None,
    ):
        self.sod = sod
        self.params = params or RunParams()
        self.registry = registry or RecognizerRegistry()
        #: Content-addressed wrapper store; when set, single-pass runs take
        #: the registry-first path (match -> induce on miss -> extract)
        #: instead of inducing unconditionally.
        self.wrapper_registry = wrapper_registry
        #: Optional deterministic fault harness: wraps every stage of
        #: every pipeline this runner builds, and observes retry events.
        self.fault_injector = fault_injector
        #: Optional override of the params-derived transient-retry policy.
        self.retry_policy = retry_policy
        self._sleep = sleep
        self._ontology = ontology
        self._corpus = corpus
        self._gazetteer_classes = dict(gazetteer_classes or {})
        #: Per-source dictionary completion (paper Section IV-A): extra
        #: entries merged into each built gazetteer, keyed by type name.
        self._extra_gazetteer_entries = dict(extra_gazetteer_entries or {})
        #: Observers subscribed to every pipeline run of this runner.
        self.observers: list[PipelineObserver] = list(observers)
        #: Content-hash cache of tidied/cleaned page trees, shared across
        #: passes, sources and (if injected) runners.
        self.cache = cache if cache is not None else PreprocessCache()
        for observer in self.observers:
            if isinstance(observer, MetricsObserver):
                observer.observe_cache(self.cache)
        if self.params.backend == "process":
            self._check_process_backend_support()
        self._setup_recognizers()

    # -- recognizer setup -------------------------------------------------

    def _setup_recognizers(self) -> None:
        """Resolve a recognizer for every entity type of the SOD.

        Predefined kinds instantiate the built-in recognizers; isInstanceOf
        kinds build gazetteers on the fly from the ontology/corpus; regex
        kinds must already be registered by the caller.
        """
        builder = DictionaryBuilder(
            ontology=self._ontology,
            corpus=self._corpus,
            neighborhood_radius=self.params.neighborhood_radius,
        )
        self.recognizers: list[Recognizer] = []
        for entity in entity_types(self.sod):
            key = entity.name.lower()
            if self.registry.names() and key in self.registry.names():
                recognizer = self.registry.get(entity.name)
                if entity.cover_node and not isinstance(
                    recognizer, FullNodeRecognizer
                ):
                    recognizer = FullNodeRecognizer(recognizer)
                    self.registry.register(recognizer, name=entity.name)
                self.recognizers.append(recognizer)
                continue
            if entity.kind == KIND_PREDEFINED:
                base = entity.recognizer or entity.name
                if base.lower() not in predefined_names():
                    raise SodError(
                        f"entity {entity.name!r} declares predefined recognizer "
                        f"{base!r}, which does not exist"
                    )
                recognizer = predefined_recognizer(base, type_name=entity.name)
            elif entity.kind == KIND_IS_INSTANCE_OF:
                class_name = self._gazetteer_classes.get(
                    entity.name, entity.name.capitalize()
                )
                recognizer = builder.build(class_name, type_name=entity.name)
                for value, confidence in self._extra_gazetteer_entries.get(
                    entity.name, {}
                ).items():
                    recognizer.add(value, confidence)
            elif entity.kind == KIND_REGEX:
                recognizer = self.registry.get(entity.name)
            else:  # pragma: no cover - kinds validated by the SOD layer
                raise SodError(f"unknown recognizer kind {entity.kind!r}")
            if entity.cover_node:
                recognizer = FullNodeRecognizer(recognizer)
            self.registry.register(recognizer, name=entity.name)
            self.recognizers.append(recognizer)

    def gazetteers(self) -> dict[str, GazetteerRecognizer]:
        """The gazetteer recognizers in use, by entity-type name."""
        return {
            recognizer.type_name: recognizer
            for recognizer in self.recognizers
            if isinstance(recognizer, GazetteerRecognizer)
        }

    # -- pipeline assembly ------------------------------------------------

    def add_observer(self, observer: PipelineObserver) -> None:
        """Subscribe an observer to every subsequent pipeline run.

        Under the process backend the same construction-time rule
        applies: only :class:`MetricsObserver` observers can follow
        their measurements across the boundary, so anything else is
        rejected here, at subscription time.
        """
        if self.params.backend == "process" and not isinstance(
            observer, MetricsObserver
        ):
            raise ProcessBackendConfigError(
                "observers",
                "the process backend supports only MetricsObserver "
                f"observers; got {type(observer).__name__}",
            )
        self.observers.append(observer)
        if isinstance(observer, MetricsObserver):
            observer.observe_cache(self.cache)

    def _build_pipeline(
        self,
        stage_names: Iterable[str] = DEFAULT_STAGE_ORDER,
        extra_observers: Iterable[PipelineObserver] = (),
    ) -> Pipeline:
        """A pipeline with the runner's observers (timings always first)."""
        observers = [TimingObserver(), *self.observers, *extra_observers]
        stages = build_stages(stage_names)
        if self.fault_injector is not None:
            stages = self.fault_injector.wrap_all(stages)
            observers.append(self.fault_injector)
        return Pipeline(
            stages,
            observers,
            retry_policy=self.retry_policy,
            sleep=self._sleep,
        )

    def _context(
        self,
        source: str,
        raw_pages: Iterable[str] = (),
        pages: Iterable[Element] = (),
        pass_index: int = 0,
        total_passes: int = 1,
        registry: "WrapperRegistry | StagedRegistryView | None" = None,
    ) -> PipelineContext:
        """A fresh context carrying this runner's shared services."""
        return PipelineContext(
            source=source,
            params=self.params,
            sod=self.sod,
            recognizers=self.recognizers,
            ontology=self._ontology,
            raw_pages=list(raw_pages),
            pages=list(pages),
            cache=self.cache,
            pass_index=pass_index,
            total_passes=total_passes,
            registry=registry,
        )

    # -- entry points ------------------------------------------------------

    def prepare_pages(self, raw_pages: list[str]) -> list[Element]:
        """Tidy and clean raw HTML pages (through the runner's cache)."""
        return self.cache.clean_pages(raw_pages).pages

    def _active_registry(self) -> WrapperRegistry | None:
        """The wrapper registry, unless enrichment disables the fast path.

        Enrichment passes deliberately *re-induce* with the dictionaries
        the previous pass grew; a registry hit would defeat that loop, so
        enrichment runs always take the classic pipeline.
        """
        if self.params.enrich_dictionaries:
            return None
        return self.wrapper_registry

    def _run_registry(
        self,
        source: str,
        registry: "WrapperRegistry | StagedRegistryView",
        raw_pages: Iterable[str] = (),
        pages: Iterable[Element] = (),
    ) -> SourceResult:
        """Registry-first run with one demote-and-reinduce retry.

        If the post-extraction check demoted a stale registry wrapper,
        the source re-runs once: the second attempt misses (the entry is
        gone), induces a fresh wrapper and stores it.

        A discard raised during induction never reaches the store stage
        (the pipeline stops at the discarding stage), so the write-back
        happens here: the discard is stored as a registry tombstone under
        the fingerprint from match time, and warm runs replay it instead
        of re-paying the doomed induction.
        """
        from repro.core.stages.registry import (
            DEMOTED_KEY,
            FINGERPRINT_KEY,
            ORIGIN_KEY,
        )

        result = SourceResult(source=source)
        for __ in range(2):
            ctx = self._context(
                source, raw_pages=raw_pages, pages=pages, registry=registry
            )
            result = self._build_pipeline(REGISTRY_STAGE_ORDER).run(ctx)
            if (
                result.discarded
                and ctx.artifacts.get(ORIGIN_KEY) == "induced"
                and FINGERPRINT_KEY in ctx.artifacts
            ):
                registry.put_discard(
                    ctx.sod,
                    ctx.artifacts[FINGERPRINT_KEY],
                    source=source,
                    stage=result.discard_stage,
                    reason=result.discard_reason,
                )
            if not ctx.artifacts.get(DEMOTED_KEY):
                break
        return result

    def run_source(self, source: str, raw_pages: list[str]) -> SourceResult:
        """Run the full pipeline on raw HTML pages of one source.

        With a ``wrapper_registry`` the run is registry-first: a stored
        wrapper for this (SOD, template) skips segmentation, annotation
        and wrapper generation entirely, and a freshly induced wrapper is
        stored for the next run.

        With ``enrich_dictionaries`` and ``enrichment_passes > 1`` the
        whole pipeline re-runs on fresh copies of the pages: every pass
        annotates with the dictionaries the previous pass grew, so
        coverage — and with it the wrapper — improves (the paper's
        "use current annotations to discover new annotations" loop).
        Tidying/cleaning is only paid once: later passes draw deep copies
        from the preprocessing cache.
        """
        registry = self._active_registry()
        if registry is not None:
            return self._run_registry(source, registry, raw_pages=raw_pages)
        passes = max(1, self.params.enrichment_passes)
        if not self.params.enrich_dictionaries:
            passes = 1
        result = SourceResult(source=source)
        for pass_index in range(passes):
            ctx = self._context(
                source,
                raw_pages=raw_pages,
                pass_index=pass_index,
                total_passes=passes,
            )
            result = self._build_pipeline().run(ctx)
            if result.discarded:
                break
        return result

    def run_source_prepared(
        self, source: str, pages: list[Element]
    ) -> SourceResult:
        """Run on already tidied/cleaned pages (shared-harness entry)."""
        registry = self._active_registry()
        if registry is not None:
            return self._run_registry(source, registry, pages=pages)
        ctx = self._context(source, pages=pages)
        return self._build_pipeline().run(ctx)

    def extract_with(self, wrapper: Wrapper, raw_pages: list[str]) -> SourceResult:
        """Apply an existing (possibly persisted) wrapper to fresh pages.

        Wrapping is the expensive step; this is the wrap-once /
        extract-often path: load a wrapper with
        :func:`repro.wrapper.serialize.wrapper_from_dict` and run it over a
        re-crawl without re-annotating or re-inferring anything.  Only the
        pre-processing and extraction stages run, so ``timings.wrapping``
        stays zero.
        """
        ctx = self._context(wrapper.source, raw_pages=raw_pages)
        ctx.wrapper = wrapper
        ctx.result.wrapper = wrapper
        ctx.result.support_used = wrapper.support
        ctx.result.conflicts = wrapper.conflicts
        pipeline = self._build_pipeline(stage_names=("preprocess", "extraction"))
        return pipeline.run(ctx)

    def run_sources(
        self,
        sources: dict[str, list[str]],
        deduplicate_across: bool = False,
        dedup_keys: tuple[str, ...] = (),
    ) -> "MultiSourceResult":
        """Run the pipeline over several sources of the same domain.

        With ``backend="process"`` and ``params.max_workers = N > 1`` the
        batch splits into ``N`` hash-mod shards
        (:func:`~repro.core.sharding.partition`) that run concurrently in
        worker processes; results keep the input order, so the outcome
        is identical to a serial run.  Enrichment runs force
        serial execution: gazetteer growth feeds later sources, which is
        inherently order-dependent.

        Unexpected per-source failures (anything except a quality-gate
        discard) follow ``params.failure_policy``: under ``isolate`` the
        failure is recorded on ``MultiSourceResult.failures`` and every
        surviving source completes exactly as it would have in a
        fault-free run; under ``fail_fast`` each shard stops at its own
        first failure and :class:`~repro.errors.MultiSourceError` is
        raised, carrying the results of the sources that completed
        before the first failing one (in input order) as ``partial``.

        With ``deduplicate_across=True``, the pooled objects pass through
        the de-duplication stage of the paper's Figure 1 architecture —
        the Web's redundancy means the same real-world item often appears
        on several sources.  ``dedup_keys`` names the identifying
        attributes (defaults to exact agreement on all shared attributes).
        """
        from repro.core.dedup import DedupConfig, deduplicate

        items = list(sources.items())
        if self.params.shard is not None:
            # Deterministic hash-mod membership: the same source lands in
            # the same shard in every process, under every PYTHONHASHSEED.
            items = [
                (source, raw_pages)
                for source, raw_pages in items
                if self.params.shard.contains(source)
            ]
        # Pin the metrics merge order to the input order before fanning
        # out, so parallel runs snapshot identically to serial ones.
        metrics = [
            observer
            for observer in self.observers
            if isinstance(observer, MetricsObserver)
        ]
        for observer in metrics:
            observer.note_source_order(source for source, __ in items)
        isolate = self.params.failure_policy == ISOLATE
        workers = max(1, int(self.params.max_workers))
        if self.params.enrich_dictionaries or len(items) < 2:
            workers = 1
        pages = dict(items)
        shards = [
            [(source, pages[source]) for source in ids]
            for __, ids in partition(pages, workers)
        ]
        outcomes, failure = fold(
            list(pages),
            self._run_shards(shards, isolate),
            isolate=isolate,
            metrics=metrics,
            registry=self._active_registry(),
        )
        if failure is not None:
            raise self._abort_error(
                failure, outcomes, items
            ) from failure.exception
        results: dict[str, SourceResult] = {}
        failures: dict[str, SourceFailure] = {}
        pooled = []
        for (source, __), outcome in zip(items, outcomes):
            if isinstance(outcome, SourceFailure):
                failures[source] = outcome
                continue
            results[source] = outcome
            pooled.extend(outcome.objects)
        merged = 0
        if deduplicate_across:
            outcome = deduplicate(
                pooled, DedupConfig(key_attributes=dedup_keys)
            )
            pooled = outcome.objects
            merged = outcome.merged
        return MultiSourceResult(
            results=results,
            objects=pooled,
            duplicates_merged=merged,
            failures=failures,
        )

    def _run_shard(
        self,
        items: Sequence[tuple[str, Sequence[str]]],
        isolate: bool,
    ) -> ShardResult:
        """Run one shard's sources in order: the loop every backend shares.

        Each source runs against its own :class:`StagedRegistryView`, so
        it sees the registry as it was at batch start and its writes
        stay buffered until :func:`~repro.core.sharding.fold` applies
        them in input order.  A failure is recorded as a
        :class:`SourceFailure`; unless ``isolate``, it also ends the
        shard, so every backend with the same shard count reaches the
        same sources.
        """
        start = monotonic_seconds()
        registry = self._active_registry()
        outcomes: list[SourceResult | SourceFailure] = []
        writes: dict[str, StagedWrites] = {}
        for source, raw_pages in items:
            view = (
                StagedRegistryView(registry) if registry is not None else None
            )
            try:
                if view is not None:
                    outcome = self._run_registry(
                        source, view, raw_pages=raw_pages
                    )
                else:
                    outcome = self.run_source(source, list(raw_pages))
            except Exception as exc:
                outcomes.append(SourceFailure.from_exception(source, exc))
                if not isolate:
                    break
            else:
                outcomes.append(outcome)
            if view is not None:
                writes[source] = view.export()
        return ShardResult(
            ids=tuple(source for source, __ in items),
            outcomes=tuple(outcomes),
            writes=writes,
            wall_seconds=monotonic_seconds() - start,
        )

    def _run_shards(
        self,
        shards: list[list[tuple[str, list[str]]]],
        isolate: bool,
    ) -> list[ShardResult]:
        """Run every shard on the configured backend, in shard order.

        One shard runs in-process.  Several (only reachable with
        ``backend="process"``) run one worker process each; a worker
        rebuilds the runner from a picklable task spec and ships its
        metrics and counters home with the result.
        """
        if len(shards) < 2:
            return [self._run_shard(shard, isolate) for shard in shards]
        self._check_process_backend_support()
        registry = self._active_registry()
        child_params = self.params.with_overrides(
            backend="thread", max_workers=1, shard=None
        )
        tasks = [
            _ProcessShardTask(
                sod=self.sod,
                registry=self.registry,
                ontology=self._ontology,
                corpus=self._corpus,
                gazetteer_classes=self._gazetteer_classes,
                extra_gazetteer_entries=self._extra_gazetteer_entries,
                params=child_params,
                retry_policy=self.retry_policy,
                registry_root=str(registry.root) if registry else None,
                items=tuple(
                    (source, tuple(raw_pages)) for source, raw_pages in shard
                ),
                isolate=isolate,
            )
            for shard in shards
        ]
        with ProcessPoolExecutor(max_workers=len(tasks)) as pool:
            return list(pool.map(_run_process_shard, tasks))

    def _check_process_backend_support(self) -> None:
        """Reject runner features that cannot cross a process boundary.

        Fault injectors and custom sleep callables hold process-local
        state (attempt counts, recorded calls) the workers could not honor;
        non-metrics observers would silently see nothing.  Failing loudly
        beats a run that quietly measures less than it claims.

        Runs at construction time (``__init__``/:meth:`add_observer`
        when ``params.backend == "process"``), so a misconfigured runner
        fails with a typed :class:`ProcessBackendConfigError` naming the
        offending field before any worker spawns.  The dispatch path
        re-checks as a backstop for callers that mutate runner attributes
        directly.
        """
        if self.fault_injector is not None:
            raise ProcessBackendConfigError(
                "fault_injector",
                "the process backend does not support a fault injector; "
                "run fault-injection runs serially (default backend, "
                "max_workers=1)",
            )
        if self._sleep is not None:
            raise ProcessBackendConfigError(
                "sleep",
                "the process backend does not support a custom sleep "
                "callable; run custom-sleep runs serially (default "
                "backend, max_workers=1)",
            )
        unsupported = [
            type(observer).__name__
            for observer in self.observers
            if not isinstance(observer, MetricsObserver)
        ]
        if unsupported:
            raise ProcessBackendConfigError(
                "observers",
                "the process backend supports only MetricsObserver "
                f"observers; got {', '.join(sorted(unsupported))}",
            )

    def _abort_error(
        self,
        failure: SourceFailure,
        outcomes: list["SourceResult | SourceFailure"],
        items: list[tuple[str, list[str]]],
    ) -> MultiSourceError:
        """The fail-fast error, with completed sources attached as partial."""
        results: dict[str, SourceResult] = {}
        pooled = []
        for (source, __), outcome in zip(items, outcomes):
            if isinstance(outcome, SourceResult):
                results[source] = outcome
                pooled.extend(outcome.objects)
        partial = MultiSourceResult(
            results=results,
            objects=pooled,
            failures={failure.source: failure},
        )
        stage = failure.stage or "run"
        return MultiSourceError(
            f"source {failure.source!r} failed at {stage}: {failure.error} "
            f"({len(results)} of {len(items)} sources completed before "
            "the abort)",
            partial=partial,
            failure=failure,
        )


class ObjectRunnerSystem:
    """Adapter exposing ObjectRunner behind the comparison interface.

    Reads its discard verdict and wrapping time off the
    :class:`~repro.core.results.SourceResult` the run returns (the
    pipeline's :class:`~repro.core.pipeline.TimingObserver` files the
    wrapping seconds there); extra observers — say, a benchmark-wide
    collector — can be injected at construction.
    """

    def __init__(
        self,
        ontology: Ontology | None = None,
        corpus: Corpus | None = None,
        gazetteer_classes: dict[str, str] | None = None,
        params: RunParams | None = None,
        extra_gazetteer_entries: dict[str, dict[str, float]] | None = None,
        observers: Iterable[PipelineObserver] = (),
        wrapper_registry: WrapperRegistry | None = None,
    ):
        self._ontology = ontology
        self._corpus = corpus
        self._gazetteer_classes = gazetteer_classes
        self._params = params
        self._extra_gazetteer_entries = extra_gazetteer_entries
        self._observers = list(observers)
        self._wrapper_registry = wrapper_registry

    @property
    def name(self) -> str:
        return "objectrunner"

    def run(
        self, source: str, pages: list[Element], sod: SodType
    ) -> SystemOutput:
        """Run the full pipeline on prepared pages of one source."""
        runner = ObjectRunner(
            sod=sod,
            ontology=self._ontology,
            corpus=self._corpus,
            gazetteer_classes=self._gazetteer_classes,
            params=self._params,
            extra_gazetteer_entries=self._extra_gazetteer_entries,
            observers=self._observers,
            wrapper_registry=self._wrapper_registry,
        )
        result = runner.run_source_prepared(source, pages)
        if result.discarded:
            return SystemOutput(
                system=self.name,
                source=source,
                failed=True,
                failure_reason=result.discard_reason,
            )
        return SystemOutput(
            system=self.name,
            source=source,
            objects=result.objects,
            wrap_seconds=result.timings.wrapping,
        )
