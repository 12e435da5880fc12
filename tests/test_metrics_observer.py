"""MetricsObserver: scripted event feeds, merge order, cache stats, wiring."""

import datetime

from repro.core import EventBus, ObjectRunner, PreprocessCache, RunParams
from repro.core.pipeline import PipelineEvent
from repro.datasets import build_knowledge, domain_spec, generate_source
from repro.datasets.sites import SiteSpec
from repro.metrics import MetricsObserver, peak_rss_bytes, wall_timestamp


def stage_end(source, stage, elapsed, counters=None):
    return PipelineEvent(
        kind="stage_end",
        source=source,
        stage=stage,
        elapsed=elapsed,
        counters=dict(counters or {}),
    )


def pipeline_end(source, elapsed, discarded=False):
    return PipelineEvent(
        kind="pipeline_end", source=source, elapsed=elapsed, discarded=discarded
    )


def scripted_events(source, salt):
    """A deterministic little pipeline run for one source."""
    return [
        stage_end(source, "preprocess", 0.01 * salt, {"pages_prepared": salt}),
        stage_end(source, "wrapping", 0.10 * salt),
        PipelineEvent(kind="stage_retry", source=source, stage="wrapping"),
        stage_end(source, "extraction", 0.02 * salt, {"objects_extracted": 3 * salt}),
        pipeline_end(source, 0.13 * salt),
    ]


class TestScriptedEventBus:
    def test_aggregates_from_bus_events(self):
        observer = MetricsObserver()
        bus = EventBus([observer])
        for event in scripted_events("alpha", 1) + scripted_events("alpha", 2):
            bus.emit(event, None)
        [source] = observer.sources()
        assert source == "alpha"
        merged = observer.merged_registry()
        assert merged.counter_value("runs") == 2
        assert merged.counter_value("retries.wrapping") == 2
        assert merged.counter_value("objects_extracted") == 9
        assert merged.observations("stage.wrapping") == (0.1, 0.2)
        summary = merged.summary("pipeline")
        assert summary.count == 2

    def test_discards_counted(self):
        observer = MetricsObserver()
        observer.on_pipeline_end(pipeline_end("s", 0.1, discarded=True), None)
        observer.on_pipeline_end(pipeline_end("s", 0.1), None)
        merged = observer.merged_registry()
        assert merged.counter_value("discards") == 1
        assert merged.counter_value("runs") == 2

    def test_note_source_order_pins_merge_order(self):
        observer = MetricsObserver()
        observer.note_source_order(["zeta", "alpha"])
        observer.on_pipeline_end(pipeline_end("alpha", 0.1), None)
        observer.on_pipeline_end(pipeline_end("zeta", 0.1), None)
        observer.on_pipeline_end(pipeline_end("beta", 0.1), None)  # straggler
        assert observer.sources() == ("zeta", "alpha", "beta")

    def test_unnoted_sources_merge_in_first_seen_order(self):
        observer = MetricsObserver()
        observer.on_pipeline_end(pipeline_end("b", 0.1), None)
        observer.on_pipeline_end(pipeline_end("a", 0.1), None)
        assert observer.sources() == ("b", "a")


class TestCacheStats:
    def test_sums_across_observed_caches(self):
        page = "<html><body><p>x</p></body></html>"
        first, second = PreprocessCache(), PreprocessCache()
        first.clean_pages([page, page])
        second.clean_pages([page])
        observer = MetricsObserver()
        observer.observe_cache(first)
        observer.observe_cache(second)
        observer.observe_cache(first)  # duplicate registration ignored
        stats = observer.cache_stats()
        assert stats == {"hits": 1, "misses": 2, "entries": 2}
        assert observer.snapshot()["cache"] == stats


class TestProcessProbes:
    def test_peak_rss_positive_on_posix(self):
        assert peak_rss_bytes() > 0

    def test_wall_timestamp_is_iso8601(self):
        stamp = wall_timestamp()
        parsed = datetime.datetime.fromisoformat(stamp)
        assert parsed.tzinfo is not None


class TestRunnerWiring:
    def make_setup(self):
        domain = domain_spec("albums")
        spec = SiteSpec(
            name="metrics-albums",
            domain="albums",
            archetype="clean",
            total_objects=30,
            seed=("metrics", "albums"),
        )
        source = generate_source(spec, domain)
        knowledge = build_knowledge(domain, coverage=0.2)
        return domain, source, knowledge

    def make_runner(self, domain, knowledge, observers=(), params=None):
        return ObjectRunner(
            domain.sod,
            ontology=knowledge.ontology,
            corpus=knowledge.corpus,
            gazetteer_classes=domain.gazetteer_classes,
            observers=observers,
            params=params,
        )

    def test_run_source_populates_stage_timers_and_cache(self):
        domain, source, knowledge = self.make_setup()
        observer = MetricsObserver()
        runner = self.make_runner(domain, knowledge, observers=(observer,))
        result = runner.run_source("metrics-albums", source.pages)
        assert result.ok
        merged = observer.merged_registry()
        for stage in ("preprocess", "annotation", "wrapping", "extraction"):
            summary = merged.summary(f"stage.{stage}")
            assert summary is not None and summary.total > 0, stage
        assert merged.counter_value("objects_extracted") == len(result.objects)
        # The runner registered its preprocessing cache automatically.
        stats = observer.cache_stats()
        assert stats["misses"] == len(source.pages)

    def test_add_observer_registers_cache(self):
        domain, __, knowledge = self.make_setup()
        runner = self.make_runner(domain, knowledge)
        observer = MetricsObserver()
        runner.add_observer(observer)
        assert observer.cache_stats()["entries"] == 0

    def test_run_sources_merge_order_is_input_order_even_parallel(self):
        domain, source, knowledge = self.make_setup()
        observer = MetricsObserver()
        runner = self.make_runner(
            domain,
            knowledge,
            observers=(observer,),
            params=RunParams(max_workers=4, backend="process"),
        )
        sources = {
            "site-c": source.pages,
            "site-a": source.pages,
            "site-b": source.pages,
        }
        outcome = runner.run_sources(sources)
        assert len(outcome.results) == 3
        assert observer.sources() == ("site-c", "site-a", "site-b")
        merged = observer.merged_registry()
        assert merged.counter_value("runs") == 3
