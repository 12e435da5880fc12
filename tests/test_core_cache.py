"""The preprocessing cache: correctness, isolation, reuse across passes."""

import pytest

import repro.core.cache as cache_module
from repro.core import ObjectRunner, PreprocessCache, RunParams
from repro.datasets import domain_spec, generate_source
from repro.datasets.knowledge import completion_entries
from repro.datasets.sites import SiteSpec
from repro.htmlkit.serialize import to_html
from repro.recognizers.gazetteer import GazetteerRecognizer
from repro.recognizers.registry import RecognizerRegistry

PAGE = "<html><body><div><p>hello <b>world</b></p></div></body></html>"
OTHER = "<html><body><ul><li>item</li></ul></body></html>"


class TestPreprocessCache:
    def test_hit_and_miss_accounting(self):
        cache = PreprocessCache()
        first = cache.clean_pages([PAGE, OTHER, PAGE])
        assert first.misses == 2
        assert first.hits == 1
        second = cache.clean_pages([PAGE, OTHER])
        assert second.misses == 0
        assert second.hits == 2
        assert cache.stats() == {
            "hits": 3, "misses": 2, "entries": 2,
        }

    def test_returns_equal_trees(self):
        cache = PreprocessCache()
        one = cache.clean_page(PAGE)
        two = cache.clean_page(PAGE)
        assert to_html(one) == to_html(two)

    def test_returned_trees_are_isolated_copies(self):
        cache = PreprocessCache()
        one = cache.clean_page(PAGE)
        two = cache.clean_page(PAGE)
        assert one is not two
        # Mutating one copy (as the annotation stage does) must not leak
        # into subsequently served copies.
        for node in one.iter_text_nodes():
            node.annotations.add("artist")
        three = cache.clean_page(PAGE)
        assert all(not node.annotations for node in three.iter_text_nodes())

    def test_lru_eviction(self):
        cache = PreprocessCache(max_entries=1)
        cache.clean_page(PAGE)
        cache.clean_page(OTHER)  # evicts PAGE
        assert len(cache) == 1
        cache.clean_page(PAGE)
        assert cache.misses == 3

    def test_clear(self):
        cache = PreprocessCache()
        cache.clean_page(PAGE)
        cache.clear()
        assert len(cache) == 0
        cache.clean_page(PAGE)
        assert cache.misses == 2


class TestRunnerCacheReuse:
    @pytest.fixture(scope="class")
    def albums_source(self):
        domain = domain_spec("albums")
        spec = SiteSpec(
            name="cache-albums",
            domain="albums",
            archetype="clean",
            total_objects=40,
            seed=("cache", "albums"),
        )
        return domain, generate_source(spec, domain)

    def _enrichment_runner(self, domain, source, passes):
        completion = completion_entries(domain, source.gold, coverage=0.15)
        registry = RecognizerRegistry()
        registry.register(
            GazetteerRecognizer("artist", completion.get("artist", {}))
        )
        registry.register(
            GazetteerRecognizer("title", completion.get("title", {}))
        )
        return ObjectRunner(
            domain.sod,
            registry=registry,
            params=RunParams(
                enrich_dictionaries=True, enrichment_passes=passes
            ),
        )

    def test_enrichment_passes_reuse_cached_preprocessing(
        self, albums_source, monkeypatch
    ):
        """Regression: pass 2+ must not re-tidy the raw pages."""
        domain, source = albums_source
        tidy_calls = []
        real_tidy = cache_module.tidy

        def counting_tidy(raw):
            tidy_calls.append(1)
            return real_tidy(raw)

        monkeypatch.setattr(cache_module, "tidy", counting_tidy)
        runner = self._enrichment_runner(domain, source, passes=3)
        result = runner.run_source("cache-albums", source.pages)
        assert result.ok
        # Every page tidied exactly once despite three full passes.
        assert len(tidy_calls) == len(source.pages)
        assert runner.cache.hits >= 2 * len(source.pages)

    def test_repeated_runs_share_the_runner_cache(self, albums_source):
        domain, source = albums_source
        runner = self._enrichment_runner(domain, source, passes=1)
        runner.run_source("cache-albums", source.pages)
        misses_after_first = runner.cache.misses
        runner.run_source("cache-albums", source.pages)
        assert runner.cache.misses == misses_after_first

    def test_injected_cache_shared_across_runners(self, albums_source):
        domain, source = albums_source
        shared = PreprocessCache()
        first = self._enrichment_runner(domain, source, passes=1)
        first.cache = shared
        first.run_source("cache-albums", source.pages)
        second = ObjectRunner(
            domain.sod,
            registry=RecognizerRegistry(),
            params=RunParams(),
            cache=shared,
        )
        pages = second.prepare_pages(source.pages)
        assert len(pages) == len(source.pages)
        assert shared.misses == len(source.pages)

    def test_enrichment_results_unchanged_by_caching(self, albums_source):
        # The cached trees must be byte-equivalent to freshly tidied ones:
        # a run with a cold cache and one with a warm cache agree exactly.
        domain, source = albums_source
        cold = self._enrichment_runner(domain, source, passes=2).run_source(
            "cache-albums", source.pages
        )
        warm_runner = self._enrichment_runner(domain, source, passes=2)
        warm_runner.prepare_pages(source.pages)  # pre-warm
        warm = warm_runner.run_source("cache-albums", source.pages)
        assert cold.ok and warm.ok
        assert [o.values for o in cold.objects] == [
            o.values for o in warm.objects
        ]
