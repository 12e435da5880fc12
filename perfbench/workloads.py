"""The benchmark's three workloads, driven through ObjectRunner's public API.

Every input is generated in set-up by :mod:`repro.datasets`, and the
workload seed orders it; ``repro`` only ever sees generated pages, SODs
and dictionaries, never a workload name or seed.  Each workload is a
closed loop with one caller in one process, run in *rounds*: one round
sends every generated input through the timed calls once.  Past the
first round, what a round did is kept only as digests, so the process's
memory does not grow with the number of rounds.

- ``cold_catalog``: the paper's full cold path — a fresh runner per
  Table I source, no registry.  Annotation and induction dominate it.
- ``registry_serve``: every request is a registry hit, so annotation
  and induction never run; tidy/clean, extraction, fingerprinting and
  the preprocess cache do.
- ``mixed_batch``: the only workload through the process executor,
  pickling, merge and registry writes; half its sources are registry
  reads and half induce in workers.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from contextlib import nullcontext
from typing import Callable

from repro.baselines.interface import SystemOutput
from repro.core.cache import PreprocessCache
from repro.core.objectrunner import ObjectRunner
from repro.core.params import RunParams
from repro.datasets import (
    DomainKnowledge,
    DomainSpec,
    GeneratedSource,
    build_knowledge,
    catalog_entries,
    domain_spec,
    generate_source,
)
from repro.datasets.knowledge import completion_entries
from repro.eval import aggregate_domain, grade_source
from repro.htmlkit.fingerprint import pages_fingerprint
from repro.metrics.observer import MetricsObserver
from repro.recognizers.build import DictionaryBuilder
from repro.registry.store import WrapperRegistry
from repro.service.server import ExtractionService
from repro.sod.dsl import format_sod
from repro.sod.types import SodType

from perfbench.spans import SpanRecorder
from perfbench.speed import SpeedProbe

#: Seed to run with when there is no reason to pick another.
DEFAULT_SEED = 1

#: Seed kept out of all tuning, for checking a later claim.
HELD_OUT_SEED = 7919

#: The Table I domains, in the paper's order.
DOMAINS = ("concerts", "albums", "books", "publications", "cars")

#: Dictionary coverage of the domain knowledge (the paper's 20% floor).
COVERAGE = 0.2

#: Per-source object scale of the Table I catalog (522 pages, ~1 MB).
CATALOG_SCALE = 0.1

#: Sources whose discard is the seed code's outcome, not a failure: the
#: unstructured emusic source and its scale-tier replicas (annotation
#: gate, or the registry tombstone it leaves), and one scale-tier replica
#: that knowledge-only dictionaries cannot wrap.
EXPECTED_DISCARDS = frozenset({
    "emusic",
    "emusic--r1",
    "emusic--r2",
    "emusic--r3",
    "emusic--r4",
    "eventorb-detail--r4",
})

#: Expected grades of the cold catalog, recorded from the seed code.
EXPECTED_COLD = Path(__file__).parent / "expected" / "cold_catalog.json"


def digest(value: object) -> str:
    """Stable digest of a JSON-ready value."""
    text = json.dumps(value, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def result_digest(result) -> str:
    """Digest of one source's outcome: discard state plus object values."""
    return digest({
        "discarded": result.discarded,
        "stage": result.discard_stage,
        "objects": [instance.values for instance in result.objects],
    })


def read_tree(root: Path) -> dict[str, bytes]:
    """Every file under ``root``, keyed by its relative path."""
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def _add(into: dict[str, float], more: dict[str, float]) -> None:
    for key, value in more.items():
        into[key] = into.get(key, 0.0) + value


def observer_counts(observer: MetricsObserver) -> dict[str, float]:
    """Timer totals and preprocess-cache counts one observer collected."""
    merged = observer.merged_registry()
    counts = {
        name: float(sum(merged.observations(name)))
        for name in merged.timer_names()
    }
    cache = observer.cache_stats()
    counts["cache.hits"] = float(cache["hits"])
    counts["cache.misses"] = float(cache["misses"])
    return counts


def registry_counts(registry: WrapperRegistry) -> dict[str, float]:
    """A registry's lifetime lookup counts."""
    stats = registry.stats()
    return {
        "registry.hits": float(stats["hits"]),
        "registry.misses": float(stats["misses"]),
    }


class Meter:
    """Times the public-API calls of the timed region, round by round.

    Wall and CPU are kept per call, so harness work between calls
    (building requests, digesting results, copying registries) is never
    charged to the program.  CPU counts this process plus every child
    process reaped during the call.  With a :class:`SpeedProbe`, each
    call remembers the probe readings around it so its times can be
    scaled to the reference host's speed: the probe ticks after every
    call, and reads from a thread during the call when ``parallel``.
    With ``collect``, each call starts from a collected heap.
    """

    def __init__(
        self,
        recorder: SpanRecorder | None,
        cpu_seconds: Callable[[], float],
        probe: SpeedProbe | None = None,
        parallel: bool = False,
        collect: bool = False,
    ):
        self.recorder = recorder
        self.probe = probe
        self.parallel = parallel
        self.collect = collect
        self._cpu_seconds = cpu_seconds
        #: Per call: its round, wall and CPU seconds, and the latest probe
        #: reading when it started and when it returned.
        self.call_rounds: list[int] = []
        self.call_walls: list[float] = []
        self.call_cpus: list[float] = []
        self.call_readings: list[tuple[int, int]] = []
        #: Per finished round: sources attempted and calls made.
        self.source_counts: list[int] = []
        self.call_counts: list[int] = []
        self.attempted = 0
        self.failed = 0
        #: Per latency sample: what it is the latency of (the same in
        #: every round), wall seconds, and the index of its call.
        self.latency_keys: list[str] = []
        self.latencies: list[float] = []
        self.latency_calls: list[int] = []
        self._sources = 0

    @property
    def rounds(self) -> int:
        return len(self.source_counts)

    @property
    def wall(self) -> float:
        return sum(self.call_walls)

    def call(self, op_id: str, fn: Callable, *args) -> tuple[object, float]:
        """Run ``fn(*args)`` as one timed operation; returns its result
        and wall seconds (an exception propagates after being timed)."""
        if self.collect:
            gc.collect()
        probe = self.probe
        before = probe.latest if probe is not None else -1
        during = (
            probe.during() if probe is not None and self.parallel
            else nullcontext()
        )
        with during:
            cpu_start = self._cpu_seconds()
            start = time.perf_counter()
            try:
                if self.recorder is None:
                    result = fn(*args)
                else:
                    with self.recorder.op(op_id):
                        result = fn(*args)
            finally:
                elapsed = time.perf_counter() - start
                cpu = self._cpu_seconds() - cpu_start
        self.call_rounds.append(self.rounds)
        self.call_walls.append(elapsed)
        self.call_cpus.append(cpu)
        self.call_readings.append(
            (before, probe.latest if probe is not None else -1)
        )
        if probe is not None:
            probe.tick()
        return result, elapsed

    def latency(self, key: str, elapsed: float) -> None:
        """Record the latency of ``key`` (a source or request) in the
        last call, which took ``elapsed`` seconds."""
        self.latency_keys.append(key)
        self.latencies.append(elapsed)
        self.latency_calls.append(len(self.call_walls) - 1)

    def outcome(self, source: str, ok: bool, discarded: bool = False) -> None:
        """Account one source attempted; a failure unless ``ok`` or the
        discard of a source listed in :data:`EXPECTED_DISCARDS`."""
        self.attempted += 1
        self._sources += 1
        if not ok and not (discarded and source in EXPECTED_DISCARDS):
            self.failed += 1

    def end_round(self) -> None:
        """Close the round the calls since the last one belong to."""
        self.call_counts.append(self.call_rounds.count(self.rounds))
        self.source_counts.append(self._sources)
        self._sources = 0
        if self.probe is not None:
            self.probe.sample()

    def scaled(
        self, factor: Callable[[int, int], float] | None
    ) -> "ScaledTimes":
        """Every time of the finished rounds, multiplied by ``factor`` of
        its call's readings (unscaled when ``factor`` is ``None``).

        Each latency sample then reads the median over the run of its
        key's scaled samples: a key is the same source or request in
        every round, so what differs between its samples is noise, and a
        tail percentile on the boundary between two keys would otherwise
        read the noisiest of one key's samples.
        """
        factors = [
            factor(*readings) if factor is not None else 1.0
            for readings in self.call_readings
        ]
        walls = [0.0] * self.rounds
        cpus = [0.0] * self.rounds
        for round_index, wall, cpu, scale in zip(
            self.call_rounds, self.call_walls, self.call_cpus, factors
        ):
            if round_index < self.rounds:
                walls[round_index] += wall * scale
                cpus[round_index] += cpu * scale
        by_key: dict[str, list[float]] = {}
        for key, elapsed, call in zip(
            self.latency_keys, self.latencies, self.latency_calls
        ):
            by_key.setdefault(key, []).append(elapsed * factors[call])
        medians = {key: statistics.median(v) for key, v in by_key.items()}
        latencies = [medians[key] for key in self.latency_keys]
        return ScaledTimes(walls, cpus, latencies)


@dataclass
class ScaledTimes:
    """Per-round wall and CPU seconds and latency samples, scaled, each
    latency sample the median of its key's."""

    walls: list[float]
    cpus: list[float]
    latencies: list[float]


@dataclass
class _Source:
    """One generated source with what its runner needs."""

    name: str
    domain: DomainSpec
    sod: SodType
    knowledge: DomainKnowledge
    generated: GeneratedSource
    extra: dict[str, dict[str, float]]


def _knowledge() -> dict[str, DomainKnowledge]:
    return {
        name: build_knowledge(domain_spec(name), coverage=COVERAGE)
        for name in DOMAINS
    }


def _catalog_sources() -> list[_Source]:
    """The Table I catalog with per-source dictionary completion."""
    knowledge = _knowledge()
    sods = {name: domain_spec(name).sod for name in DOMAINS}
    sources = []
    for entry in catalog_entries(CATALOG_SCALE):
        domain = domain_spec(entry.spec.domain)
        generated = generate_source(entry.spec, domain)
        sources.append(_Source(
            name=entry.spec.name,
            domain=domain,
            sod=sods[domain.name],
            knowledge=knowledge[domain.name],
            generated=generated,
            extra=completion_entries(
                domain,
                generated.gold,
                coverage=COVERAGE,
                seed=("completion", entry.spec.name),
            ),
        ))
    return sources


def _completed_runner(source: _Source, **kwargs) -> ObjectRunner:
    """A runner with domain knowledge plus the source's completion."""
    return ObjectRunner(
        sod=source.sod,
        ontology=source.knowledge.ontology,
        corpus=source.knowledge.corpus,
        gazetteer_classes=source.domain.gazetteer_classes,
        extra_gazetteer_entries=source.extra,
        **kwargs,
    )


class Workload:
    """One workload: set-up, timed rounds, output checks.

    :meth:`start` opens a phase (the timed part's fresh state); the
    per-layer counters a phase reports exclude anything before it.
    """

    name = ""
    #: Full set-ups per run; ``setup_s`` is their median.  Two where a
    #: set-up induces dozens of sources, so a run stays under a minute.
    setup_repeats = 2
    #: Worker processes the timed part asks for, and gets.
    requested_workers = 1
    workers = 1
    #: Whether a timed call keeps more than the calling thread busy.
    parallel_calls = False
    #: Whether the program keeps no state from one timed call to the next,
    #: so each call may start from a collected heap, as a fresh process
    #: would.  Where it keeps state, collecting it is part of the cost.
    fresh_calls = False

    def __init__(self, seed: int, workdir: Path, cores: int):
        self.seed = seed
        self.workdir = workdir
        self.problems: list[str] = []
        self._baseline: dict[str, float] = {}
        #: Called between the long steps of :meth:`setup`, so a speed
        #: probe can read the host while set-up runs.
        self.tick: Callable[[], None] = lambda: None

    def setup(self) -> None:
        """Build every input from the seed (repeatable from scratch)."""
        self.problems = []

    def start(self) -> None:
        """Open a phase of timed rounds."""
        self._baseline = dict(self._raw_counters())

    def run_round(self, meter: Meter) -> None:
        raise NotImplementedError

    def check(self) -> list[str]:
        """Problems found in the outputs of every round (empty if none)."""
        return list(self.problems)

    def phase_counters(self) -> dict[str, float]:
        """Observer, cache and registry counts since :meth:`start`."""
        raw = self._raw_counters()
        return {
            key: value - self._baseline.get(key, 0.0)
            for key, value in raw.items()
        }

    def _raw_counters(self) -> dict[str, float]:
        raise NotImplementedError

    def _fresh_dir(self, label: str) -> Path:
        """An absent path under the work directory, ready to be created."""
        path = self.workdir / label
        shutil.rmtree(path, ignore_errors=True)
        path.parent.mkdir(parents=True, exist_ok=True)
        return path


class ColdCatalog(Workload):
    """Each Table I source cold: a fresh runner, no registry, one caller."""

    name = "cold_catalog"
    setup_repeats = 5
    fresh_calls = True

    def setup(self) -> None:
        super().setup()
        self.sources = _catalog_sources()
        #: Reshuffles the sources before every round.
        self._order = random.Random(self.seed)
        self._counts: dict[str, float] = {}
        #: Round-one outputs (graded in :meth:`check`) and per-round digests.
        self._first: dict[str, SystemOutput] = {}
        self._digests: list[dict[str, str]] = []

    def _raw_counters(self) -> dict[str, float]:
        return self._counts

    @staticmethod
    def _run(source: _Source, observer: MetricsObserver):
        runner = _completed_runner(source, observers=(observer,))
        return runner.run_source(source.name, source.generated.pages)

    def run_round(self, meter: Meter) -> None:
        # A fresh order per round: a source's latency is the median over
        # rounds that each ran it after different sources.
        self._order.shuffle(self.sources)
        digests: dict[str, str] = {}
        for source in self.sources:
            observer = MetricsObserver()
            try:
                result, elapsed = meter.call(
                    source.name, self._run, source, observer
                )
            except Exception as exc:
                meter.outcome(source.name, ok=False)
                digests[source.name] = f"raised {type(exc).__name__}: {exc}"
                continue
            meter.latency(source.name, elapsed)
            meter.outcome(
                source.name, not result.discarded, discarded=result.discarded
            )
            _add(self._counts, observer_counts(observer))
            digests[source.name] = result_digest(result)
            if not self._digests:
                self._first[source.name] = SystemOutput(
                    system="objectrunner",
                    source=source.name,
                    objects=result.objects,
                    failed=result.discarded,
                    failure_reason=result.discard_reason,
                )
        self._digests.append(digests)

    def check(self) -> list[str]:
        problems = super().check()
        if not self._digests:
            return problems + ["no round completed"]
        first = self._digests[0]
        for index, digests in enumerate(self._digests[1:], start=2):
            for name, value in digests.items():
                if value != first.get(name):
                    problems.append(f"round {index}: {name} differs from round 1")
        if len(self._first) != len(self.sources):
            problems.append("round 1 did not complete every source")
            return problems
        golds = {source.name: source for source in self.sources}
        expected = json.loads(EXPECTED_COLD.read_text(encoding="utf-8"))
        return problems + compare(grade_summary(self._first, golds), expected)


def grade_summary(
    outputs: dict[str, SystemOutput], sources: dict[str, _Source]
) -> dict:
    """Per-source and per-domain grades of one pass over the catalog."""
    per_source = {}
    evaluations: dict[str, list] = {name: [] for name in DOMAINS}
    for name in sorted(outputs):
        source = sources[name]
        output = outputs[name]
        evaluation = grade_source(
            source.domain, source.generated.gold, output
        )
        evaluations[source.domain.name].append(evaluation)
        per_source[name] = {
            "total": evaluation.objects_total,
            "correct": evaluation.objects_correct,
            "partial": evaluation.objects_partial,
            "incorrect": evaluation.objects_incorrect,
            "discarded": evaluation.discarded,
            "extracted": len(output.objects),
        }
    domains = {}
    for name in DOMAINS:
        metrics = aggregate_domain(name, "objectrunner", evaluations[name])
        domains[name] = {
            "total": metrics.objects_total,
            "correct": metrics.objects_correct,
            "partial": metrics.objects_partial,
            "incorrect": metrics.objects_incorrect,
            "pc": round(metrics.precision_correct, 6),
            "pp": round(metrics.precision_partial, 6),
        }
    return {
        "extracted_objects": sum(row["extracted"] for row in per_source.values()),
        "discarded": sorted(
            name for name, row in per_source.items() if row["discarded"]
        ),
        "domains": domains,
        "sources": per_source,
    }


def compare(actual: object, expected: object, path: str = "") -> list[str]:
    """Every place where ``actual`` differs from ``expected``."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        problems = []
        for key in sorted(set(expected) | set(actual)):
            where = f"{path}.{key}" if path else str(key)
            if key not in actual:
                problems.append(f"{where}: missing")
            elif key not in expected:
                problems.append(f"{where}: unexpected")
            else:
                problems.extend(compare(actual[key], expected[key], where))
        return problems
    if actual != expected:
        return [f"{path}: got {actual!r}, expected {expected!r}"]
    return []


#: Requests per source and round in ``registry_serve``.  The first
#: misses the preprocess cache (the catalog outgrows it within a round);
#: the byte-identical re-crawls hit it.  Two re-crawls, not one: with
#: exactly half the requests missing, the median request was the slowest
#: hit and moved by a quarter between seeds.
CRAWLS = ("crawl", "recrawl-1", "recrawl-2")


class RegistryServe(Workload):
    """Registry hits through :class:`ExtractionService`, one client."""

    name = "registry_serve"

    def setup(self) -> None:
        super().setup()
        sources = _catalog_sources()
        self._snapshot = self._fresh_dir("serve-snapshot")
        registry = WrapperRegistry(self._snapshot)
        #: Reference digest of each source's objects (``None``: discard).
        self._reference: dict[str, str | None] = {}
        for source in sources:
            self.tick()
            result = _completed_runner(
                source, wrapper_registry=registry
            ).run_source(source.name, source.generated.pages)
            self._reference[source.name] = (
                None
                if result.discarded
                else digest([instance.values for instance in result.objects])
            )
        kinds = [row["kind"] for __, row in registry.index_rows()]
        discards = sorted(
            name for name, ref in self._reference.items() if ref is None
        )
        if discards != ["emusic"] or kinds.count("discard") != 1 or (
            len(kinds) != len(sources)
        ):
            self.problems.append(
                f"set-up registry holds {kinds.count('wrapper')} wrappers, "
                f"{kinds.count('discard')} discards; discarded {discards}"
            )
        self._requests: dict[str, dict] = {}
        for domain_name, knowledge in _knowledge().items():
            self.tick()
            domain = domain_spec(domain_name)
            builder = DictionaryBuilder(
                ontology=knowledge.ontology, corpus=knowledge.corpus
            )
            dicts = {
                type_name: sorted(
                    builder.build(class_name, type_name=type_name).entries()
                )
                for type_name, class_name in domain.gazetteer_classes.items()
            }
            self._requests[domain_name] = {
                "sod": format_sod(domain.sod),
                "dicts": dicts,
            }
        self.sources = sources
        # One order for every round: with the catalog's 522 pages in a
        # 512-entry cache, each source's first crawl then always misses.
        random.Random(self.seed).shuffle(self.sources)

    def _request(self, source: _Source, request_id: str) -> dict:
        return {
            "id": request_id,
            "source": source.name,
            "pages": source.generated.pages,
            **self._requests[source.domain.name],
        }

    def start(self) -> None:
        live = self._fresh_dir("serve-live")
        shutil.copytree(self._snapshot, live)
        self._registry = WrapperRegistry(live)
        self._observer = MetricsObserver()
        self._service = ExtractionService(
            self._registry, observers=[self._observer]
        )
        # One untimed round builds the memoized runners and fills the
        # preprocess cache, so every timed round sees a service in its
        # steady state.
        for source in self.sources:
            for crawl in CRAWLS:
                request = self._request(source, f"warm-up#{crawl}")
                self._judge(source, self._service.handle(request))
        super().start()

    def _raw_counters(self) -> dict[str, float]:
        counts = observer_counts(self._observer)
        _add(counts, registry_counts(self._registry))
        return counts

    def _judge(self, source: _Source, response: dict) -> bool:
        """Check one response against the set-up reference; returns
        whether the request succeeded."""
        reference = self._reference[source.name]
        if response.get("outcome") != "hit":
            self.problems.append(
                f"{source.name}: outcome {response.get('outcome')!r}, not a hit"
            )
        if reference is None:
            if response.get("ok") or "discarded" not in response.get(
                "error", ""
            ):
                self.problems.append(f"{source.name}: discard not replayed")
            return False
        if not response.get("ok"):
            self.problems.append(
                f"{source.name}: failed: {response.get('error')}"
            )
            return False
        if digest(response["objects"]) != reference:
            self.problems.append(f"{source.name}: objects differ from set-up")
        return True

    def run_round(self, meter: Meter) -> None:
        for source in self.sources:
            for crawl in CRAWLS:
                request_id = f"{source.name}#{crawl}"
                response, elapsed = meter.call(
                    request_id,
                    self._service.handle,
                    self._request(source, request_id),
                )
                meter.latency(request_id, elapsed)
                meter.outcome(
                    source.name,
                    self._judge(source, response),
                    discarded="discarded" in response.get("error", ""),
                )

    def check(self) -> list[str]:
        problems = super().check()
        if self._registry.stats()["misses"]:
            problems.append("the service missed the registry")
        return problems


class MixedBatch(Workload):
    """Scale-tier replicas through the process executor, half warmed."""

    name = "mixed_batch"
    #: Worker processes asked for; capped at the usable cores.
    requested_workers = 2
    parallel_calls = True
    fresh_calls = True
    #: Scale-tier sources the replicas are picked from.
    pool_size = 245
    #: Replicas per domain; half of them are warmed in set-up.
    per_domain = 16
    #: Seed of the replica pick and of the warmed half.  The workload
    #: seed orders each batch but does not pick: which names form a batch
    #: decides how the hash-mod shards balance, so a seeded pick made
    #: throughput differ by up to a quarter from one seed to the next.
    pick_seed = DEFAULT_SEED

    def __init__(self, seed: int, workdir: Path, cores: int):
        super().__init__(seed, workdir, cores)
        self.workers = min(self.requested_workers, cores)

    def _parallel(self) -> RunParams:
        """What ``repro extract --backend process`` runs a batch with."""
        return RunParams(
            backend="process",
            max_workers=self.workers,
            failure_policy="isolate",
        )

    def _runner(self, domain_name: str, params: RunParams, **kwargs):
        domain = domain_spec(domain_name)
        knowledge = self._knowledge[domain_name]
        return ObjectRunner(
            sod=self._sods[domain_name],
            ontology=knowledge.ontology,
            corpus=knowledge.corpus,
            gazetteer_classes=domain.gazetteer_classes,
            params=params,
            **kwargs,
        )

    def setup(self) -> None:
        super().setup()
        pick = random.Random(self.pick_seed)
        order = random.Random(self.seed)
        self._knowledge = _knowledge()
        self._sods = {name: domain_spec(name).sod for name in DOMAINS}
        pool = catalog_entries(1.0)[: self.pool_size]
        # A set-up-wide cache: picking by fingerprint tidies each page
        # once, and the serial reference run reuses the trees.
        cache = PreprocessCache(max_entries=1 << 16)
        self.batches: dict[str, dict[str, list[str]]] = {}
        warm: dict[str, dict[str, list[str]]] = {}
        for domain_name in DOMAINS:
            domain = domain_spec(domain_name)
            candidates = [e for e in pool if e.spec.domain == domain_name]
            pick.shuffle(candidates)
            batch: dict[str, list[str]] = {}
            seen: set[str] = set()
            for entry in candidates:
                self.tick()
                pages = generate_source(entry.spec, domain).pages
                fingerprint = pages_fingerprint(cache.clean_pages(pages).pages)
                if fingerprint in seen:
                    continue
                seen.add(fingerprint)
                batch[entry.spec.name] = pages
                if len(batch) == self.per_domain:
                    break
            warmed = pick.sample(sorted(batch), self.per_domain // 2)
            warm[domain_name] = {name: batch[name] for name in warmed}
            names = list(batch)
            order.shuffle(names)
            self.batches[domain_name] = {name: batch[name] for name in names}
        self._snapshot = self._fresh_dir("mixed-snapshot")
        snapshot = WrapperRegistry(self._snapshot)
        for domain_name in DOMAINS:
            self.tick()
            self._runner(
                domain_name, self._parallel(), wrapper_registry=snapshot
            ).run_sources(warm[domain_name])
        serial = RunParams(
            backend="thread", max_workers=1, failure_policy="isolate"
        )
        reference_root = self._fresh_dir("mixed-reference")
        shutil.copytree(self._snapshot, reference_root)
        reference = WrapperRegistry(reference_root)
        self._reference: dict[str, str] = {}
        for domain_name in DOMAINS:
            self.tick()
            outcome = self._runner(
                domain_name, serial, wrapper_registry=reference, cache=cache
            ).run_sources(self.batches[domain_name])
            self._reference.update(_batch_digests(outcome))
        self._reference_files = read_tree(reference_root)
        shutil.rmtree(reference_root)
        failed = sorted(
            name
            for name, value in self._reference.items()
            if value == "failure"
        )
        if failed:
            self.problems.append(f"serial reference failed on {failed}")
        self._counts: dict[str, float] = {}
        self._rounds = 0

    def _raw_counters(self) -> dict[str, float]:
        return self._counts

    def run_round(self, meter: Meter) -> None:
        self._rounds += 1
        live = self._fresh_dir("mixed-live")
        shutil.copytree(self._snapshot, live)
        registry = WrapperRegistry(live)
        observer = MetricsObserver()
        parallel = self._parallel()
        outcomes: dict[str, str] = {}
        for domain_name in DOMAINS:
            batch = self.batches[domain_name]

            def run_batch(domain_name=domain_name, batch=batch):
                runner = self._runner(
                    domain_name,
                    parallel,
                    observers=(observer,),
                    wrapper_registry=registry,
                )
                return runner.run_sources(batch)

            try:
                result, elapsed = meter.call(f"{domain_name}-batch", run_batch)
            except Exception as exc:
                for name in batch:
                    meter.outcome(name, ok=False)
                    outcomes[name] = f"raised {type(exc).__name__}"
                continue
            for name in batch:
                done = result.results.get(name)
                meter.outcome(
                    name,
                    done is not None and done.ok,
                    discarded=done is not None and done.discarded,
                )
            # A caller has a source's result when its batch returns.
            for name in batch:
                meter.latency(name, elapsed)
            outcomes.update(_batch_digests(result))
        _add(self._counts, observer_counts(observer))
        _add(self._counts, registry_counts(registry))
        self.problems.extend(
            f"round {self._rounds}: {problem}"
            for problem in self.compare_round(outcomes, read_tree(live))
        )
        shutil.rmtree(live)

    def compare_round(
        self, outcomes: dict[str, str], files: dict[str, bytes]
    ) -> list[str]:
        """How one round's outcomes and registry files differ from the
        serial reference."""
        problems = [
            f"{name} differs from the serial reference"
            for name, expected in self._reference.items()
            if outcomes.get(name) != expected
        ]
        if files != self._reference_files:
            problems.append("registry bytes differ from the serial reference")
        return problems


def _batch_digests(outcome) -> dict[str, str]:
    """Per-source digests of one ``run_sources`` outcome."""
    digests = {
        name: result_digest(result) for name, result in outcome.results.items()
    }
    for name in outcome.failures:
        digests[name] = "failure"
    return digests


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload
    for workload in (ColdCatalog, RegistryServe, MixedBatch)
}
