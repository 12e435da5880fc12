"""Run one benchmark workload and print its metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold_catalog --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no span probes installed.
``--trace 1`` first times one untraced round, then installs the span
probes of :mod:`perfbench.probes` and reports the per-layer metrics.
Spans go to ``.perfbench-out/`` when the run ends.  Every run checks
the workload's outputs outside the timed region.

The end-to-end metrics, the same on every workload.  Every time in them
is scaled to the reference host's speed by :mod:`perfbench.speed`, whose
probe reads the host around or during each call; the unscaled values go
to the host block.

- ``setup_s``: median over the run's full set-ups (generation, knowledge
  build, registry warm, references);
- ``sources_per_s`` and ``requests_per_s``: median over rounds of the
  sources completed, and of the public-API calls answered, per second
  of call time;
- ``latency_p50_ms`` and ``latency_p90_ms``: nearest-rank percentiles of
  the wall time of one call (in ``mixed_batch``, of the ``run_sources``
  call that returns the source), each sample the median over the run of
  the same source's or request's samples; a run holds at least 100;
- ``cpu_s``: median over rounds of the CPU of this process and its
  reaped children during the calls;
- ``peak_rss_mb``: peak resident set of this process.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it holds the host block: core counts, Python version, worker count,
a calibration score, the speed probe's readings and the unscaled
end-to-end metrics.  The exit code is 0 when every check passed, 1 when
a check failed, and 2 when the program under test is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from operator import truediv
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Latency percentiles need this many samples: ten lie beyond the p90.
MIN_LATENCY_SAMPLES = 100

#: Pipeline stages, each reported as ``pipeline.<stage>_s``.
PIPELINE_STAGES = (
    "preprocess",
    "registry_match",
    "segmentation",
    "annotation",
    "wrapping",
    "extraction",
    "enrichment",
    "registry_check",
    "registry_store",
)


def cpu_seconds() -> float:
    """CPU of this process plus its reaped children, in seconds."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def calibrate(repeats: int = 5) -> float:
    """Score of a fixed seeded pure-Python task, in runs per second.

    The same code on the same input every time, so a change in score is
    a change in the host, not in the program under test.
    """
    from perfbench.speed import make_task, time_task

    return 1.0 / time_task(make_task(60_000), repeats)


def usable_cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platforms without affinity
        return os.cpu_count() or 1


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(
    workload, meter, seconds: float, min_samples: int, rounds: int = 0
) -> None:
    """Run whole rounds until ``seconds`` passed and the samples suffice,
    or exactly ``rounds`` rounds when that is given."""
    workload.start()
    if meter.probe is not None:
        meter.probe.sample()
    start = time.perf_counter()
    while True:
        # Each round starts from a collected heap, not from whatever
        # garbage the previous round or the set-up left behind.
        gc.collect()
        workload.run_round(meter)
        meter.end_round()
        if rounds:
            if meter.rounds == rounds:
                return
            continue
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(meter.latencies) >= min_samples:
            return


def timed_setup(
    workload, probe, clock=time.perf_counter
) -> tuple[float, float]:
    """One full set-up: its wall seconds, and the same scaled to the
    reference host's speed by the probe readings taken around and
    during it (the probing itself is not counted)."""
    from perfbench.speed import REFERENCE_PROBE_S

    probe.sample()
    first = probe.latest
    spent = probe.spent
    start = clock()
    workload.setup()
    elapsed = clock() - start - (probe.spent - spent)
    probe.sample()
    readings = probe.times[first:]
    return elapsed, elapsed * REFERENCE_PROBE_S / statistics.median(readings)


def end_to_end(meter, setups: list[float], factor) -> dict:
    """The end-to-end metrics, each call's times multiplied by ``factor``
    of its probe readings (unscaled when ``factor`` is ``None``)."""
    from perfbench.spans import percentile, tail_percentile

    times = meter.scaled(factor)
    latencies = times.latencies
    tail = tail_percentile(len(latencies))
    if tail is None or tail < 90:
        raise RuntimeError(
            f"{len(latencies)} latency samples leave fewer than ten beyond p90"
        )
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "sources_per_s": metric(
            statistics.median(map(truediv, meter.source_counts, times.walls)),
            "1/s",
        ),
        "requests_per_s": metric(
            statistics.median(map(truediv, meter.call_counts, times.walls)),
            "1/s",
        ),
        "latency_p50_ms": metric(percentile(latencies, 50) * 1000.0, "ms"),
        "latency_p90_ms": metric(percentile(latencies, 90) * 1000.0, "ms"),
        "cpu_s": metric(statistics.median(times.cpus), "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }


def per_layer(recorder, counters: dict, workers: int, untraced, traced):
    from perfbench.probes import layer_metric_names, layer_of
    from perfbench.spans import decompose

    layers, residual, wall = decompose(
        recorder.names,
        recorder.starts,
        recorder.ends,
        recorder.parents,
        layer_of,
    )
    tallies = recorder.tallies
    out = {name: metric(layers.get(name, 0.0), "s")
           for name in layer_metric_names()}

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    cache_lookups = counters.get("cache.hits", 0) + counters.get(
        "cache.misses", 0
    )
    registry_lookups = counters.get("registry.hits", 0) + counters.get(
        "registry.misses", 0
    )
    out.update({
        "core.residual_s": metric(residual, "s"),
        "core.cache_hit_ratio": metric(
            ratio(counters.get("cache.hits", 0), cache_lookups), "ratio"
        ),
        "core.executor_busy_ratio": metric(
            ratio(counters.get("pipeline", 0.0), wall * workers), "ratio"
        ),
        "recognizers.gazetteer_find_calls": metric(
            recorder.names.count("recognizers.gazetteer_find"), "count"
        ),
        "annotation.annotate_calls": metric(
            recorder.names.count("annotation.annotate"), "count"
        ),
        "annotation.sample_yield": metric(
            ratio(
                tallies.get("annotation.sample_pages", 0),
                tallies.get("annotation.pages_annotated", 0),
            ),
            "ratio",
        ),
        "wrapper.support_yield": metric(
            ratio(
                tallies.get("wrapper.kept", 0),
                recorder.names.count("wrapper.generate"),
            ),
            "ratio",
        ),
        "registry.hit_ratio": metric(
            ratio(counters.get("registry.hits", 0), registry_lookups),
            "ratio",
        ),
        "registry.puts": metric(tallies.get("registry.puts", 0), "count"),
        "bench.traced_wall_s": metric(wall, "s"),
        "bench.trace_overhead_s": metric(
            traced.wall - untraced.wall / untraced.rounds * traced.rounds, "s"
        ),
    })
    for stage in PIPELINE_STAGES:
        out[f"pipeline.{stage}_s"] = metric(
            counters.get(f"stage.{stage}", 0.0), "s"
        )
    return out


def write_trace(path: Path, recorder, host: dict, metrics: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    document = {
        "host": host,
        "columns": ["name", "start", "end", "parent", "op"],
        "spans": recorder.rows(),
        "metrics": metrics,
    }
    path.write_text(json.dumps(document), encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program under test at {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.probes import installed
    from perfbench.spans import SpanRecorder
    from perfbench.speed import SpeedProbe
    from perfbench.workloads import WORKLOADS, Meter

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(known: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench-out"
    workdir = out_dir / f"{args.workload}-{os.getpid()}"
    cores = usable_cores()
    workload = WORKLOADS[args.workload](args.seed, workdir, cores)
    try:
        calibration_before = calibrate()
        probe = SpeedProbe()
        workload.tick = probe.tick
        if not workload.parallel_calls and hasattr(os, "sched_setaffinity"):
            # The cores' speeds swing independently, so a serial workload
            # stays on the one core its speed probe reads.
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        setups = [
            timed_setup(workload, probe)
            for __ in range(workload.setup_repeats if not args.trace else 1)
        ]
        # The set-up's inputs live until the run ends; frozen, they are
        # never traversed by a collection that a timed call pays for.
        gc.collect()
        gc.freeze()
        if args.trace:
            untraced = Meter(None, cpu_seconds, collect=workload.fresh_calls)
            measure(workload, untraced, args.seconds, 0, rounds=1)
            recorder = SpanRecorder()
            traced = Meter(recorder, cpu_seconds, collect=workload.fresh_calls)
            with installed(recorder):
                measure(workload, traced, args.seconds, 0)
            meter = traced
            metrics = per_layer(
                recorder,
                workload.phase_counters(),
                workload.workers,
                untraced,
                traced,
            )
        else:
            meter = Meter(
                None,
                cpu_seconds,
                probe,
                parallel=workload.parallel_calls,
                collect=workload.fresh_calls,
            )
            measure(workload, meter, args.seconds, MIN_LATENCY_SAMPLES)
            metrics = end_to_end(
                meter, [scaled for __, scaled in setups], probe.factor
            )
            measured = {
                name: value["value"]
                for name, value in end_to_end(
                    meter, [wall for wall, __ in setups], None
                ).items()
            }
        problems = workload.check()
        if args.trace:
            meter.attempted += untraced.attempted
            meter.failed += untraced.failed
        host = {
            "cpu_count": os.cpu_count(),
            "usable_cores": cores,
            "python": platform.python_version(),
            "workers": workload.workers,
            "workers_requested": workload.requested_workers,
            "calibration_per_s": [calibration_before, calibrate()],
            "seed": args.seed,
            "rounds": meter.rounds,
            "latency_samples": len(meter.latencies),
            "probe_readings": len(probe.times),
            "probe_median_s": statistics.median(probe.times),
        }
        if not args.trace:
            host["unscaled"] = measured
        if args.trace:
            write_trace(
                out_dir / f"trace-{args.workload}-seed{args.seed}.json",
                recorder,
                host,
                metrics,
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems[:50]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"host": host, "problems": len(problems)}))
    print(json.dumps({
        "correct": not problems,
        "attempted": meter.attempted,
        "failed": meter.failed,
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
