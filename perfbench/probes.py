"""Outside-in probes: spans around the calls into each ``repro`` layer.

Each boundary names a function or method at the place its caller looks
it up (a module global or a class attribute) and the span that times
it.  :func:`installed` swaps every boundary for a span-recording wrapper
and restores the originals on exit; the program's own code, checks
included, runs unchanged inside the wrappers.

A span's self time counts toward the layer metric ``<span name>_s``.
Two spans are deliberately not layers: the harness's operation root and
``core.pipeline`` (:meth:`Pipeline.run`), which exists so that
``ExtractionService.handle``'s self time is the service's own overhead.
Their self time is part of ``core.residual_s``.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from typing import Callable, Iterator

from perfbench.spans import OP_SPAN, SpanRecorder

#: Spans whose self time is not a layer of its own.
NON_LAYER_SPANS = frozenset({OP_SPAN, "core.pipeline"})


def _sampled(args: tuple, result) -> dict[str, int]:
    return {
        "annotation.sample_pages": len(result.sample),
        "annotation.pages_annotated": len(result.all_pages),
    }


def _one_put(args: tuple, result) -> dict[str, int]:
    return {"registry.puts": 1}


def _staged_puts(args: tuple, result) -> dict[str, int]:
    # The process backend's parent-side apply stores each staged entry
    # without going through ``put``.
    return {"registry.puts": len(args[0].entries)}


def _kept(args: tuple, result) -> dict[str, int]:
    return {"wrapper.kept": 1}


#: ``(module, attribute path, span name, tally)``: where the caller finds
#: the function, the span timing it, and what to count when it returns.
BOUNDARIES: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("repro.core.cache", "tidy", "htmlkit.tidy", None),
    ("repro.core.cache", "clean_tree", "htmlkit.tidy", None),
    ("repro.core.cache", "clone", "htmlkit.clone", None),
    ("repro.core.stages.registry", "pages_fingerprint",
     "htmlkit.fingerprint", None),
    ("repro.core.objectrunner", "ObjectRunner.__init__",
     "core.runner_setup", None),
    ("repro.core.objectrunner", "ObjectRunner.run_sources", "core.batch",
     None),
    ("repro.core.pipeline", "Pipeline.run", "core.pipeline", None),
    ("repro.core.stages.preprocess", "segment_page", "vision.segment", None),
    ("repro.core.stages.preprocess", "main_content_block", "vision.segment",
     None),
    ("repro.core.stages.preprocess", "find_block_by_signature",
     "vision.segment", None),
    ("repro.recognizers.gazetteer", "GazetteerRecognizer.find",
     "recognizers.gazetteer_find", None),
    ("repro.recognizers.regexes", "RegexRecognizer.find",
     "recognizers.other_find", None),
    ("repro.recognizers.rules", "FullNodeRecognizer.find",
     "recognizers.other_find", None),
    ("repro.recognizers.rules", "ValueFilterRecognizer.find",
     "recognizers.other_find", None),
    ("repro.core.stages.annotate", "select_sample",
     "annotation.select_sample", _sampled),
    ("repro.annotation.annotator", "PageAnnotator.annotate",
     "annotation.annotate", None),
    ("repro.annotation.annotator", "propagate_annotations",
     "annotation.propagate", None),
    ("repro.core.stages.wrap", "tokenize_element", "wrapper.tokenize", None),
    ("repro.wrapper.generate", "tokenize_element", "wrapper.tokenize", None),
    ("repro.wrapper.generate", "segment_records", "wrapper.records", None),
    ("repro.wrapper.alignment", "TemplateBuilder.build", "wrapper.align",
     None),
    ("repro.wrapper.generate", "match_sod", "wrapper.match", None),
    ("repro.core.stages.wrap", "generate_wrapper", "wrapper.generate", _kept),
    ("repro.core.stages.extract", "extract_objects", "wrapper.extract", None),
    ("repro.registry.store", "WrapperRegistry.lookup", "registry.lookup",
     None),
    ("repro.registry.store", "WrapperRegistry.put", "registry.put", _one_put),
    ("repro.registry.store", "WrapperRegistry.put_discard", "registry.put",
     _one_put),
    ("repro.registry.store", "StagedWrites.apply_to", "registry.put",
     _staged_puts),
    ("repro.service.server", "ExtractionService.handle", "service.overhead",
     None),
)


def layer_of(span_name: str) -> str | None:
    """The layer metric a span's self time counts toward, if any."""
    if span_name in NON_LAYER_SPANS:
        return None
    return f"{span_name}_s"


def layer_metric_names() -> list[str]:
    """Every self-time layer metric, in boundary order."""
    names: list[str] = []
    for __, __, span, __ in BOUNDARIES:
        metric = layer_of(span)
        if metric is not None and metric not in names:
            names.append(metric)
    return names


def _resolve(module_name: str, path: str) -> tuple[object, str]:
    owner: object = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute


@contextmanager
def installed(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap every boundary for the duration of the block."""
    originals: list[tuple[object, str, object]] = []
    try:
        for module_name, path, span, tally in BOUNDARIES:
            owner, attribute = _resolve(module_name, path)
            original = owner.__dict__[attribute]
            originals.append((owner, attribute, original))
            setattr(owner, attribute, recorder.wrap(span, original, tally))
        yield recorder
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)
