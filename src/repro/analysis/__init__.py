"""reprolint: project-specific static analysis for the repro codebase.

The staged pipeline promises byte-identical parallel/serial multi-source
runs and reproducible extraction given a seed; nothing in Python enforces
that.  This package is the enforcement: an AST-based rule engine
(:mod:`repro.analysis.engine`) with determinism, stage-contract,
exception and API rules (:mod:`repro.analysis.rules`), inline ``# repro:
ignore[RULE-ID]`` suppressions, a committed baseline of justified
findings (:mod:`repro.analysis.baseline`), and text/JSON reporters.

Run it with ``python -m repro.analysis src`` (or the ``reprolint``
console script).  The rule catalog lives in ``docs/ANALYSIS.md``.
"""

from repro.analysis.baseline import (
    BaselineEntry,
    apply_baseline,
    load_baseline,
    save_baseline,
    updated_baseline,
)
from repro.analysis.cache import ResultCache, content_hash
from repro.analysis.cli import main
from repro.analysis.dataflow import FunctionSummary, TaintAnalyzer, TaintFlow
from repro.analysis.engine import (
    AnalysisReport,
    FileContext,
    Finding,
    Rule,
    analyze_file,
    analyze_paths,
    build_rules,
    register_rule,
    rule_registry,
    suppressed_rules,
)
from repro.analysis.graph import ProjectGraph
from repro.analysis.reporters import render_json, render_text, summarize

__all__ = [
    "AnalysisReport",
    "BaselineEntry",
    "FileContext",
    "Finding",
    "FunctionSummary",
    "ProjectGraph",
    "ResultCache",
    "Rule",
    "TaintAnalyzer",
    "TaintFlow",
    "analyze_file",
    "analyze_paths",
    "apply_baseline",
    "build_rules",
    "content_hash",
    "load_baseline",
    "main",
    "register_rule",
    "render_json",
    "render_text",
    "rule_registry",
    "save_baseline",
    "summarize",
    "suppressed_rules",
    "updated_baseline",
]
