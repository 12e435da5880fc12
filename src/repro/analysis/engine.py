"""The reprolint rule engine: findings, rules, suppression, file walking.

A :class:`Rule` inspects one parsed file (:class:`FileContext`) and yields
:class:`Finding` objects.  The engine owns everything around that:
collecting the Python files of a scan root, parsing each once, dispatching
every registered rule over the tree (in parallel across files, with a
deterministic result order), honouring ``# repro: ignore[RULE-ID]``
suppression comments, and folding in the committed baseline of
grandfathered findings (:mod:`repro.analysis.baseline`).

Rules register themselves with :func:`register_rule`, mirroring the stage
registry of :mod:`repro.core.pipeline`; importing
:mod:`repro.analysis.rules` is what populates the registry.
"""

from __future__ import annotations

import ast
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

#: Finding produced when a file cannot be parsed at all.
PARSE_RULE_ID = "E001"

#: Status values a finding moves through while the engine applies
#: suppressions and the baseline.
STATUS_OPEN = "open"
STATUS_SUPPRESSED = "suppressed"
STATUS_BASELINED = "baselined"

_SUPPRESS_RE = re.compile(r"#\s*repro:\s*ignore\[([A-Za-z0-9_,\-\s]+)\]")


@dataclass
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  # posix-style path relative to the scan root
    line: int  # 1-based
    col: int  # 0-based
    message: str
    #: The stripped source line, used for baseline fingerprinting (stable
    #: across unrelated edits that only move the line).
    snippet: str = ""
    status: str = STATUS_OPEN
    #: 1-based (first, last) physical lines a suppression comment may sit
    #: on: the whole statement for multi-line expressions, decorators
    #: through the signature for defs.  Engine-internal — not serialized.
    span: tuple[int, int] | None = field(
        default=None, compare=False, repr=False
    )

    def location(self) -> str:
        """``path:line:col`` for human output."""
        return f"{self.path}:{self.line}:{self.col}"

    def to_json(self) -> dict:
        """The finding as a JSON-serializable dict."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
            "status": self.status,
        }


@dataclass
class FileContext:
    """Everything a rule may look at for one file."""

    path: Path
    relpath: str
    source: str
    lines: list[str]
    tree: ast.Module
    root: Path

    def snippet_at(self, line: int) -> str:
        """The stripped source text of a 1-based line ('' out of range)."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def finding(self, rule_id: str, node: ast.AST, message: str) -> Finding:
        """Build a finding anchored at an AST node of this file."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            rule=rule_id,
            path=self.relpath,
            line=line,
            col=col,
            message=message,
            snippet=self.snippet_at(line),
            span=_suppression_span(node),
        )


class Rule:
    """One named check; subclass, set the metadata, implement check_file.

    ``rule_id`` is the suppression/baseline key (``# repro:
    ignore[RULE-ID]``); ``title`` and ``rationale`` feed ``--list-rules``
    and the rule catalog in ``docs/ANALYSIS.md``.
    """

    rule_id: str = ""
    title: str = ""
    rationale: str = ""
    #: A minimal self-contained code sample that fires the rule, shown by
    #: ``reprolint --explain RULE-ID``.  Every registered rule must set
    #: one (enforced by test_explain_catalog_complete).
    example: str = ""
    #: True when findings depend on nothing but one file's content, which
    #: lets the incremental :mod:`repro.analysis.cache` reuse them.
    #: Whole-program rules must leave this False.
    cacheable: bool = False
    #: True when the rule wants the shared :class:`ProjectGraph`; the
    #: engine builds it once per run and calls :meth:`prepare_graph`.
    requires_graph: bool = False

    def prepare(self, root: Path, files: list[Path]) -> None:
        """One-time hook before the (parallel) walk; cross-file setup."""

    def prepare_graph(self, graph) -> None:
        """Receive the shared project graph (requires_graph rules only)."""

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        """Yield findings for one parsed file."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(rule_id={self.rule_id!r})"


_RULE_REGISTRY: dict[str, type[Rule]] = {}


def register_rule(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a :class:`Rule` to the global registry."""
    if not cls.rule_id:
        raise ValueError(f"{cls.__name__} must set a non-empty rule_id")
    _RULE_REGISTRY[cls.rule_id] = cls
    return cls


def rule_registry() -> dict[str, type[Rule]]:
    """A copy of the rule-id -> rule-class registry."""
    # Importing the rules package is what registers the bundled rules.
    import repro.analysis.rules  # noqa: F401  (registration side effect)

    return dict(_RULE_REGISTRY)


def build_rules(ids: Iterable[str] | None = None) -> list[Rule]:
    """Instantiate registered rules (all of them, or the given ids)."""
    registry = rule_registry()
    if ids is None:
        ids = sorted(registry)
    rules = []
    for rule_id in ids:
        if rule_id not in registry:
            known = ", ".join(sorted(registry))
            raise ValueError(f"unknown rule {rule_id!r} (known: {known})")
        rules.append(registry[rule_id]())
    return rules


# -- suppression comments --------------------------------------------------


def suppressed_rules(line_text: str) -> frozenset[str]:
    """Rule ids suppressed by a ``# repro: ignore[...]`` comment, if any."""
    match = _SUPPRESS_RE.search(line_text)
    if match is None:
        return frozenset()
    return frozenset(
        part.strip() for part in match.group(1).split(",") if part.strip()
    )


def _suppression_span(node: ast.AST) -> tuple[int, int] | None:
    """Physical lines where an ignore comment counts for this node.

    A multi-line statement accepts the comment on any of its lines; a
    decorated ``def``/``class`` accepts it on a decorator line or
    anywhere in the signature (up to the line before the body starts) —
    previously only the first physical line of the node was checked.
    """
    line = getattr(node, "lineno", None)
    if line is None:
        return None
    end = getattr(node, "end_lineno", None) or line
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        decorators = [d.lineno for d in node.decorator_list]
        line = min([line, *decorators])
        if node.body:
            end = max(line, node.body[0].lineno - 1)
    return (line, end)


def _apply_suppressions(ctx: FileContext, findings: list[Finding]) -> None:
    for finding in findings:
        first, last = finding.span or (finding.line, finding.line)
        for line in range(first, last + 1):
            if finding.rule in suppressed_rules(ctx.snippet_at(line)):
                finding.status = STATUS_SUPPRESSED
                break


# -- walking ---------------------------------------------------------------


def collect_files(paths: Iterable[Path]) -> list[Path]:
    """The Python files under the given paths, sorted for determinism."""
    seen: dict[Path, None] = {}
    for path in paths:
        if path.is_file() and path.suffix == ".py":
            seen.setdefault(path.resolve(), None)
            continue
        if path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                if "__pycache__" in sub.parts:
                    continue
                seen.setdefault(sub.resolve(), None)
    return sorted(seen)


def _relpath(path: Path, root: Path) -> str:
    try:
        return path.relative_to(root).as_posix()
    except ValueError:
        return path.as_posix()


def _parse_context(path: Path, root: Path) -> FileContext | Finding:
    """Parse one file into a FileContext, or the E001 finding if it fails."""
    relpath = _relpath(path, root)
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return Finding(
            rule=PARSE_RULE_ID,
            path=relpath,
            line=exc.lineno or 1,
            col=(exc.offset or 1) - 1,
            message=f"file does not parse: {exc.msg}",
        )
    return FileContext(
        path=path,
        relpath=relpath,
        source=source,
        lines=source.splitlines(),
        tree=tree,
        root=root,
    )


def _run_rules(ctx: FileContext, rules: Iterable[Rule]) -> list[Finding]:
    findings: list[Finding] = []
    for rule in rules:
        findings.extend(rule.check_file(ctx))
    findings.sort(key=lambda f: (f.line, f.col, f.rule))
    _apply_suppressions(ctx, findings)
    return findings


def analyze_file(
    path: Path, root: Path, rules: Iterable[Rule]
) -> list[Finding]:
    """All findings of all rules for one file (suppressions applied)."""
    ctx = _parse_context(path, root)
    if isinstance(ctx, Finding):
        return [ctx]
    return _run_rules(ctx, rules)


def _analyze_file_cached(
    path: Path, root: Path, rules: list[Rule], cache
) -> list[Finding]:
    """analyze_file with the cacheable-rule split through a ResultCache.

    Cacheable rules (content-only) are served from the cache on a
    content-hash hit; whole-program rules always run fresh.  The merged
    list is re-sorted by ``(line, col, rule)``, so a warm run produces
    byte-identical output to a cold one.
    """
    from repro.analysis.cache import content_hash

    ctx = _parse_context(path, root)
    if isinstance(ctx, Finding):
        parse_finding = ctx
        cache.store(
            parse_finding.path,
            content_hash(path.read_text(encoding="utf-8")),
            [r.rule_id for r in rules if r.cacheable],
            [parse_finding],
            parse_failed=True,
        )
        return [parse_finding]
    cacheable = [r for r in rules if r.cacheable]
    fresh_rules = [r for r in rules if not r.cacheable]
    digest = content_hash(ctx.source)
    rule_ids = [r.rule_id for r in cacheable]
    hit = cache.lookup(ctx.relpath, digest, rule_ids)
    if hit is not None:
        cached_findings, parse_failed = hit
        if parse_failed:  # content re-parsed fine; treat as stale
            hit = None
        else:
            findings = cached_findings
    if hit is None:
        findings = _run_rules(ctx, cacheable)
        cache.store(ctx.relpath, digest, rule_ids, findings)
    findings = findings + _run_rules(ctx, fresh_rules)
    findings.sort(key=lambda f: (f.line, f.col, f.rule))
    return findings


@dataclass
class AnalysisReport:
    """Outcome of one engine run over a set of files."""

    root: Path
    files_scanned: int = 0
    findings: list[Finding] = field(default_factory=list)
    #: Baseline entries that matched no current finding (stale grandfathers
    #: that must be removed from the baseline file).
    expired_baseline: list[dict] = field(default_factory=list)
    #: Baseline entries without a meaningful justification.
    unjustified_baseline: list[dict] = field(default_factory=list)
    #: Baseline entries past their ``expires`` deadline (``--today``).
    overdue_baseline: list[dict] = field(default_factory=list)

    def by_status(self, status: str) -> list[Finding]:
        """The findings currently carrying the given status."""
        return [f for f in self.findings if f.status == status]

    @property
    def open_findings(self) -> list[Finding]:
        return self.by_status(STATUS_OPEN)

    @property
    def clean(self) -> bool:
        """True when nothing requires attention (exit code 0)."""
        return (
            not self.open_findings
            and not self.expired_baseline
            and not self.unjustified_baseline
            and not self.overdue_baseline
        )


def analyze_paths(
    paths: Iterable[Path],
    root: Path | None = None,
    rules: Iterable[Rule] | None = None,
    jobs: int = 0,
    cache=None,
    only: set[str] | None = None,
) -> AnalysisReport:
    """Run the rules over every Python file under ``paths``.

    Files are analyzed on a thread pool (``jobs`` workers; 0 picks a
    sensible default) but results keep the sorted file order, so the
    report is byte-identical to a serial run — the engine holds itself to
    the determinism bar it enforces.

    ``cache`` is an optional :class:`repro.analysis.cache.ResultCache`
    serving cacheable-rule findings by content hash.  ``only`` restricts
    which files are *checked* to the given root-relative posix paths
    (``--changed-only``); cross-file preparation — ``prepare`` and the
    shared project graph — still sees every collected file, so
    whole-program rules keep their whole-program view.
    """
    root = (root or Path.cwd()).resolve()
    rule_list = list(rules) if rules is not None else build_rules()
    files = collect_files(paths)
    for rule in rule_list:
        rule.prepare(root, files)
    if any(rule.requires_graph for rule in rule_list):
        from repro.analysis.graph import ProjectGraph

        shared_graph = ProjectGraph.build(root, files)
        for rule in rule_list:
            if rule.requires_graph:
                rule.prepare_graph(shared_graph)
    if cache is not None:
        # Prune against the full collection, not the checked subset, so a
        # --changed-only run never evicts entries for unchanged files.
        cache.prune({_relpath(f, root) for f in files})
    if only is not None:
        files = [f for f in files if _relpath(f, root) in only]
    report = AnalysisReport(root=root, files_scanned=len(files))
    if not files:
        return report

    if cache is not None:
        def run_one(path: Path) -> list[Finding]:
            return _analyze_file_cached(path, root, rule_list, cache)
    else:
        def run_one(path: Path) -> list[Finding]:
            return analyze_file(path, root, rule_list)

    workers = jobs if jobs > 0 else min(8, len(files))
    if workers > 1 and len(files) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(run_one, path) for path in files]
            per_file = [future.result() for future in futures]
    else:
        per_file = [run_one(path) for path in files]
    for findings in per_file:
        report.findings.extend(findings)
    return report


def iter_rule_docs() -> Iterator[tuple[str, str, str]]:
    """(rule_id, title, rationale) for every registered rule, sorted."""
    registry = rule_registry()
    for rule_id in sorted(registry):
        cls = registry[rule_id]
        yield rule_id, cls.title, cls.rationale
