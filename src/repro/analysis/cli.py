"""The reprolint command line: ``python -m repro.analysis`` / ``reprolint``.

Exit codes: 0 — clean (every finding suppressed or justified in the
baseline); 1 — open findings, expired baseline entries, or baseline
entries without a real reason; 2 — usage errors (bad path, bad baseline
file, unknown rule, git failure under ``--changed-only``).

Incremental modes: ``--cache FILE`` reuses per-file findings of the
cacheable rules by content hash, and ``--changed-only`` restricts the
checked set to files the git diff (vs ``--diff-base``, default HEAD)
touches plus untracked files — whole-program rules still see the whole
tree, and either mode's output stays byte-identical to a cold full run
over the same checked set.

Baseline deadlines: ``--today YYYY-MM-DD`` enforces the ``expires``
field of baseline entries — overdue entries fail the run.
"""

from __future__ import annotations

import argparse
import inspect
import re
import subprocess
import sys
from pathlib import Path

from repro.analysis.baseline import (
    BaselineError,
    apply_baseline,
    entries_in_scope,
    load_baseline,
    overdue_entries,
    save_baseline,
    updated_baseline,
)
from repro.analysis.cache import ResultCache
from repro.analysis.engine import (
    analyze_paths,
    build_rules,
    iter_rule_docs,
    rule_registry,
)
from repro.analysis.reporters import render_json, render_sarif, render_text

DEFAULT_BASELINE = "reprolint-baseline.json"


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for the reprolint CLI."""
    parser = argparse.ArgumentParser(
        prog="reprolint",
        description=(
            "AST-based static analysis enforcing determinism, stage "
            "contracts, exception contracts and public-API health across "
            "the repro codebase"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to scan (default: src)",
    )
    parser.add_argument(
        "--root",
        default=".",
        help="path findings are reported relative to (default: cwd)",
    )
    parser.add_argument(
        "--baseline",
        default=DEFAULT_BASELINE,
        help=f"baseline file of justified findings (default: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline file entirely",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline from the current findings and exit 0",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text; sarif emits SARIF 2.1.0 "
        "for code-scanning upload)",
    )
    parser.add_argument(
        "--rules",
        metavar="ID[,ID...]",
        help="run only the named rules (default: all registered rules)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=0,
        metavar="N",
        help="worker threads for the file walk (0 = auto)",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="also list suppressed and baselined findings (text format)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "--explain",
        metavar="RULE_ID",
        help="print one rule's documentation (docstring, rationale, "
        "firing example) and exit",
    )
    parser.add_argument(
        "--changed-only",
        action="store_true",
        help="check only files changed vs --diff-base (plus untracked); "
        "cross-file analyses still see the full scanned tree",
    )
    parser.add_argument(
        "--diff-base",
        default="HEAD",
        metavar="REF",
        help="git ref --changed-only diffs against (default: HEAD)",
    )
    parser.add_argument(
        "--cache",
        metavar="FILE",
        help="incremental result cache: reuse per-file findings of "
        "content-only rules when the file's hash is unchanged",
    )
    parser.add_argument(
        "--today",
        metavar="YYYY-MM-DD",
        help="enforce baseline 'expires' deadlines against this date "
        "(CI passes $(date -u +%%F); omitted = deadlines not enforced)",
    )
    return parser


def _explain(rule_id: str) -> int:
    registry = rule_registry()
    cls = registry.get(rule_id)
    if cls is None:
        known = ", ".join(sorted(registry))
        print(
            f"reprolint: error: unknown rule {rule_id!r} (known: {known})",
            file=sys.stderr,
        )
        return 2
    print(f"{cls.rule_id} — {cls.title}")
    doc = inspect.getdoc(cls)
    if doc:
        print()
        print(doc)
    if cls.rationale:
        print()
        print(f"Rationale: {cls.rationale}")
    if cls.example:
        print()
        print("Example (fires the rule):")
        for line in cls.example.strip("\n").splitlines():
            print(f"    {line}")
    return 0


def _git_lines(root: Path, *argv: str) -> list[str] | None:
    """stdout lines of a git command run at ``root``, or None on failure."""
    try:
        proc = subprocess.run(
            ["git", "-C", str(root), *argv],
            capture_output=True,
            text=True,
            check=False,
        )
    except OSError:
        return None
    if proc.returncode != 0:
        return None
    return [line for line in proc.stdout.splitlines() if line.strip()]


def _changed_relpaths(root: Path, diff_base: str) -> set[str] | None:
    """Root-relative posix paths of changed + untracked Python files.

    Git reports paths relative to the repository top level, which may
    sit above ``--root``; both are normalized to root-relative form (a
    changed file outside the root is simply out of scanning scope).
    """
    toplevel = _git_lines(root, "rev-parse", "--show-toplevel")
    if not toplevel:
        return None
    changed = _git_lines(root, "diff", "--name-only", diff_base, "--")
    if changed is None:
        return None
    untracked = _git_lines(
        root, "ls-files", "--others", "--exclude-standard"
    )
    if untracked is None:
        return None
    top = Path(toplevel[0]).resolve()
    out: set[str] = set()
    for name in changed + untracked:
        if not name.endswith(".py"):
            continue
        try:
            out.add((top / name).resolve().relative_to(root).as_posix())
        except ValueError:
            continue
    return out


def _scope_prefixes(paths: list[Path], root: Path) -> list[str] | None:
    """Root-relative prefixes of the scanned paths (None = unscoped)."""
    prefixes = []
    for path in paths:
        try:
            prefixes.append(path.resolve().relative_to(root).as_posix())
        except ValueError:
            return None  # scanning outside the root: don't scope entries
    return prefixes


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id, title, rationale in iter_rule_docs():
            print(f"{rule_id}  {title}")
            print(f"       {rationale}")
        return 0

    if args.explain:
        return _explain(args.explain)

    try:
        rule_ids = (
            [part.strip() for part in args.rules.split(",") if part.strip()]
            if args.rules
            else None
        )
        rules = build_rules(rule_ids)
    except ValueError as exc:
        print(f"reprolint: error: {exc}", file=sys.stderr)
        return 2

    root = Path(args.root).resolve()
    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        names = ", ".join(str(p) for p in missing)
        print(f"reprolint: error: no such path: {names}", file=sys.stderr)
        return 2

    if args.today and not re.fullmatch(r"\d{4}-\d{2}-\d{2}", args.today):
        print(
            f"reprolint: error: --today must be YYYY-MM-DD, "
            f"got {args.today!r}",
            file=sys.stderr,
        )
        return 2

    only = None
    if args.changed_only:
        only = _changed_relpaths(root, args.diff_base)
        if only is None:
            print(
                "reprolint: error: --changed-only needs a git checkout "
                f"and a resolvable --diff-base ({args.diff_base!r})",
                file=sys.stderr,
            )
            return 2

    cache = None
    if args.cache:
        cache = ResultCache.load(Path(args.cache))

    report = analyze_paths(
        paths, root=root, rules=rules, jobs=args.jobs, cache=cache, only=only
    )
    if cache is not None:
        cache.save()

    baseline_path = Path(args.baseline)
    entries: list = []
    if not args.no_baseline:
        try:
            entries = load_baseline(baseline_path)
        except BaselineError as exc:
            print(f"reprolint: error: {exc}", file=sys.stderr)
            return 2
    # A partial scan (subset paths, --changed-only, --rules) must leave
    # baseline entries it cannot see alone: they neither match nor expire.
    in_scope, out_of_scope = entries_in_scope(
        entries,
        _scope_prefixes(paths, root),
        only,
        {rule.rule_id for rule in rules},
    )

    if args.update_baseline:
        fresh = updated_baseline(report, in_scope) + out_of_scope
        save_baseline(baseline_path, fresh)
        print(
            f"reprolint: baseline {baseline_path} updated "
            f"({len(fresh)} entries)"
        )
        return 0

    apply_baseline(report, in_scope)

    if args.today:
        # An entry that no longer matches is already in expired_baseline;
        # report it once, not twice.
        already = {
            (e["rule"], e["path"], e["snippet"])
            for e in report.expired_baseline
        }
        report.overdue_baseline = [
            entry.to_json()
            for entry in overdue_entries(in_scope, args.today)
            if entry.key() not in already
        ]

    if args.format == "json":
        print(render_json(report))
    elif args.format == "sarif":
        print(render_sarif(report))
    else:
        print(render_text(report, verbose=args.verbose))
    return 0 if report.clean else 1
