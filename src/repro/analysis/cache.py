"""Incremental result cache: per-file findings keyed by content hash.

Same idea as :class:`repro.core.cache.PreprocessCache`, applied to lint
results: hashing the *content* (not the mtime) means a cache entry is
valid exactly when the bytes that produced it are unchanged — touching a
file without editing it stays a hit, and any edit is a guaranteed miss.

Only rules marked ``cacheable`` participate: those whose findings depend
on nothing but the one file's content (the determinism family D101–D105,
plus parse errors).  Whole-program rules (the graph/dataflow family,
stage contracts) re-run every time — their findings can change
when *other* files change, so caching them by single-file hash would be
wrong.  The engine merges cached and fresh findings back into one sorted
list, which is why a warm run is byte-identical to a cold one.

The cache file is itself written deterministically (sorted keys, sorted
entries) so it can live in a workspace without churning diffs.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.engine import Finding

#: Bumped whenever the entry layout (or finding schema) changes; stale
#: schema versions are discarded wholesale rather than migrated.
CACHE_SCHEMA_VERSION = 1


def content_hash(source: str) -> str:
    """Hex digest identifying one file's content."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


@dataclass
class ResultCache:
    """Content-hash-keyed store of per-file cacheable-rule findings."""

    path: Path | None = None
    entries: dict[str, dict] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @classmethod
    def load(cls, path: Path) -> "ResultCache":
        """Read a cache file; malformed or version-skewed files mean empty."""
        cache = cls(path=path)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return cache
        if (
            not isinstance(data, dict)
            or data.get("schema_version") != CACHE_SCHEMA_VERSION
            or not isinstance(data.get("entries"), dict)
        ):
            return cache
        cache.entries = data["entries"]
        return cache

    def lookup(
        self, relpath: str, digest: str, rule_ids: list[str]
    ) -> tuple[list[Finding], bool] | None:
        """Cached (findings, parse_failed) for a file, or None on miss.

        A hit requires the same content hash *and* the same cacheable
        rule-id set the entry was computed under.
        """
        with self._lock:
            entry = self.entries.get(relpath)
            if (
                not isinstance(entry, dict)
                or entry.get("hash") != digest
                or entry.get("rules") != sorted(rule_ids)
            ):
                self.misses += 1
                return None
            try:
                findings = [
                    Finding(**item) for item in entry.get("findings", [])
                ]
            except TypeError:
                self.misses += 1
                return None
            self.hits += 1
            return findings, bool(entry.get("parse_failed"))

    def store(
        self,
        relpath: str,
        digest: str,
        rule_ids: list[str],
        findings: list[Finding],
        parse_failed: bool = False,
    ) -> None:
        """Record the cacheable findings computed for one file version."""
        with self._lock:
            self.entries[relpath] = {
                "hash": digest,
                "rules": sorted(rule_ids),
                "parse_failed": parse_failed,
                "findings": [f.to_json() for f in findings],
            }

    def prune(self, keep: set[str]) -> None:
        """Drop entries for files no longer part of the scan."""
        with self._lock:
            self.entries = {
                relpath: entry
                for relpath, entry in self.entries.items()
                if relpath in keep
            }

    def save(self) -> None:
        """Persist deterministically (sorted entries, sorted keys)."""
        if self.path is None:
            return
        document = {
            "schema_version": CACHE_SCHEMA_VERSION,
            "entries": {
                relpath: self.entries[relpath]
                for relpath in sorted(self.entries)
            },
        }
        self.path.write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
