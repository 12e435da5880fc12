"""Content-hash-keyed memoization of tidied/cleaned page trees.

Tidying (tag-soup repair) and cleaning are deterministic functions of the
raw HTML, yet they dominate pre-processing cost and the monolithic runner
re-ran them on every enrichment pass and every repeated benchmark run.
:class:`PreprocessCache` computes each page's tree once, keyed by a hash
of the raw bytes, and hands out a fresh deep copy on every request — the
annotation stage mutates trees in place, so cached originals must never
escape.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass

from repro.htmlkit.clean import clean_tree
from repro.htmlkit.dom import Element, clone
from repro.htmlkit.tidy import tidy


@dataclass
class CachedPages:
    """Outcome of one :meth:`PreprocessCache.clean_pages` call."""

    pages: list[Element]
    hits: int = 0
    misses: int = 0


class PreprocessCache:
    """LRU cache of cleaned page trees, keyed by raw-content hash.

    One cache serves one process: the process backend gives every worker
    its own, and nothing shares a cache across threads.  ``misses``
    counts the tidy/clean computations that populated the cache, so
    ``hits + misses`` accounts for every request.
    """

    def __init__(self, max_entries: int = 512):
        self.max_entries = max(1, max_entries)
        self._entries: OrderedDict[str, Element] = OrderedDict()
        #: Lifetime hit/miss totals, for diagnostics.
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key_for(raw: str) -> str:
        """Content-hash key of one raw HTML page."""
        return hashlib.sha256(raw.encode("utf-8", "surrogatepass")).hexdigest()

    def clean_page(self, raw: str) -> Element:
        """The tidied+cleaned tree for ``raw``, always a fresh mutable copy."""
        tree, __ = self._clean_one(raw)
        return tree

    def clean_pages(self, raw_pages: list[str]) -> CachedPages:
        """Clean many pages at once, reporting per-call hit/miss counts."""
        outcome = CachedPages(pages=[])
        for raw in raw_pages:
            tree, hit = self._clean_one(raw)
            outcome.pages.append(tree)
            if hit:
                outcome.hits += 1
            else:
                outcome.misses += 1
        return outcome

    def _clean_one(self, raw: str) -> tuple[Element, bool]:
        key = self.key_for(raw)
        tree = self._entries.get(key)
        hit = tree is not None
        if hit:
            self._entries.move_to_end(key)
            self.hits += 1
        else:
            tree = clean_tree(tidy(raw))
            self.misses += 1
            self._entries[key] = tree
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
        copy = clone(tree)
        assert isinstance(copy, Element)
        return copy, hit

    def clear(self) -> None:
        """Drop every cached tree (hit/miss totals are kept)."""
        self._entries.clear()

    def __len__(self) -> int:
        """Number of trees currently cached."""
        return len(self._entries)

    def stats(self) -> dict[str, int]:
        """Lifetime ``hits``/``misses``/``entries`` snapshot."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._entries),
        }
