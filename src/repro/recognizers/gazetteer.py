"""Dictionary-based (isInstanceOf) recognizers.

A gazetteer maps instance surface forms to confidences.  Matching is done
over word boundaries with a longest-match-first strategy, using an index
from each entry's first word to the entries starting with it, so a scan
costs time in the page length (plus the few entries sharing each page
word), not in the dictionary size.

The index is derived state kept beside the entries: the first
:meth:`GazetteerRecognizer.find` after a change builds it, and adding a
new entry or removing one drops it.  Raising an existing
entry's confidence (paper Eq. 4) leaves it in place, since matches read
confidences from the entries at scan time.  An unpickled gazetteer
drops whatever index came with it and rebuilds it on its first scan.
"""

from __future__ import annotations

import re
from typing import Iterable, Mapping

from repro.recognizers.base import Match
from repro.utils.text import collapse_whitespace

#: A page word: where an entry may start, and what the index is keyed by.
_WORD_RE = re.compile(r"[\w$€£]+")


def _fold_case(text: str) -> tuple[str, list[int] | None]:
    """``text.lower()``, plus each lowered character's offset in ``text``.

    The offsets are ``None`` when lowering keeps the length (then every
    character maps to itself).  A few characters lower to two (``"İ"``
    becomes ``"i"`` plus a combining dot), shifting everything after them.
    """
    folded = text.lower()
    if len(folded) == len(text):
        return folded, None
    return folded, [i for i, char in enumerate(text) for __ in char.lower()]


class GazetteerRecognizer:
    """A recognizer backed by a dictionary of instances with confidences.

    ``selectivity`` defaults to the paper's intuition for open types: a
    dictionary with few, long, distinctive entries is highly selective; a
    huge one of short strings is not.  It can be overridden.
    """

    def __init__(
        self,
        type_name: str,
        entries: Mapping[str, float] | Iterable[str],
        selectivity: float | None = None,
        case_sensitive: bool = False,
    ):
        if not isinstance(entries, Mapping):
            entries = {entry: 1.0 for entry in entries}
        self._type_name = type_name
        self._case_sensitive = case_sensitive
        self._entries: dict[str, float] = {}
        self._surface: dict[str, str] = {}
        #: First word -> keys starting with it, longest first; see the
        #: module docstring for when it is built and dropped.
        self._index: dict[str, list[str]] | None = None
        for value, confidence in entries.items():
            self.add(value, confidence)
        self._explicit_selectivity = selectivity

    def __setstate__(self, state: dict[str, object]) -> None:
        """Unpickle the entries; the index is rebuilt on the first scan."""
        self.__dict__.update(state)
        self._index = None

    # -- dictionary management -------------------------------------------

    def _key(self, value: str) -> str:
        """Dictionary key of ``value``: whitespace collapsed, case folded
        unless the gazetteer is case-sensitive."""
        surface = collapse_whitespace(value)
        return surface if self._case_sensitive else surface.lower()

    def add(self, value: str, confidence: float = 1.0) -> None:
        """Add (or raise the confidence of) one dictionary entry."""
        key = self._key(value)
        if not key:
            return
        if confidence >= self._entries.get(key, 0.0):
            if key not in self._entries:
                self._index = None
            self._entries[key] = confidence
            self._surface[key] = collapse_whitespace(value)

    def remove(self, value: str) -> None:
        """Drop an entry if present."""
        key = self._key(value)
        if key in self._entries:
            del self._entries[key]
            del self._surface[key]
            self._index = None

    def entries(self) -> dict[str, float]:
        """Surface form -> confidence for every entry."""
        return {self._surface[key]: conf for key, conf in self._entries.items()}

    def confidence_of(self, value: str) -> float:
        """Confidence of ``value`` (0.0 if absent)."""
        return self._entries.get(self._key(value), 0.0)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, value: str) -> bool:
        return self._key(value) in self._entries

    # -- Recognizer protocol ----------------------------------------------

    @property
    def type_name(self) -> str:
        return self._type_name

    def _first_word_index(self) -> dict[str, list[str]]:
        """The index of the current entries, built if it was dropped.

        Keys not starting with a word are left out: a match starts at a
        page word, so they could never match.
        """
        if self._index is None:
            index: dict[str, list[str]] = {}
            for key in self._entries:
                first = _WORD_RE.match(key)
                if first is not None:
                    index.setdefault(first.group(), []).append(key)
            for keys in index.values():
                keys.sort(key=len, reverse=True)
            self._index = index
        return self._index

    def find(self, text: str) -> list[Match]:
        """All dictionary hits in ``text``, longest match first per offset.

        Offsets and values index ``text`` itself, also where case folding
        changes its length.
        """
        if not self._entries:
            return []
        if self._case_sensitive:
            haystack, origin = text, None
        else:
            haystack, origin = _fold_case(text)
        index = self._first_word_index()
        length = len(haystack)
        matches: list[Match] = []
        taken_until = -1
        for word in _WORD_RE.finditer(haystack):
            start = word.start()
            if start < taken_until:
                continue  # inside a previous (longer) match of this type
            candidates = index.get(word.group())
            if candidates is None:
                continue
            for key in candidates:  # longest first: the first hit wins
                end = start + len(key)
                if not haystack.startswith(key, start):
                    continue
                # Word-boundary check on the right side.
                if end < length and (haystack[end].isalnum() or haystack[end] == "_"):
                    continue
                break
            else:
                continue
            taken_until = end
            if origin is not None:
                start, end = origin[start], origin[end - 1] + 1
            matches.append(
                Match(
                    start=start,
                    end=end,
                    value=text[start:end],
                    type_name=self._type_name,
                    confidence=self._entries[key],
                )
            )
        return matches

    def accepts(self, text: str) -> bool:
        return text.strip() != "" and (text.strip() in self)

    def selectivity_weight(self) -> float:
        """Eq. 2-style estimate: long distinctive entries are selective."""
        if self._explicit_selectivity is not None:
            return self._explicit_selectivity
        if not self._entries:
            return 0.0
        average_length = sum(len(key) for key in self._entries) / len(self._entries)
        # Long multi-word entries are distinctive; huge dictionaries less so.
        size_penalty = 1.0 + len(self._entries) / 10_000.0
        return average_length / (8.0 * size_penalty)
