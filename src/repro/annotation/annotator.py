"""Annotating DOM trees with entity-type matches.

A text node whose content matches a recognizer gets that type name added
to its ``annotations`` set (the paper's ``<div type="Artist">`` marking),
and the annotation propagates upward per
:mod:`repro.annotation.propagation`.  Multiple annotations per node are
allowed — conflicts are meaningful downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.annotation.propagation import (
    PlanStep,
    propagate_annotations,
    propagation_plan,
)
from repro.htmlkit.dom import Element, Text
from repro.recognizers.base import Match, Recognizer, prune_overlaps


@dataclass(frozen=True)
class PageScan:
    """What annotation reads of a DOM subtree, collected once.

    ``texts`` holds the non-empty text nodes with their collapsed text, in
    document order; ``elements`` the elements in pre-order (the subtree
    root first); ``plan`` the subtree's :func:`propagation_plan`.
    """

    texts: list[tuple[Text, str]]
    elements: list[Element]
    plan: list[PlanStep]

    @classmethod
    def of(cls, root: Element) -> "PageScan":
        """Scan the subtree of ``root``."""
        texts: list[tuple[Text, str]] = []
        elements: list[Element] = []
        for node in root.iter():
            if isinstance(node, Element):
                elements.append(node)
                continue
            text = node.text_content()
            if text:
                texts.append((node, text))
        return cls(texts=texts, elements=elements, plan=propagation_plan(root))


@dataclass
class AnnotatedPage:
    """One page plus its annotation bookkeeping.

    ``matches_by_type`` records, per entity type, the concrete matches
    found anywhere on the page; ``scores`` is filled by the sampling stage.
    ``scan`` is taken on first use and reused by every annotation round:
    annotations may change between rounds, the DOM's shape and text may
    not.
    """

    root: Element
    index: int = -1
    matches_by_type: dict[str, list[Match]] = field(default_factory=dict)
    scores: dict[str, float] = field(default_factory=dict)

    @cached_property
    def scan(self) -> PageScan:
        """The page's scan, taken on first use."""
        return PageScan.of(self.root)

    def annotation_count(self, type_name: str | None = None) -> int:
        """Total matches (for one type, or across all types)."""
        if type_name is not None:
            return len(self.matches_by_type.get(type_name, []))
        return sum(len(matches) for matches in self.matches_by_type.values())

    def annotated_types(self) -> set[str]:
        return {name for name, matches in self.matches_by_type.items() if matches}


class PageAnnotator:
    """Runs recognizers over a page's text nodes and annotates the DOM.

    ``full_node_bonus`` raises confidence in the bookkeeping when a match
    covers an entire text node — such matches are strong signals that the
    node is a data slot of the template (the paper mentions value/textual
    rules of this form).
    """

    def __init__(self, full_node_bonus: float = 0.1):
        self._full_node_bonus = full_node_bonus

    def annotate(
        self,
        page: AnnotatedPage,
        recognizer: Recognizer,
        within: Element | None = None,
    ) -> list[Match]:
        """Apply one recognizer to a page; returns the matches found.

        ``within`` restricts the scan to a subtree (the selected central
        block); by default the whole page is scanned.
        """
        if within is None or within is page.root:
            scope, scan = page.root, page.scan
        else:
            scope, scan = within, PageScan.of(within)
        found: list[Match] = []
        for text_node, text in scan.texts:
            matches = prune_overlaps(recognizer.find(text))
            if not matches:
                continue
            text_node.annotations.add(recognizer.type_name)
            parent = text_node.parent
            if parent is not None:
                parent.annotations.add(recognizer.type_name)
            for match in matches:
                confidence = match.confidence
                if match.length >= len(text):
                    confidence = min(1.0, confidence + self._full_node_bonus)
                found.append(
                    Match(
                        start=match.start,
                        end=match.end,
                        value=match.value,
                        type_name=match.type_name,
                        confidence=confidence,
                    )
                )
        page.matches_by_type.setdefault(recognizer.type_name, []).extend(found)
        propagate_annotations(scope, scan.plan)
        return found


def annotate_page(
    root: Element,
    recognizers: list[Recognizer],
    index: int = -1,
) -> AnnotatedPage:
    """Annotate a page with every recognizer at once (convenience)."""
    page = AnnotatedPage(root=root, index=index)
    annotator = PageAnnotator()
    for recognizer in recognizers:
        annotator.annotate(page, recognizer)
    return page
