"""Upward propagation of annotations in the DOM.

Per the paper, an annotation assigned to a node propagates to its ancestors
as long as those ancestors sit on a linear path (single child) or all their
children carry the same annotation.  This lets annotations reach the tag
level at which the template repeats (e.g. the ``<div>`` wrapping an artist
name), where the wrapper algorithm consumes them.
"""

from __future__ import annotations

from repro.htmlkit.dom import Element, Node, Text

#: An element with its content-bearing children, as propagation reads them.
PlanStep = tuple[Element, list[Node]]


def propagation_plan(root: Element) -> list[PlanStep]:
    """Every element under ``root`` (itself included) with the children
    that carry content: elements and non-empty text nodes.

    The order is reverse pre-order, so each element comes after all of
    its descendants.  The plan depends only on the DOM's shape and text,
    so a page whose DOM does not change can reuse it for every pass.
    """
    plan: list[PlanStep] = []
    for element in root.iter_elements():
        children = [
            child
            for child in element.children
            if isinstance(child, Element) or child.text_content()
        ]
        plan.append((element, children))
    plan.reverse()
    return plan


def propagate_annotations(root: Element, plan: list[PlanStep] | None = None) -> None:
    """Propagate annotations upward throughout the subtree of ``root``.

    Bottom-up pass: an element inherits annotation ``t`` if it has exactly
    one content-bearing child annotated ``t`` (linear path), or if *all*
    its content-bearing children are annotated ``t``.  ``plan``, when
    given, must be :func:`propagation_plan` of ``root``.
    """
    if plan is None:
        plan = propagation_plan(root)
    for element, children in plan:
        if not children:
            continue
        common = children[0].annotations
        for child in children[1:]:
            common = common & child.annotations
            if not common:
                break
        element.annotations |= common


def clear_annotations(root: Element) -> None:
    """Remove every annotation in the subtree (used between re-runs)."""
    for node in root.iter():
        if isinstance(node, (Element, Text)):
            node.annotations.clear()
