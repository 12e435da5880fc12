"""Differential tests for Algorithm 1's per-page and per-dictionary caches.

Annotation keeps three pieces of derived state instead of rebuilding them
on every call: the gazetteer's first-word index, each page's scan (text
nodes, elements, propagation plan) and the node -> block-signature map.
The references below are naive transliterations of the code paths that
rebuilt them per call; any divergence from them is a bug in the cache,
never a tuning matter.
"""

import pickle
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.annotation.annotator import AnnotatedPage, PageAnnotator, PageScan
from repro.annotation.propagation import propagate_annotations
from repro.annotation.sampling import _enclosing_block_signatures
from repro.htmlkit.dom import Element, Text, clone
from repro.recognizers.base import Match, prune_overlaps
from repro.recognizers.gazetteer import GazetteerRecognizer
from repro.recognizers.predefined import predefined_recognizer
from repro.utils.text import collapse_whitespace
from repro.vision.boxes import Rect
from repro.vision.segmentation import Block, BlockTree, segment_page
from repro.wrapper.enrichment import enrich_dictionary
from tests.conftest import make_source, prepared_pages
from tests.test_core_enrichment_loop import make_runner
from tests.test_wrapper_enrichment import make_wrapper

# -- naive references ------------------------------------------------------


def reference_find(entries, text, type_name, case_sensitive):
    """The rebuild-per-call scan: first-word index built from ``entries``.

    Valid where case folding keeps ``text``'s length (the old offsets were
    wrong elsewhere; see the gazetteer regression tests).
    """
    if not entries:
        return []
    haystack = text if case_sensitive else text.lower()
    word_re = re.compile(r"[\w$€£]+")
    first_token_index = {}
    for key in entries:
        first = word_re.search(key)
        if first is None:
            continue
        first_token_index.setdefault(first.group(0), []).append(key)
    matches = []
    taken_until = -1
    for word in word_re.finditer(haystack):
        candidates = first_token_index.get(word.group(0))
        if not candidates:
            continue
        best = None
        for key in candidates:
            end = word.start() + len(key)
            if haystack[word.start() : end] != key:
                continue
            if end < len(haystack) and (
                haystack[end].isalnum() or haystack[end] == "_"
            ):
                continue
            if best is None or end > best[0]:
                best = (end, key)
        if best is None:
            continue
        end, key = best
        if word.start() < taken_until:
            continue
        taken_until = end
        matches.append(
            Match(
                start=word.start(),
                end=end,
                value=text[word.start() : end],
                type_name=type_name,
                confidence=entries[key],
            )
        )
    return matches


def reference_key(value, case_sensitive):
    surface = collapse_whitespace(value)
    return surface if case_sensitive else surface.lower()


def reference_propagate(root):
    """The recursive post-order propagation, re-collapsing text per call."""

    def visit(element):
        for child in element.children:
            if isinstance(child, Element):
                visit(child)
        child_sets = [
            child.annotations
            for child in element.children
            if isinstance(child, Element) or child.text_content()
        ]
        if not child_sets:
            return
        if len(child_sets) == 1:
            element.annotations |= child_sets[0]
            return
        common = set(child_sets[0])
        for annotations in child_sets[1:]:
            common &= annotations
            if not common:
                return
        element.annotations |= common

    visit(root)


def reference_annotate(root, recognizer, full_node_bonus=0.1):
    """One round over a fresh traversal of ``root``."""
    found = []
    for text_node in root.iter_text_nodes():
        text = text_node.text_content()
        if not text:
            continue
        matches = prune_overlaps(recognizer.find(text))
        if not matches:
            continue
        text_node.annotations.add(recognizer.type_name)
        if text_node.parent is not None:
            text_node.parent.annotations.add(recognizer.type_name)
        for match in matches:
            confidence = match.confidence
            if match.length >= len(text):
                confidence = min(1.0, confidence + full_node_bonus)
            found.append((match.start, match.end, match.value, confidence))
    reference_propagate(root)
    return found


def reference_block_signatures(block_trees):
    """The nested-overwrite map: every element of every block, deepest last."""
    mapping = {}
    for tree in block_trees:
        for block in tree.all_blocks():
            for node in block.element.iter_elements():
                mapping[id(node)] = block.signature
    return mapping


# -- strategies ------------------------------------------------------------

_WORDS = ["muse", "Muse", "new", "York", "new york", "a", "b c", "São",
          "x_y", "$5", "Ünter", "the band", "(live)", "ÉTÉ"]
_SEPARATORS = [" ", "  ", ", ", "-", "", "\n", "_", "."]


@st.composite
def texts(draw):
    words = draw(st.lists(st.sampled_from(_WORDS), max_size=8))
    out = ""
    for word in words:
        out += draw(st.sampled_from(_SEPARATORS)) + word
    return out


_confidences = st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9, 1.0])
_operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.sampled_from(_WORDS + ["New  York"]),
                  _confidences),
        st.tuples(st.just("remove"), st.sampled_from(_WORDS + ["New  York"])),
        st.tuples(st.just("find"), texts()),
    ),
    max_size=25,
)


@st.composite
def doms(draw, depth=0):
    """A random element tree with text leaves and varying attributes."""
    tag = draw(st.sampled_from(["div", "span", "li", "ul", "p"]))
    attributes = draw(
        st.dictionaries(st.sampled_from(["id", "class"]),
                        st.sampled_from(["a", "b"]), max_size=1)
    )
    element = Element(tag, attributes)
    if depth < 4:
        for child in draw(st.lists(st.booleans(), max_size=4)):
            if child:
                element.append(draw(doms(depth=depth + 1)))
            else:
                element.append(
                    Text(draw(st.sampled_from(["", "  ", "Muse", " new  york ",
                                               "the band", "May 11, 2010"])))
                )
    return element


def block_tree_over(root, chosen):
    """Blocks on ``root`` and the ``chosen`` elements, nested as in the DOM."""
    blocks = {id(root): Block(element=root, rect=Rect(0, 0, 1, 1))}

    def attach(element, parent_block):
        for child in element.children:
            if not isinstance(child, Element):
                continue
            block = parent_block
            if id(child) in chosen:
                block = Block(element=child, rect=Rect(0, 0, 1, 1))
                parent_block.children.append(block)
            attach(child, block)

    attach(root, blocks[id(root)])
    return BlockTree(root=blocks[id(root)], layout=None)


def snapshot(root):
    return [sorted(node.annotations) for node in root.iter()]


# -- gazetteer index -------------------------------------------------------


class TestGazetteerIndex:
    @settings(max_examples=300, deadline=None)
    @given(st.booleans(), _operations)
    def test_matches_rebuild_per_call(self, case_sensitive, operations):
        # Finds interleave with edits, so a stale index (a new key not
        # yet indexed, a removed key still indexed) shows as a diff.
        gazetteer = GazetteerRecognizer("t", [], case_sensitive=case_sensitive)
        model = {}
        for operation in operations:
            if operation[0] == "add":
                __, value, confidence = operation
                gazetteer.add(value, confidence)
                key = reference_key(value, case_sensitive)
                if confidence >= model.get(key, 0.0):
                    model[key] = confidence
            elif operation[0] == "remove":
                gazetteer.remove(operation[1])
                model.pop(reference_key(operation[1], case_sensitive), None)
            else:
                text = operation[1]
                assert gazetteer.find(text) == reference_find(
                    model, text, "t", case_sensitive
                )
        assert len(gazetteer) == len(model)

    def test_confidence_raise_seen_without_rebuild(self):
        gazetteer = GazetteerRecognizer("t", {"Muse": 0.4})
        assert gazetteer.find("Muse")[0].confidence == 0.4
        gazetteer.add("muse", 0.8)
        assert gazetteer.find("Muse")[0].confidence == 0.8

    def test_unpickled_copy_rebuilds_its_index(self):
        gazetteer = GazetteerRecognizer("t", ["Muse"])
        gazetteer.find("Muse")  # builds the index
        restored = pickle.loads(pickle.dumps(gazetteer))
        assert restored._index is None
        restored.add("Coldplay")
        assert [m.value for m in restored.find("Muse, Coldplay")] == [
            "Muse", "Coldplay"
        ]
        assert [m.value for m in gazetteer.find("Muse, Coldplay")] == ["Muse"]


class TestEnrichmentInvalidation:
    TEXT = "Muse and Coldplay, then Radiohead"

    def test_next_find_sees_eq4_additions_and_raises(self):
        gazetteer = GazetteerRecognizer("artist", {"Muse": 0.5})
        assert [m.value for m in gazetteer.find(self.TEXT)] == ["Muse"]
        result = enrich_dictionary(
            gazetteer, ["Muse", "Coldplay", "Radiohead"], make_wrapper()
        )
        assert set(result.added) == {"Coldplay", "Radiohead"}
        assert "Muse" in result.updated
        found = {m.value: m.confidence for m in gazetteer.find(self.TEXT)}
        assert found == {
            "Muse": result.updated["Muse"],
            "Coldplay": result.added["Coldplay"],
            "Radiohead": result.added["Radiohead"],
        }

    def test_every_find_of_an_enriching_run_matches_the_reference(
        self, monkeypatch
    ):
        # Two enrichment passes: pass 1's Eq. 4 stage grows the gazetteers
        # the runner keeps, pass 2 annotates with them through the same,
        # already indexed recognizers.
        source, domain = make_source("albums", total_objects=50)
        runner = make_runner(domain, source, passes=2)
        sizes = {name: [] for name in runner.gazetteers()}
        original_find = GazetteerRecognizer.find

        def checked_find(self, text):
            found = original_find(self, text)
            if len(text.lower()) == len(text):
                assert found == reference_find(
                    self._entries, text, self.type_name, self._case_sensitive
                )
            sizes[self.type_name].append(len(self))
            return found

        monkeypatch.setattr(GazetteerRecognizer, "find", checked_find)
        result = runner.run_source(source.spec.name, source.pages)
        assert result.ok
        grown = [name for name, seen in sizes.items() if seen and seen[-1] > seen[0]]
        assert grown, "enrichment never added an entry between scans"


# -- page scans ------------------------------------------------------------


class TestPageScan:
    @settings(max_examples=200, deadline=None)
    @given(doms())
    def test_matches_fresh_traversal(self, root):
        scan = PageScan.of(root)
        assert scan.texts == [
            (node, node.text_content())
            for node in root.iter_text_nodes()
            if node.text_content()
        ]
        assert scan.elements == list(root.iter_elements())

    @settings(max_examples=150, deadline=None)
    @given(doms())
    def test_rounds_annotate_like_fresh_traversals(self, root):
        reference_root = clone(root)
        page = AnnotatedPage(root=root)
        annotator = PageAnnotator()
        recognizers = [
            GazetteerRecognizer("artist", ["Muse", "the band"]),
            GazetteerRecognizer("city", ["New York"]),
            predefined_recognizer("date", type_name="date"),
        ]
        for recognizer in recognizers:
            found = annotator.annotate(page, recognizer)
            expected = reference_annotate(reference_root, recognizer)
            assert [
                (m.start, m.end, m.value, m.confidence) for m in found
            ] == expected
            assert snapshot(root) == snapshot(reference_root)

    def test_scan_is_taken_once_per_page(self):
        page = AnnotatedPage(root=Element("div", children=[Text("Muse")]))
        annotator = PageAnnotator()
        annotator.annotate(page, GazetteerRecognizer("a", ["Muse"]))
        scan = page.scan
        annotator.annotate(page, GazetteerRecognizer("b", ["Muse"]))
        assert page.scan is scan

    @settings(max_examples=100, deadline=None)
    @given(doms())
    def test_propagation_plan_matches_recursive_pass(self, root):
        for node in root.iter():
            if isinstance(node, Text) and "Muse" in node.text:
                node.annotations.add("artist")
        reference_root = clone(root)
        propagate_annotations(root)
        reference_propagate(reference_root)
        assert snapshot(root) == snapshot(reference_root)


# -- block signatures ------------------------------------------------------


class TestBlockSignatures:
    @settings(max_examples=200, deadline=None)
    @given(doms(), st.data())
    def test_matches_nested_overwrite(self, root, data):
        elements = list(root.iter_elements())[1:]
        chosen = {
            id(element)
            for element in elements
            if data.draw(st.booleans())
        }
        trees = [block_tree_over(root, chosen)]
        assert _enclosing_block_signatures([], trees) == (
            reference_block_signatures(trees)
        )

    def test_matches_nested_overwrite_on_segmented_pages(self):
        source, __ = make_source("concerts", total_objects=40)
        pages = prepared_pages(source)[:4]
        trees = [segment_page(page) for page in pages]
        assert any(len(tree.all_blocks()) > 2 for tree in trees)
        assert _enclosing_block_signatures([], trees) == (
            reference_block_signatures(trees)
        )
