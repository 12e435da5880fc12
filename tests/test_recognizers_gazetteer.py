"""Tests for gazetteer (isInstanceOf) recognizers."""

from hypothesis import given
from hypothesis import strategies as st

from repro.recognizers.gazetteer import GazetteerRecognizer


class TestDictionary:
    def test_add_and_contains(self):
        gazetteer = GazetteerRecognizer("artist", [])
        gazetteer.add("Metallica", 0.9)
        assert "Metallica" in gazetteer
        assert gazetteer.confidence_of("Metallica") == 0.9

    def test_case_insensitive_by_default(self):
        gazetteer = GazetteerRecognizer("artist", ["Metallica"])
        assert "metallica" in gazetteer
        assert "METALLICA" in gazetteer

    def test_case_sensitive_mode(self):
        gazetteer = GazetteerRecognizer("artist", ["Metallica"], case_sensitive=True)
        assert "metallica" not in gazetteer

    def test_add_keeps_higher_confidence(self):
        gazetteer = GazetteerRecognizer("t", {})
        gazetteer.add("X", 0.9)
        gazetteer.add("X", 0.2)
        assert gazetteer.confidence_of("X") == 0.9

    def test_remove(self):
        gazetteer = GazetteerRecognizer("t", ["A"])
        gazetteer.remove("A")
        assert len(gazetteer) == 0

    def test_whitespace_normalized(self):
        gazetteer = GazetteerRecognizer("t", ["Madison   Square  Garden"])
        assert "Madison Square Garden" in gazetteer

    def test_empty_entries_skipped(self):
        gazetteer = GazetteerRecognizer("t", ["", "   "])
        assert len(gazetteer) == 0

    def test_case_sensitive_keys_collapse_whitespace(self):
        # remove/contains/confidence_of once skipped the collapse that add
        # applies, so "New  York" missed the stored "New York".
        gazetteer = GazetteerRecognizer(
            "city", {"New York": 0.7}, case_sensitive=True
        )
        assert "New  York" in gazetteer
        assert gazetteer.confidence_of(" New\tYork ") == 0.7
        gazetteer.remove("New  York")
        assert "New York" not in gazetteer
        assert len(gazetteer) == 0

    def test_mapping_input_with_confidences(self):
        gazetteer = GazetteerRecognizer("t", {"A": 0.5, "B": 0.8})
        assert gazetteer.entries() == {"A": 0.5, "B": 0.8}


class TestFind:
    def test_finds_single_word(self):
        gazetteer = GazetteerRecognizer("artist", ["Muse"])
        (match,) = gazetteer.find("Tonight Muse performs")
        assert (match.start, match.end, match.value) == (8, 12, "Muse")

    def test_finds_multiword_longest(self):
        gazetteer = GazetteerRecognizer("venue", ["Garden", "Madison Square Garden"])
        matches = gazetteer.find("at Madison Square Garden tonight")
        assert [m.value for m in matches] == ["Madison Square Garden"]

    def test_word_boundary_respected(self):
        gazetteer = GazetteerRecognizer("artist", ["Muse"])
        assert gazetteer.find("Museum hours") == []

    def test_multiple_occurrences(self):
        gazetteer = GazetteerRecognizer("artist", ["Muse"])
        assert len(gazetteer.find("Muse opened for Muse")) == 2

    def test_empty_dictionary(self):
        gazetteer = GazetteerRecognizer("t", [])
        assert gazetteer.find("anything at all") == []

    def test_confidence_on_matches(self):
        gazetteer = GazetteerRecognizer("t", {"Muse": 0.7})
        assert gazetteer.find("Muse")[0].confidence == 0.7

    def test_original_surface_form_returned(self):
        gazetteer = GazetteerRecognizer("t", ["muse"])
        (match,) = gazetteer.find("MUSE live")
        assert match.value == "MUSE"  # value from the page text, not the dict

    def test_offsets_index_the_original_text(self):
        # "İ" lowers to two characters; offsets into text.lower() used to
        # shift every later match one character right.
        gazetteer = GazetteerRecognizer("city", ["istanbul", "xi"])
        text = "xİ istanbul"
        matches = gazetteer.find(text)
        assert [(m.start, m.end, m.value) for m in matches] == [
            (0, 2, "xİ"),
            (3, 11, "istanbul"),
        ]
        assert all(text[m.start : m.end] == m.value for m in matches)

    def test_accepts(self):
        gazetteer = GazetteerRecognizer("t", ["Muse"])
        assert gazetteer.accepts("Muse")
        assert gazetteer.accepts("  Muse ")
        assert not gazetteer.accepts("Muse live")

    @given(st.lists(st.sampled_from(["Muse", "Coldplay", "Radiohead"]), max_size=5))
    def test_every_mention_found(self, names):
        gazetteer = GazetteerRecognizer("artist", ["Muse", "Coldplay", "Radiohead"])
        text = " and ".join(names)
        assert len(gazetteer.find(text)) == len(names)


class TestSelectivity:
    def test_empty_dictionary_zero(self):
        assert GazetteerRecognizer("t", []).selectivity_weight() == 0.0

    def test_longer_entries_more_selective(self):
        short = GazetteerRecognizer("a", ["ab", "cd"])
        long = GazetteerRecognizer("b", ["Something Quite Long Indeed"] * 2)
        assert long.selectivity_weight() > short.selectivity_weight()

    def test_explicit_override(self):
        gazetteer = GazetteerRecognizer("t", ["x"], selectivity=9.0)
        assert gazetteer.selectivity_weight() == 9.0
