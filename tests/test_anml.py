"""Tests for the extended-ANML back-end (homogenise / write / read)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.anml.homogenize import homogenize
from repro.anml.reader import AnmlFormatError, read_anml
from repro.anml.writer import write_anml
from repro.automata.optimize import compile_re_to_fsa
from repro.mfsa.activation import reference_match
from repro.mfsa.merge import merge_fsas

from conftest import compile_ruleset_fsas, ere_patterns, input_strings, mfsa_equal


def build(patterns):
    return merge_fsas(compile_ruleset_fsas(patterns))


class TestHomogenize:
    def test_one_ste_per_state_label_pair(self):
        mfsa = build(["ab", "ac"])
        network = homogenize(mfsa)
        keys = {(s.state, s.symbol_set.mask) for s in network.stes}
        assert len(keys) == len(network.stes)  # no duplicates

    def test_start_marks_on_initial_successors(self):
        mfsa = build(["ab"])
        network = homogenize(mfsa)
        start = [s for s in network.stes if s.start_for]
        assert len(start) == 1
        assert start[0].start_for == frozenset({0})

    def test_report_marks_on_finals(self):
        mfsa = build(["ab", "cb"])
        network = homogenize(mfsa)
        reporters = [s for s in network.stes if s.report_for]
        assert reporters
        assert all(s.state in mfsa.finals[r] for s in reporters for r in s.report_for)

    def test_start_arcs_for_splitless_sources(self):
        """Initial states with no incoming arcs yield StartArc records."""
        network = homogenize(build(["ab"]))
        assert network.start_arcs
        assert network.start_arcs[0].src_state == 0

    def test_rules_table(self):
        mfsa = build(["ab", "cd"])
        network = homogenize(mfsa)
        assert set(network.rules) == {0, 1}
        initial, finals, pattern = network.rules[0]
        assert initial == mfsa.initials[0]
        assert finals == frozenset(mfsa.finals[0])
        assert pattern == "ab"


class TestWriter:
    def test_well_formed_xml(self):
        import xml.etree.ElementTree as ET

        text = write_anml(build(["a(b|c)d", "ab"]))
        root = ET.fromstring(text)
        assert root.tag == "automata-network"
        assert root.find("rules") is not None

    def test_belongs_to_attribute_present(self):
        text = write_anml(build(["abc", "abd"]))
        assert "belongs-to=" in text

    def test_network_id(self):
        text = write_anml(build(["a"]), network_id="testnet")
        assert 'id="testnet"' in text


class TestReader:
    def test_roundtrip_simple(self):
        mfsa = build(["abc", "abd", "xbc"])
        assert mfsa_equal(mfsa, read_anml(write_anml(mfsa)))

    def test_roundtrip_charclasses(self):
        mfsa = build(["[a-c]x[0-9]", "k[bc]d", "x\\.y"])
        assert mfsa_equal(mfsa, read_anml(write_anml(mfsa)))

    def test_roundtrip_loops(self):
        mfsa = build(["ab*c", "(ab)+"])
        assert mfsa_equal(mfsa, read_anml(write_anml(mfsa)))

    def test_malformed_xml(self):
        with pytest.raises(AnmlFormatError):
            read_anml("<not-closed")

    def test_wrong_root(self):
        with pytest.raises(AnmlFormatError):
            read_anml("<wrong/>")

    def test_missing_rules(self):
        with pytest.raises(AnmlFormatError):
            read_anml('<automata-network original-states="1"/>')

    def test_missing_attribute(self):
        with pytest.raises(AnmlFormatError):
            read_anml(
                '<automata-network original-states="1">'
                "<rules><rule id=\"0\"/></rules></automata-network>"
            )

    def test_non_integer_attribute(self):
        bad = '<automata-network original-states="x"><rules/></automata-network>'
        with pytest.raises(AnmlFormatError, match="not an integer"):
            read_anml(bad)
        with pytest.raises(AnmlFormatError, match="not an integer list"):
            read_anml('<automata-network original-states="2"><rules>'
                      '<rule id="0" initial-state="0" final-states="1 y"/>'
                      '</rules></automata-network>')

    def test_failed_validation_is_a_format_error(self):
        bad = ('<automata-network original-states="1"><rules>'
               '<rule id="0" initial-state="5" final-states="0"/>'
               '</rules></automata-network>')
        with pytest.raises(AnmlFormatError, match="out of range"):
            read_anml(bad)

    def test_malformed_symbol_set(self):
        bad = ('<automata-network original-states="2"><rules>'
               '<rule id="0" initial-state="0" final-states="1"/></rules>'
               '<state-transition-element id="ste0" symbol-set="[" original-state="1"/>'
               "</automata-network>")
        with pytest.raises(AnmlFormatError, match="symbol-set"):
            read_anml(bad)

    def test_connection_to_unknown_element(self):
        bad = (
            '<automata-network original-states="2">'
            '<rules><rule id="0" initial-state="0" final-states="1"/></rules>'
            '<state-transition-element id="ste0" symbol-set="a" original-state="1">'
            '<activate-on-match element="ste9" belongs-to="0"/>'
            "</state-transition-element></automata-network>"
        )
        with pytest.raises(AnmlFormatError):
            read_anml(bad)


@given(st.lists(ere_patterns(), min_size=1, max_size=4), input_strings())
@settings(max_examples=60, deadline=None)
def test_roundtrip_property(patterns, text):
    mfsa = build(patterns)
    recovered = read_anml(write_anml(mfsa))
    assert mfsa_equal(mfsa, recovered)
    assert reference_match(mfsa, text) == reference_match(recovered, text)
