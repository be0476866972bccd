"""Tests for the counting-MFSA ANML dialect."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.anml.reader import AnmlFormatError
from repro.counting.anml import read_counting_anml, write_counting_anml

from conftest import counting_merge as build
from conftest import ere_patterns, expanded_compile, input_strings, scan

pytestmark = pytest.mark.counting


def cmfsa_equal(a, b):
    return (
        a.num_states == b.num_states
        and a.initials == b.initials
        and a.finals == b.finals
        and a.patterns == b.patterns
        and {(t.src, t.dst, t.label.mask, t.bel) for t in a.plain}
        == {(t.src, t.dst, t.label.mask, t.bel) for t in b.plain}
        and {(t.src, t.dst, t.label.mask, t.low, t.high, t.bel) for t in a.counting}
        == {(t.src, t.dst, t.label.mask, t.low, t.high, t.bel) for t in b.counting}
    )


class TestRoundTrip:
    def test_counting_arcs_survive(self):
        z = build(["x[0-9]{5}a", "x[0-9]{5}b"])
        recovered = read_counting_anml(write_counting_anml(z))
        assert cmfsa_equal(z, recovered)
        assert len(recovered.counting) == 1
        assert recovered.counting[0].bel == frozenset({0, 1})

    def test_unbounded_high_omits_attribute(self):
        z = build(["a{9,}b"])
        text = write_counting_anml(z)
        assert "low=" in text and "high=" not in text
        recovered = read_counting_anml(text)
        assert recovered.counting[0].high is None

    def test_engine_equivalence_through_xml(self):
        patterns = ["k[ab]{3}x", "k[ab]{3}y"]
        z = build(patterns)
        recovered = read_counting_anml(write_counting_anml(z))
        stream = "kabax kbbby"
        assert scan([recovered], stream, "counting") == \
            scan(expanded_compile(patterns), stream)

    def test_network_id(self):
        assert 'id="demo"' in write_counting_anml(build(["a{5}"]), network_id="demo")


class TestErrors:
    def test_wrong_root(self):
        with pytest.raises(AnmlFormatError):
            read_counting_anml("<automata-network/>")

    def test_malformed(self):
        with pytest.raises(AnmlFormatError):
            read_counting_anml("<oops")

    def test_missing_rules(self):
        with pytest.raises(AnmlFormatError):
            read_counting_anml('<counting-automata-network states="1"/>')

    def test_missing_attribute(self):
        bad = ('<counting-automata-network states="2"><rules>'
               '<rule id="0" initial-state="0" final-states="1"/></rules>'
               '<counting-transition from-state="0" to-state="1" symbol-set="a"'
               ' belongs-to="0"/></counting-automata-network>')
        with pytest.raises(AnmlFormatError):
            read_counting_anml(bad)  # missing low

    def test_non_integer_attribute(self):
        bad = ('<counting-automata-network states="x"><rules/>'
               '</counting-automata-network>')
        with pytest.raises(AnmlFormatError, match="not an integer"):
            read_counting_anml(bad)

    def test_failed_validation_is_a_format_error(self):
        bad = ('<counting-automata-network states="2"><rules>'
               '<rule id="0" initial-state="0" final-states="1"/></rules>'
               '<counting-transition from-state="0" to-state="1" symbol-set="a"'
               ' low="0" belongs-to="0"/></counting-automata-network>')
        with pytest.raises(AnmlFormatError, match="low >= 1"):
            read_counting_anml(bad)
        out_of_range = bad.replace('low="0"', 'low="1"').replace('to-state="1"', 'to-state="7"')
        with pytest.raises(AnmlFormatError, match="out of range"):
            read_counting_anml(out_of_range)


    def test_malformed_symbol_set(self):
        bad = ('<counting-automata-network states="2"><rules>'
               '<rule id="0" initial-state="0" final-states="1"/></rules>'
               '<counting-transition from-state="0" to-state="1" symbol-set="["'
               ' low="1" belongs-to="0"/></counting-automata-network>')
        with pytest.raises(AnmlFormatError, match="symbol-set"):
            read_counting_anml(bad)


@given(st.lists(ere_patterns(), min_size=1, max_size=3), input_strings())
@settings(max_examples=50, deadline=None)
def test_roundtrip_property(patterns, text):
    z = build(patterns)
    recovered = read_counting_anml(write_counting_anml(z))
    assert cmfsa_equal(z, recovered)
    assert scan([recovered], text, "counting") == scan([z], text, "counting")
