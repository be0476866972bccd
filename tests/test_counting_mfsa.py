"""Counting-MFSA merging, run on ``backend="counting"``.

Structural merge cases go through :func:`merge_counting_fsas` directly;
engine cases compile with ``CompileOptions(counting=True)`` and check
the counting backend against the loop-expanded pipeline.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.counting import (
    CountingMergeReport,
    build_counting_fsa,
    merge_counting_fsas,
)
from repro.engine.imfant import IMfantEngine

from conftest import (
    counting_merge,
    ere_patterns,
    expanded_compile,
    input_strings,
    scan,
)

pytestmark = pytest.mark.counting


def oracle(patterns, text) -> set:
    return scan(expanded_compile(patterns), text)


class TestMerging:
    def test_shared_counting_arc(self):
        """Identical counted runs merge: one counter, both belongings."""
        z = counting_merge(["x[0-9]{5}a", "x[0-9]{5}b"])
        assert len(z.counting) == 1
        assert z.counting[0].bel == frozenset({0, 1})

    def test_different_bounds_do_not_merge(self):
        z = counting_merge(["x[0-9]{5}a", "x[0-9]{6}a"])
        assert len(z.counting) == 2
        assert all(len(arc.bel) == 1 for arc in z.counting)

    def test_different_labels_do_not_merge(self):
        z = counting_merge(["x[0-9]{5}a", "x[a-f]{5}a"])
        assert len(z.counting) == 2

    def test_plain_prefix_still_merges(self):
        z = counting_merge(["abc[x]{9}", "abd"])
        shared = [t for t in z.plain if len(t.bel) == 2]
        assert shared  # the ab prefix

    def test_compression_report(self):
        report = CountingMergeReport()
        merge_counting_fsas(
            [build_counting_fsa(p, rule=i) for i, p in enumerate(["q[0-9]{4}z", "q[0-9]{4}y"])],
            report=report,
        )
        assert report.merged_counting == 1
        assert report.state_compression > 0

    def test_errors(self):
        with pytest.raises(ValueError):
            merge_counting_fsas([])
        cfsa = build_counting_fsa("a{5}", rule=1)
        with pytest.raises(ValueError):
            merge_counting_fsas([cfsa, cfsa])


class TestEngine:
    @pytest.mark.parametrize("patterns,text", [
        (["x[ab]{3}y", "x[ab]{3}z"], "xabay xbbbz xaby"),
        (["a{2,4}b", "a{2,4}c"], "aaab aaaac ab"),
        (["p[0-9]{2}", "q[0-9]{2}"], "p12 q99 p1"),
        (["a{3,}b", "a{3,}c"], "aaaab aaac aab"),
        (["k{5}", "m"], "kkkkkm"),
    ])
    def test_merged_equals_per_rule(self, patterns, text):
        z = counting_merge(patterns)
        assert scan([z], text, "counting") == oracle(patterns, text)

    def test_shared_counter_distinguishes_rules(self):
        """Both rules share the counter but only the right suffix fires."""
        z = counting_merge(["x[ab]{3}y", "x[ab]{3}z"])
        assert scan([z], "xabay", "counting") == {(0, 5)}

    def test_overlapping_entries_with_masks(self):
        patterns = ["ba{2,3}c", "a{2,3}c"]
        z = counting_merge(patterns)
        for text in ("baac", "baaac", "aac", "aaac", "baacaaac"):
            assert scan([z], text, "counting") == oracle(patterns, text), text

    def test_expansion_reference(self):
        """The merged counting automaton equals its own expansion."""
        patterns = ["x[ab]{2,3}y", "x[ab]{2,3}z"]
        z = counting_merge(patterns)
        text = "xaby xaaby xbbbz xz"
        assert scan([z], text, "counting") == oracle(patterns, text)
        assert scan([z.expand()], text) == oracle(patterns, text)

    def test_large_shared_bound(self):
        z = counting_merge(["h[ab]{200}x", "h[ab]{200}y"])
        assert len(z.counting) == 1
        assert z.num_states < 12
        text = "h" + "ab" * 100 + "x"
        assert scan([z], text, "counting") == {(0, 202)}

    def test_stats(self):
        z = counting_merge(["a{3}b", "c"])
        stats = IMfantEngine(z, backend="counting").run("aaab c").stats
        assert stats.chars_processed == 6
        assert stats.match_count == 2


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_counting_mfsa_equivalence_property(data):
    patterns = data.draw(st.lists(ere_patterns(), min_size=1, max_size=3))
    text = data.draw(input_strings())
    z = counting_merge(patterns)
    assert scan([z], text, "counting") == oracle(patterns, text)


@given(
    low=st.integers(min_value=1, max_value=4),
    extra=st.integers(min_value=0, max_value=3),
    text=st.text(alphabet="abz", max_size=25),
)
@settings(max_examples=100, deadline=None)
def test_shared_counter_property(low, extra, text):
    patterns = [f"z[ab]{{{low},{low + extra}}}a", f"z[ab]{{{low},{low + extra}}}b"]
    # threshold 1 (below the compile minimum) so even {1} repeats count
    z = counting_merge(patterns, threshold=1)
    assert len(z.counting) == 1  # the counter is shared
    assert scan([z], text, "counting") == oracle(patterns, text)
