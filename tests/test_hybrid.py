"""Mixed rulesets on the counting compile.

Real rulesets mix ordinary REs with a few large bounded repeats.  One
``CompileOptions(counting=True, count_threshold=N)`` compile handles
both in one merged automaton: repeats whose bound reaches ``N`` become
counting arcs, everything else expands and merges as in the paper's
pipeline, and ``backend="counting"`` scans the lot in one pass.  These
cases pin that split — which rules count, that rule ids survive it,
that it matches the expansion baseline, and that chunked scans of it
equal the sequential scan.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.optimize import compile_re_to_fsa
from repro.automata.simulate import find_match_ends
from repro.engine.chunkscan import chunk_scan, resolve_strategy
from repro.pipeline.compiler import CompileOptions, compile_ruleset

from conftest import counting_compile, ere_patterns, input_strings, scan

pytestmark = pytest.mark.counting

#: the split threshold used throughout: repeats bounded at 32+ count
THRESHOLD = 32


def counted_rules(patterns, threshold: int = THRESHOLD) -> set:
    """Rule ids owning at least one counting arc after the compile."""
    return {
        rule
        for mfsa in counting_compile(patterns, threshold)
        for arc in getattr(mfsa, "counting", ())
        for rule in arc.bel
    }


def run(patterns, text, **kwargs) -> set:
    return scan(counting_compile(patterns, THRESHOLD, **kwargs), text, "counting")


def baseline(patterns, text) -> set:
    expected = set()
    for rule_id, pattern in enumerate(patterns):
        expected |= {(rule_id, e) for e in find_match_ends(compile_re_to_fsa(pattern), text)}
    return expected


class TestSplit:
    def test_detects_large_repeats(self):
        patterns = ["a{100}b", "x[0-9]{50,90}", "abc", "a{3}b", "(ab){100}"]
        # the width-2 body of (ab){100} expands whatever its bound
        assert counted_rules(patterns) == {0, 1}

    def test_threshold_dial(self):
        assert counted_rules(["a{10}"], threshold=5) == {0}
        assert counted_rules(["a{10}"], threshold=50) == set()

    def test_unbounded_low_counts(self):
        assert counted_rules(["a{100,}b"]) == {0}

    def test_engine_reports_split(self):
        result = compile_ruleset(
            ["abc", "x{99}y", "def"],
            CompileOptions(counting=True, count_threshold=THRESHOLD, emit_anml=False),
        )
        (mfsa,) = result.mfsas  # one automaton holds both sides of the split
        assert mfsa.rule_ids == [0, 1, 2]
        assert [bool(fsa.counting) for fsa in result.fsas] == [False, True, False]
        assert {rule for arc in mfsa.counting for rule in arc.bel} == {1}


class TestMatching:
    def test_mixed_ruleset(self):
        patterns = ["abc", "a{40}b", "xyz"]
        text = "abc" + "a" * 40 + "b" + "xyz"
        assert run(patterns, text) == baseline(patterns, text)

    def test_rule_ids_preserved_after_split(self):
        """Counted rules in the middle must not shift the other rule ids."""
        assert run(["aaa", "z{60}", "bbb"], "aaabbb") == {(0, 3), (2, 6)}

    def test_all_counting(self):
        patterns = ["a{40}", "b{50}"]
        assert counted_rules(patterns) == {0, 1}
        assert run(patterns, "a" * 40) == {(0, 40)}

    def test_all_merged(self):
        patterns = ["ab", "cd"]
        mfsas = counting_compile(patterns, THRESHOLD)
        assert len(mfsas) == 1
        assert not getattr(mfsas[0], "counting", ())  # plain MFSA
        assert run(patterns, "abcd") == {(0, 2), (1, 4)}

    def test_huge_bound_correct(self):
        """A bound far past the expansion budget still matches exactly."""
        text = "ab" + "x" * 500 + "y"
        matches = run(["ab", "x{500}y"], text)
        assert (1, 503) in matches and (0, 2) in matches

    def test_merging_factor_forwarded(self):
        assert len(counting_compile(["ab", "cd", "ef"], THRESHOLD, merging_factor=1)) == 3


class TestRunParallel:
    def test_matches_equal_sequential_run(self):
        patterns = ["abc", "a.*b", "x{40,60}y", "(ab)+"]
        data = b"abc" + b"a" + b"q" * 100 + b"b" + b"x" * 50 + b"y" + b"abab" * 20
        for mfsa in counting_compile(patterns, THRESHOLD):
            sequential = scan([mfsa], data, "counting")
            chunked = chunk_scan(mfsa, data, backend="counting",
                                 num_threads=4, chunk_size=32)
            assert chunked == sequential
        assert run(patterns, data) == baseline(patterns, data.decode())

    def test_auto_resolves_per_mfsa(self):
        # bounded rules, counted or not, keep overlap chunking
        for patterns in (["abc", "defg"], ["abc", "x{40,60}y"]):
            (mfsa,) = counting_compile(patterns, THRESHOLD)
            assert resolve_strategy(mfsa) == "overlap"
        # an unbounded plain rule in the merge flips it to mapping scans
        (mfsa,) = counting_compile(["abc", "a.*b"], THRESHOLD)
        assert resolve_strategy(mfsa) == "sfa"

    def test_forced_strategy_forwarded(self):
        (mfsa,) = counting_compile(["abc", "defg"], THRESHOLD)
        data = b"zabcdefgz" * 40
        sequential = scan([mfsa], data, "counting")
        assert chunk_scan(mfsa, data, chunk_size=64, strategy="sfa") == sequential


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_hybrid_equals_baseline_property(data):
    """With a low threshold (everything countable counts), the counting
    compile equals the per-rule expansion baseline."""
    patterns = data.draw(st.lists(ere_patterns(), min_size=1, max_size=4))
    text = data.draw(input_strings())
    got = scan(counting_compile(patterns, threshold=2), text, "counting")
    assert got == baseline(patterns, text)
