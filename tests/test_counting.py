"""Counting-compile construction and ``backend="counting"`` cases.

Every case runs the one counting path — ``CompileOptions(counting=True,
count_threshold=N)`` + ``IMfantEngine(backend="counting")`` — and checks
it against the loop-expanded pipeline over the same patterns (see
``tests/test_counting_backend.py`` for the randomized oracle).
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.optimize import compile_re_to_fsa
from repro.counting import CMTransition, build_counting_fsa
from repro.engine.imfant import IMfantEngine
from repro.labels import CharClass

from conftest import counting_compile, expanded_compile, scan

pytestmark = pytest.mark.counting

RULE0 = frozenset({0})


def matches(pattern: str, text: str, threshold: int = 2) -> set:
    return scan(counting_compile([pattern], threshold), text, "counting")


def expected(pattern: str, text: str) -> set:
    return scan(expanded_compile([pattern]), text)


def only(pattern: str, threshold: int = 2):
    (mfsa,) = counting_compile([pattern], threshold)
    return mfsa


def counting_arcs(mfsa) -> list:
    """Counting arcs of a compile result (plain MFSAs have none)."""
    return list(getattr(mfsa, "counting", ()))


class TestModel:
    def test_counting_arc_bounds_checked(self):
        with pytest.raises(ValueError):
            CMTransition(0, 1, CharClass.single("a"), low=0, high=3, bel=RULE0)
        with pytest.raises(ValueError):
            CMTransition(0, 1, CharClass.single("a"), low=3, high=2, bel=RULE0)
        with pytest.raises(ValueError):
            CMTransition(0, 1, CharClass.empty(), low=1, high=2, bel=RULE0)


class TestConstruction:
    def test_large_bound_stays_compressed(self):
        mfsa = only("a{500}b", threshold=4)
        assert len(counting_arcs(mfsa)) == 1
        assert mfsa.num_states < 10
        expanded = compile_re_to_fsa("a{200}b")  # budget caps at 256
        assert expanded.num_states > 100

    def test_small_bound_expands(self):
        assert not counting_arcs(only("a{2}b", threshold=4))

    def test_min_count_bound_dial(self):
        assert counting_arcs(only("a{2}b", threshold=2))
        assert not counting_arcs(only("a{2}b", threshold=10))

    def test_only_width1_bodies_count(self):
        assert not counting_arcs(only("(ab){100}"))  # multi-symbol body expands

    def test_unbounded_low_counts(self):
        (arc,) = counting_arcs(only("[xy]{50,}z"))
        assert arc.high is None

    def test_optional_counting_has_bypass(self):
        mfsa = only("a{0,100}b")
        assert counting_arcs(mfsa)
        # the ε bypass survives as a plain path: "b" alone matches
        assert scan([mfsa], "b", "counting") == {(0, 1)}

    def test_epsilon_free(self):
        mfsa = only("(a|b{10,20})c")
        mfsa.validate()
        text = "ac " + "b" * 15 + "c " + "b" * 9 + "c"
        assert scan([mfsa], text, "counting") == expected("(a|b{10,20})c", text)


class TestEngine:
    @pytest.mark.parametrize("pattern,text", [
        ("a{3}", "aaaa"),
        ("a{2,4}b", "aaab aaaaab"),
        ("x[ab]{2,3}y", "xaby xabay xabbby xabbbby"),
        ("a{3,}b", "aab aaab aaaaaab"),
        ("(a{2,3}|bc)d", "aad bcd aaaad"),
        ("za{0,2}b", "zb zab zaab zaaab"),
        ("a{2}a{2}", "aaaa"),
    ])
    def test_agrees_with_expansion_pipeline(self, pattern, text):
        assert matches(pattern, text) == expected(pattern, text)

    def test_large_bound_correctness(self):
        """The case expansion cannot reach: a 500-bound repeat."""
        pattern = "a{498,500}b"
        text = "a" * 499 + "b" + "a" * 10
        oracle = re.compile("a{498,500}b")
        expect = {(0, m.start() + len(m.group())) for m in
                  (oracle.match(text, s) for s in range(len(text))) if m}
        assert matches(pattern, text) == expect

    def test_overlapping_runs(self):
        """Multiple concurrent counter entries (counting-set behaviour)."""
        assert matches("ba{2,3}", "baaa") == expected("ba{2,3}", "baaa")

    def test_mismatch_resets_counter(self):
        assert matches("a{3}b", "aaxaaab") == {(0, 7)}

    def test_unbounded_saturation(self):
        got = matches("a{3,}", "a" * 6)
        assert got == {(0, e) for e in (3, 4, 5, 6)}

    def test_counts_do_not_leak_across_runs(self):
        engine = IMfantEngine(only("a{3}b"), backend="counting")
        assert engine.run("aaab").matches == {(0, 4)}
        assert engine.run("ab").matches == set()  # fresh registers per run

    def test_rule_id_tagging(self):
        mfsa = build_counting_fsa("a{2}", min_count_bound=2, rule=9)
        assert mfsa.rule_ids == [9]
        assert IMfantEngine(mfsa, backend="counting").run("aa").matches == {(9, 2)}

    def test_stats(self):
        stats = IMfantEngine(only("a{5}b"), backend="counting").run("a" * 10).stats
        assert stats.chars_processed == 10
        assert stats.transitions_examined > 0
        assert stats.active_pair_total > 0


@given(
    low=st.integers(min_value=1, max_value=6),
    extra=st.integers(min_value=0, max_value=4),
    text=st.text(alphabet="abz", max_size=30),
)
@settings(max_examples=150, deadline=None)
def test_bounded_counting_equivalence_property(low, extra, text):
    pattern = f"a{{{low},{low + extra}}}b"
    assert matches(pattern, text) == expected(pattern, text)


@given(
    low=st.integers(min_value=1, max_value=6),
    text=st.text(alphabet="ab", max_size=30),
)
@settings(max_examples=100, deadline=None)
def test_unbounded_counting_equivalence_property(low, text):
    pattern = f"[ab]{{{low},}}a"
    assert matches(pattern, text) == expected(pattern, text)


@given(text=st.text(alphabet="xyz", max_size=40))
@settings(max_examples=100, deadline=None)
def test_mixed_pattern_property(text):
    pattern = "x[yz]{2,5}x"
    assert matches(pattern, text) == expected(pattern, text)
