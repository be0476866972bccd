"""Counting automata: bounded repetition without loop expansion.

The paper's pipeline *expands* bounded quantifiers (§IV-C, Fig. 5a),
which maximises merging but grows the automaton linearly in the bound —
`[^\\n]{1000}` becomes a thousand states, and the expansion budget in
:mod:`repro.automata.loops` refuses far earlier.  The related work the
paper cites ([12], Turoňová et al.'s counting-set automata) keeps such
loops *compressed* with a counter and matches them in O(1) amortised
work per byte.

This package implements that comparator for the common DPI shape —
bounded repeats of a single character class — on one model:

* :mod:`repro.counting.mfsa` — :class:`CountingMfsa`, the merged
  automaton with plain and counting belonging-annotated arcs;
* :mod:`repro.counting.build` — Thompson-like construction that keeps
  width-1 bounded repeats as counting arcs (everything else builds as
  usual) and emits a one-rule :class:`CountingMfsa`;
* :mod:`repro.counting.merge` — Algorithm 1 over mixed arcs;
* :mod:`repro.counting.anml` — the counting ANML dialect.

Compile with ``CompileOptions(counting=True, count_threshold=N)`` and
run with ``IMfantEngine(..., backend="counting")`` (counter registers in
:mod:`repro.engine.counting`); the counting-backend bench quantifies the
trade-off against the expansion pipeline across bound sizes.
"""

from repro.counting.build import (
    DEFAULT_MIN_COUNT_BOUND,
    build_counting_fsa,
    build_counting_fsa_from_ast,
)
from repro.counting.merge import CountingMergeReport, merge_counting_fsas
from repro.counting.mfsa import CMTransition, CountingMfsa

__all__ = [
    "build_counting_fsa",
    "build_counting_fsa_from_ast",
    "DEFAULT_MIN_COUNT_BOUND",
    "CMTransition",
    "CountingMfsa",
    "CountingMergeReport",
    "merge_counting_fsas",
]
