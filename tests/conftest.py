"""Shared fixtures and helpers for the test suite.

The hypothesis strategies live in the *public* :mod:`repro.testing`
module (they are part of the library's API for downstream fuzzing); this
conftest re-exports them under the names the tests use.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import settings as hypothesis_settings

import repro.obs as obs
from repro.automata.optimize import compile_re_to_fsa
from repro.counting import build_counting_fsa, merge_counting_fsas
from repro.engine.imfant import IMfantEngine
from repro.guard import faultinject
from repro.obs import metrics as obs_metrics
from repro.obs import spans as obs_spans

# Hypothesis baseline profile (per-test @settings still override it).
hypothesis_settings.register_profile("default", deadline=None)
# Derandomized twin: REPRO_TEST_DETERMINISTIC=1 makes hypothesis replay
# the same example sequence every run (bisection / flake triage).
hypothesis_settings.register_profile("deterministic", deadline=None, derandomize=True)
hypothesis_settings.load_profile(
    "deterministic" if os.environ.get("REPRO_TEST_DETERMINISTIC") else "default"
)

#: Example count for the dedicated soak tests (tests/test_soak.py):
#: REPRO_SOAK_EXAMPLES=2000 turns them into a long confidence run.
SOAK_EXAMPLES = int(os.environ.get("REPRO_SOAK_EXAMPLES", "25"))
from repro.mfsa.model import Mfsa
from repro.pipeline.compiler import CompileOptions, compile_ruleset
from repro.testing import (
    DEFAULT_ALPHABET as TEST_ALPHABET,
    ere_patterns,
    random_patterns as random_ruleset,
    seed_all,
    subject_strings as input_strings,
)

__all__ = [
    "TEST_ALPHABET",
    "ere_patterns",
    "input_strings",
    "random_ruleset",
    "mfsa_equal",
    "compile_ruleset_fsas",
    "counting_compile",
    "counting_merge",
    "expanded_compile",
    "scan",
]


# ---------------------------------------------------------------------------
# Test isolation (autouse)
# ---------------------------------------------------------------------------


@pytest.fixture(autouse=True)
def _seeded_rng():
    """Every test starts from the same RNG state (see repro.testing.seed_all)."""
    seed_all()
    yield


@pytest.fixture(autouse=True)
def _obs_and_fault_isolation():
    """No test can leak global observability or fault-injection state.

    Saves the obs switchboard (active tracer/registry + sampling stride)
    and the armed fault points before each test, restores them after —
    a test that enables metrics, tweaks the stride, or arms
    ``engine.step_delay`` and then dies mid-way cannot poison the rest
    of the run.
    """
    saved_tracer = obs.get_tracer()
    saved_registry = obs.get_registry()
    saved_stride = obs.sample_stride()
    saved_faults = {point: faultinject.value(point) for point in faultinject.active_points()}
    yield
    # Restore the exact pre-test switchboard (including "off").
    if saved_tracer is not None:
        obs_spans.enable(saved_tracer)
    else:
        obs_spans.disable()
    if saved_registry is not None:
        obs_metrics.enable(saved_registry)
    else:
        obs_metrics.disable()
    obs.set_sample_stride(saved_stride)
    faultinject.clear()
    for point, arg in saved_faults.items():
        faultinject.arm(point, arg)


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def mfsa_equal(a: Mfsa, b: Mfsa) -> bool:
    """Structural MFSA equality up to transition order."""
    return (
        a.num_states == b.num_states
        and a.initials == b.initials
        and a.finals == b.finals
        and {(t.src, t.dst, t.label.mask, t.bel) for t in a.transitions}
        == {(t.src, t.dst, t.label.mask, t.bel) for t in b.transitions}
    )


def compile_ruleset_fsas(patterns: list[str]):
    """(rule_id, optimised FSA) pairs for a list of patterns."""
    return [(i, compile_re_to_fsa(p)) for i, p in enumerate(patterns)]


def counting_compile(patterns, threshold: int = 2, merging_factor: int = 0):
    """MFSAs of the counting compile: repeats whose bound reaches
    ``threshold`` become counting arcs, smaller ones expand."""
    options = CompileOptions(counting=True, count_threshold=threshold,
                             merging_factor=merging_factor, emit_anml=False)
    return compile_ruleset(patterns, options).mfsas


def expanded_compile(patterns):
    """MFSAs of the loop-expanding pipeline: the counting oracle."""
    return compile_ruleset(patterns, CompileOptions(emit_anml=False)).mfsas


def counting_merge(patterns, threshold: int = 2):
    """One :class:`CountingMfsa` over ``patterns`` (rule id = position),
    even when no repeat reaches the threshold."""
    return merge_counting_fsas([
        build_counting_fsa(p, min_count_bound=threshold, rule=i)
        for i, p in enumerate(patterns)
    ])


def scan(mfsas, payload, backend: str = "python", **kwargs) -> set:
    """Union of ``(rule, end)`` matches of every automaton on ``payload``."""
    out: set = set()
    for mfsa in mfsas:
        engine = IMfantEngine(mfsa, backend=backend, **kwargs)
        out |= engine.run(payload, collect_stats=False).matches
    return out


@pytest.fixture
def small_ruleset():
    """A tiny mixed ruleset exercising most constructs."""
    return [
        "abc",
        "a(b|c)d",
        "[a-c]+x",
        "ab{2,3}c",
        "k(fg)*h",
        "x.*y",
    ]
