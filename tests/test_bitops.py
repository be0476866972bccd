"""Tests for the uint64 popcount helper (native + unpackbits fallback).

The public ``popcount_total`` binds to whichever implementation the
installed NumPy supports; both implementations are additionally tested
directly against a pure-Python reference — per row and in total — so the
fallback stays correct even when the native path is the one selected.
"""

import numpy as np
import pytest

from repro.engine import bitops
from repro.engine.bitops import (
    HAS_NATIVE_POPCOUNT,
    _popcount_total_unpackbits,
    popcount_total,
)


def _reference_rows(sv: np.ndarray) -> list[int]:
    return [sum(int(word).bit_count() for word in row) for row in sv]


def _rows(popcount, sv: np.ndarray) -> list[int]:
    return [popcount(row) for row in sv]


def _random_matrix(rows: int, limbs: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2 ** 64, size=(rows, limbs), dtype=np.uint64)


class TestChosenPath:
    """The path selected at import time (whatever NumPy is installed)."""

    def test_selection_matches_numpy_capability(self):
        assert HAS_NATIVE_POPCOUNT == hasattr(np, "bitwise_count")
        if HAS_NATIVE_POPCOUNT:
            assert popcount_total is bitops._popcount_total_native
        else:
            assert popcount_total is _popcount_total_unpackbits

    @pytest.mark.parametrize("rows,limbs", [(1, 1), (3, 2), (17, 5), (64, 1)])
    def test_rows_against_reference(self, rows, limbs):
        sv = _random_matrix(rows, limbs, seed=rows * 31 + limbs)
        assert _rows(popcount_total, sv) == _reference_rows(sv)

    def test_total_against_reference(self):
        sv = _random_matrix(9, 3, seed=7)
        assert popcount_total(sv) == sum(_reference_rows(sv))

    def test_total_on_1d(self):
        sv = np.array([0, 1, (1 << 64) - 1, 0x8000000000000001], dtype=np.uint64)
        assert popcount_total(sv) == 0 + 1 + 64 + 2

    def test_extremes(self):
        sv = np.zeros((4, 2), dtype=np.uint64)
        assert _rows(popcount_total, sv) == [0, 0, 0, 0]
        sv[:] = np.uint64(2 ** 64 - 1)
        assert _rows(popcount_total, sv) == [128] * 4
        assert popcount_total(sv) == 512


class TestFallbackPath:
    """The unpackbits implementation, exercised regardless of NumPy."""

    @pytest.mark.parametrize("rows,limbs", [(1, 1), (5, 3), (32, 2)])
    def test_rows_against_reference(self, rows, limbs):
        sv = _random_matrix(rows, limbs, seed=rows * 17 + limbs)
        assert _rows(_popcount_total_unpackbits, sv) == _reference_rows(sv)

    def test_total_against_reference(self):
        sv = _random_matrix(6, 4, seed=3)
        assert _popcount_total_unpackbits(sv) == sum(_reference_rows(sv))

    def test_non_contiguous_input(self):
        wide = _random_matrix(8, 6, seed=11)
        view = wide[:, ::2]  # non-contiguous columns
        assert _popcount_total_unpackbits(view) == sum(_reference_rows(view))

    @pytest.mark.skipif(not HAS_NATIVE_POPCOUNT, reason="needs numpy >= 2.0")
    def test_agrees_with_native(self):
        sv = _random_matrix(13, 3, seed=23)
        assert _rows(_popcount_total_unpackbits, sv) == _rows(bitops._popcount_total_native, sv)
        assert _popcount_total_unpackbits(sv) == bitops._popcount_total_native(sv)


class TestEngineUsesChosenPath:
    def test_infant_numpy_stats_use_popcount(self, monkeypatch):
        """Swap in the fallback and check iNFAnt's bit-vector backend
        still agrees with the python one — proving it goes through bitops."""
        from repro.automata.optimize import compile_re_to_fsa
        import repro.engine.infant as infant_mod

        monkeypatch.setattr(infant_mod, "popcount_total", _popcount_total_unpackbits)
        fsa = compile_re_to_fsa("a(b|c)+d")
        text = "abcbdzabd" * 4
        py = infant_mod.INfantEngine(fsa, backend="python").run(text).stats
        vec = infant_mod.INfantEngine(fsa, backend="numpy").run(text).stats
        assert py.active_pair_total == vec.active_pair_total > 0
        assert py.max_state_activation == vec.max_state_activation
