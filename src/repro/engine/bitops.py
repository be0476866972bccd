"""uint64 popcount with a pre-NumPy-2.0 fallback.

iNFAnt's bit-vector backend (:mod:`repro.engine.infant`) counts set bits
of its packed uint64 state vector on every sampled position;
``np.bitwise_count`` does that natively but only exists since NumPy
2.0, while the project supports ``numpy>=1.23``.  The implementation is
selected once at import time:

* NumPy ≥ 2.0 — :func:`np.bitwise_count` (vectorised per-element
  popcount);
* older NumPy — an :func:`np.unpackbits` expansion over a ``uint8``
  view of the limbs (8× memory traffic, still fully vectorised).

Both paths are exercised by ``tests/test_bitops.py`` regardless of the
installed NumPy (the fallback is importable and tested directly).
"""

from __future__ import annotations

import numpy as np

__all__ = ["HAS_NATIVE_POPCOUNT", "popcount_total"]

#: True when the running NumPy provides ``np.bitwise_count`` (≥ 2.0).
HAS_NATIVE_POPCOUNT = hasattr(np, "bitwise_count")


def _popcount_total_native(sv: np.ndarray) -> int:
    return int(np.bitwise_count(sv).sum())


def _popcount_total_unpackbits(sv: np.ndarray) -> int:
    bytes_view = np.ascontiguousarray(sv).view(np.uint8).ravel()
    return int(np.unpackbits(bytes_view).sum())


if HAS_NATIVE_POPCOUNT:
    popcount_total = _popcount_total_native
else:  # pragma: no cover - exercised only on numpy < 2.0
    popcount_total = _popcount_total_unpackbits

popcount_total.__doc__ = """Total popcount of a uint64 array (any shape)."""
