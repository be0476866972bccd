"""The baseline iNFAnt engine: streaming NFA matching over one FSA.

The algorithm (Cascarano et al., 2010, as summarised in paper §V): for
each input character, every transition the character enables is
evaluated; a move is performed when its source state is active *or
initial* (new match attempts start at every offset); destination states
form the next state vector; reaching a final state reports a match.

Two backends:

* ``backend="python"`` — the state vector is a Python set of states;
  simple and fast on sparse activity.
* ``backend="numpy"`` — the GPU formulation's data layout on the CPU:
  the state vector is a *bit vector* (uint64 limbs over states) and each
  symbol's transition list is applied as a bulk gather/scatter, exactly
  iNFAnt's "all transitions enabled by the symbol in parallel" step.

Work counters feed the cost model either way.
"""

from __future__ import annotations

import time

import numpy as np

import repro.obs as obs
from repro.automata.fsa import Fsa
from repro.engine.bitops import popcount_total
from repro.engine.counters import ExecutionStats, RunResult
from repro.engine.tables import FsaTables

_BACKENDS = ("python", "numpy")


class INfantEngine:
    """Single-FSA streaming matcher with iNFAnt's evaluation strategy."""

    def __init__(self, fsa: Fsa, rule_id: int = 0, backend: str = "python") -> None:
        if backend not in _BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; choose from {_BACKENDS}")
        self.rule_id = rule_id
        self.backend = backend
        self.tables = FsaTables.build(fsa)
        self._np: _NumpyTables | None = _NumpyTables(self.tables) if backend == "numpy" else None

    def run(self, data: bytes | str, collect_stats: bool = True) -> RunResult:
        """Scan the stream; returns ``(rule_id, end_offset)`` matches.

        ``collect_stats`` controls the per-character counter updates (a
        few percent overhead; benchmarks that only need timing switch it
        off).
        """
        payload = data.encode("latin-1") if isinstance(data, str) else data
        with obs.span(
            "infant.run",
            backend=self.backend,
            rule=self.rule_id,
            states=self.tables.num_states,
            bytes=len(payload),
        ) as sp:
            result = self._run(payload, collect_stats)
            sp.set(matches=result.stats.match_count)
        return result

    def _run(self, payload: bytes, collect_stats: bool) -> RunResult:
        if self._np is not None:
            return self._run_bitvector(payload, collect_stats)
        tables = self.tables
        by_symbol = tables.by_symbol
        finals = tables.finals
        initial = tables.initial

        result = RunResult()
        stats = result.stats
        matches = result.matches
        if tables.accepts_empty:
            matches.update((self.rule_id, end) for end in range(len(payload) + 1))

        sampler = obs.engine_sampler("infant")
        stride = sampler.stride if sampler is not None else 0
        started = time.perf_counter()
        active: set[int] = set()
        for position, byte in enumerate(payload, start=1):
            enabled = by_symbol[byte]
            nxt: set[int] = set()
            for src, dst in enabled:
                if src == initial or src in active:
                    nxt.add(dst)
            active = nxt
            if active & finals:
                matches.add((self.rule_id, position))
            if collect_stats:
                stats.transitions_examined += len(enabled)
                stats.active_pair_total += len(active)
                if len(active) > stats.max_state_activation:
                    stats.max_state_activation = len(active)
            if sampler is not None and position % stride == 0:
                # one rule: active pairs == frontier width == |active|
                sampler.observe(len(active), len(active), len(enabled))
        stats.wall_seconds = time.perf_counter() - started
        stats.chars_processed = len(payload)
        stats.match_count = len(matches)
        return result

    # -- numpy (bit-vector) backend -----------------------------------------

    def _run_bitvector(self, payload: bytes, collect_stats: bool) -> RunResult:
        assert self._np is not None
        np_tables = self._np
        result = RunResult()
        stats = result.stats
        matches = result.matches
        if self.tables.accepts_empty:
            matches.update((self.rule_id, end) for end in range(len(payload) + 1))

        limbs = np_tables.limbs
        sampler = obs.engine_sampler("infant")
        stride = sampler.stride if sampler is not None else 0
        started = time.perf_counter()
        sv = np.zeros(limbs, dtype=np.uint64)
        scratch = np.zeros(limbs, dtype=np.uint64)
        init_limb, init_bit = divmod(self.tables.initial, 64)
        init_mask = np.uint64(1 << init_bit)
        finals_bits = np_tables.finals_bits
        for position, byte in enumerate(payload, start=1):
            src_limb = np_tables.src_limb[byte]
            if src_limb is None:
                if sv.any():
                    sv.fill(0)
                if sampler is not None and position % stride == 0:
                    sampler.observe(0, 0, 0)
                continue
            sv[init_limb] |= init_mask  # new attempts start every offset
            # gather: which evaluated transitions have an active source?
            active = (sv[src_limb] >> np_tables.src_bit[byte]) & np.uint64(1)
            scratch.fill(0)
            contribution = active << np_tables.dst_bit[byte]
            np.bitwise_or.at(scratch, np_tables.dst_limb[byte], contribution)
            sv, scratch = scratch, sv
            if (sv & finals_bits).any():
                matches.add((self.rule_id, position))
            if collect_stats:
                stats.transitions_examined += len(src_limb)
                stats.transitions_taken += int(active.sum())
                popcount = popcount_total(sv)
                stats.active_pair_total += popcount
                if popcount > stats.max_state_activation:
                    stats.max_state_activation = popcount
            if sampler is not None and position % stride == 0:
                popcount = popcount_total(sv)
                sampler.observe(popcount, popcount, len(src_limb))
        stats.wall_seconds = time.perf_counter() - started
        stats.chars_processed = len(payload)
        stats.match_count = len(matches)
        return result


class _NumpyTables:
    """Per-symbol transition arrays in bit-vector coordinates."""

    def __init__(self, tables: FsaTables) -> None:
        self.limbs = max(1, (tables.num_states + 63) // 64)
        self.src_limb: list[np.ndarray | None] = []
        self.src_bit: list[np.ndarray | None] = []
        self.dst_limb: list[np.ndarray | None] = []
        self.dst_bit: list[np.ndarray | None] = []
        for pairs in tables.by_symbol:
            if not pairs:
                self.src_limb.append(None)
                self.src_bit.append(None)
                self.dst_limb.append(None)
                self.dst_bit.append(None)
                continue
            src = np.fromiter((p[0] for p in pairs), dtype=np.int64, count=len(pairs))
            dst = np.fromiter((p[1] for p in pairs), dtype=np.int64, count=len(pairs))
            self.src_limb.append(src // 64)
            self.src_bit.append((src % 64).astype(np.uint64))
            self.dst_limb.append(dst // 64)
            self.dst_bit.append((dst % 64).astype(np.uint64))
        finals = np.zeros(self.limbs, dtype=np.uint64)
        for state in tables.finals:
            finals[state // 64] |= np.uint64(1 << (state % 64))
        self.finals_bits = finals
