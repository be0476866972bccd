"""Seeded workload inputs and the independent match oracle.

Every payload the benchmark sends is a concatenation of fixed-size
*blocks*, each followed by one separator byte (``\\n``).  The blocks come
from a fixed, deterministic pool per ruleset; the run's ``--seed`` picks
which blocks and in which order.  No rule of either ruleset can consume
the separator (checked on the per-rule automata at start-up), so the
separator resets every rule's simulation and

    oracle(block_0 \\n block_1 \\n ...) = union of oracle(block_i) shifted
                                         by the block's start offset.

That makes the oracle for any seed a lookup: the expected match set of
each pool block is computed once with
:func:`repro.automata.simulate.simulate_stream` over the *unmerged*
per-rule FSAs (``compile_re_to_fsa`` per pattern, never the merger or an
engine tier) and cached in ``perfbench/oracle/`` keyed by the sha256 of
the ruleset and of the block's bytes.  A cache miss recomputes the block
(about 1 s per 4 KB on the 300-rule suite) and stores it.

``python3 perfbench/inputs.py`` fills the cache for every pool.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import dataclass, replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ORACLE_DIR = BENCH_DIR / "oracle"

SEPARATOR = b"\n"
#: block payload bytes; a block plus its separator is exactly 4 KiB
BLOCK_BYTES = 4095
BLOCK_STRIDE = BLOCK_BYTES + len(SEPARATOR)

#: pool sizes (blocks).  The batch stream draws 256 distinct blocks from
#: the TCP pool; serve payloads draw from the first ``SERVE_POOL`` blocks,
#: which is all the reload ruleset's oracle has to cover.
TCP_POOL = 384
SERVE_POOL = 64
#: seed of the second 300-rule TCP-like set that ``serve_tcp`` hot-reloads
RELOAD_PROFILE_SEED = 0x7CA


@dataclass(frozen=True)
class Ruleset:
    """A fixed ruleset; its digest keys the oracle cache."""

    name: str
    patterns: tuple[str, ...]

    @property
    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.patterns).encode()).hexdigest()


def tcp_ruleset(reload: bool = False) -> Ruleset:
    """The full-scale TCP-ExactMatch-like suite (300 rules); ``reload``
    gives a second suite of the same profile under another seed."""
    from repro.datasets import DATASET_PROFILES, generate_ruleset

    profile = DATASET_PROFILES["TCP"]
    if reload:
        profile = replace(profile, seed=RELOAD_PROFILE_SEED)
    return Ruleset(
        "tcp-reload" if reload else "tcp", tuple(generate_ruleset(profile).patterns)
    )


def tokens_ruleset() -> Ruleset:
    from repro.datasets import load_builtin

    return Ruleset("tokens_exact", tuple(load_builtin("tokens_exact").patterns))


def rotated(ruleset: Ruleset, shift: int) -> tuple[Ruleset, dict[int, int]]:
    """``ruleset`` with its rules rotated left by ``shift``: a different
    artifact (new key, so a reload compiles) with the same languages.
    Returns it with the old-rule-id -> new-rule-id map, which relabels
    the oracle's match sets exactly."""
    n = len(ruleset.patterns)
    patterns = ruleset.patterns[shift:] + ruleset.patterns[:shift]
    return (
        Ruleset(f"{ruleset.name}-rot{shift}", patterns),
        {old: (old - shift) % n for old in range(n)},
    )


def _tcp_blocks(count: int) -> list[bytes]:
    """TCP-profile traffic (planted motifs and literal cores in noise),
    one ``generate_stream`` seed per block."""
    from repro.datasets import DATASET_PROFILES, generate_ruleset
    from repro.datasets.streams import generate_stream

    generator = generate_ruleset(DATASET_PROFILES["TCP"])
    return [generate_stream(generator, BLOCK_BYTES, seed=1000 + i) for i in range(count)]


def _tokens_block(patterns: tuple[str, ...], index: int) -> bytes:
    """Literal cores of the rules mixed with noise (the ``repro obs``
    demo-stream recipe), seeded per block."""
    rng = random.Random(0x70CE5 + index)
    literals = []
    for pattern in patterns:
        core = "".join(ch for ch in pattern if ch.isalnum() or ch in " _-/.:")
        if core:
            literals.append(core)
    alphabet = sorted({ch for lit in literals for ch in lit} | set("abcxyz 01"))
    chunks: list[str] = []
    produced = 0
    while produced < BLOCK_BYTES:
        if rng.random() < 0.3:
            piece = rng.choice(literals)
        else:
            piece = "".join(rng.choice(alphabet) for _ in range(rng.randint(2, 12)))
        chunks.append(piece)
        produced += len(piece)
    return "".join(chunks).encode("latin-1")[:BLOCK_BYTES]


class BlockPool:
    """A fixed pool of blocks for one ruleset, with cached oracles."""

    def __init__(self, ruleset: Ruleset, blocks: list[bytes]) -> None:
        self.ruleset = ruleset
        self.blocks = blocks
        self._fsas = None
        self._cache_path = ORACLE_DIR / f"{ruleset.name}-{ruleset.digest[:16]}.json"
        self._cache: dict[str, list[int]] | None = None
        self._dirty = False

    # -- oracle -------------------------------------------------------------

    def _rule_fsas(self):
        if self._fsas is None:
            from repro.automata.optimize import compile_re_to_fsa

            self._fsas = [
                (rule, compile_re_to_fsa(p)) for rule, p in enumerate(self.ruleset.patterns)
            ]
            sep_bit = 1 << SEPARATOR[0]
            for rule, fsa in self._fsas:
                if fsa.accepts_empty():
                    raise RuntimeError(f"rule {rule} accepts the empty string")
                for arc in fsa.labelled_transitions():
                    if arc.label.mask & sep_bit:
                        raise RuntimeError(f"rule {rule} can consume the separator")
        return self._fsas

    def _load(self) -> dict[str, list[int]]:
        if self._cache is None:
            try:
                self._cache = json.loads(self._cache_path.read_text())
            except FileNotFoundError:
                self._cache = {}
            # the separator invariant is what makes block oracles
            # composable: check it even when every block is cached
            self._rule_fsas()
        return self._cache

    def block_oracle(self, index: int) -> list[int]:
        """Flat ``[rule, end, rule, end, ...]`` of one block (ends 1-based)."""
        from repro.automata.simulate import simulate_stream

        cache = self._load()
        block = self.blocks[index]
        key = hashlib.sha256(block).hexdigest()
        flat = cache.get(key)
        if flat is None:
            found = sorted(simulate_stream(self._rule_fsas(), block))
            flat = [value for pair in found for value in pair]
            cache[key] = flat
            self._dirty = True
        return flat

    def save(self) -> None:
        if self._dirty and self._cache is not None:
            ORACLE_DIR.mkdir(exist_ok=True)
            tmp = self._cache_path.with_suffix(".tmp")
            tmp.write_text(json.dumps(self._cache, sort_keys=True, separators=(",", ":")))
            tmp.replace(self._cache_path)
            self._dirty = False

    # -- payloads -----------------------------------------------------------

    def payload(self, indices: list[int]) -> tuple[bytes, frozenset[tuple[int, int]]]:
        """The payload made of ``indices`` blocks and its expected matches."""
        parts = []
        expected: set[tuple[int, int]] = set()
        for position, index in enumerate(indices):
            parts.append(self.blocks[index])
            parts.append(SEPARATOR)
            base = position * BLOCK_STRIDE
            flat = self.block_oracle(index)
            expected.update(
                (flat[i], flat[i + 1] + base) for i in range(0, len(flat), 2)
            )
        self.save()
        return b"".join(parts), frozenset(expected)


def tcp_pool(reload: bool = False) -> BlockPool:
    size = SERVE_POOL if reload else TCP_POOL
    return BlockPool(tcp_ruleset(reload), _tcp_blocks(size))


def tokens_pool() -> BlockPool:
    ruleset = tokens_ruleset()
    return BlockPool(ruleset, [_tokens_block(ruleset.patterns, i) for i in range(SERVE_POOL)])


def batch_indices(seed: int, blocks: int = 256) -> list[int]:
    """The 1 MiB batch stream: 256 distinct pool blocks in seeded order."""
    return random.Random(seed).sample(range(TCP_POOL), blocks)


def serve_indices(seed: int, payloads: int, blocks_each: int = 4) -> list[list[int]]:
    """``payloads`` distinct 16 KiB payloads drawn without replacement
    from the first ``SERVE_POOL`` blocks."""
    picked = random.Random(seed ^ 0x5E7E).sample(range(SERVE_POOL), payloads * blocks_each)
    return [picked[i * blocks_each:(i + 1) * blocks_each] for i in range(payloads)]


def match_digest(matches) -> str:
    """Order-independent content hash of a match set."""
    h = hashlib.sha256()
    for rule, end in sorted(matches):
        h.update(b"%d,%d;" % (rule, end))
    return h.hexdigest()


def _fill_all() -> None:
    for make in (tokens_pool, lambda: tcp_pool(True), tcp_pool):
        pool = make()
        for index in range(len(pool.blocks)):
            pool.block_oracle(index)
            if index % 16 == 15:
                pool.save()
                print(f"{pool.ruleset.name}: {index + 1}/{len(pool.blocks)}", flush=True)
        pool.save()


if __name__ == "__main__":
    sys.path.insert(0, str(BENCH_DIR.parent / "src"))
    _fill_all()
