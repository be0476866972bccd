"""Algorithm 1 generalised to counting automata.

Structurally identical to :mod:`repro.mfsa.merge` — same walks, Merging
Structures and consistent (bijective) relabeling — but over the mixed
arc model: an arc's *merge key* is its label mask for plain arcs and
``(label, low, high)`` for counting arcs, so counting arcs merge only
when their class **and** bounds coincide (the exact-set rule of §III-A
extended to counters).  Inputs and output share one model,
:class:`~repro.counting.mfsa.CountingMfsa`: each rule's automaton (as
:func:`repro.counting.build.build_counting_fsa` emits it) folds into the
growing merged automaton, so per-rule projections remain isomorphic to
the inputs for the same reason as in the plain merger.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

from repro.counting.mfsa import CountingMfsa
from repro.mfsa.model import MTransition


@dataclass(frozen=True)
class _Arc:
    """Unified arc view used by the walk: plain or counting."""

    src: int
    dst: int
    key: tuple


def _arcs_of_cmfsa(z: CountingMfsa) -> list[_Arc]:
    arcs = [_Arc(t.src, t.dst, ("#plain", t.label.mask)) for t in z.plain]
    arcs += [_Arc(t.src, t.dst, t.key()) for t in z.counting]
    return arcs


@dataclass
class CountingMergeReport:
    input_states: int = 0
    output_states: int = 0
    input_transitions: int = 0
    output_transitions: int = 0
    merged_plain: int = 0
    merged_counting: int = 0

    @property
    def state_compression(self) -> float:
        if self.input_states == 0:
            return 0.0
        return 100.0 * (self.input_states - self.output_states) / self.input_states


def merge_counting_fsas(
    automata: Sequence[CountingMfsa],
    report: CountingMergeReport | None = None,
) -> CountingMfsa:
    """Merge counting automata (typically one rule each) into one."""
    if not automata:
        raise ValueError("cannot merge an empty ruleset")
    rules = [rule for a in automata for rule in a.initials]
    if len(set(rules)) != len(rules):
        raise ValueError("duplicate rule ids in merge input")

    stats = report if report is not None else CountingMergeReport()
    stats.input_states = sum(a.num_states for a in automata)
    stats.input_transitions = sum(a.num_transitions for a in automata)

    z = CountingMfsa()
    for a in automata:
        _merge_one(z, a, stats)

    stats.output_states = z.num_states
    stats.output_transitions = z.num_transitions
    z.validate()
    return z


def _merge_one(z: CountingMfsa, a: CountingMfsa, stats: CountingMergeReport) -> None:
    z_arcs = _arcs_of_cmfsa(z)
    a_arcs = _arcs_of_cmfsa(a)

    z_by_key: dict[tuple, list[int]] = {}
    z_out: dict[int, list[int]] = {}
    for i, arc in enumerate(z_arcs):
        z_by_key.setdefault(arc.key, []).append(i)
        z_out.setdefault(arc.src, []).append(i)
    a_out: dict[int, list[int]] = {}
    for i, arc in enumerate(a_arcs):
        a_out.setdefault(arc.src, []).append(i)

    # Walks: identical to the plain merger, over the unified keys.
    structures: list[list[tuple[int, int]]] = []  # lists of (zi, ai)
    seen: set[tuple[int, int]] = set()
    for ai, arc in enumerate(a_arcs):
        for zi in z_by_key.get(arc.key, ()):
            if (zi, ai) in seen:
                continue
            walk: list[tuple[int, int]] = []
            visited: set[tuple[int, int]] = set()
            cur = (zi, ai)
            while cur not in visited:
                visited.add(cur)
                walk.append(cur)
                nxt = _next_pair(z_arcs, z_out, a_arcs, a_out, cur)
                if nxt is None:
                    break
                cur = nxt
            seen.update(walk)
            structures.append(walk)

    relabel = _consistent(z_arcs, a_arcs, structures)
    for state in range(a.num_states):
        if state not in relabel:
            relabel[state] = z.add_state()

    plain_index = {(t.src, t.dst, t.label.mask): i for i, t in enumerate(z.plain)}
    for t in a.plain:
        key = (relabel[t.src], relabel[t.dst], t.label.mask)
        existing = plain_index.get(key)
        if existing is not None:
            old = z.plain[existing]
            z.plain[existing] = MTransition(old.src, old.dst, old.label, old.bel | t.bel)
            stats.merged_plain += 1
        else:
            z.plain.append(MTransition(key[0], key[1], t.label, t.bel))
            plain_index[key] = len(z.plain) - 1

    counting_index = {
        (t.src, t.dst) + t.key(): i for i, t in enumerate(z.counting)
    }
    for t in a.counting:
        src, dst = relabel[t.src], relabel[t.dst]
        existing = counting_index.get((src, dst) + t.key())
        if existing is not None:
            old = z.counting[existing]
            z.counting[existing] = dataclasses.replace(old, bel=old.bel | t.bel)
            stats.merged_counting += 1
        else:
            z.counting.append(dataclasses.replace(t, src=src, dst=dst))
            counting_index[(src, dst) + t.key()] = len(z.counting) - 1

    for rule, initial in a.initials.items():
        z.initials[rule] = relabel[initial]
        z.finals[rule] = {relabel[f] for f in a.finals[rule]}
    z.patterns.update(a.patterns)


def _next_pair(z_arcs, z_out, a_arcs, a_out, cur):
    zi, ai = cur
    z_state = z_arcs[zi].dst
    a_state = a_arcs[ai].dst
    for a_next in a_out.get(a_state, ()):
        key = a_arcs[a_next].key
        for z_next in z_out.get(z_state, ()):
            if z_arcs[z_next].key == key:
                return (z_next, a_next)
    return None


def _consistent(z_arcs, a_arcs, structures) -> dict[int, int]:
    """Longest-first bijective commit, as in the plain merger."""
    forward: dict[int, int] = {}
    backward: dict[int, int] = {}
    for walk in sorted(structures, key=len, reverse=True):
        for zi, ai in walk:
            bindings = (
                (a_arcs[ai].src, z_arcs[zi].src),
                (a_arcs[ai].dst, z_arcs[zi].dst),
            )
            staged_fwd: dict[int, int] = {}
            staged_bwd: dict[int, int] = {}
            ok = True
            for a, zz in bindings:
                bound_z = forward.get(a, staged_fwd.get(a))
                if bound_z is not None:
                    if bound_z != zz:
                        ok = False
                        break
                    continue
                bound_a = backward.get(zz, staged_bwd.get(zz))
                if bound_a is not None and bound_a != a:
                    ok = False
                    break
                staged_fwd[a] = zz
                staged_bwd[zz] = a
            if not ok:
                break
            for a, zz in bindings:
                forward[a] = zz
                backward[zz] = a
    return forward
