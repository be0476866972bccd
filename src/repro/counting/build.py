"""Construction of single-rule counting automata from regex ASTs.

A Thompson-like builder in which a bounded repeat whose body is a single
character class — ``L{m,n}`` with m ≥ 1 — becomes one *counting arc*
instead of an expanded chain; every other construct builds exactly as in
:mod:`repro.automata.thompson` (ε-arcs and all).  A final mixed-arc
ε-removal emits the canonical ε-free machine directly: a one-rule
:class:`~repro.counting.mfsa.CountingMfsa`, the same model the merger
folds rules into and the counting backend executes.

``min_count_bound`` controls when counting kicks in: tiny bounds expand
(a 2-state chain beats counter bookkeeping), large bounds count.  Width-1
optional repeats ``L{0,n}`` become a counting arc (with low=1) plus a
plain ε bypass, so the full quantifier family is covered.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.counting.mfsa import CMTransition, CountingMfsa
from repro.frontend.ast import Alternation, AstNode, Concat, Empty, Literal, Repeat
from repro.frontend.parser import parse
from repro.labels import CharClass
from repro.mfsa.model import MTransition

#: Bounded repeats with high < this many copies expand instead of count.
DEFAULT_MIN_COUNT_BOUND = 4


@dataclass
class _Arc:
    src: int
    dst: int
    label: CharClass | None  # None = ε
    counting: tuple[int, int | None] | None = None  # (low, high) when counting


@dataclass
class _Builder:
    num_states: int = 0
    arcs: list[_Arc] = field(default_factory=list)
    min_count_bound: int = DEFAULT_MIN_COUNT_BOUND

    def state(self) -> int:
        self.num_states += 1
        return self.num_states - 1

    def eps(self, src: int, dst: int) -> None:
        self.arcs.append(_Arc(src, dst, None))

    def build(self, node: AstNode) -> tuple[int, int]:
        if isinstance(node, Empty):
            entry, exit_ = self.state(), self.state()
            self.eps(entry, exit_)
            return entry, exit_
        if isinstance(node, Literal):
            entry, exit_ = self.state(), self.state()
            self.arcs.append(_Arc(entry, exit_, node.charclass))
            return entry, exit_
        if isinstance(node, Concat):
            entry, exit_ = self.build(node.parts[0])
            for part in node.parts[1:]:
                nxt_entry, nxt_exit = self.build(part)
                self.eps(exit_, nxt_entry)
                exit_ = nxt_exit
            return entry, exit_
        if isinstance(node, Alternation):
            entry, exit_ = self.state(), self.state()
            for branch in node.branches:
                b_entry, b_exit = self.build(branch)
                self.eps(entry, b_entry)
                self.eps(b_exit, exit_)
            return entry, exit_
        if isinstance(node, Repeat):
            return self._repeat(node)
        raise TypeError(f"unknown AST node: {node!r}")

    # -- repeats -----------------------------------------------------------

    def _repeat(self, node: Repeat) -> tuple[int, int]:
        low, high = node.low, node.high
        if self._countable(node):
            return self._counting_arc(node.body.charclass, low, high)  # type: ignore[union-attr]
        if (low, high) == (0, None):
            return self._star(node.body)
        if (low, high) == (1, None):
            return self._plus(node.body)
        if high is None:
            entry, exit_ = self._chain(node.body, low)
            star_entry, star_exit = self._star(node.body)
            self.eps(exit_, star_entry)
            return entry, star_exit
        if high == 0:
            return self.build(Empty())
        entry, exit_ = (self._chain(node.body, low) if low else self.build(Empty()))
        for _ in range(high - low):
            opt_entry, opt_exit = self.build(node.body)
            self.eps(opt_entry, opt_exit)
            self.eps(exit_, opt_entry)
            exit_ = opt_exit
        return entry, exit_

    def _countable(self, node: Repeat) -> bool:
        if not isinstance(node.body, Literal):
            return False
        if node.high is None:
            return node.low >= self.min_count_bound
        return node.high >= self.min_count_bound

    def _counting_arc(self, label: CharClass, low: int, high: int | None) -> tuple[int, int]:
        entry, exit_ = self.state(), self.state()
        effective_low = max(1, low)
        self.arcs.append(_Arc(entry, exit_, label, counting=(effective_low, high)))
        if low == 0:
            self.eps(entry, exit_)
        return entry, exit_

    def _chain(self, body: AstNode, count: int) -> tuple[int, int]:
        entry, exit_ = self.build(body)
        for _ in range(count - 1):
            nxt_entry, nxt_exit = self.build(body)
            self.eps(exit_, nxt_entry)
            exit_ = nxt_exit
        return entry, exit_

    def _star(self, body: AstNode) -> tuple[int, int]:
        entry, exit_ = self.state(), self.state()
        b_entry, b_exit = self.build(body)
        self.eps(entry, b_entry)
        self.eps(b_exit, exit_)
        self.eps(entry, exit_)
        self.eps(b_exit, b_entry)
        return entry, exit_

    def _plus(self, body: AstNode) -> tuple[int, int]:
        entry, exit_ = self.state(), self.state()
        b_entry, b_exit = self.build(body)
        self.eps(entry, b_entry)
        self.eps(b_exit, exit_)
        self.eps(b_exit, b_entry)
        return entry, exit_


def build_counting_fsa(
    pattern: str,
    min_count_bound: int = DEFAULT_MIN_COUNT_BOUND,
    rule: int = 0,
) -> CountingMfsa:
    """Compile a pattern into an ε-free one-rule counting automaton."""
    return build_counting_fsa_from_ast(parse(pattern), pattern, min_count_bound, rule)


def build_counting_fsa_from_ast(
    ast: AstNode,
    pattern: str,
    min_count_bound: int = DEFAULT_MIN_COUNT_BOUND,
    rule: int = 0,
) -> CountingMfsa:
    """Compile an already-parsed (and possibly optimized) AST.

    The pipeline's counting compile path parses and case-folds through
    the ordinary frontend (with loop expansion disabled, so repeats
    survive to this builder) and hands the AST here."""
    builder = _Builder(min_count_bound=min_count_bound)
    entry, exit_ = builder.build(ast)
    return _remove_epsilon(builder, entry, exit_, pattern, rule)


def _remove_epsilon(
    builder: _Builder, initial: int, final: int, pattern: str, rule: int
) -> CountingMfsa:
    """Closure-based ε-removal over mixed plain/counting arcs, keeping
    only states reachable from ``initial`` (renumbered densely in
    construction order)."""
    eps_adj: dict[int, list[int]] = {}
    out_arcs: dict[int, list[_Arc]] = {}
    for arc in builder.arcs:
        if arc.label is None:
            eps_adj.setdefault(arc.src, []).append(arc.dst)
        else:
            out_arcs.setdefault(arc.src, []).append(arc)

    def closure(state: int) -> set[int]:
        seen = {state}
        stack = [state]
        while stack:
            current = stack.pop()
            for nxt in eps_adj.get(current, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    closures = [closure(q) for q in range(builder.num_states)]

    # ε-free arcs per source state, deduplicated
    arcs_of: dict[int, list[_Arc]] = {}
    for q in range(builder.num_states):
        seen_keys: set[tuple] = set()
        for p in closures[q]:
            for arc in out_arcs.get(p, ()):
                key = (arc.dst, arc.label.mask, arc.counting)  # type: ignore[union-attr]
                if key not in seen_keys:
                    seen_keys.add(key)
                    arcs_of.setdefault(q, []).append(arc)

    # trim to states reachable from the initial state
    reachable = {initial}
    stack = [initial]
    while stack:
        state = stack.pop()
        for arc in arcs_of.get(state, ()):
            if arc.dst not in reachable:
                reachable.add(arc.dst)
                stack.append(arc.dst)
    rename = {old: new for new, old in enumerate(sorted(reachable))}

    bel = frozenset({rule})
    out = CountingMfsa(num_states=len(rename))
    out.initials[rule] = rename[initial]
    out.finals[rule] = {rename[q] for q in rename if final in closures[q]}
    out.patterns[rule] = pattern
    for q in sorted(reachable):
        for arc in arcs_of.get(q, ()):
            label = arc.label
            assert label is not None
            if arc.counting is None:
                out.plain.append(MTransition(rename[q], rename[arc.dst], label, bel))
            else:
                low, high = arc.counting
                out.counting.append(
                    CMTransition(rename[q], rename[arc.dst], label, low, high, bel)
                )
    out.validate()
    return out
