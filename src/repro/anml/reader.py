"""Extended-ANML reader: XML → executable transition-form MFSA.

This is the front half of iMFAnt's pre-processing (paper §V: "conversion
into an iMFAnt-compliant structure is part of the algorithm
pre-processing"): the homogeneous STE network is folded back into the
transition-labelled MFSA the engine tables are built from, using the
``original-state`` annotations and the rule table the writer embeds.

The reconstruction is exact: ``read_anml(write_anml(z))`` equals ``z`` up
to transition order (tested).
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

from repro.frontend.errors import RegexSyntaxError
from repro.frontend.lexer import tokenize, TokenKind
from repro.guard.errors import FormatError
from repro.labels import CharClass
from repro.mfsa.model import Mfsa


class AnmlFormatError(FormatError, ValueError):
    """Raised when the XML is not valid extended ANML.

    A :class:`~repro.guard.errors.FormatError` in the taxonomy; keeps
    its historical :class:`ValueError` base."""

    default_stage = "anml"


def read_anml(text: str) -> Mfsa:
    """Parse an extended-ANML document back into an MFSA."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise AnmlFormatError(f"malformed XML: {exc}") from exc
    if root.tag != "automata-network":
        raise AnmlFormatError(f"expected <automata-network>, got <{root.tag}>")

    mfsa = Mfsa(num_states=_int(root, "original-states", default="0"))

    rules_el = root.find("rules")
    if rules_el is None:
        raise AnmlFormatError("missing <rules> table")
    for rule_el in rules_el.findall("rule"):
        rule = _int(rule_el, "id")
        mfsa.initials[rule] = _int(rule_el, "initial-state")
        mfsa.finals[rule] = set(_ints(rule_el, "final-states"))
        pattern = rule_el.get("pattern")
        if pattern is not None:
            mfsa.patterns[rule] = pattern

    # STE id -> (original state, symbol set)
    ste_state: dict[str, int] = {}
    ste_label: dict[str, CharClass] = {}
    for ste_el in root.findall("state-transition-element"):
        ste_id = _require(ste_el, "id")
        ste_state[ste_id] = _int(ste_el, "original-state")
        ste_label[ste_id] = _parse_symbol_set(_require(ste_el, "symbol-set"))

    arcs: dict[tuple[int, int, int], frozenset[int]] = {}
    order: list[tuple[int, int, int]] = []
    for ste_el in root.findall("state-transition-element"):
        ste_id = _require(ste_el, "id")
        # Extension records: arcs whose source state has no STE split.
        for start_arc in ste_el.findall("start-on-input"):
            bel = frozenset(_ints(start_arc, "belongs-to"))
            key = (_int(start_arc, "from-state"), ste_state[ste_id], ste_label[ste_id].mask)
            if key not in arcs:
                arcs[key] = bel
                order.append(key)
            elif arcs[key] != bel:
                raise AnmlFormatError(f"conflicting belongs-to for start arc {key}")
        src_state = ste_state[ste_id]
        for conn in ste_el.findall("activate-on-match"):
            dst_id = _require(conn, "element")
            if dst_id not in ste_state:
                raise AnmlFormatError(f"connection to unknown element {dst_id!r}")
            bel = frozenset(_ints(conn, "belongs-to"))
            key = (src_state, ste_state[dst_id], ste_label[dst_id].mask)
            if key in arcs:
                if arcs[key] != bel:
                    raise AnmlFormatError(f"conflicting belongs-to for arc {key}")
            else:
                arcs[key] = bel
                order.append(key)

    try:
        for src, dst, mask in order:
            mfsa.add_transition(src, dst, CharClass(mask), arcs[(src, dst, mask)])
        mfsa.validate()
    except ValueError as exc:
        raise AnmlFormatError(f"invalid automaton: {exc}") from exc
    return mfsa


def _require(element: ET.Element, attr: str) -> str:
    value = element.get(attr)
    if value is None:
        raise AnmlFormatError(f"<{element.tag}> missing required attribute {attr!r}")
    return value


def _int(element: ET.Element, attr: str, default: str | None = None) -> int:
    value = element.get(attr, default)
    if value is None:
        raise AnmlFormatError(f"<{element.tag}> missing required attribute {attr!r}")
    try:
        return int(value)
    except ValueError:
        raise AnmlFormatError(
            f"<{element.tag}> attribute {attr!r} is not an integer: {value!r}"
        ) from None


def _ints(element: ET.Element, attr: str) -> list[int]:
    """A whitespace-separated integer list attribute."""
    value = _require(element, attr)
    try:
        return [int(v) for v in value.split()]
    except ValueError:
        raise AnmlFormatError(
            f"<{element.tag}> attribute {attr!r} is not an integer list: {value!r}"
        ) from None


def _parse_symbol_set(text: str) -> CharClass:
    """Parse a symbol-set rendered by :meth:`CharClass.pattern` (a single
    character, an escape, ``.`` or a bracket expression) via the ERE lexer."""
    try:
        tokens = tokenize(text)
    except RegexSyntaxError as exc:
        raise AnmlFormatError(f"symbol-set {text!r} does not parse: {exc.message}") from exc
    if len(tokens) != 2:  # symbol + END
        raise AnmlFormatError(f"symbol-set is not a single class: {text!r}")
    token = tokens[0]
    if token.kind is TokenKind.CHAR:
        return CharClass.single(token.value)  # type: ignore[arg-type]
    if token.kind is TokenKind.CHARCLASS:
        assert isinstance(token.value, CharClass)
        return token.value
    raise AnmlFormatError(f"symbol-set is not a character class: {text!r}")
