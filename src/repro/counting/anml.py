"""Extended-ANML serialisation of counting MFSAs.

The Automata Processor's ANML actually has a counter element; our
extended dialect (docs/anml_extension.md) adds a ``<counting-transition>``
element to the MFSA format carrying the class, the bounds and the
belonging set::

    <counting-transition from-state="2" to-state="5" symbol-set="[0-9]"
                          low="1" high="3" belongs-to="0 1"/>

Plain arcs reuse the transition-form encoding (state-anchored rather
than STE-homogenised: counting arcs don't fit the one-label-per-state
shape, so the counting dialect serialises arcs directly).  Round-trips
are exact and property-tested.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

from repro.anml.reader import AnmlFormatError, _int, _ints, _parse_symbol_set, _require
from repro.counting.mfsa import CMTransition, CountingMfsa
from repro.mfsa.model import MTransition

FORMAT_VERSION = "1.0"


def write_counting_anml(cmfsa: CountingMfsa, network_id: str = "cmfsa") -> str:
    """Serialise a counting MFSA to the counting-dialect XML string."""
    cmfsa.validate()
    root = ET.Element(
        "counting-automata-network",
        {
            "id": network_id,
            "extended-cmfsa-version": FORMAT_VERSION,
            "states": str(cmfsa.num_states),
        },
    )
    rules_el = ET.SubElement(root, "rules")
    for rule in sorted(cmfsa.initials):
        attrs = {
            "id": str(rule),
            "initial-state": str(cmfsa.initials[rule]),
            "final-states": _ids(cmfsa.finals[rule]),
        }
        pattern = cmfsa.patterns.get(rule)
        if pattern is not None:
            attrs["pattern"] = pattern
        ET.SubElement(rules_el, "rule", attrs)

    for t in cmfsa.plain:
        ET.SubElement(root, "transition", {
            "from-state": str(t.src),
            "to-state": str(t.dst),
            "symbol-set": t.label.pattern(),
            "belongs-to": _ids(t.bel),
        })
    for t in cmfsa.counting:
        attrs = {
            "from-state": str(t.src),
            "to-state": str(t.dst),
            "symbol-set": t.label.pattern(),
            "low": str(t.low),
            "belongs-to": _ids(t.bel),
        }
        if t.high is not None:
            attrs["high"] = str(t.high)
        ET.SubElement(root, "counting-transition", attrs)

    ET.indent(root, space="  ")
    return ET.tostring(root, encoding="unicode") + "\n"


def read_counting_anml(text: str) -> CountingMfsa:
    """Parse the counting dialect back into a CountingMfsa."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise AnmlFormatError(f"malformed XML: {exc}") from exc
    if root.tag != "counting-automata-network":
        raise AnmlFormatError(
            f"expected <counting-automata-network>, got <{root.tag}>"
        )

    cmfsa = CountingMfsa(num_states=_int(root, "states"))
    rules_el = root.find("rules")
    if rules_el is None:
        raise AnmlFormatError("missing <rules> table")
    for rule_el in rules_el.findall("rule"):
        rule = _int(rule_el, "id")
        cmfsa.initials[rule] = _int(rule_el, "initial-state")
        cmfsa.finals[rule] = set(_ints(rule_el, "final-states"))
        pattern = rule_el.get("pattern")
        if pattern is not None:
            cmfsa.patterns[rule] = pattern

    for el in root.findall("transition"):
        cmfsa.plain.append(MTransition(
            _int(el, "from-state"),
            _int(el, "to-state"),
            _parse_symbol_set(_require(el, "symbol-set")),
            frozenset(_ints(el, "belongs-to")),
        ))
    try:
        for el in root.findall("counting-transition"):
            cmfsa.counting.append(CMTransition(
                _int(el, "from-state"),
                _int(el, "to-state"),
                _parse_symbol_set(_require(el, "symbol-set")),
                _int(el, "low"),
                _int(el, "high") if el.get("high") is not None else None,
                frozenset(_ints(el, "belongs-to")),
            ))
        cmfsa.validate()
    except AnmlFormatError:
        raise
    except ValueError as exc:
        raise AnmlFormatError(f"invalid counting automaton: {exc}") from exc
    return cmfsa


def _ids(values) -> str:
    return " ".join(str(v) for v in sorted(values))

