"""Plain-text structure files for lattices, event rings and event sets.

The format is line oriented.  '#' starts a comment, blank lines are
skipped, tokens are separated by whitespace (so labels cannot contain
spaces).  A file starts with a KIND line and then sections:

    KIND oml                    KIND rlse               KIND events
    ELEMENTS                    ELEMENTS                ELEMENTS
    0 a a' b b' 1               {} {1} {2} {1,2}        p q r
    COVERS                      ZERO {}                 EVENTS
    0 a                         ONE {1,2}               p 0 0 1
    ...                         OPLUS                   q 1/2 1 0
    COMPLEMENT                  {} {1} {2} {1,2}        ...
    0 1                         ...
    ...                         TIMES
    STATES                      ...
    0 1 0 1 0 1

An oml file gives the order either as COVERS or as LEQ pairs (reflexive
and transitive pairs may be omitted either way), one complement pair per
line, and optionally STATES rows with one rational per element.  An rlse
file lists the operation tables row by row in element order; ZERO and
ONE default to the first and last element.  An events file gives one row
per member: its label followed by its value in each state.  Rationals
are written in Fraction notation (1/2, 3, 0).
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ParseError, UnknownLabel, ValidationError
from .lattice import FiniteOml, FinitePoset, _bits, _transpose, build_poset

__all__ = [
    "StructureFile",
    "parse_structure",
    "serialize_structure",
    "to_oml_input",
    "to_rlse",
    "to_events",
    "from_oml",
    "from_rlse",
    "from_events",
]

_KINDS = ("oml", "rlse", "events")
_SECTIONS = {
    "oml": {"ELEMENTS", "COVERS", "LEQ", "COMPLEMENT", "STATES"},
    "rlse": {"ELEMENTS", "ZERO", "ONE", "OPLUS", "TIMES"},
    "events": {"ELEMENTS", "EVENTS"},
}


class StructureFile(NamedTuple):
    """Parsed but not yet validated file contents."""

    kind: str
    elements: tuple[str, ...] = ()
    covers: tuple[tuple[str, str], ...] = ()
    leq: tuple[tuple[str, str], ...] = ()
    complement: tuple[tuple[str, str], ...] = ()
    zero: str | None = None
    one: str | None = None
    oplus: tuple[tuple[str, ...], ...] = ()
    times: tuple[tuple[str, ...], ...] = ()
    states: tuple[tuple[Fraction, ...], ...] = ()
    events: tuple[tuple[str, tuple[Fraction, ...]], ...] = ()


def _fraction(Fraction, token: str, lineno: int, col: int) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"not a rational number: {token!r}", lineno, col) from None


def parse_structure(text: str) -> StructureFile:
    """Parse file text; raises ParseError with line and column on errors."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        if body.strip():
            lines.append((lineno, body))
    if not lines:
        raise ParseError("empty file", 1, 1)

    lineno, head = lines[0]
    tokens = head.split()
    if tokens[0] != "KIND" or len(tokens) != 2:
        raise ParseError("expected 'KIND oml|rlse|events'", lineno,
                         head.index(tokens[0]) + 1)
    kind = tokens[1]
    if kind not in _KINDS:
        raise ParseError(f"unknown kind {kind!r}", lineno, head.index(kind) + 1)

    known = _SECTIONS[kind]
    zero = one = None
    seen = set()
    section = None
    rows: dict[str, list] = {name: [] for name in known}

    for lineno, body in lines[1:]:
        tokens = body.split()
        first = tokens[0]
        if first in _SECTIONS["oml"] | _SECTIONS["rlse"] | _SECTIONS["events"]:
            if first not in known:
                raise ParseError(f"section {first} not allowed in a {kind} file",
                                 lineno, body.index(first) + 1)
            if first in seen:
                raise ParseError(f"duplicate section {first}", lineno,
                                 body.index(first) + 1)
            seen.add(first)
            if first in ("ZERO", "ONE"):
                if len(tokens) != 2:
                    raise ParseError(f"{first} takes exactly one label", lineno, 1)
                if first == "ZERO":
                    zero = tokens[1]
                else:
                    one = tokens[1]
                section = None
            else:
                section = first
                if len(tokens) > 1:
                    raise ParseError("section header takes no arguments", lineno,
                                     body.index(tokens[1]) + 1)
            continue
        if section is None:
            raise ParseError(f"content before any section: {first!r}", lineno,
                             body.index(first) + 1)
        rows[section].append((lineno, body, tokens))
    if rows.get("STATES") or rows.get("EVENTS"):  # only these hold rationals
        from fractions import Fraction

    def pairs(name):
        out = []
        for lineno, body, tokens in rows[name]:
            if len(tokens) != 2:
                raise ParseError(f"{name} lines need exactly two labels", lineno, 1)
            out.append((tokens[0], tokens[1]))
        return tuple(out)

    elements = tuple(t for _, _, tokens in rows.get("ELEMENTS", ())
                     for t in tokens)
    if not elements:
        raise ParseError("missing ELEMENTS section", lineno, 1)
    if len(set(elements)) != len(elements):
        raise ParseError("duplicate element label", lineno, 1)
    n = len(elements)

    if kind == "oml":
        covers, leq, complement = pairs("COVERS"), pairs("LEQ"), pairs("COMPLEMENT")
        if not covers and not leq:
            raise ParseError("an oml file needs a COVERS or LEQ section", lineno, 1)
        if not complement:
            raise ParseError("missing COMPLEMENT section", lineno, 1)
        states = []
        for ln, body, tokens in rows["STATES"]:
            if len(tokens) != n:
                raise ParseError(f"a state row needs {n} values, got {len(tokens)}",
                                 ln, 1)
            states.append(tuple(_fraction(Fraction, t, ln, body.index(t) + 1) for t in tokens))
        return StructureFile(kind, elements, covers, leq, complement,
                             states=tuple(states))
    if kind == "rlse":
        tables = []
        for name in ("OPLUS", "TIMES"):
            table = []
            for ln, body, tokens in rows[name]:
                if len(tokens) != n:
                    raise ParseError(f"a {name} row needs {n} labels, got {len(tokens)}",
                                     ln, 1)
                table.append(tuple(tokens))
            if len(table) != n:
                raise ParseError(f"{name} needs {n} rows, got {len(table)}", lineno, 1)
            tables.append(tuple(table))
        return StructureFile(kind, elements,
                             zero=elements[0] if zero is None else zero,
                             one=elements[-1] if one is None else one,
                             oplus=tables[0], times=tables[1])
    out = []
    width = None
    for ln, body, tokens in rows["EVENTS"]:
        if len(tokens) < 2:
            raise ParseError("an EVENTS row needs a label and values", ln, 1)
        if width is None:
            width = len(tokens) - 1
        elif len(tokens) - 1 != width:
            raise ParseError(f"an EVENTS row needs {width} values", ln, 1)
        vals = tuple(_fraction(Fraction, t, ln, body.index(t) + 1) for t in tokens[1:])
        out.append((tokens[0], vals))
    if len(out) != n:
        raise ParseError(f"EVENTS needs one row per element, got {len(out)}",
                         lineno, 1)
    return StructureFile(kind, elements, events=tuple(out))


# ---------------------------------------------------------------------------
# Building structures out of parsed files
# ---------------------------------------------------------------------------


def to_oml_input(sf: StructureFile):
    """(poset, complement dict) from an oml file, ready for check_oml."""
    if sf.kind != "oml":
        raise ValidationError(f"expected an oml file, got {sf.kind}")
    poset = build_poset(sf.elements, sf.covers + sf.leq)
    comp = {}
    labels = set(sf.elements)
    for a, b in sf.complement:
        if a not in labels or b not in labels:
            raise ValidationError(f"complement pair ({a}, {b}) uses an unknown label")
        if a in comp and comp[a] != b:
            raise ValidationError(f"conflicting complements for {a}")
        comp[a] = b
        comp.setdefault(b, a)
    return poset, comp


def to_rlse(sf: StructureFile) -> RlseTables:
    from .rlse import RlseTables

    if sf.kind != "rlse":
        raise ValidationError(f"expected an rlse file, got {sf.kind}")
    return RlseTables.from_labels(sf.elements, sf.oplus, sf.times, sf.zero, sf.one)


def to_events(sf: StructureFile) -> NumericalEventSet:
    """Rebuild the event set: each element's row of values is its vector."""
    from .states import NumericalEventSet

    if sf.kind != "events":
        raise ValidationError(f"expected an events file, got {sf.kind}")
    order = {lab: i for i, (lab, _) in enumerate(sf.events)}
    for lab in sf.elements:
        if lab not in order:
            raise UnknownLabel(f"no EVENTS row for element {lab!r}")
    matrix = dict(sf.events)
    vectors = tuple(matrix[lab] for lab in sf.elements)
    seen = {}
    for lab, vec in zip(sf.elements, vectors):
        if vec in seen:
            raise ValidationError(f"elements {seen[vec]} and {lab} have the same "
                                  "event vector")
        seen[vec] = lab
    return NumericalEventSet(sf.elements, vectors)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _wrap(labels, per_line=12):
    return "\n".join(" ".join(labels[i:i + per_line])
                     for i in range(0, len(labels), per_line))


def _cover_pairs(poset: FinitePoset):
    """Transitive reduction of the strict order."""
    up, els = poset.up, poset.elements
    down = _transpose(up)
    # x < y is a cover when nothing but x and y lies between them
    return [(els[x], els[y]) for x, ux in enumerate(up) for y in _bits(ux & ~(1 << x))
            if down[y] & ux == 1 << x | 1 << y]


def from_oml(oml: FiniteOml, states=()) -> StructureFile:
    els = oml.elements
    return StructureFile("oml", els, tuple(_cover_pairs(oml.poset)),
                         complement=tuple((lab, els[c]) for lab, c in zip(els, oml.comp)),
                         states=tuple(map(tuple, states)))


def from_rlse(r: RlseTables) -> StructureFile:
    els = r.elements
    return StructureFile("rlse", els, zero=els[r.zero], one=els[r.one],
                         oplus=tuple(tuple(els[v] for v in row) for row in r.oplus),
                         times=tuple(tuple(els[v] for v in row) for row in r.times))


def from_events(ev: NumericalEventSet) -> StructureFile:
    return StructureFile("events", ev.elements, events=tuple(zip(ev.elements, ev.events)))


def serialize_structure(sf: StructureFile) -> str:
    lines = [f"KIND {sf.kind}", "ELEMENTS", _wrap(sf.elements)]
    if sf.kind == "oml":
        lines.append("COVERS")
        lines += [f"{a} {b}" for a, b in sf.covers]
        if sf.leq:
            lines.append("LEQ")
            lines += [f"{a} {b}" for a, b in sf.leq]
        lines.append("COMPLEMENT")
        lines += [f"{a} {b}" for a, b in sf.complement]
        if sf.states:
            lines.append("STATES")
            lines += [" ".join(str(v) for v in row) for row in sf.states]
    elif sf.kind == "rlse":
        lines.append(f"ZERO {sf.zero}")
        lines.append(f"ONE {sf.one}")
        lines.append("OPLUS")
        lines += [" ".join(row) for row in sf.oplus]
        lines.append("TIMES")
        lines += [" ".join(row) for row in sf.times]
    else:
        lines.append("EVENTS")
        lines += [f"{lab} " + " ".join(str(v) for v in vec)
                  for lab, vec in sf.events]
    return "\n".join(lines) + "\n"
