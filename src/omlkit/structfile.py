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
ONE default to the first and last element.  Labels exist only in the
text: parsing turns an rlse file's tables (through _indices) and
constants into element indices, and serializing turns them back.  An
events file gives one row per member: its label followed by its value in
each state.  Rationals are written in Fraction notation (1/2, 3, 0).
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import MalformedTable, ParseError, UnknownLabel, ValidationError
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

_SECTIONS = {
    "oml": {"ELEMENTS", "COVERS", "LEQ", "COMPLEMENT", "STATES"},
    "rlse": {"ELEMENTS", "ZERO", "ONE", "OPLUS", "TIMES"},
    "events": {"ELEMENTS", "EVENTS"},
}
_HEADERS = frozenset().union(*_SECTIONS.values())  # a section name of any kind


class StructureFile(NamedTuple):
    """Parsed but not yet validated file contents.  The rlse fields zero,
    one, oplus and times hold element indices; labels exist only in the text."""

    kind: str
    elements: tuple[str, ...] = ()
    covers: tuple[tuple[str, str], ...] = ()
    leq: tuple[tuple[str, str], ...] = ()
    complement: tuple[tuple[str, str], ...] = ()
    zero: int | None = None
    one: int | None = None
    oplus: tuple[tuple[int, ...], ...] = ()
    times: tuple[tuple[int, ...], ...] = ()
    states: tuple[tuple[Fraction, ...], ...] = ()
    events: tuple[tuple[str, tuple[Fraction, ...]], ...] = ()


def _column(body: str, k: int) -> int:
    """The 1-based column of token k of body, as body.split() numbers them."""
    return [m.start() for m in re.finditer(r"\S+", body)][k] + 1


def _fraction(Fraction, lineno: int, body: str, tokens, k: int) -> Fraction:
    try:
        return Fraction(tokens[k])
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"not a rational number: {tokens[k]!r}", lineno,
                         _column(body, k)) from None


def _indices(rows, pos: dict, name: str) -> tuple[tuple[int, ...], ...]:
    """A square label table as an index table, through pos (label ->
    index); the first entry that is no element raises MalformedTable."""
    try:
        return tuple(tuple(map(pos.__getitem__, r)) for r in rows)
    except KeyError as exc:  # the first entry that is no element
        raise MalformedTable(
            f"{name} table entry {exc.args[0]!r} is not an element") from None


def parse_structure(text: str) -> StructureFile:
    """Parse file text; raises ParseError with line and column on errors.

    An rlse file's labels then become indices: an unknown ZERO or ONE
    raises UnknownLabel, a table entry that is no element MalformedTable."""
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
        raise ParseError("expected 'KIND oml|rlse|events'", lineno, _column(head, 0))
    kind = tokens[1]
    if kind not in _SECTIONS:
        raise ParseError(f"unknown kind {kind!r}", lineno, _column(head, 1))

    known = _SECTIONS[kind]
    constants = {}  # ZERO and ONE, by section name
    seen = set()
    section = None
    rows: dict[str, list] = {name: [] for name in known}

    for lineno, body in lines[1:]:
        tokens = body.split()
        first = tokens[0]
        if first in _HEADERS:
            if first not in known:
                raise ParseError(f"section {first} not allowed in a {kind} file",
                                 lineno, _column(body, 0))
            if first in seen:
                raise ParseError(f"duplicate section {first}", lineno, _column(body, 0))
            seen.add(first)
            if first in ("ZERO", "ONE"):
                if len(tokens) != 2:
                    raise ParseError(f"{first} takes exactly one label", lineno, 1)
                constants[first] = tokens[1]
                section = None
            else:
                section = first
                if len(tokens) > 1:
                    raise ParseError("section header takes no arguments", lineno,
                                     _column(body, 1))
            continue
        if section is None:
            raise ParseError(f"content before any section: {first!r}", lineno, _column(body, 0))
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
            states.append(tuple(_fraction(Fraction, ln, body, tokens, k) for k in range(n)))
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
                table.append(tokens)
            if len(table) != n:
                raise ParseError(f"{name} needs {n} rows, got {len(table)}", lineno, 1)
            tables.append(table)
        pos = {lab: i for i, lab in enumerate(elements)}
        zero, one = constants.get("ZERO", elements[0]), constants.get("ONE", elements[-1])
        for label in (zero, one):
            if label not in pos:
                raise UnknownLabel(label)
        return StructureFile(kind, elements, zero=pos[zero], one=pos[one],
                             oplus=_indices(tables[0], pos, "oplus"),
                             times=_indices(tables[1], pos, "times"))
    out = []
    width = None
    for ln, body, tokens in rows["EVENTS"]:
        if len(tokens) < 2:
            raise ParseError("an EVENTS row needs a label and values", ln, 1)
        if width is None:
            width = len(tokens) - 1
        elif len(tokens) - 1 != width:
            raise ParseError(f"an EVENTS row needs {width} values", ln, 1)
        vals = tuple(_fraction(Fraction, ln, body, tokens, k) for k in range(1, len(tokens)))
        out.append((tokens[0], vals))
    if len(out) != n:
        raise ParseError(f"EVENTS needs one row per element, got {len(out)}",
                         lineno, 1)
    return StructureFile(kind, elements, events=tuple(out))


# ---------------------------------------------------------------------------
# Building structures out of parsed files
# ---------------------------------------------------------------------------


def to_oml_input(sf: StructureFile):
    """(poset, comp) from an oml file, ready for check_oml; the first element
    in the poset's order without a complement pair raises UnknownLabel."""
    if sf.kind != "oml":
        raise ValidationError(f"expected an oml file, got {sf.kind}")
    poset = build_poset(sf.elements, sf.covers + sf.leq)
    pos = {lab: i for i, lab in enumerate(poset.elements)}
    comp = {}
    for a, b in sf.complement:
        if a not in pos or b not in pos:
            raise ValidationError(f"complement pair ({a}, {b}) uses an unknown label")
        if a in comp and comp[a] != b:
            raise ValidationError(f"conflicting complements for {a}")
        comp[a] = b
        comp.setdefault(b, a)
    try:
        return poset, tuple(pos[comp[lab]] for lab in poset.elements)
    except KeyError as exc:  # the first element without a pair
        raise UnknownLabel(exc.args[0]) from None


def to_rlse(sf: StructureFile) -> RlseTables:
    from .rlse import RlseTables

    if sf.kind != "rlse":
        raise ValidationError(f"expected an rlse file, got {sf.kind}")
    return RlseTables(sf.elements, sf.oplus, sf.times, sf.zero, sf.one)


def to_events(sf: StructureFile) -> NumericalEventSet:
    """Rebuild the event set: each element's row of values is its vector."""
    from .states import NumericalEventSet

    if sf.kind != "events":
        raise ValidationError(f"expected an events file, got {sf.kind}")
    matrix = dict(sf.events)
    for lab in sf.elements:
        if lab not in matrix:
            raise ValidationError(f"no EVENTS row for element {lab!r}")
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
    return StructureFile("rlse", r.elements, zero=r.zero, one=r.one, oplus=r.oplus,
                         times=r.times)


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
        label = sf.elements.__getitem__
        lines.append(f"ZERO {label(sf.zero)}")
        lines.append(f"ONE {label(sf.one)}")
        lines.append("OPLUS")
        lines += [" ".join(map(label, row)) for row in sf.oplus]
        lines.append("TIMES")
        lines += [" ".join(map(label, row)) for row in sf.times]
    else:
        lines.append("EVENTS")
        lines += [f"{lab} " + " ".join(str(v) for v in vec)
                  for lab, vec in sf.events]
    return "\n".join(lines) + "\n"
