"""Command line front end.

Every subcommand builds one report: the command echo, a verdict per
check, optional witnesses, and command-specific data.  Text output is a
short fixed-format listing; --json emits the same report as JSON
(validating against report_schema.json).  Exit status is 0 when all
checks pass, 1 when some check fails, 2 for unusable input.

Each subcommand is declared once, in _parser, and main loads and
kind-checks its target.  Targets resolve in order: an existing file
path, a builtin corpus name (plus "o6", the non-orthomodular hexagon),
then a file under $OMLKIT_CORPUS_DIR.

Only the lattice and file modules are imported up front; each subcommand
imports the rest of what it runs, so a process compiles no module it
does not use: json loads only under --json, fractions only with states.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import NamedTuple

from . import structfile
from .errors import (
    CustomPlusInvalid,
    CycleError,
    InvalidState,
    MalformedTable,
    NoBoundsError,
    NotAnEventAlgebra,
    NotAnRlse,
    NotLatticeOrdered,
    ParseError,
    UnknownLabel,
    UnknownName,
    ValidationError,
)
from .lattice import check_oml
from .laws import LAWS, Verdict

__all__ = ["main"]


class _Usage(Exception):
    """Input that cannot be processed at all; maps to exit status 2."""


class _Early(Exception):
    """Ends a subcommand early with the failing report it carries."""


class _Target(NamedTuple):
    """A lattice as the arguments of check_oml (poset and complement
    vector) with any STATES rows, a ring, or an event set."""

    kind: str
    name: str
    poset: object = None
    comp: tuple | None = None
    ring: object = None
    events: object = None
    states: tuple = ()


def _read(path: Path) -> str:
    """A file's text; one that is not UTF-8 is unusable input."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise _Usage(f"{path} is not UTF-8 text: {exc}") from None


def _load_target(arg: str) -> _Target:
    path = Path(arg)
    text = None
    name = arg
    if path.is_file():
        text = _read(path)
        name = path.name
    else:
        from . import corpus

        if arg in corpus.RLSE_NAMES:
            return _Target("rlse", arg, ring=corpus.builtin(arg))
        if arg in corpus.OML_NAMES:
            oml = corpus.builtin(arg)
            return _Target("oml", arg, poset=oml.poset, comp=oml.comp)
        if arg == "o6":
            return _Target("oml", arg, *corpus.o6_candidate())
        base = os.environ.get("OMLKIT_CORPUS_DIR")
        if base:
            for cand in (Path(base) / arg, Path(base) / (arg + ".txt")):
                if cand.is_file():
                    text = _read(cand)
                    break
    if text is None:
        raise _Usage(f"no such file or builtin structure: {arg}")
    sf = structfile.parse_structure(text)
    if sf.kind == "oml":
        poset, comp = structfile.to_oml_input(sf)
        # STATES columns follow ELEMENTS, which need not list the bottom first
        pos = {lab: i for i, lab in enumerate(sf.elements)}
        cols = [pos[lab] for lab in poset.elements]
        states = tuple(tuple(row[i] for i in cols) for row in sf.states)
        return _Target("oml", name, poset=poset, comp=comp, states=states)
    if sf.kind == "rlse":
        return _Target("rlse", name, ring=structfile.to_rlse(sf))
    return _Target("events", name, events=structfile.to_events(sf))


def _oml(target: _Target, command: str):
    """The lattice of an oml target; failed laws end the command."""
    verdict, oml = check_oml(target.poset, target.comp)
    if oml is None:
        raise _Early(_report(command, target.name, _entries(verdict)))
    return oml


def _full_state_set(target: _Target, command: str, oml):
    """The states find_full_state_set collects, with their passing entry; a
    pair no state separates ends the command."""
    from . import states

    result = states.find_full_state_set(oml)
    if not result.ok:
        raise _Early(_report(command, target.name, [_check(
            "full-state-set", False, "no state separates the witness pair",
            witness={"x": result.failure.x, "y": result.failure.y})]))
    return result.states, _check("full-state-set", True, f"{len(result.states)} states")


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------


def _witness(raw) -> dict | None:
    if not raw:
        return None
    out = {}
    for k, v in raw.items():
        out[str(k)] = v if isinstance(v, int) else str(v)
    return out


def _check(name, passed, detail=None, witness=None):
    return {"name": name, "passed": bool(passed), "detail": detail,
            "witness": _witness(witness)}


def _report(command, target, checks, data=None):
    return {
        "command": command,
        "target": target,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
        "data": data,
    }


def _entries(verdict: Verdict) -> list:
    """One entry per checked law.  A failed ring law shows the whole failure
    (statement, witness and detail), any other law its bare detail."""
    out = []
    for law in verdict.checked:
        f = verdict.failure_for(law)
        if f is None:
            out.append(_check(law, True))
        else:
            ring = LAWS.get(law, ("",))[0] == "ring"
            out.append(_check(law, False, str(f) if ring else f.detail or None,
                              witness=f.witness))
    return out


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_check_oml(args, target):
    verdict, _ = check_oml(target.poset, target.comp)
    return _report(args.command, target.name, _entries(verdict))


def _cmd_check_rlse(args, target):
    from .rlse import (
        check_correspondence,
        check_derived_identities,
        check_r4_orthogonal_form,
        check_rlse,
    )

    r = target.ring
    axioms = check_rlse(r)
    entries = _entries(axioms)
    if axioms.passed:
        entries += _entries(check_derived_identities(r))
        r4, orthogonal = check_r4_orthogonal_form(r)
        agree = r4.passed == orthogonal.passed
        f = orthogonal.first
        entries.append(_check(
            "orthogonal-addition-form", agree and r4.passed,
            None if agree else "the two R4 readings disagree",
            witness=f.witness if f else None))
    a, b = (v.passed for v in check_correspondence(r))
    entries.append(_check("correspondence-verdicts-agree", a == b,
                          f"ring axioms {a}, lattice side {b}"))
    return _report(args.command, target.name, entries)


def _cmd_derive(args, target):
    from .rlse import derived_lattice

    try:
        oml = derived_lattice(target.ring)
    except NotAnRlse as exc:
        return _report(args.command, target.name, _entries(exc.verdict))
    text = structfile.serialize_structure(structfile.from_oml(oml))
    return _report(args.command, target.name, [_check("is-valid-ring", True)],
                   {"structure": text})


def _custom_plus(path: str, oml) -> list:
    """The addition table of an rlse file as the index table rlse_from_oml
    takes, re-indexed into the order of the lattice elements; the file may
    list them in any order.  Its TIMES, ZERO and ONE, re-indexed the same
    way, must be the lattice's meet, bottom and top."""
    sf = structfile.parse_structure(_read(Path(path)))
    if sf.kind != "rlse":
        raise _Usage("custom addition must come from an rlse file")
    if set(sf.elements) != set(oml.elements):
        raise _Usage("custom addition must be over the elements of the lattice")
    row = {lab: i for i, lab in enumerate(sf.elements)}
    order = [row[lab] for lab in oml.elements]  # lattice index -> file index
    at = {i: x for x, i in enumerate(order)}  # file index -> lattice index
    times = tuple(tuple(at[sf.times[i][j]] for j in order) for i in order)
    if times != oml.meet or (at[sf.zero], at[sf.one]) != (oml.poset.bottom, oml.poset.top):
        raise _Usage("custom addition file's TIMES, ZERO and ONE must be the "
                     "lattice's meet, bottom and top")
    return [[at[sf.oplus[i][j]] for j in order] for i in order]


def _cmd_construct(args, target):
    from .rlse import rlse_from_oml

    oml = _oml(target, args.command)
    plus = args.plus
    if plus.startswith("custom="):
        plus = _custom_plus(plus[7:], oml)
    elif plus not in ("t1", "t2"):
        raise _Usage(f"--plus must be t1, t2 or custom=FILE, got {plus!r}")
    try:
        ring = rlse_from_oml(oml, plus)
    except CustomPlusInvalid as exc:
        return _report(args.command, target.name, _entries(Verdict.of(exc.failure)))
    text = structfile.serialize_structure(structfile.from_rlse(ring))
    return _report(args.command, target.name,
                   [_check("addition-is-valid", True)], {"structure": text})


def _cmd_terms_enumerate(args, target):
    from . import terms

    ts = terms.enumerate_canonical_terms()
    sets = terms.canonical_index_sets()
    data = {"terms": [
        {"index": i, "index_set": sorted(s), "term": terms.format_term(t)}
        for i, (s, t) in enumerate(zip(sets, ts))
    ]}
    return _report(args.command, None,
                   [_check("canonical-terms", len(ts) == 96, f"{len(ts)} terms")],
                   data)


def _filter_corpus(names):
    from . import corpus

    omls = []
    for name in names:
        if name not in corpus.OML_NAMES:
            raise _Usage(f"not a builtin lattice: {name}")
        omls.append(corpus.builtin(name))
    return tuple(omls)


def _cmd_terms_filter(args, target):
    from . import corpus, terms

    names = corpus.FILTER_CORPUS if args.corpus is None else tuple(args.corpus.split(","))
    omls = _filter_corpus(names)
    result = terms.filter_symmetric_difference_terms(omls)
    classes = [{
        "index_sets": [sorted(s) for s in cls.index_sets],
        "representative": terms.format_term(cls.terms[0]),
    } for cls in result.survivors]
    eliminated = [{
        "index_set": sorted(e.index_set),
        "condition": e.condition,
        "corpus_member": names[e.corpus_position],
        "witness": _witness(e.witness),
    } for e in result.eliminated]
    data = {"classes": classes, "eliminated": eliminated,
            "corpus": list(names)}
    entry = _check("classification", True,
                   f"{len(classes)} surviving classes, "
                   f"{len(eliminated)} candidates eliminated")
    return _report(args.command, ",".join(names), [entry], data)


def _cmd_states_find(args, target):
    oml = _oml(target, args.command)
    found, entry = _full_state_set(target, args.command, oml)
    text = structfile.serialize_structure(structfile.from_oml(oml, found))
    return _report(args.command, target.name, [entry],
                   {"structure": text, "count": len(found)})


def _cmd_states_check_full(args, target):
    from . import states

    oml = _oml(target, args.command)
    if not target.states:
        raise _Usage("the target has no STATES section")
    try:
        full = states.check_full(oml, target.states)
    except InvalidState as exc:
        entry = _check("states-valid", False,
                       f"state {exc.position} fails {exc.failure}")
        return _report(args.command, target.name, [entry])
    entries = [_check("states-valid", True, f"{len(target.states)} states")]
    return _report(args.command, target.name, entries + _entries(full))


def _ring_test_entries(r) -> list:
    from .rlse import check_rlse, is_boolean_ring

    axioms = check_rlse(r)
    if not axioms.passed:
        return _entries(axioms)
    identity_route, ring_route = is_boolean_ring(r)
    entries = [_check("valid-ring", True)]
    for label, f in (("identity-route", identity_route.first),
                     ("ring-route", ring_route.first),
                     ("boolean-ring", ring_route.first)):
        entries.append(_check(label, f is None, str(f) if f else None,
                              witness=f.witness if f else None))
    return entries


def _event_test_entries(ev) -> list:
    from . import states

    try:
        w, _ = states.boolean_test(ev)
    except NotLatticeOrdered as exc:
        return [_check("lattice-ordered", False, str(exc))]
    except NotAnEventAlgebra as exc:
        return _entries(Verdict.of(exc.verdict.first))
    if w is None:
        return [_check("ring-inequality", True,
                       "p+q-2(p^q) never exceeds 1; addition matches "
                       "the symmetric difference")]
    detail = (f"p+q-2(p^q) reaches {w['value']} at p={w['p']}, q={w['q']} "
              f"in state {w['state']}")
    return [_check("ring-inequality", False, detail, witness=w)]


def _cmd_boolean_test(args, target):
    if target.kind == "rlse":
        return _report(args.command, target.name, _ring_test_entries(target.ring))
    if target.kind == "events":
        return _report(args.command, target.name, _event_test_entries(target.events))
    from . import states

    oml = _oml(target, args.command)
    found, entry = _full_state_set(target, args.command, oml)
    entries = [entry] + _event_test_entries(states.events_from_states(oml, found))
    return _report(args.command, target.name, entries, {"states": len(found)})


def _cmd_verify_all(args, target):
    from . import suite

    entries = []
    for r in suite.run_all():
        entries.append(_check(f"criterion-{r.number}", r.passed,
                              f"{r.title}: {r.detail}"))
    return _report(args.command, None, entries)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _strip_witnesses(report):
    for c in report["checks"]:
        c["witness"] = None
    data = report.get("data")
    if data and "eliminated" in data:
        for row in data["eliminated"]:
            row["witness"] = None


def _render_text(report) -> str:
    data = report.get("data") or {}
    if report["passed"] and "structure" in data:
        # a structure file alone, so that the output is valid input
        return data["structure"].rstrip("\n")
    head = report["command"]
    if report["target"]:
        head += " " + report["target"]
    lines = [f"{head}: {'PASS' if report['passed'] else 'FAIL'}"]
    for c in report["checks"]:
        mark = "ok" if c["passed"] else "FAIL"
        line = f"  [{mark}] {c['name']}"
        if c["detail"]:
            line += f": {c['detail']}"
        lines.append(line)
        if c["witness"]:
            pairs = " ".join(f"{k}={v}" for k, v in sorted(c["witness"].items()))
            lines.append(f"       witness: {pairs}")
    if "terms" in data:
        for row in data["terms"]:
            labels = ",".join(str(v) for v in row["index_set"]) or "-"
            lines.append(f"{row['index']:>2}  {{{labels}}}  {row['term']}")
    if "classes" in data:
        lines.append(f"surviving classes: {len(data['classes'])}")
        for pos, cls in enumerate(data["classes"], start=1):
            sets = " ".join("{" + ",".join(map(str, s)) + "}"
                            for s in cls["index_sets"])
            lines.append(f"  class {pos}: {sets}")
            lines.append(f"    representative: {cls['representative']}")
        lines.append(f"eliminated candidates: {len(data['eliminated'])}")
        for row in data["eliminated"]:
            if row["witness"] is None:
                continue
            sets = ",".join(map(str, row["index_set"]))
            pairs = " ".join(f"{k}={v}" for k, v in sorted(row["witness"].items()))
            lines.append(f"  {{{sets}}}: {row['condition']} fails on "
                         f"{row['corpus_member']} at {pairs}")
    return "\n".join(lines)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omlkit",
        description="verification toolkit for orthomodular lattices and "
                    "their event rings",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit the report as JSON")
    common.add_argument("--witnesses", action="store_true",
                        help="include counterexample assignments")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, run, reads=None):
        # reads: the kind of structure the file must hold, "any", or None for no file
        p = sub.add_parser(name, parents=[common], help=help_text)
        if reads:
            p.add_argument("file", help="structure file or builtin name")
        p.set_defaults(run=run, reads=reads)
        return p

    add("check-oml", "verify the orthomodular lattice laws", _cmd_check_oml, "oml")
    add("check-rlse", "verify the ring axioms and their consequences", _cmd_check_rlse, "rlse")
    add("derive", "emit the lattice of a valid ring", _cmd_derive, "rlse")
    p = add("construct", "equip a lattice with an addition", _cmd_construct, "oml")
    p.add_argument("--plus", default="t1",
                   help="t1, t2 or custom=FILE (default t1)")
    add("terms-enumerate", "list the 96 canonical binary terms", _cmd_terms_enumerate)
    p = add("terms-filter", "classify the addition candidates", _cmd_terms_filter)
    p.add_argument("--corpus", help="comma-separated builtin lattice names")
    add("states-find", "search for a full state set", _cmd_states_find, "oml")
    add("states-check-full", "check that the listed states recover the order",
        _cmd_states_check_full, "oml")
    add("boolean-test", "decide Booleanness of a ring, lattice or event set",
        _cmd_boolean_test, "any")
    add("verify-all", "run the whole verification suite", _cmd_verify_all)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        target = None
        if args.reads:
            target = _load_target(args.file)
            if args.reads not in ("any", target.kind):
                raise _Usage(f"{args.command} needs an {args.reads} structure, got {target.kind}")
        report = args.run(args, target)
    except _Early as exc:
        report = exc.args[0]
    except (_Usage, ParseError, ValidationError, UnknownLabel, UnknownName,
            MalformedTable, CycleError, NoBoundsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.witnesses:
        _strip_witnesses(report)
    if args.json:
        import json
        text = json.dumps(report, indent=2, sort_keys=True)
    else:
        text = _render_text(report)
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader left early; send what is left, and the flush at exit, nowhere
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
