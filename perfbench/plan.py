"""The command sequence of one pass and the known answer for every command.

Expected verdicts come from how each input was built (inputs.py writes
them into the manifest), never from omlkit:

- a product is Boolean exactly when all its factors are Boolean;
- every lattice here has a full state set, so ``states-find`` succeeds
  and its output passes ``states-check-full``; a second search prints
  the same file;
- ``derive`` of a t1 or t2 ring returns the input's covers and complement,
  since both rings multiply by the lattice meet and send x+1 to x';
- ``o6`` fails the orthomodular law;
- a ring or event set made from a lattice is Boolean exactly when the
  lattice is.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: Metric that sums the wall time of each subcommand's invocations.
METRIC_OF = {
    "check-oml": "check_oml_s",
    "construct": "construct_s",
    "check-rlse": "check_rlse_s",
    "derive": "derive_s",
    "states-find": "states_find_s",
    "states-check-full": "states_check_full_s",
    "boolean-test": "boolean_test_s",
    "verify-all": "verify_all_s",
    "terms-enumerate": "terms_s",
    "terms-filter": "terms_s",
}


@dataclass
class Op:
    """One CLI invocation and the check of its outcome.

    check(rc, stdout, stderr) returns None when the outcome is the known
    answer, else the reason it is not.  save keeps stdout for later
    commands; needs names a file an earlier command (or prepare) must
    have produced; prepare makes a derived input just before the run.
    known_defect marks an input the CLI is known to crash on: the crash
    still counts as a failed command, but not as a wrong verdict.
    """

    args: list
    check: Callable
    save: Path | None = None
    needs: Path | None = None
    prepare: Callable | None = None
    known_defect: bool = False

    @property
    def command(self) -> str:
        return self.args[0]


_SECTIONS = {"ELEMENTS", "COVERS", "LEQ", "COMPLEMENT", "STATES", "ZERO", "ONE",
             "OPLUS", "TIMES", "EVENTS"}


def _parse(text: str) -> dict:
    """Sections of a structure file: {section: [token lists]}."""
    out, section = {}, None
    for line in text.splitlines():
        tokens = line.split("#", 1)[0].split()
        if not tokens:
            continue
        if tokens[0] == "KIND":
            out["KIND"] = tokens[1:]
        elif tokens[0] in _SECTIONS:
            section = tokens[0]
            out[section] = [tokens[1:]] if len(tokens) > 1 else []
        elif section is not None:
            out[section].append(tokens)
    return out


def _expect(rc: int, *, present=(), absent=()):
    def check(got_rc, out, err):
        if got_rc != rc:
            return f"exit {got_rc}, expected {rc}"
        for text in present:
            if text not in out:
                return f"output lacks {text!r}"
        for text in absent:
            if text in out:
                return f"output has {text!r}"
        return None
    return check


def _passes(**kw):
    return _expect(0, absent=("[FAIL]",), **kw)


def _boolean_verdict(boolean: bool, check_name: str):
    line = f"[{'ok' if boolean else 'FAIL'}] {check_name}"
    return _expect(0 if boolean else 1, present=(line,))


def _emits(kind: str, labels: set, extra=None):
    """Exit 0 and a structure of the given kind over exactly these labels."""
    def check(rc, out, err):
        if rc != 0:
            return f"exit {rc}, expected 0"
        sf = _parse(out)
        if sf.get("KIND") != [kind]:
            return f"output is not a {kind} structure"
        got = {t for row in sf.get("ELEMENTS", ()) for t in row}
        if got != labels:
            return "emitted elements differ from the input's"
        return extra(sf) if extra else None
    return check


def _same_lattice(ref: dict):
    covers = {tuple(c) for c in ref["covers"]}

    def extra(sf):
        if {tuple(row) for row in sf.get("COVERS", ())} != covers:
            return "derived order differs from the input's"
        if {a: b for a, b in sf.get("COMPLEMENT", ())} != ref["complement"]:
            return "derived complement differs from the input's"
        return None
    return extra


def _has_states(n: int):
    def extra(sf):
        rows = sf.get("STATES", ())
        if not rows or any(len(r) != n for r in rows):
            return "no well-formed STATES section"
        return None
    return extra


def _same_output(path: Path):
    """Exit 0 and exactly the output saved in path."""
    def check(rc, out, err):
        if rc != 0:
            return f"exit {rc}, expected 0"
        return None if out == path.read_text() else "output differs from the first search"
    return check


def events_from_states(states_file: Path, events_file: Path) -> None:
    """Rewrite an emitted state set as a KIND events file: each element
    becomes the vector of its values across the states."""
    sf = _parse(states_file.read_text())
    labels = [t for row in sf["ELEMENTS"] for t in row]
    columns = list(zip(*sf["STATES"]))
    lines = ["KIND events", "ELEMENTS", " ".join(labels), "EVENTS"]
    lines += [f"{lab} " + " ".join(col) for lab, col in zip(labels, columns)]
    events_file.write_text("\n".join(lines) + "\n")


def lattice_chain(lat: dict, work: Path) -> list:
    """The command chain a user composes on one lattice."""
    t = lat["target"]
    if not lat["orthomodular"]:
        fails = _expect(1, present=("[FAIL] orthomodular-law",))
        return [Op(["check-oml", t], fails),
                Op(["construct", t, "--plus", "t1"], fails),
                Op(["construct", t, "--plus", "t2"], fails),
                Op(["states-find", t], fails),
                Op(["boolean-test", t], fails)]
    labels = set(lat["complement"])
    tag, boolean = lat["tag"], lat["boolean"]
    found, events = work / f"{tag}.states.txt", work / f"{tag}.events.txt"

    def ring(plus):
        path = work / f"{tag}.{plus}.txt"
        return [
            Op(["construct", t, "--plus", plus], _emits("rlse", labels), save=path),
            Op(["check-rlse", str(path)], _passes(), needs=path),
            Op(["derive", str(path)], _emits("oml", labels, _same_lattice(lat)), needs=path),
            Op(["boolean-test", str(path)], _boolean_verdict(boolean, "boolean-ring"),
               needs=path),
        ]

    def check_oml():
        return Op(["check-oml", t], _passes())

    def check_full(path):
        return Op(["states-check-full", str(path)],
                  _passes(present=("[ok] order-determining",)), needs=path)

    # Repeats of the two shortest checks run at later points of the chain,
    # so that their summed time samples the host's speed more often
    # (README.md, "Noise").
    extra = {"t1": [], "lattice": [], "end": []}
    for spot in ("end", "t1")[:lat.get("check_oml_runs", 1) - 1]:
        extra[spot].append(check_oml())
    for spot in ("end", "lattice")[:lat.get("check_full_runs", 1) - 1]:
        extra[spot].append(check_full(found))

    ops = [check_oml()]
    ops += ring("t1") + extra["t1"] + ring("t2")
    ops += [
        Op(["states-find", t], _emits("oml", labels, _has_states(len(labels))), save=found),
        check_full(found),
        Op(["boolean-test", t], _boolean_verdict(boolean, "ring-inequality")),
        *extra["lattice"],
        Op(["boolean-test", str(events)], _boolean_verdict(boolean, "ring-inequality"),
           needs=found, prepare=lambda: events_from_states(found, events)),
    ]
    if lat.get("search_twice"):
        # The ladder's three searches per pass spread about 0.2 between
        # runs, from the host's noise; a second search brought that to
        # about 0.15 (README.md, "Noise").
        again = work / f"{tag}.states2.txt"
        ops += [
            Op(["states-find", t], _same_output(found), save=again, needs=found),
            check_full(again),
        ]
    return ops + extra["end"]


def _ring_ops(ring: dict) -> list:
    t = ring["target"]
    labels = set(ring["complement"])
    return [Op(["check-rlse", t], _passes()),
            Op(["derive", t], _emits("oml", labels, _same_lattice(ring))),
            Op(["boolean-test", t], _boolean_verdict(ring["boolean"], "boolean-ring"))]


def _event_ops(ev: dict) -> list:
    if ev["names_failed_law"]:
        # exit 1 with a failed law named in the report
        check = _expect(ev["exit"], present=("[FAIL] ",))
    else:
        check = _expect(ev["exit"])
    return [Op(["boolean-test", ev["target"]], check, known_defect=ev["known_defect"])]


def _count_lines(pattern: str, count: int):
    regex = re.compile(pattern, re.M)

    def check(rc, out, err):
        if rc != 0:
            return f"exit {rc}, expected 0"
        got = len(regex.findall(out))
        return None if got == count else f"{got} lines match {pattern!r}, expected {count}"
    return check


#: Known answers of the corpus-wide commands, from the source paper: 96
#: canonical binary terms, two surviving addition classes, nine criteria.
_COMMAND_CHECKS = {
    "verify-all": _count_lines(r"^  \[ok\] criterion-\d:", 9),
    "terms-enumerate": _count_lines(r"^\s*\d+  \{", 96),
    "terms-filter": _expect(0, present=("surviving classes: 2\n",)),
}


def build(manifest: dict, work: Path) -> list:
    """Every command of one pass, in order."""
    ops = [Op(list(args), _COMMAND_CHECKS[args[0]]) for args in manifest["commands"]]
    for lat in manifest["lattices"]:
        ops += lattice_chain(lat, work)
    for ring in manifest["rings"]:
        ops += _ring_ops(ring)
    for ev in manifest["events"]:
        ops += _event_ops(ev)
    return ops
