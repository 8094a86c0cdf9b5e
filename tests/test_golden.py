"""Golden CLI output: stdout and exit status of every failing path, and of
the Boolean tests that pass, pinned.

Each case runs one command three ways (plain text, text with witnesses,
and JSON with witnesses) and compares the transcript byte for byte with
tests/golden/<case>.txt.  Input files are written to a temporary
directory; the CLI prints only their names, so transcripts do not depend
on where they live.

To re-record after an intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from omlkit import cli, corpus, structfile
from omlkit.lattice import direct_product
from omlkit.rlse import RlseTables, rlse_from_oml

GOLDEN = Path(__file__).resolve().parent / "golden"
DATA = Path(__file__).resolve().parent.parent / "data"

MODES = ((), ("--witnesses",), ("--json", "--witnesses"))


def _ring_mutant(table, *cells):
    r = corpus.builtin("paper-example-2set")
    rows = [list(row) for row in getattr(r, table)]
    for i, j, value in cells:
        rows[i][j] = value
    frozen = tuple(tuple(row) for row in rows)
    if table == "oplus":
        r = RlseTables(r.elements, frozen, r.times, r.zero, r.one)
    else:
        r = RlseTables(r.elements, r.oplus, frozen, r.zero, r.one)
    return structfile.serialize_structure(structfile.from_rlse(r))


def _ring_file(oml, plus):
    return structfile.serialize_structure(structfile.from_rlse(rlse_from_oml(oml, plus)))


#: Rings built on lattices: the t1 and t2 rings of boolean_3 are Boolean;
#: the t1 rings of mo3 (eight elements, like a Boolean ring) and of
#: mo2 x boolean_2 fail the ring route at a witness.
LATTICE_RINGS = {
    "boolean_3_t1": (lambda: corpus.builtin("boolean_3"), "t1"),
    "boolean_3_t2": (lambda: corpus.builtin("boolean_3"), "t2"),
    "mo3_t1": (lambda: corpus.builtin("mo3"), "t1"),
    "mo2xb2_t1": (lambda: direct_product(corpus.builtin("mo2"), corpus.builtin("boolean_2")),
                  "t1"),
}


#: Mutants of the shipped 2-set ring, as (table, (row, column, value)...),
#: and the laws they break.
RING_MUTANTS = {
    "r1": ("oplus", (3, 1, 0)),             # R1
    "r1_r2_r3_r4": ("oplus", (0, 3, 0)),    # R1, R2, R3, R4
    "r2_r3_r4": ("oplus", (3, 3, 1)),       # R2, R3, R4
    "idempotent": ("times", (1, 1, 0)),     # times-idempotent, R2
    "commutative": ("times", (0, 1, 1)),    # times-commutative, -associative, R2-R4
    "unit": ("times", (0, 3, 1)),           # times-unit among others
    "zero": ("times", (0, 0, 1)),           # times-zero among others
    # {1}*{2} = {2}*{1} = {1,2}: commutative and idempotent but not
    # associative; times-associative, R2, R3, R4
    "times_pair": ("times", (1, 2, 3), (2, 1, 3)),
}

#: The addition of the ring t1 builds on boolean_2, in its element order.
B2_T1 = [["{}", "{1}", "{2}", "{1,2}"],
         ["{1}", "{}", "{1,2}", "{2}"],
         ["{2}", "{1,2}", "{}", "{1}"],
         ["{1,2}", "{2}", "{1}", "{}"]]


def _custom_plus(edits):
    rows = [list(row) for row in B2_T1]
    for i, j, v in edits:
        rows[i][j] = v
    labels = " ".join(B2_T1[0])
    meet = "{} {} {} {}\n{} {1} {} {1}\n{} {} {2} {2}\n{} {1} {2} {1,2}\n"
    return ("KIND rlse\nELEMENTS\n" + labels + "\nOPLUS\n"
            + "\n".join(" ".join(r) for r in rows) + "\nTIMES\n" + meet)


#: Custom additions for boolean_2 that fail each pre-check of construct.
CUSTOM_PLUS = {
    "r1": [(0, 1, "{2}")],
    "plus_at_one": [(1, 3, "{1}"), (3, 1, "{1}")],
    "r4": [(1, 2, "{1}"), (2, 1, "{1}")],
}


def _events(rows):
    lines = ["KIND events", "ELEMENTS", " ".join(lab for lab, _ in rows), "EVENTS"]
    lines += [f"{lab} {values}" for lab, values in rows]
    return "\n".join(lines) + "\n"


EVENT_FILES = {
    # no common lower bound of p and p'
    "no_infimum": [("p", "1 0"), ("p'", "0 1")],
    # a and b have two minimal upper bounds, u and v
    "no_supremum": [("z", "0 0 0 0"), ("a", "1 0 0 0"), ("b", "0 1 0 0"),
                    ("u", "1 1 1 0"), ("v", "1 1 0 1"), ("t", "1 1 1 1")],
    # lattice-ordered and complement-closed; 1/3 + 1/3 + 2/3 is no member
    "chain": [("z", "0"), ("p", "1/3"), ("q", "2/3"), ("u", "1")],
    # the two-state events of boolean_2
    "boolean_2": [("0", "0 0"), ("a", "1 0"), ("b", "0 1"), ("1", "1 1")],
    # mo2 over three states whose columns mix halves and thirds; a+b
    # reaches 4/3 in the first
    "mo2_thirds": [("0", "0 0 0"), ("a", "2/3 1/2 1/3"), ("a'", "1/3 1/2 2/3"),
                   ("b", "2/3 1/3 1/2"), ("b'", "1/3 2/3 1/2"), ("1", "1 1 1")],
    # boolean_3 over three states that weigh the atoms a, b, c as
    # (3/4, 1/8, 1/8), (1/5, 3/5, 1/5) and (1/6, 1/6, 2/3): Boolean
    "boolean_3_fractional": [
        ("0", "0 0 0"), ("a", "3/4 1/5 1/6"), ("b", "1/8 3/5 1/6"), ("c", "1/8 1/5 2/3"),
        ("ab", "7/8 4/5 1/3"), ("ac", "7/8 2/5 5/6"), ("bc", "1/4 4/5 5/6"),
        ("1", "1 1 1")],
}


def _b2_with_states(rows):
    oml = corpus.builtin("boolean_2")
    base = structfile.serialize_structure(structfile.from_oml(oml))
    return base + "STATES\n" + "\n".join(rows) + "\n"


STATE_FILES = {
    # element order {} {1} {2} {1,2}; {1} and {2} both weigh 1
    "invalid_state": ["0 1 1 1"],
    "not_full": ["0 1 0 1", "0 1 0 1"],
    "full": ["0 1 0 1", "0 0 1 1"],
    # the second state weighs {1} and {2} 1/2 and 2/3, which sum to 7/6
    "fractional_sum": ["0 1 0 1", "0 1/2 2/3 1"],
}


#: mo2 with the bottom listed second; the STATES columns follow ELEMENTS
MO2_BOTTOM_SECOND = """KIND oml
ELEMENTS
a 0 a' b b' 1
COVERS
0 a
0 a'
0 b
0 b'
a 1
a' 1
b 1
b' 1
COMPLEMENT
0 1
a a'
b b'
STATES
1 0 0 0 1 1
1 0 0 1 0 1
0 0 1 0 1 1
0 0 1 1 0 1
"""


def _cases():
    """name -> (argv, {file name: contents})."""
    cases = {
        "check_oml_o6": (["check-oml", "o6"], {}),
        "check_oml_boolean_2": (["check-oml", "boolean_2"], {}),
        "check_rlse_paper": (["check-rlse", "paper-example-2set"], {}),
        "derive_paper": (["derive", "paper-example-2set"], {}),
        "construct_mo2_t2": (["construct", "mo2", "--plus", "t2"], {}),
        "construct_custom_paper": (
            ["construct", "boolean_2", "--plus", "custom=@paper.txt"],
            {"paper.txt": (DATA / "paper-example-2set.txt").read_text()}),
        "construct_o6": (["construct", "o6"], {}),
        "boolean_test_paper": (["boolean-test", "paper-example-2set"], {}),
        "boolean_test_mo2": (["boolean-test", "mo2"], {}),
        "boolean_test_boolean_3": (["boolean-test", "boolean_3"], {}),
        "states_find_mo3": (["states-find", "mo3"], {}),
        "states_check_full_bottom_second": (
            ["states-check-full", "@mo2_bottom_second.txt"],
            {"mo2_bottom_second.txt": MO2_BOTTOM_SECOND}),
        "verify_all": (["verify-all"], {}),
        "terms_enumerate": (["terms-enumerate"], {}),
        "terms_filter": (["terms-filter"], {}),
        # in this order the eliminations land on other members
        "terms_filter_reordered": (
            ["terms-filter", "--corpus", "mo2,product_2p4_mo2,boolean_3,boolean_2"], {}),
    }
    for name, (table, *cells) in RING_MUTANTS.items():
        files = {f"mutant_{name}.txt": _ring_mutant(table, *cells)}
        for command in ("check-rlse", "derive", "boolean-test"):
            cases[f"{command.replace('-', '_')}_mutant_{name}"] = (
                [command, f"@mutant_{name}.txt"], files)
    for name, (oml, plus) in LATTICE_RINGS.items():
        fname = f"ring_{name}.txt"
        cases[f"boolean_test_ring_{name}"] = (
            ["boolean-test", f"@{fname}"], {fname: _ring_file(oml(), plus)})
    for name, edits in CUSTOM_PLUS.items():
        fname = f"custom_{name}.txt"
        cases[f"construct_custom_{name}"] = (
            ["construct", "boolean_2", "--plus", f"custom=@{fname}"],
            {fname: _custom_plus(edits)})
    for name, rows in EVENT_FILES.items():
        fname = f"events_{name}.txt"
        cases[f"boolean_test_events_{name}"] = (
            ["boolean-test", f"@{fname}"], {fname: _events(rows)})
    for name, rows in STATE_FILES.items():
        fname = f"states_{name}.txt"
        cases[f"states_check_full_{name}"] = (
            ["states-check-full", f"@{fname}"], {fname: _b2_with_states(rows)})
    return cases


CASES = _cases()


def transcript(argv, files, where: Path) -> str:
    """Run argv in every mode; '@name' in an argument stands for the file
    name written under where."""
    for fname, text in files.items():
        (where / fname).write_text(text)
    real = [a.replace("@", str(where) + "/") for a in argv]
    shown = [a.replace("@", "") for a in argv]
    parts = []
    for mode in MODES:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(real + list(mode))
        parts.append(f"$ omlkit {' '.join(shown + list(mode))}\n"
                     f"exit {code}\n{out.getvalue()}")
    return "".join(parts)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    argv, files = CASES[name]
    got = transcript(argv, files, tmp_path)
    assert got == (GOLDEN / f"{name}.txt").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, (argv, files) in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            (GOLDEN / f"{name}.txt").write_text(transcript(argv, files, Path(tmp)))
        print(name, file=sys.stderr)
