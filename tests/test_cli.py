"""Command line behaviour: exit codes, text and JSON output, witnesses."""

import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from omlkit import cli, corpus, structfile
from omlkit.rlse import (
    RlseTables, check_rlse, derived_lattice, is_boolean_ring, rlse_from_oml)
from omlkit.states import find_full_state_set

DATA = Path(__file__).resolve().parent.parent / "data"
SCHEMA = json.loads((resources.files("omlkit") / "report_schema.json").read_text())


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_json(*argv):
    code, out, _ = run_cli(*argv, "--json")
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    return code, report


def test_check_oml_pass():
    code, out, err = run_cli("check-oml", "boolean_3")
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "check-oml boolean_3: PASS"
    assert all(line.startswith("  [ok]") for line in lines[1:])


def test_check_oml_failure_exit_code():
    code, out, _ = run_cli("check-oml", "o6")
    assert code == 1
    assert out.splitlines()[0] == "check-oml o6: FAIL"
    assert "orthomodular-law" in out


def test_unknown_target_is_usage_error():
    code, out, err = run_cli("check-oml", "no_such_thing")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_malformed_file_is_usage_error(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("KIND oml\nELEMENTS\n")
    code, _, err = run_cli("check-oml", str(bad))
    assert code == 2
    assert "error:" in err


def test_wrong_structure_kind_for_command():
    code, _, err = run_cli("check-rlse", "mo2")
    assert code == 2
    assert "rlse" in err


@pytest.mark.parametrize("argv", [
    ("check-oml", "boolean_2"),
    ("check-oml", "o6"),
    ("check-rlse", "paper-example-2set"),
    ("derive", "paper-example-2set"),
    ("construct", "mo2", "--plus", "t1"),
    ("terms-enumerate",),
    ("terms-filter",),
    ("states-find", "mo2"),
    ("boolean-test", "mo2", "--witnesses"),
])
def test_json_reports_validate_against_schema(argv):
    run_json(*argv)


def test_text_and_json_verdicts_agree():
    for target, want in (("boolean_2", 0), ("o6", 1)):
        text_code, out, _ = run_cli("check-oml", target)
        json_code, report = run_json("check-oml", target)
        assert text_code == json_code == want
        assert report["passed"] == (want == 0)
        assert ("PASS" in out.splitlines()[0]) == report["passed"]


def test_witnesses_stripped_by_default():
    _, report = run_json("check-oml", "o6")
    assert all(c["witness"] is None for c in report["checks"])


def test_witnesses_flag_includes_assignment():
    _, report = run_json("check-oml", "o6", "--witnesses")
    failed = [c for c in report["checks"] if not c["passed"]]
    assert failed[0]["name"] == "orthomodular-law"
    assert set(failed[0]["witness"]) == {"x", "y"}


def test_check_rlse_runs_all_follow_up_checks():
    code, report = run_json("check-rlse", "paper-example-2set")
    assert code == 0
    names = [c["name"] for c in report["checks"]]
    assert len(names) == 17
    assert "orthogonal-addition-form" in names
    assert names[-1] == "correspondence-verdicts-agree"


def test_derive_emits_the_ring_lattice():
    code, out, _ = run_cli("derive", "paper-example-2set")
    assert code == 0
    sf = structfile.parse_structure(out)
    poset, comp = structfile.to_oml_input(sf)
    from omlkit.lattice import check_oml
    verdict, oml = check_oml(poset, comp)
    assert verdict.passed
    assert oml == corpus.builtin("boolean_2")


def test_derive_rejects_an_invalid_ring(tmp_path):
    # corrupting 0+0 breaks R4 at (x={1,2}, y={})
    lines = (DATA / "paper-example-2set.txt").read_text().splitlines()
    pos = lines.index("OPLUS") + 1
    lines[pos] = "{1}" + lines[pos][len("{}"):]
    bad = tmp_path / "mutant.txt"
    bad.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli("derive", str(bad))
    assert code == 1
    assert "[FAIL] R4" in out


def test_construct_t1_yields_a_boolean_ring():
    code, out, _ = run_cli("construct", "boolean_2", "--plus", "t1")
    assert code == 0
    ring = structfile.to_rlse(structfile.parse_structure(out))
    assert check_rlse(ring).passed
    assert is_boolean_ring(ring)[1].passed


def test_construct_custom_plus_reproduces_the_shipped_ring():
    code, out, _ = run_cli("construct", "boolean_2", "--plus",
                           "custom=" + str(DATA / "paper-example-2set.txt"))
    assert code == 0
    ring = structfile.to_rlse(structfile.parse_structure(out))
    assert ring == corpus.builtin("paper-example-2set")


def test_construct_rejects_a_bad_custom_plus(tmp_path):
    labels = corpus.builtin("boolean_2").elements
    n = len(labels)
    rows = "\n".join(" ".join("{}" for _ in range(n)) for _ in range(n))
    custom = tmp_path / "allzero.txt"
    custom.write_text("KIND rlse\nELEMENTS\n" + " ".join(labels) +
                      f"\nOPLUS\n{rows}\nTIMES\n{rows}\n")
    code, out, _ = run_cli("construct", "boolean_2", "--plus",
                           "custom=" + str(custom))
    assert code == 1
    assert "FAIL" in out


def _permuted_ring_file(tmp_path, ring, order):
    """ring written with its elements listed in the given order."""
    pos = [ring.index(lab) for lab in order]
    new = {i: k for k, i in enumerate(pos)}  # old index -> index in order
    oplus, times = (tuple(tuple(new[table[i][j]] for j in pos) for i in pos)
                    for table in (ring.oplus, ring.times))
    permuted = RlseTables(order, oplus, times, new[ring.zero], new[ring.one])
    path = tmp_path / "permuted.txt"
    path.write_text(structfile.serialize_structure(structfile.from_rlse(permuted)))
    return str(path)


def test_construct_custom_plus_reads_the_file_in_its_own_order(tmp_path):
    code, canonical, _ = run_cli("construct", "boolean_2", "--plus", "t1")
    assert code == 0
    ring = structfile.to_rlse(structfile.parse_structure(canonical))
    path = _permuted_ring_file(tmp_path, ring, ("{1,2}", "{}", "{1}", "{2}"))
    code, _, _ = run_cli("check-rlse", path)
    assert code == 0
    code, out, err = run_cli("construct", "boolean_2", "--plus", "custom=" + path)
    assert (code, err) == (0, "")
    assert out == canonical


def test_construct_custom_plus_over_other_elements_is_unusable(tmp_path):
    ring = corpus.builtin("paper-example-2set")
    relabelled = RlseTables(("{}", "{1}", "{2}", "{3}"), ring.oplus, ring.times,
                            ring.zero, ring.one)
    path = tmp_path / "other.txt"
    path.write_text(structfile.serialize_structure(structfile.from_rlse(relabelled)))
    code, out, err = run_cli("construct", "boolean_2", "--plus", "custom=" + str(path))
    assert code == 2
    assert out == ""
    assert "elements of the lattice" in err


@pytest.mark.parametrize("old, new, message", [
    ("{} {1} {} {1}", "{} {1} x {1}", "times table entry 'x' is not an element"),
    ("{2} {1,2} {} {1}", "{2} x {} {1}", "oplus table entry 'x' is not an element"),
    ("ZERO {}", "ZERO z", "unknown element label: 'z'"),
    ("ONE {1,2}", "ONE u", "unknown element label: 'u'"),
], ids=["times-entry", "oplus-entry", "zero", "one"])
def test_a_custom_plus_file_is_read_like_any_ring_file(tmp_path, old, new, message):
    # the whole file counts, its TIMES, ZERO and ONE too, not only OPLUS
    _, text, _ = run_cli("construct", "boolean_2", "--plus", "t1")
    assert text.count(old) == 1
    path = tmp_path / "custom.txt"
    path.write_text(text.replace(old, new))
    assert run_cli("check-rlse", str(path)) == (2, "", f"error: {message}\n")
    code, out, err = run_cli("construct", "boolean_2", "--plus", "custom=" + str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_bad_plus_value():
    code, _, err = run_cli("construct", "boolean_2", "--plus", "t3")
    assert code == 2
    assert "t3" in err


def test_terms_enumerate_lists_all_96():
    code, out, _ = run_cli("terms-enumerate")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 98
    assert "96 terms" in lines[1]


def test_terms_filter_default_corpus():
    code, out, _ = run_cli("terms-filter")
    assert code == 0
    assert "surviving classes: 2" in out
    assert "eliminated candidates: 94" in out


def test_terms_filter_unknown_name():
    code, _, err = run_cli("terms-filter", "--corpus", "boolean_2,nope")
    assert code == 2
    assert "nope" in err


def test_states_find_emits_a_checkable_file(tmp_path):
    code, out, _ = run_cli("states-find", "mo2")
    assert code == 0
    sf = structfile.parse_structure(out)
    assert len(sf.states) == 4
    saved = tmp_path / "mo2_states.txt"
    saved.write_text(out)
    code, out, _ = run_cli("states-check-full", str(saved))
    assert code == 0
    assert "order-determining" in out


def test_states_find_reports_lattice_failure_first():
    code, out, _ = run_cli("states-find", "o6")
    assert code == 1
    assert "orthomodular-law" in out


def _boolean_2_with_states(rows):
    oml = corpus.builtin("boolean_2")
    base = structfile.serialize_structure(structfile.from_oml(oml))
    idx = {lab: i for i, lab in enumerate(oml.elements)}
    lines = []
    for row in rows:
        vals = ["0"] * len(oml.elements)
        for lab, v in row.items():
            vals[idx[lab]] = v
        lines.append(" ".join(vals))
    return base + "STATES\n" + "\n".join(lines) + "\n"


def test_states_check_full_detects_a_broken_state(tmp_path):
    text = _boolean_2_with_states([{"{1}": "1", "{2}": "1", "{1,2}": "1"}])
    bad = tmp_path / "broken.txt"
    bad.write_text(text)
    code, out, _ = run_cli("states-check-full", str(bad))
    assert code == 1
    assert "state 0 fails orthogonal-additivity" in out


def test_states_check_full_passes_a_good_pair(tmp_path):
    text = _boolean_2_with_states([
        {"{1}": "1", "{1,2}": "1"},
        {"{2}": "1", "{1,2}": "1"},
    ])
    good = tmp_path / "good.txt"
    good.write_text(text)
    code, out, _ = run_cli("states-check-full", str(good))
    assert code == 0


def _reordered(text, order):
    """An oml file listing its ELEMENTS in the given order, with the columns
    of its STATES rows moved along."""
    sf = structfile.parse_structure(text)
    cols = [sf.elements.index(lab) for lab in order]
    return structfile.serialize_structure(sf._replace(
        elements=tuple(order), states=tuple(tuple(row[i] for i in cols) for row in sf.states)))


def test_states_check_full_reads_states_by_label(tmp_path):
    # the bottom is moved to the front on loading; the values must follow
    _, found, _ = run_cli("states-find", "mo2")
    path = tmp_path / "mo2.txt"
    path.write_text(_reordered(found, ("a", "0", "a'", "b", "b'", "1")))
    code, out, _ = run_cli("states-check-full", str(path))
    assert code == 0, out


def test_states_check_full_verdict_ignores_element_order(tmp_path):
    rng = random.Random(73)
    _, found, _ = run_cli("states-find", "mo3")
    sf = structfile.parse_structure(found)
    not_full = structfile.serialize_structure(sf._replace(states=sf.states[:2]))
    for text, want in ((found, 0), (not_full, 1)):
        path = tmp_path / "states.txt"
        path.write_text(text)
        assert run_cli("states-check-full", str(path))[0] == want
        for _ in range(8):
            order = rng.sample(sf.elements, len(sf.elements))
            path.write_text(_reordered(text, order))
            code, out, _ = run_cli("states-check-full", str(path))
            assert code == want, (order, out)


def test_states_check_full_needs_a_states_section():
    code, _, err = run_cli("states-check-full", "boolean_2")
    assert code == 2
    assert "STATES" in err


def test_boolean_test_on_the_shipped_ring():
    code, report = run_json("boolean-test", "paper-example-2set", "--witnesses")
    assert code == 1
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["valid-ring"]["passed"]
    assert not by_name["boolean-ring"]["passed"]
    assert by_name["identity-route"]["passed"] == by_name["ring-route"]["passed"]


def test_boolean_test_on_mo2_names_the_witness():
    code, report = run_json("boolean-test", "mo2", "--witnesses")
    assert code == 1
    failed = [c for c in report["checks"] if not c["passed"]]
    assert failed[0]["name"] == "ring-inequality"
    w = failed[0]["witness"]
    assert {w["p"], w["q"]} == {"a", "b"}
    assert w["value"] == "2"


def test_boolean_test_on_a_boolean_lattice():
    code, report = run_json("boolean-test", "boolean_3")
    assert code == 0
    assert report["passed"]


def test_boolean_test_on_an_events_file(tmp_path):
    _, found, _ = run_cli("states-find", "boolean_2")
    sf = structfile.parse_structure(found)
    poset, comp = structfile.to_oml_input(sf)
    from omlkit.lattice import check_oml
    from omlkit.states import events_from_states
    _, oml = check_oml(poset, comp)
    ev = events_from_states(oml, sf.states)
    path = tmp_path / "events.txt"
    path.write_text(structfile.serialize_structure(structfile.from_events(ev)))
    code, out, _ = run_cli("boolean-test", str(path))
    assert code == 0
    assert "ring-inequality" in out


def _events_file(tmp_path, rows):
    path = tmp_path / "events.txt"
    lines = ["KIND events", "ELEMENTS", " ".join(lab for lab, _ in rows), "EVENTS"]
    lines += [f"{lab} {value}" for lab, value in rows]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_boolean_test_names_a_failed_event_axiom(tmp_path):
    # a chain is lattice-ordered and complement-closed, but 1/3 + 1/3 + 2/3
    # is not a member
    path = _events_file(tmp_path, [("z", "0"), ("p", "1/3"), ("q", "2/3"),
                                   ("u", "1")])
    code, out, err = run_cli("boolean-test", path, "--witnesses")
    assert code == 1
    assert "[FAIL] orthogonal-triple-sum" in out
    assert "witness: p=p q=p r=q" in out
    assert err == ""


def test_duplicate_event_rows_are_unusable_input(tmp_path):
    path = _events_file(tmp_path, [("z", "0"), ("p", "1/2"), ("q", "1/2"),
                                   ("u", "1")])
    code, out, err = run_cli("boolean-test", path)
    assert code == 2
    assert out == ""
    assert "same event vector" in err


def test_corpus_dir_lookup(tmp_path, monkeypatch):
    (tmp_path / "local_ring.txt").write_text(
        (DATA / "paper-example-2set.txt").read_text())
    monkeypatch.setenv("OMLKIT_CORPUS_DIR", str(tmp_path))
    for name in ("local_ring", "local_ring.txt"):
        code, _, _ = run_cli("check-rlse", name)
        assert code == 0


def test_verify_all_passes():
    code, report = run_json("verify-all")
    assert code == 0
    names = [c["name"] for c in report["checks"]]
    assert names == [f"criterion-{i}" for i in range(1, 10)]
    assert all(c["passed"] for c in report["checks"])


def _child_env():
    """The environment of a CLI child process, which finds the package
    where this process imported it from."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "omlkit.cli", "check-oml", "boolean_2"],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


@pytest.mark.parametrize("argv, status", [
    (("states-find", "mo2"), 0),
    (("states-find", "product_2p4_mo2", "--json"), 0),
    (("check-oml", "o6"), 1),
])
def test_a_closed_stdout_keeps_the_exit_status(argv, status):
    # the read end closes before the child has started, so its report
    # meets a broken pipe
    proc = subprocess.Popen([sys.executable, "-m", "omlkit.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=_child_env())
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == status
    assert err == b""


def _not_utf8(path):
    path.write_bytes(b"\xff\xfeK\x00I\x00N\x00D\x00")
    return path


def _assert_unusable(code, out, err):
    assert (code, out) == (2, "")
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_a_target_that_is_not_utf8_is_unusable_input(tmp_path):
    _assert_unusable(*run_cli("check-oml", str(_not_utf8(tmp_path / "bad.txt"))))


def test_a_corpus_dir_file_that_is_not_utf8_is_unusable_input(tmp_path, monkeypatch):
    _not_utf8(tmp_path / "bad.txt")
    monkeypatch.setenv("OMLKIT_CORPUS_DIR", str(tmp_path))
    _assert_unusable(*run_cli("check-oml", "bad"))


def test_a_custom_plus_that_is_not_utf8_is_unusable_input(tmp_path):
    custom = _not_utf8(tmp_path / "plus.txt")
    _assert_unusable(*run_cli("construct", "boolean_2", "--plus", f"custom={custom}"))


def _ring_file(path, n, oplus, times, zero, one, labels=None):
    labels = labels or [f"e{i}" for i in range(n)]
    lines = ["KIND rlse", "ELEMENTS", " ".join(labels),
             f"ZERO {labels[zero]}", f"ONE {labels[one]}", "OPLUS"]
    lines += [" ".join(labels[v] for v in row) for row in oplus]
    lines += ["TIMES"] + [" ".join(labels[v] for v in row) for row in times]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize("command", ["check-rlse", "derive", "boolean-test"])
def test_a_one_element_ring_is_unusable_input(tmp_path, command):
    # ZERO = ONE: every ring law holds, but there is no lattice to match
    path = _ring_file(tmp_path / "one.txt", 1, [[0]], [[0]], 0, 0)
    code, out, err = run_cli(command, path)
    assert code == 2
    assert out == ""
    assert err == "error: zero equals one; the two-element ring is the smallest structure\n"


def _random_rings(count, seed):
    """(n, oplus, times, zero, one) of 1 to 4 elements: the t1 rings of the
    smallest lattices with a few cells changed, or random tables with random
    constants."""
    rng = random.Random(seed)
    valid = [rlse_from_oml(corpus.builtin(name), "t1")
             for name in ("boolean_1", "boolean_2", "mo1")]
    for _ in range(count):
        if rng.random() < 0.5:
            r = rng.choice(valid)
            n, zero, one = r.n, r.zero, r.one
            oplus, times = [list(row) for row in r.oplus], [list(row) for row in r.times]
            for _ in range(rng.randint(0, 2)):
                rng.choice((oplus, times))[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
        else:
            n = rng.randint(1, 4)
            oplus, times = ([[rng.randrange(n) for _ in range(n)] for _ in range(n)]
                            for _ in range(2))
            zero, one = rng.randrange(n), rng.randrange(n)
        yield n, oplus, times, zero, one


def _mutate_ring_text(rng, text):
    """text with one seeded edit: a table entry replaced by a label that is
    no element, a table row cut short or duplicated, or ZERO or ONE naming
    a non-element."""
    lines = text.splitlines()
    rows = [i for i in range(lines.index("OPLUS") + 1, len(lines)) if lines[i] != "TIMES"]
    i, how = rng.choice(rows), rng.randrange(4)
    tokens = lines[i].split()
    if how == 0:
        tokens[rng.randrange(len(tokens))] = "q"
        lines[i] = " ".join(tokens)
    elif how == 1:
        lines[i] = " ".join(tokens[:-1])
    elif how == 2:
        lines.insert(i, lines[i])
    else:
        key = rng.choice(("ZERO ", "ONE "))
        lines = [key + "q" if line.startswith(key) else line for line in lines]
    return "\n".join(lines) + "\n"


def test_ring_commands_never_raise_on_random_tables(tmp_path):
    # the four-element rings also over the labels of boolean_2, once as
    # drawn and once with one text mutation, for construct as well
    rng, b2 = random.Random(62), corpus.builtin("boolean_2").elements
    commands = ("check-rlse", "derive", "boolean-test")
    runs = []
    for k, ring in enumerate(_random_rings(300, 61)):
        path = _ring_file(tmp_path / f"ring{k}.txt", *ring)
        runs += [(command, path) for command in commands]
        if ring[0] == len(b2):
            path = Path(_ring_file(tmp_path / f"b2ring{k}.txt", *ring, labels=b2))
            mutated = tmp_path / f"mutated{k}.txt"
            mutated.write_text(_mutate_ring_text(rng, path.read_text()))
            runs += [(command, str(p)) for p in (path, mutated)
                     for command in commands + ("construct",)]
    codes = set()
    for command, path in runs:
        argv = ("construct", "boolean_2", "--plus", "custom=" + path) \
            if command == "construct" else (command, path)
        try:
            code, _, err = run_cli(*argv)
        except Exception as exc:
            pytest.fail(f"{argv} raised {exc!r} on {Path(path).read_text()}")
        assert code in (0, 1, 2) and "Traceback" not in err, argv
        codes.add((command, code))
    assert codes == {(command, code) for command in commands + ("construct",)
                     for code in (0, 1, 2)}


def _random_rational(rng):
    """A rational with a small, mixed or large denominator, at times
    outside [0,1]."""
    den = rng.choice((1, 2, 3, 5, 12, 60, 997, 2**31 - 1, 10**12 + 39))
    return Fraction(rng.randint(-den // 2, 3 * den // 2), den)


def _found_states():
    """(lattice, its found states) for the smallest builtin lattices."""
    return [(oml, find_full_state_set(oml).states)
            for oml in map(corpus.builtin, ("boolean_1", "boolean_2", "boolean_3",
                                            "mo1", "mo2", "mo3"))]


def _mutate_rows(rng, rows):
    """rows (lists of value strings) with up to three random edits: a value
    replaced by a random rational, a row duplicated, removed or cut short."""
    rows = [list(r) for r in rows]
    for _ in range(rng.randint(0, 3)):
        how = rng.randrange(8)
        pos = rng.randrange(len(rows))
        if how < 5 and rows[pos]:
            rows[pos][rng.randrange(len(rows[pos]))] = str(_random_rational(rng))
        elif how == 5:
            rows.append(list(rows[pos]))
        elif how == 6 and len(rows) > 1:
            del rows[pos]
        elif how == 7:
            rows[pos] = rows[pos][:-1]
    return rows


def test_events_files_never_raise_on_random_rationals(tmp_path):
    rng = random.Random(71)
    bases = _found_states()
    codes = set()
    for k in range(300):
        oml, found = rng.choice(bases)
        # columns: the found states, or mixtures of two of them in sevenths
        cols = list(found)
        if rng.random() < 0.5:
            cols = []
            for s, t in zip(found, rng.sample(found, len(found))):
                w = Fraction(rng.randint(0, 7), 7)
                cols.append(tuple(w * a + (1 - w) * b for a, b in zip(s, t)))
        rows = _mutate_rows(rng, [[str(v) for v in vec] for vec in zip(*cols)])
        labels = [f"e{i}" for i in range(oml.n)]
        lines = ["KIND events", "ELEMENTS", " ".join(labels), "EVENTS"]
        lines += [f"{lab} {' '.join(r)}" for lab, r in zip(labels, rows)]
        path = tmp_path / f"events{k}.txt"
        path.write_text("\n".join(lines) + "\n")
        try:
            code, _, _ = run_cli("boolean-test", str(path))
        except Exception as exc:
            pytest.fail(f"boolean-test raised {exc!r} on {lines}")
        assert code in (0, 1, 2), lines
        codes.add(code)
    assert codes == {0, 1, 2}


def test_state_files_never_raise_on_random_rationals(tmp_path):
    rng = random.Random(72)
    bases = _found_states()
    codes = set()
    for k in range(300):
        oml, found = rng.choice(bases)
        rows = _mutate_rows(rng, [[str(v) for v in s] for s in found])
        text = structfile.serialize_structure(structfile.from_oml(oml))
        text += "STATES\n" + "\n".join(" ".join(r) for r in rows) + "\n"
        path = tmp_path / f"states{k}.txt"
        path.write_text(text)
        try:
            code, _, _ = run_cli("states-check-full", str(path))
        except Exception as exc:
            pytest.fail(f"states-check-full raised {exc!r} on {text}")
        assert code in (0, 1, 2), text
        codes.add(code)
    assert codes == {0, 1, 2}


def _mutate_lattice(rng, sf):
    """A KIND oml file with one to three edits: a cover dropped, added or
    reversed, or the complements of two elements swapped."""
    covers, comp = list(sf.covers), list(sf.complement)
    for _ in range(rng.randint(1, 3)):
        how = rng.randrange(4)
        k = rng.randrange(len(covers))
        if how == 0:
            del covers[k]
        elif how == 1:
            covers.append((rng.choice(sf.elements), rng.choice(sf.elements)))
        elif how == 2:
            covers[k] = covers[k][::-1]
        else:
            i, j = rng.randrange(len(comp)), rng.randrange(len(comp))
            (x, cx), (y, cy) = comp[i], comp[j]
            comp[i], comp[j] = (x, cy), (y, cx)
    return sf._replace(covers=tuple(covers), complement=tuple(comp))


def test_lattice_files_never_raise_on_mutated_covers_and_complements(tmp_path):
    rng = random.Random(73)
    bases = [structfile.from_oml(corpus.builtin(name))
             for name in ("boolean_2", "boolean_3", "mo1", "mo2", "mo3")]
    codes = set()
    for k in range(200):
        text = structfile.serialize_structure(_mutate_lattice(rng, rng.choice(bases)))
        path = tmp_path / f"lattice{k}.txt"
        path.write_text(text)
        for argv in (["check-oml"], ["construct", "--plus", "t1"], ["states-find"],
                     ["boolean-test"]):
            argv = argv[:1] + [str(path)] + argv[1:]
            try:
                code, _, _ = run_cli(*argv)
            except Exception as exc:
                pytest.fail(f"{argv[0]} raised {exc!r} on {text}")
            assert code in (0, 1, 2), (argv[0], text)
            codes.add(code)
    assert codes == {0, 1, 2}
