"""The benchmark harness finds every function it times, and its manifests
agree with what omlkit reads from the inputs they describe."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced():
    return _load("launch").TRACED


@pytest.mark.parametrize("module, names", sorted(_traced().items()))
def test_traced_names_exist(module, names):
    # launch.py looks each one up with getattr and wraps it
    mod = importlib.import_module(f"omlkit.{module}")
    for name in names:
        assert callable(getattr(mod, name, None)), f"{module}.{name}"


def test_check_rlse_keeps_its_cache_counters():
    from omlkit import rlse

    info = rlse.check_rlse.cache_info()
    assert info.hits >= 0


def test_state_searches_call_check_state_through_the_module(monkeypatch):
    # launch.py counts states.check_state by rebinding the module
    # attribute, so both searches must look it up there, once per state
    from omlkit import corpus, states

    calls = []
    real = states.check_state

    def counting(oml, values):
        calls.append(values)
        return real(oml, values)

    monkeypatch.setattr(states, "check_state", counting)
    mo2 = corpus.builtin("mo2")
    found = states.find_full_state_set(mo2).states
    assert len(found) == 4
    assert calls == list(found)
    calls.clear()
    assert states.check_full(mo2, found).passed
    assert calls == list(found)


def test_check_rlse_draws_a_linear_number_of_rows(monkeypatch):
    # associativity is decided without its n^2 rows of triples; the other
    # laws draw at most n rows each
    from omlkit import corpus, laws, rlse

    drawn = []
    real = laws.first_mismatch

    def counting(prefixes, lhs, rhs):
        def rows():
            for row in lhs:
                drawn.append(row)
                yield row
        return real(prefixes, rows(), rhs)

    monkeypatch.setattr(laws, "first_mismatch", counting)
    r = rlse.rlse_from_oml(corpus.builtin("boolean_5"), "t1")
    drawn.clear()
    assert rlse.check_rlse.__wrapped__(r).passed
    assert len(drawn) <= 6 * r.n, len(drawn)


@pytest.mark.parametrize("workload", ["corpus-suite", "boolean-ladder", "mo-products"])
def test_manifest_matches_the_lattices_it_describes(workload, tmp_path):
    # the verdict oracle trusts the manifest's covers and complement, which
    # inputs.py derives from poset.leq; omlkit must read the same from the
    # files (or builtins) they describe
    from omlkit import corpus, structfile
    from omlkit.lattice import check_oml

    manifest = _load("inputs").build(workload, 11, tmp_path)
    described = [e for e in manifest["lattices"] if "covers" in e]
    assert described
    for entry in described:
        path = Path(entry["target"])
        if path.is_file():
            _, oml = check_oml(*structfile.to_oml_input(
                structfile.parse_structure(path.read_text())))
        else:
            oml = corpus.builtin(entry["target"])
        assert sorted(map(list, structfile._cover_pairs(oml.poset))) == entry["covers"]
        comp = {lab: oml.elements[c] for lab, c in zip(oml.elements, oml.comp)}
        assert comp == entry["complement"]


def test_the_oracle_lists_follow_the_corpus():
    # plan.py judges verdicts by these lists, never by omlkit; a corpus
    # change they miss would fail only a benchmark run
    from omlkit import corpus
    from omlkit.lattice import is_distributive

    inputs = _load("inputs")
    assert set(inputs.OML_BUILTINS) <= set(corpus.OML_NAMES)
    assert inputs.BOOLEAN_BUILTINS == {
        name for name in corpus.OML_NAMES if is_distributive(corpus.builtin(name))[0]}


def _traced_run(tmp_path, *command):
    """(stdout, trace) of one command run by launch.py, which must pass."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    trace = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "launch.py"), str(trace), *command],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(trace.read_text())


def test_the_traced_launcher_runs_a_lazily_imported_command(tmp_path):
    # launch.py wraps the functions of all nine traced modules, which a
    # check-oml run would not import by itself
    out, trace = _traced_run(tmp_path, "check-oml", "boolean_2")
    assert "PASS" in out
    stats = trace["stats"]
    # one check builds the builtin, one is the command's own
    assert stats["corpus.builtin"][0] == 1
    assert stats["lattice.check_oml"][0] == 2
    assert {f"{module}.{name}" for module, names in _traced().items()
            for name in names} <= stats.keys()


def test_the_traced_launcher_counts_the_states_a_search_finds(tmp_path):
    # the hook on find_full_state_set reads result.states
    _, trace = _traced_run(tmp_path, "states-find", "mo2")
    assert trace["counters"]["states.states_found"] == 4
    assert trace["stats"]["states.find_full_state_set"][0] == 1
