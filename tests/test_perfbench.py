"""The benchmark harness finds every function it times, and its manifests
agree with what omlkit reads from the inputs they describe."""

import importlib
import importlib.util
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
    assert calls == [s.values for s in found]
    calls.clear()
    assert states.check_full(mo2, found).passed
    assert calls == [s.values for s in found]


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
