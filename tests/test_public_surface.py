"""The public surface: every name a module lists in __all__ exists, the
package resolves its names on first use, and each subcommand imports only
the modules it runs; the lattice, ring and state commands never import
dataclasses."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import omlkit
from omlkit import corpus, states, structfile

DATA = Path(__file__).resolve().parent.parent / "data"


def test_every_listed_name_resolves():
    checked = 0
    for info in pkgutil.iter_modules(omlkit.__path__):
        module = importlib.import_module(f"omlkit.{info.name}")
        listed = getattr(module, "__all__", None)
        if listed is None:
            continue
        missing = [name for name in listed if not hasattr(module, name)]
        assert not missing, (info.name, missing)
        namespace = {}
        exec(f"from omlkit.{info.name} import *", namespace)
        assert set(listed) <= namespace.keys(), info.name
        checked += 1
    assert checked >= 10


def test_the_package_resolves_every_listed_name():
    # omlkit.__getattr__ imports each name from its module on first use
    assert len(omlkit.__all__) == len(set(omlkit.__all__)) >= 50
    for name in omlkit.__all__:
        value = getattr(omlkit, name)
        if name in omlkit._SOURCES:
            assert value is importlib.import_module(f"omlkit.{name}")
        else:
            module = importlib.import_module(f"omlkit.{omlkit._MODULE_OF[name]}")
            assert value is getattr(module, name), name
    namespace = {}
    exec("from omlkit import *", namespace)
    assert set(omlkit.__all__) <= namespace.keys()
    assert set(omlkit.__all__) <= set(dir(omlkit))
    with pytest.raises(AttributeError):
        omlkit.no_such_name  # noqa: B018
    namespace = {}
    exec("from omlkit import corpus, states", namespace)
    assert namespace["states"].boolean_test is omlkit.boolean_test


#: Runs the CLI and then prints, as the only line of stdout, which omlkit
#: modules the process imported, and "dataclasses" if it imported that.
_CHILD = """
import contextlib, io, json, sys
from omlkit.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] in ("omlkit", "dataclasses"))))
sys.exit(code)
"""


def _imported(*argv):
    src = str(Path(omlkit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", _CHILD, *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode in (0, 1), proc.stderr
    return set(json.loads(proc.stdout))


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    mo2 = corpus.builtin("mo2")
    found = states.find_full_state_set(mo2).states
    where = tmp_path_factory.mktemp("footprint")
    path, events = where / "mo2.txt", where / "mo2-events.txt"
    path.write_text(structfile.serialize_structure(structfile.from_oml(mo2, found)))
    events.write_text(structfile.serialize_structure(
        structfile.from_events(states.events_from_states(mo2, found))))
    return {"oml": str(path), "rlse": str(DATA / "paper-example-2set.txt"),
            "events": str(events)}


# the exact sets below also leave dataclasses out
def test_check_oml_imports_only_the_lattice_modules(files):
    assert _imported("check-oml", files["oml"]) == {
        "omlkit", "omlkit.cli", "omlkit.errors", "omlkit.laws",
        "omlkit.lattice", "omlkit.structfile"}


@pytest.mark.parametrize("command", ["states-find", "states-check-full"])
def test_state_commands_import_only_the_state_modules(files, command):
    assert _imported(command, files["oml"]) == {
        "omlkit", "omlkit.cli", "omlkit.errors", "omlkit.laws",
        "omlkit.lattice", "omlkit.simplex", "omlkit.states", "omlkit.structfile"}


@pytest.mark.parametrize("command, kind", [
    ("construct", "oml"), ("check-rlse", "rlse"), ("derive", "rlse"),
    ("states-find", "oml"), ("states-check-full", "oml"),
    ("boolean-test", "oml"), ("boolean-test", "rlse"), ("boolean-test", "events"),
])
def test_subcommands_leave_the_suite_and_terms_unloaded(files, command, kind):
    loaded = _imported(command, files[kind])
    assert "omlkit.structfile" in loaded
    assert not loaded & {"omlkit.suite", "omlkit.terms", "dataclasses"}, loaded


def test_verify_all_still_loads_the_suite():
    assert {"omlkit.suite", "omlkit.terms", "omlkit.states"} <= _imported("verify-all")
