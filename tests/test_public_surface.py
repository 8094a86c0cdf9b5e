"""The public surface: every name a module lists in __all__ exists, the
package resolves its names on first use, and each subcommand imports only
the modules it runs; the lattice, ring and state commands never import
dataclasses, json and fractions load only where they are used, and
parsing a ring file loads no ring module.  The README's library example
runs and prints what its comments say, and its command lines exit as
their comments say."""

import importlib
import io
import json
import os
import pkgutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import omlkit
from omlkit import cli, corpus, states, structfile

DATA = Path(__file__).resolve().parent.parent / "data"
README = DATA.parent / "README.md"


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


#: Runs the CLI and then prints, as the only line of stdout, every module
#: the process imported; json is imported only after the list is taken.
_CHILD = """
import contextlib, io, sys
from omlkit.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
loaded = sorted(sys.modules)
import json
print(json.dumps(loaded))
sys.exit(code)
"""


def _imported(*argv, roots=("omlkit", "dataclasses"), child=_CHILD):
    """The modules a CLI run (or another child script) imported whose
    top-level package is in roots."""
    src = str(Path(omlkit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", child, *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode in (0, 1), proc.stderr
    return {m for m in json.loads(proc.stdout) if m.split(".")[0] in roots}


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


#: Parses the file named by its argument and prints every module imported.
_PARSE = """
import json, sys
from omlkit import structfile
with open(sys.argv[1], encoding="utf-8") as f:
    structfile.parse_structure(f.read())
print(json.dumps(sorted(sys.modules)))
"""


def test_parsing_a_ring_file_loads_no_ring_module():
    # structfile turns the labels into indices itself, without omlkit.rlse
    assert _imported(str(DATA / "paper-example-2set.txt"), child=_PARSE) == {
        "omlkit", "omlkit.errors", "omlkit.laws", "omlkit.lattice", "omlkit.structfile"}


def test_verify_all_still_loads_the_suite():
    assert {"omlkit.suite", "omlkit.terms", "omlkit.states"} <= _imported("verify-all")


@pytest.mark.parametrize("argv, loaded", [
    (("check-oml", str(DATA / "o6.txt")), set()),
    (("check-rlse", str(DATA / "paper-example-2set.txt")), set()),
    (("check-oml", "--json", str(DATA / "o6.txt")), {"json"}),
    (("states-find", "mo2"), {"fractions"}),
])
def test_json_and_fractions_load_only_where_used(argv, loaded):
    assert _imported(*argv, roots=("json", "fractions")) & {"json", "fractions"} == loaded


def test_the_readme_example_prints_what_its_comments_say():
    block = README.read_text(encoding="utf-8").split("```python\n", 1)[1].split("```", 1)[0]
    said = [line.split("# ", 1)[1] for line in block.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == said


def test_the_readme_command_lines_run_as_documented(tmp_path, monkeypatch):
    # from the repo root, so that data/... resolves; a line's "> FILE" goes
    # to tmp_path, where a later line reads it back
    block = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(README.parent)
    written = {}
    codes = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        program, _, rest = command.partition(" ")
        args, _, sink = rest.partition(">")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main([written.get(a, a) for a in args.split()])
        if sink.strip():
            path = written[sink.strip()] = str(tmp_path / sink.strip())
            Path(path).write_text(out.getvalue(), encoding="utf-8")
        assert (program, code, err.getvalue()) == (
            "omlkit", 1 if "exit 1" in comment else 0, ""), line
        codes.append(code)
    assert codes == [0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0]
