"""The traced benchmark run finds every function it times."""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAUNCH = Path(__file__).resolve().parent.parent / "perfbench" / "launch.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_launch", LAUNCH)
    launch = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(launch)
    return launch.TRACED


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
