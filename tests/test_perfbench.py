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
