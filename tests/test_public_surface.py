"""The public surface: every name a module lists in __all__ exists."""

import importlib
import pkgutil

import omlkit


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
