import importlib
import pkgutil

import pytest

import evauction


MODULES = sorted(m.name for m in pkgutil.iter_modules(evauction.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"evauction.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"evauction.{name}.__all__ names missing attributes: {missing}"
