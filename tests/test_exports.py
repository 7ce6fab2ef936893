"""Every name a module exports through ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import acfront

MODULES = ["acfront"] + [
    m.name for m in pkgutil.iter_modules(acfront.__path__, "acfront.")
    if hasattr(importlib.import_module(m.name), "__all__")]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
