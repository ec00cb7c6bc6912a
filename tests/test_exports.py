"""Every name a module exports resolves, so a deletion leaves no stale export."""

import importlib
import pkgutil

import pytest

import hbmatch

MODULES = [hbmatch] + [
    importlib.import_module(f"hbmatch.{info.name}")
    for info in pkgutil.iter_modules(hbmatch.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda mod: mod.__name__)
def test_all_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
