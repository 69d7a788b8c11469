"""Every name a module exports resolves, so ``from mpdp.<module> import *``
cannot break on a stale ``__all__`` entry."""

import importlib
import pkgutil

import pytest

import mpdp

MODULES = ["mpdp", *(f"mpdp.{m.name}" for m in pkgutil.iter_modules(mpdp.__path__)
                     if m.name != "__main__")]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert missing == []
