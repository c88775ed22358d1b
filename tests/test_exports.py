"""Every name listed in a bosonsim module's ``__all__`` resolves."""
import importlib
import pkgutil

import pytest

import bosonsim

MODULES = ["bosonsim"] + [f"bosonsim.{info.name}" for info in pkgutil.iter_modules(bosonsim.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
