"""Every name in a module's __all__ exists, so a deleted name cannot linger there."""

import importlib
import pkgutil

import pytest

import equibound

MODULES = sorted(m.name for m in pkgutil.iter_modules(equibound.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"equibound.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert len(set(module.__all__)) == len(module.__all__)
