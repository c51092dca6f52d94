"""Every name a trigap module exports through ``__all__`` exists.

A stale entry breaks ``from trigap.<module> import *`` with an
AttributeError, and nothing else would notice it.
"""

import importlib
import pkgutil

import pytest

import trigap

MODULES = ["trigap"] + [
    f"trigap.{info.name}" for info in pkgutil.iter_modules(trigap.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate __all__ entry"
    assert [entry for entry in exported if not hasattr(module, entry)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)
