"""Every name a trigap module exports through ``__all__`` exists.

A stale entry breaks ``from trigap.<module> import *`` with an
AttributeError, and nothing else would notice it.  Importing the package
also stays cheap: it loads no module that only a minimizer would need.
"""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_import_loads_no_scipy_optimize():
    # scipy.optimize adds about 0.1 s (2 vCPUs) to every CLI call and
    # every benchmark setup; a fresh interpreter sees what import trigap loads
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = 'import sys, trigap; print("scipy.optimize" in sys.modules)'
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "False\n"
