"""Every name in a module's __all__ exists, so a deleted name cannot linger
there, and importing the package loads no scipy."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import equibound

MODULES = sorted(m.name for m in pkgutil.iter_modules(equibound.__path__))
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"equibound.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_importing_every_module_loads_no_scipy():
    code = (
        "import importlib, json, pkgutil, sys\n"
        "import equibound\n"
        "names = [m.name for m in pkgutil.iter_modules(equibound.__path__)]\n"
        "for name in names:\n"
        "    importlib.import_module(f'equibound.{name}')\n"
        "scipy = [n for n in sys.modules if n == 'scipy' or n.startswith('scipy.')]\n"
        "print(json.dumps({'modules': sorted(names), 'scipy': sorted(scipy)}))\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = json.loads(done.stdout)
    assert loaded["modules"] == MODULES
    assert loaded["scipy"] == []
