"""Every name in a module's __all__ exists, so a deleted name cannot linger
there, and neither importing the package nor running a sweep loads scipy."""

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


def _run_and_list_scipy(code: str) -> dict:
    """Run `code` in a fresh interpreter, which prints a JSON object; add
    the scipy modules loaded by then under "scipy"."""
    code += (
        "\nimport json, sys\n"
        "out['scipy'] = sorted(n for n in sys.modules if n == 'scipy' or n.startswith('scipy.'))\n"
        "print(json.dumps(out))\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(done.stdout)


def test_importing_every_module_loads_no_scipy():
    loaded = _run_and_list_scipy(
        "import importlib, pkgutil\n"
        "import equibound\n"
        "names = [m.name for m in pkgutil.iter_modules(equibound.__path__)]\n"
        "for name in names:\n"
        "    importlib.import_module(f'equibound.{name}')\n"
        "out = {'modules': sorted(names)}\n"
    )
    assert loaded["modules"] == MODULES
    assert loaded["scipy"] == []


def test_sweep_loads_no_scipy(tmp_path):
    """A sweep, summary and Spearman correlations included, runs on numpy alone."""
    loaded = _run_and_list_scipy(
        "from equibound.cli import SweepConfig, run_sweep\n"
        "cfg = SweepConfig(sizes=[2], d=2, groups=[('cyclic', 1), ('cyclic', 2)],\n"
        "                  m_grid=[48], seeds=[0], widths=[16, 8], test_m=40,\n"
        f"                  max_epochs=2, batch_size=16, out_dir={str(tmp_path)!r})\n"
        "summary = run_sweep(cfg)['summary']\n"
        "out = {'keys': sorted(next(iter(summary.values())))}\n"
    )
    assert "spearman_bound_main_vs_ge" in loaded["keys"]
    assert loaded["scipy"] == []
