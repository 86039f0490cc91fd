"""The package exports nothing, so importing a module loads only what that
module imports; every name a module lists in ``__all__`` exists."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import gridsec

MODULES = sorted(info.name for info in pkgutil.iter_modules(gridsec.__path__))


def loaded_by(statement: str) -> tuple[list[str], bool]:
    """The gridsec modules a fresh interpreter holds after ``statement``, and
    whether it loaded numpy."""
    paths = [str(Path(gridsec.__path__[0]).parent), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    probe = (
        f"{statement}\nimport json, sys\n"
        "print(json.dumps([sorted(m for m in sys.modules if m.split('.')[0] == 'gridsec'),"
        " 'numpy' in sys.modules]))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    modules, numpy = json.loads(done.stdout)
    return modules, numpy


def test_network_loads_no_other_module():
    assert loaded_by("import gridsec.network") == (["gridsec", "gridsec.network"], False)


def test_classical_loads_only_its_imports():
    expected = ["gridsec", "gridsec.classical", "gridsec.loadflow", "gridsec.network"]
    assert loaded_by("import gridsec.classical") == (expected, True)


def test_anneal_loads_only_the_qubo_module():
    # the feasibility rule is the layout's, so the sampler needs no N-1 module
    assert loaded_by("import gridsec.anneal") == (["gridsec", "gridsec.anneal", "gridsec.qubo"], True)


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves(name):
    module = importlib.import_module(f"gridsec.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
