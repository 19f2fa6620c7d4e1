"""Every name a ``wavopt`` module exports must exist."""

import importlib
import pkgutil
import subprocess
import sys

import pytest

import wavopt

MODULES = sorted(m.name for m in pkgutil.iter_modules(wavopt.__path__))


def test_every_module_is_listed():
    assert {"cli", "dist_rl", "harness", "nn", "verify"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"wavopt.{name}")
    exported = module.__all__
    assert len(exported) == len(set(exported)), "duplicate entries in __all__"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"wavopt.{name}.__all__ names missing attributes: {missing}"


def test_importing_the_cli_loads_no_scipy():
    # scipy (about 0.2 s and 40 MB at start-up) serves only the LP
    # oracle, which imports it at its first LP
    code = "import sys, wavopt.cli; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True)
