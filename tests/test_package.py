"""The package's public names and what importing it loads."""

import os
import subprocess
import sys
from pathlib import Path

import coopdetect


def test_every_exported_name_resolves():
    missing = [name for name in coopdetect.__all__ if not hasattr(coopdetect, name)]
    assert not missing
    assert len(set(coopdetect.__all__)) == len(coopdetect.__all__)


def test_import_loads_no_scipy():
    # The kernels need numpy alone.  A fresh interpreter, so that no other
    # test's imports count; every module of the package is imported.
    code = """
import importlib, pkgutil, sys
import coopdetect
for module in pkgutil.iter_modules(coopdetect.__path__):
    importlib.import_module(f"coopdetect.{module.name}")
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    env = {**os.environ, "PYTHONPATH": str(Path(coopdetect.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120, check=True)
    assert out.stdout.strip() == "[]"
