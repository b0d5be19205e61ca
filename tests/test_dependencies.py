"""focalpipe runs on its declared runtime dependencies, numpy and click."""

import os
import subprocess
import sys
from pathlib import Path

import focalpipe

IMPORT_ALL = """
import importlib, pkgutil, sys
import focalpipe
names = [m.name for m in pkgutil.iter_modules(focalpipe.__path__)]
for name in names:
    importlib.import_module("focalpipe." + name)
print(",".join(sorted(names)))
print(",".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_no_focalpipe_module_imports_scipy():
    # a fresh interpreter: the test process has scipy loaded already
    src = str(Path(focalpipe.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, "-c", IMPORT_ALL], env=env, capture_output=True,
                            text=True, check=True, timeout=120)
    modules, scipy_modules = result.stdout.splitlines()
    assert "cli" in modules.split(",") and "mixture" in modules.split(",")
    assert scipy_modules == ""
