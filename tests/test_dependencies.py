"""focalpipe runs on its declared runtime dependencies, numpy and click, and
its tests and scripts need no scipy."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import focalpipe

ROOT = Path(__file__).resolve().parents[1]

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


def imported_modules(path: Path) -> set[str]:
    """Top-level names of every module that `path` imports, at any depth of its AST."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_no_script_or_test_imports_scipy():
    paths = sorted((ROOT / "scripts").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert ROOT / "scripts" / "claims.py" in paths
    assert [p.name for p in paths if "scipy" in imported_modules(p)] == []


MERGE_THEN_LIST_MA = """
import sys
from focalpipe import cli
code = cli.main(["merge", "--region-detections", sys.argv[1], "--out", sys.argv[2],
                 "--out-visdrone", sys.argv[3]])
print(code, "numpy.ma" in sys.modules)
"""


def test_merge_does_not_import_numpy_ma(tmp_path):
    # np.unique and np.intersect1d import numpy.ma, which costs about 1.6 MB of RSS
    from focalpipe import serialize
    from test_cli import TestMerge

    rd = tmp_path / "rd.json"
    serialize.write_json_atomic(rd, TestMerge().region_detection_doc())
    src = str(Path(focalpipe.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run(
        [sys.executable, "-c", MERGE_THEN_LIST_MA, str(rd), str(tmp_path / "m.json"),
         str(tmp_path / "results")], env=env, capture_output=True, text=True, check=True,
        timeout=120)
    assert result.stdout.splitlines()[-1] == "0 False"
