"""focalpipe runs on its declared runtime dependencies, numpy and click, its
tests and scripts need no scipy, the package ships only Python modules, and
every public function and class of the package is used by the package, the
scripts or the benchmark, and those only the benchmark uses are a committed list."""

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


def test_package_ships_only_python_modules():
    # nothing in the package reads a data file, so none ships beside the modules
    package = ROOT / "src" / "focalpipe"
    files = [p for p in package.rglob("*") if p.is_file() and "__pycache__" not in p.parts]
    assert package / "visdrone.py" in files
    assert [p.name for p in files if p.suffix != ".py"] == []
    assert "package-data" not in (ROOT / "pyproject.toml").read_text()


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


def names_used(node: ast.AST) -> set[str]:
    """Every name, attribute and string constant under `node`: `perfbench/tracing.py`
    reaches the functions it wraps by name, as strings."""
    used = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            used.add(n.id)
        elif isinstance(n, ast.Attribute):
            used.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            used.add(n.value)
    return used


def is_cli_command(node: ast.AST) -> bool:
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr == "command" for d in getattr(node, "decorator_list", []))


def scan(paths: list[Path], package: list[Path]) -> tuple[list[str], set[str]]:
    """The public functions and classes that the files of `package` among `paths` define, as
    `module.name`, and every name that a top-level statement of `paths` uses, other than the
    name it defines: a name counts as used when a statement other than its own definition
    refers to it."""
    defined, used = [], set()
    for path in paths:
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            own = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
            used |= names_used(stmt) - {own}
            if path in package and own and not own.startswith("_") and not is_cli_command(stmt):
                defined.append(f"{path.stem}.{own}")
    return defined, used


PACKAGE = sorted((ROOT / "src" / "focalpipe").glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").rglob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench").rglob("*.py"))

# Public definitions that no program path uses, only the benchmark: the tracer wraps them or
# the workloads call them. They go once the benchmark no longer needs them. `fuse.ibs` is one
# too, but escapes the rule because `scripts/claims.py` defines a function named `ibs`.
BENCHMARK_ONLY = [
    "boxgeom.iou", "evalkit.precision_recall_points", "fuse.ingest_detections",
    "fuse.remap_to_image", "fuse.nms", "fuse.merge_pipeline", "mixture.featurize",
    "mixture.posterior", "serialize.crops_from_doc", "serialize.region_detections_from_doc",
    "serialize.merged_detections_doc",
]


def test_every_public_definition_is_used():
    # by the package, the scripts or the benchmark
    defined, used = scan(PACKAGE + SCRIPTS + BENCHMARK, PACKAGE)
    assert "visdrone.write_detections" in defined
    assert [name for name in defined if name.split(".")[1] not in used] == []


def test_what_only_the_benchmark_uses_is_listed():
    # new code in the package that only the tests use fails one of these two tests
    defined, used_by_program = scan(PACKAGE + SCRIPTS, PACKAGE)
    _, used_by_benchmark = scan(BENCHMARK, PACKAGE)
    only = [name for name in defined if name.split(".")[1] not in used_by_program
            and name.split(".")[1] in used_by_benchmark]
    assert sorted(only) == sorted(BENCHMARK_ONLY)
