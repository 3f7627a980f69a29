"""The package keeps zero runtime dependencies: its modules import only the
standard library and petrimod itself, and pyproject declares nothing.  It
never imports `gc`, so it leaves the collector's settings to its caller.
It also runs the same under `python -O`: it has no `assert` statement and
never reads `__debug__`."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _imported_modules():
    """(file:line, module name) for every absolute import under src/petrimod."""
    for path in sorted((ROOT / "src" / "petrimod").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:  # level > 0 stays inside petrimod
                names = [node.module]
            else:
                continue
            for name in names:
                yield f"{path.name}:{node.lineno}", name


def test_package_imports_only_the_standard_library():
    foreign = []
    for where, name in _imported_modules():
        top = name.split(".")[0]
        if top != "petrimod" and top not in sys.stdlib_module_names:
            foreign.append(f"{where} {name}")
    assert foreign == []


def test_package_leaves_the_collector_settings_alone():
    # switching the collector off would speed up `factorize` at its caller's expense
    assert [f"{where} {name}" for where, name in _imported_modules() if name.split(".")[0] == "gc"] == []


def test_package_does_the_same_under_python_O():
    # `-O` strips assert statements and sets `__debug__` to False; the package
    # has neither, so an optimized run executes the code the tests check
    found = []
    for path in sorted((ROOT / "src" / "petrimod").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Assert) or isinstance(node, ast.Name) and node.id == "__debug__":
                found.append(f"{path.name}:{node.lineno} {type(node).__name__}")
    assert found == []


def test_pyproject_declares_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["dependencies"] == []
