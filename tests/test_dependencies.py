"""The runtime dependencies stay numpy and click: in the package's imports and in pyproject."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "crowdrel").rglob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "click", "crowdrel"}


def imported_packages(path: Path) -> set[str]:
    """Top-level names of the packages a module imports; relative imports stay in the package."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names |= {alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_package_imports_only_the_standard_library_numpy_and_click(path):
    assert imported_packages(path) - ALLOWED == set()


def test_modules_are_found():
    assert {"cli.py", "model.py", "neural.py"} <= {path.name for path in MODULES}


def test_pyproject_depends_on_numpy_and_click_only():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    names = {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower()
             for spec in project["dependencies"]}
    assert names == {"numpy", "click"}
