"""Every absolute import in the package is of the standard library or of a
declared dependency, so a plain `pip install .` can run every module."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent


def declared_dependencies() -> set[str]:
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", d).group().lower().replace("-", "_") for d in deps}


def absolute_imports(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize(
    "path", sorted((ROOT / "src" / "gydet").glob("*.py")), ids=lambda p: p.name
)
def test_imports_are_stdlib_or_declared(path):
    allowed = set(sys.stdlib_module_names) | declared_dependencies()
    undeclared = sorted(absolute_imports(path) - allowed)
    assert not undeclared, f"{path.name} imports undeclared {undeclared}"
