"""Every absolute import in the package is of the standard library or of a
declared dependency, so a plain `pip install .` can run every module;
`import gydet` stays light, and every public name resolves."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gydet

ROOT = Path(__file__).resolve().parent.parent


def declared_dependencies() -> set[str]:
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
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


def test_import_leaves_scipy_integrate_unloaded():
    # scipy.integrate adds about a quarter of a second to every start-up;
    # a fresh interpreter, since this one may have imported it already
    src = str(Path(gydet.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import gydet; "
        "sys.exit('scipy.integrate' in sys.modules)"
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


def test_every_export_resolves_once():
    # a deleted function must leave no dangling name in the public list
    assert len(gydet.__all__) == len(set(gydet.__all__))
    missing = [name for name in gydet.__all__ if not hasattr(gydet, name)]
    assert missing == []
