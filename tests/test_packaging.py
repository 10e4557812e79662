"""The package's declared runtime dependencies match what ``src/`` imports."""

import ast
import re
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def _imported_distributions() -> set[str]:
    """Top-level names of every absolute import under ``src/repro``,
    minus the standard library and the package itself."""
    names = set()
    for path in (REPO / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"repro"}


def test_declared_dependencies_cover_src_imports():
    """A plain install gets every module ``src/`` imports, and nothing more."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((REPO / "pyproject.toml").read_text())["project"]
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower()
        for spec in project["dependencies"]
    }
    assert _imported_distributions() == declared
