"""Zero runtime dependencies: the package imports only the standard
library and itself, and pyproject.toml declares nothing to install."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_package_imports_only_stdlib_and_itself():
    sources = sorted((ROOT / "src" / "newsvalue").glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top == "newsvalue", f"{path.name}: {name}"


def test_pyproject_declares_no_dependencies():
    # a text check: tomllib is 3.11+ and the package supports 3.10
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = text.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    assert "dependencies = []" in project.splitlines()
