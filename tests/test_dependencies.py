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


def test_every_defined_name_is_read_in_the_package():
    """No function, class or method lives only for its tests: each name the
    package defines, dunders aside, is read as a name or an attribute
    somewhere in the package."""
    trees = [
        ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "src" / "newsvalue").glob("*.py"))
    ]
    nodes = [node for tree in trees for node in ast.walk(tree)]
    read = {node.id for node in nodes if isinstance(node, ast.Name)}
    read |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    defined = {
        node.name
        for node in nodes
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    unread = sorted(
        name for name in defined - read if not (name.startswith("__") and name.endswith("__"))
    )
    assert unread == []
