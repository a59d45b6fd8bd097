"""Zero runtime dependencies: the package imports only the standard
library and itself, and pyproject.toml declares nothing to install."""

from __future__ import annotations

import ast
import os
import subprocess
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


def test_startup_loads_neither_dataclasses_nor_inspect():
    """The modules a verb's set-up imports leave out dataclasses, which
    generates and compiles each record's methods at import, and inspect,
    which it pulls in: a fresh interpreter without site-packages imports
    them and loads neither."""
    code = (
        "import sys\n"
        "import newsvalue.cli, newsvalue.curation, newsvalue.geo, newsvalue.model\n"
        "import newsvalue.rarity, newsvalue.records\n"
        "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stdout == "[]\n"


def test_every_defined_name_is_read_in_the_package():
    """No function, class, method, class field or module-level name lives
    only for its tests: each name the package defines, dunders aside, is
    read as a name or an attribute somewhere in the package, and each name
    annotated in a class body or stored on self in a method is read as an
    attribute."""
    trees = [
        ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "src" / "newsvalue").glob("*.py"))
    ]
    nodes = [node for tree in trees for node in ast.walk(tree)]
    read = {
        node.id for node in nodes if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    read |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    defined = {
        node.name
        for node in nodes
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    defined |= {
        target.id
        for tree in trees
        for statement in tree.body
        if isinstance(statement, (ast.Assign, ast.AnnAssign))
        for node in (statement.targets if isinstance(statement, ast.Assign) else [statement.target])
        for target in ast.walk(node)
        if isinstance(target, ast.Name)
    }
    unread = sorted(
        name for name in defined - read if not (name.startswith("__") and name.endswith("__"))
    )
    # a field is read only as an attribute: a local of the same name does not count
    loaded = {
        node.attr for node in nodes
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread += sorted(
        f"{node.name}.{statement.target.id}"
        for node in nodes
        if isinstance(node, ast.ClassDef)
        for statement in node.body
        if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name)
        and statement.target.id not in loaded
    )
    unread += sorted({
        f"{node.name}.{target.attr}"
        for node in nodes
        if isinstance(node, ast.ClassDef)
        for method in node.body
        if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
        for target in ast.walk(method)
        if isinstance(target, ast.Attribute) and isinstance(target.ctx, ast.Store)
        and isinstance(target.value, ast.Name) and target.value.id == "self"
        and target.attr not in loaded
    })
    assert unread == []


def test_every_imported_name_is_read_in_its_module():
    """No import outlives the code that used it: each name a module of the
    package imports is read as a name in that module."""
    unread = []
    for path in sorted((ROOT / "src" / "newsvalue").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unread += [f"{path.name}: {name}" for name in bound if name not in read]
    assert unread == []
