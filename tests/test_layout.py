"""Module layout: no graspforge module imports another module's private
names, so every cross-module dependency goes through a public API."""

import ast
from pathlib import Path

import graspforge

PACKAGE = Path(graspforge.__file__).parent


def private_imports(path: Path) -> list[str]:
    """`from <graspforge module> import <name>` lines in one file where the
    module path or an imported name starts with an underscore."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        parts = (node.module or "").split(".")
        if node.level == 0 and parts[0] != "graspforge":
            continue
        for name in parts + [alias.name for alias in node.names]:
            if name.startswith("_"):
                found.append(f"{path.relative_to(PACKAGE)}:{node.lineno} imports {name}")
    return found


def test_no_private_cross_module_imports():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 10
    assert [line for path in modules for line in private_imports(path)] == []
