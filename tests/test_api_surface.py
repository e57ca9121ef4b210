"""Public names: the package exports and every name the demos import exist."""

import ast
import importlib
from pathlib import Path

import pytest

import supercell

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def demo_imports(path: Path) -> list[tuple[str, str]]:
    """(module, name) for each ``from supercell... import name`` in a demo."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.module
        and node.module.split(".")[0] == "supercell"
        for alias in node.names
    ]


def test_all_names_resolve():
    missing = [name for name in supercell.__all__ if not hasattr(supercell, name)]
    assert missing == []


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(demo):
    imports = demo_imports(demo)
    assert imports
    missing = [
        f"{module}.{name}"
        for module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []
