"""Every name a package module imports is read somewhere in that module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "graphpdp"


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads; a name listed in a
    module-level ``__all__`` counts as read."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_module_imports_a_name_it_never_reads(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_the_check_finds_an_unread_import_and_reads_all():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from functools import partial, reduce as fold\n"
        "from .errors import EngineError\n"
        "__all__ = ['EngineError']\n"
        "print(fold)\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 3: partial"]
