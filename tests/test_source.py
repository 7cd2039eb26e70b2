"""Checks on the package source itself."""

import ast
import pathlib

import pytest

SOURCES = sorted((pathlib.Path(__file__).parents[1] / "src" / "cdlsem").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never uses; names in ``__all__`` count
    as used."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\nimport os.path\nimport re\n"
        "from .a import b, c as d, e\n__all__ = ['e']\nre.compile(d)\n"
    )
    assert unused_imports(source) == ["os (line 2)", "b (line 4)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
