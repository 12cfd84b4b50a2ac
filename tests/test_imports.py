"""Import hygiene: no module of the package imports a name it never uses,
and every import sits at module level.

``__init__`` is left out, since its imports are the public re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hecke5"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` and never read.

    A name counts as read when it appears as an identifier anywhere,
    string annotations included.
    """
    tree = ast.parse(source)
    imported = {}
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parsed = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return sorted(
        f"line {line}: {name}" for name, line in imported.items() if name not in used
    )


def test_unused_imports_are_detected():
    source = (
        "from typing import Optional, Sequence\n"
        "import os.path\n"
        "x: 'Sequence[int]' = ()\n"
        "s = 'Optional'\n"
    )
    assert unused_imports(source) == ["line 1: Optional", "line 2: os"]


def nested_imports(source: str) -> list[str]:
    """Imports made inside a function body of ``source``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    found.add(f"line {inner.lineno}: {node.name}")
    return sorted(found)


def test_nested_imports_are_detected():
    source = (
        "import os\n"
        "def f():\n"
        "    def g():\n"
        "        from sys import path\n"
        "    return os\n"
    )
    assert nested_imports(source) == ["line 4: f", "line 4: g"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


@pytest.mark.parametrize("module", MODULES)
def test_no_imports_inside_functions(module):
    assert nested_imports((PACKAGE / module).read_text()) == []
