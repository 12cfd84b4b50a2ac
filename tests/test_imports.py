"""Code hygiene: no module of the package imports a name it never uses,
every import sits at module level, and every function, method and class the
package defines is referenced somewhere outside its own definition.

The import rules leave ``__init__`` out, since its imports are the public
re-exports.  The definition rule looks for references in ``src``,
``tests``, ``bench`` and ``demos``; a re-export or an ``__all__`` entry is
not a reference, a name in any other string constant is, so names that
``bench/tracer.py`` looks up by string count as used.

A start-up guard imports the package in a fresh interpreter and checks that
no heavy standard module comes with it, since every one-shot CLI call pays
for what the import loads.
"""

import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path
from typing import Sequence

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hecke5"
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


_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def references(tree: ast.AST) -> Counter:
    """How often ``tree`` names each identifier: as a name, as an attribute,
    or as a word of a string constant other than a docstring or an
    ``__all__`` entry."""
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, *_DEFINITIONS)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                skipped.add(id(first.value))
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            skipped.update(id(n) for n in ast.walk(node.value))
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in skipped
        ):
            found.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return found


def dead_definitions(package: dict[str, str], others: Sequence[str]) -> list[str]:
    """Non-dunder functions, methods and classes defined in ``package`` (module
    name to source) that neither ``package`` nor ``others`` references outside
    the definition itself."""
    trees = {module: ast.parse(source) for module, source in package.items()}
    total = Counter()
    for tree in [*trees.values(), *(ast.parse(source) for source in others)]:
        total.update(references(tree))
    dead = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, _DEFINITIONS):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if total[name] == references(node)[name]:
                dead.append(f"{module}:{node.lineno}: {name}")
    return sorted(dead)


def test_dead_definitions_are_detected():
    package = {
        "m": (
            '"""Docstrings name nothing: unused."""\n'
            "__all__ = ['unused', 'public']\n"
            "def unused():\n"
            "    return unused()\n"
            "def public(): pass\n"
            "def by_name(): pass\n"
            "class Box:\n"
            "    def __len__(self): return 0\n"
            "    def used(self): return self.hidden\n"
            "    def hidden(self): pass\n"
            "class Spare: pass\n"
        )
    }
    others = ["from m import public\npublic()\nTRACED = ('Box.used', 'by_name')\n"]
    assert dead_definitions(package, others) == ["m:11: Spare", "m:3: unused"]


def test_no_dead_definitions():
    package = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    others = [
        p.read_text()
        for folder in ("tests", "bench", "demos")
        for p in sorted((ROOT / folder).rglob("*.py"))
    ]
    assert dead_definitions(package, others) == []


#: Standard modules that importing the package must not load: ``dataclasses``
#: pulls in ``inspect``, and ``inspect`` pulls in ``ast``, ``dis`` and
#: ``tokenize``: about a third of a fresh import with no bytecode cache.
UNLOADED = ("dataclasses", "inspect", "ast", "dis", "tokenize")

STARTUP_PROBE = (
    "import sys; before = set(sys.modules); import hecke5, hecke5.cli; "
    "print(*sorted(set(sys.modules) - before))"
)


def test_import_loads_none_of_the_heavy_standard_modules():
    # -S keeps site-packages' .pth hooks from loading modules before the probe
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    loaded = subprocess.run(
        [sys.executable, "-S", "-c", STARTUP_PROBE],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.split()
    assert "hecke5.cli" in loaded
    assert [name for name in UNLOADED if name in loaded] == []
