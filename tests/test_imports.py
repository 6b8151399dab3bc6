"""Every name a package module imports is used in that module, and every
module-level private definition is referenced somewhere in the package."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "domexc"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_imports_detected():
    source = "from itertools import combinations, count\nimport os.path\nprint(count)\n"
    assert unused_imports(source) == ["line 1: combinations", "line 2: os"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(module):
    assert unused_imports(module.read_text()) == []


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level private functions, classes and constants, by line."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                found[name] = node.lineno
    return found


def referenced_names(tree: ast.Module) -> set[str]:
    """Names read, attributes taken and names imported anywhere in tree."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            used.update(alias.name for alias in node.names)
    return used


def unreferenced_privates(sources: dict[str, str]) -> list[str]:
    trees = {name: ast.parse(source) for name, source in sources.items()}
    used = set().union(*map(referenced_names, trees.values()))
    return [
        f"{name} line {line}: {private}"
        for name, tree in trees.items()
        for private, line in private_definitions(tree).items()
        if private not in used
    ]


def test_unreferenced_privates_detected():
    sources = {
        "a.py": "_CAP = 3\n_LIMIT: int = 4\ndef _used():\n    return _CAP\nclass _Gone:\n    pass\n",
        "b.py": "from .a import _used\n_LIMIT = 5\ndef _stale():\n    pass\n",
    }
    assert unreferenced_privates(sources) == [
        "a.py line 2: _LIMIT",
        "a.py line 5: _Gone",
        "b.py line 2: _LIMIT",
        "b.py line 3: _stale",
    ]


def test_no_unreferenced_private_definitions():
    # a helper left behind by a deletion is referenced nowhere in the package
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert unreferenced_privates(sources) == []
