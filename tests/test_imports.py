"""Every name a package module imports is used in that module, every
module-level private definition is referenced somewhere in the package,
and only canon decides how graphs are identified."""

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


# the names through which a module could decide graph identity, and the
# only modules that may reference them: cli reads the cap to report no
# canonical graph6 above it
IDENTITY_NAMES = {
    "_lex_min": {"canon.py"},
    "_lex_max_rows": {"canon.py"},
    "CANON_CAP": {"canon.py", "cli.py"},
}


def referencing_modules(sources: dict[str, str]) -> dict[str, set[str]]:
    """For each of IDENTITY_NAMES, the modules that reference it."""
    used = {module: referenced_names(ast.parse(source)) for module, source in sources.items()}
    return {name: {m for m, names in used.items() if name in names} for name in IDENTITY_NAMES}


def test_referencing_modules_detected():
    sources = {
        "a.py": "from .canon import CANON_CAP\n",
        "b.py": "from . import canon\nkey = canon._lex_min\n",
        "c.py": "def _lex_min():\n    pass\n",
    }
    assert referencing_modules(sources) == {
        "_lex_min": {"b.py"},
        "_lex_max_rows": set(),
        "CANON_CAP": {"a.py"},
    }


def test_identity_decided_in_canon_only():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert referencing_modules(sources) == IDENTITY_NAMES
