"""The package keeps one cache, catalog._GENERATED: no module caches a
function's results or binds an empty container to fill for the life of the
process. Working dicts, such as the shape dict of one excellent family,
live inside a call."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "domexc"
MODULES = sorted(SRC.glob("*.py"))
ALLOWED = {("catalog.py", "_GENERATED")}
CACHE_DECORATORS = {"cache", "lru_cache"}


def _is_empty_container(node: ast.expr | None) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set)):
        return not (node.keys if isinstance(node, ast.Dict) else node.elts)
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("dict", "list", "set")
        and not node.args
        and not node.keywords
    )


def _decorator_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def caches(name: str, source: str) -> list[str]:
    """Cache decorators anywhere, and module-level empty containers, by line."""
    tree = ast.parse(source)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for deco in node.decorator_list:
                if _decorator_name(deco) in CACHE_DECORATORS:
                    found.append(f"{name} line {deco.lineno}: @{_decorator_name(deco)} on {node.name}")
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign):
            targets, value = [node.target], node.value
        else:
            continue
        if not _is_empty_container(value):
            continue
        for target in targets:
            label = target.id if isinstance(target, ast.Name) else ast.unparse(target)
            if (name, label) not in ALLOWED:
                found.append(f"{name} line {node.lineno}: {label} starts empty")
    return found


def test_caches_detected():
    source = (
        "import functools\n"
        "from functools import lru_cache\n"
        "_SEEN = {}\n"
        "_KEYS: dict[int, int] = dict()\n"
        "_GENERATED = set()\n"
        "_ORDER = [3, 1]\n"
        "@functools.cache\n"
        "def f(x):\n"
        "    local = {}\n"
        "    return local\n"
        "@lru_cache(maxsize=None)\n"
        "def g(x):\n"
        "    return x\n"
    )
    assert caches("other.py", source) == [
        "other.py line 7: @cache on f",
        "other.py line 11: @lru_cache on g",
        "other.py line 3: _SEEN starts empty",
        "other.py line 4: _KEYS starts empty",
        "other.py line 5: _GENERATED starts empty",
    ]
    # the one allowed cache is allowed in catalog.py only
    assert caches("catalog.py", "_GENERATED: dict = {}\n") == []


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_module_level_caches(module):
    assert caches(module.name, module.read_text()) == []
