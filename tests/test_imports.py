"""Every name a module of the package imports is used in that module, and so
is every private name (``_x``) it defines at module or class level. No module
asks ``json`` for indented output: that goes through the CLI's one encoder.

Package ``__init__.py`` files are exempt from the import check: their imports
are re-exports.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "logsmith"
MODULES = sorted(path for path in PACKAGE.rglob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by the imports of ``source`` that nothing else in it names."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def unused_private_names(source: str) -> list[str]:
    """The private names that ``source`` defines at module or class level and
    that nothing outside their own definition names. Dunder names are exempt."""
    tree = ast.parse(source)
    bodies = [tree.body] + [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
    defined: dict[str, ast.stmt] = {}
    for node in (node for body in bodies for node in body):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                defined[name] = node
    uses: dict[str, list[ast.AST]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            uses.setdefault(node.id, []).append(node)
        elif isinstance(node, ast.Attribute):
            uses.setdefault(node.attr, []).append(node)
    unused = []
    for name, definition in defined.items():
        own = {id(node) for node in ast.walk(definition)}
        if all(id(node) in own for node in uses.get(name, ())):
            unused.append(f"line {definition.lineno}: {name}")
    return unused


def test_modules_are_found():
    assert PACKAGE / "cli.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(PACKAGE)))
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, unused", [
    ("import os\n", ["line 1: os"]),
    ("import os.path\nos.sep\n", []),
    ("from a import b as c\nb()\n", ["line 1: c"]),
    ("from __future__ import annotations\nfrom typing import Iterator\n"
     "def f() -> Iterator[int]: ...\n", []),
])
def test_unused_imports_reads_the_bound_name(source, unused):
    assert unused_imports(source) == unused


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")),
                         ids=lambda path: str(path.relative_to(PACKAGE)))
def test_module_uses_every_private_name_it_defines(path):
    assert unused_private_names(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, unused", [
    ("_A = 1\n", ["line 1: _A"]),
    ("_A = 1\nprint(_A)\n", []),
    ("def _f(n):\n    return _f(n - 1)\n", ["line 1: _f"]),
    ("class C:\n    def _g(self): ...\n    def h(self):\n        return self._g()\n", []),
    ("class C:\n    _k: int = 0\n    __slots__ = ()\n", ["line 2: _k"]),
    ("def f():\n    _local = 1\n", []),
])
def test_unused_private_names_reads_module_and_class_level(source, unused):
    assert unused_private_names(source) == unused


def indented_json_calls(source: str) -> list[str]:
    """The calls in ``source`` of ``json.dump``/``json.dumps``, by module
    attribute or by imported name, that pass an ``indent`` keyword."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "json"
                for alias in node.names if alias.name in ("dump", "dumps")}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                and func.value.id == "json" and func.attr in ("dump", "dumps")):
            name = f"json.{func.attr}"
        elif isinstance(func, ast.Name) and func.id in imported:
            name = func.id
        else:
            continue
        if any(keyword.arg == "indent" for keyword in node.keywords):
            found.append(f"line {node.lineno}: {name}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(PACKAGE)))
def test_module_writes_no_indented_json_itself(path):
    assert indented_json_calls(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, found", [
    ("import json\njson.dumps(v, indent=2)\n", ["line 2: json.dumps"]),
    ("import json\njson.dump(v, f, indent=None)\n", ["line 2: json.dump"]),
    ("import json\njson.dumps(v)\njson.dumps(v, ensure_ascii=False)\n", []),
    ("from json import dumps as d\nd(v, indent=4)\n", ["line 2: d"]),
    ("from json import loads\nloads(v)\nother.dumps(v, indent=2)\n", []),
])
def test_indented_json_calls_reads_attribute_and_imported_calls(source, found):
    assert indented_json_calls(source) == found
