"""Every name a module of the package imports is used in that module, and so
is every private name (``_x``) it defines at module or class level. Every
public name a module defines at top level is used somewhere in the package
outside its own definition, except the console script's entry point. No
module asks ``json`` for indented output: that goes through the CLI's one
encoder.

Package ``__init__.py`` files are exempt from the import check: their imports
are re-exports, which do not count as uses of a public name either.

Each package ``__init__.py`` re-exports exactly the names that modules outside
that package import through it: the package's other modules, and the
benchmark's ``perfbench/*.py``, which runs against each commit's package.
Its ``__all__`` and its imports both hold those names and no more. Tests
import anything else from the module that defines it.

Every dataclass of the analyzer and the extraction layer is slotted: a parsed
project holds one of them per syntax node, so none may carry a ``__dict__``.

Every ``.send(...)`` call in the package sits inside ``invoke_gateway``: the
extraction call and every verifier call share its one retry loop, so no
second loop can grow around a gateway.

Importing the CLI loads neither ``requests`` nor ``yaml``: a run pays for the
HTTP client only when it sends over HTTP, and for the YAML parser only when
it reads a config file.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import os
import subprocess
import sys
import types
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


def _definitions(body: list[ast.stmt]):
    """(name, statement) for each name a def, class or assignment in ``body`` binds."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, node
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node


def _uses(tree: ast.AST, uses: dict[str, list[ast.AST]]) -> None:
    """Add to ``uses`` each node of ``tree`` that reads a name or an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            uses.setdefault(node.id, []).append(node)
        elif isinstance(node, ast.Attribute):
            uses.setdefault(node.attr, []).append(node)


def _string_annotation_uses(tree: ast.AST, uses: dict[str, list[ast.AST]]) -> None:
    """Add to ``uses`` each name in a string annotation of ``tree`` (a forward
    reference such as ``"Expr | None"``), recorded as the string's node."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotation = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        else:
            continue
        for text in ast.walk(annotation) if annotation else ():
            if isinstance(text, ast.Constant) and isinstance(text.value, str):
                for name in ast.walk(ast.parse(text.value, mode="eval")):
                    if isinstance(name, ast.Name):
                        uses.setdefault(name.id, []).append(text)


def _unused(defined, uses: dict[str, list[ast.AST]]) -> list[tuple[str, ast.stmt]]:
    """The (name, definition) pairs whose every use lies inside the definition."""
    unused = []
    for name, definition in defined:
        own = {id(node) for node in ast.walk(definition)}
        if all(id(node) in own for node in uses.get(name, ())):
            unused.append((name, definition))
    return unused


def unused_private_names(source: str) -> list[str]:
    """The private names that ``source`` defines at module or class level and
    that nothing outside their own definition names. Dunder names are exempt."""
    tree = ast.parse(source)
    bodies = [tree.body] + [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
    defined = {name: node for body in bodies for name, node in _definitions(body)
               if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))}
    uses: dict[str, list[ast.AST]] = {}
    _uses(tree, uses)
    return [f"line {node.lineno}: {name}" for name, node in _unused(defined.items(), uses)]


def unused_public_names(sources: dict[str, str], allowed=frozenset()) -> list[str]:
    """The public names that the modules in ``sources`` (file name -> source)
    define at top level and that nothing names outside their own definition.

    Uses in an ``__init__.py`` (its re-exports) and in a module's
    ``if __name__ == "__main__"`` block do not count. Names in ``allowed``
    are exempt."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    uses: dict[str, list[ast.AST]] = {}
    for module, tree in trees.items():
        if Path(module).name == "__init__.py":
            continue
        for node in tree.body:
            if not (isinstance(node, ast.If)
                    and ast.unparse(node.test) == "__name__ == '__main__'"):
                _uses(node, uses)
                _string_annotation_uses(node, uses)
    return [f"{module} line {node.lineno}: {name}"
            for module, tree in trees.items()
            for name, node in _unused(_definitions(tree.body), uses)
            if not name.startswith("_") and name not in allowed]


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


# ``main`` is the ``logsmith`` console script, which nothing in the package calls.
ENTRY_POINTS = frozenset({"main"})


def _package_sources() -> dict[str, str]:
    return {str(path.relative_to(PACKAGE)): path.read_text(encoding="utf-8")
            for path in sorted(PACKAGE.rglob("*.py"))}


def test_package_uses_every_public_name_it_defines():
    assert unused_public_names(_package_sources(), ENTRY_POINTS) == []


def test_public_name_check_finds_a_planted_unused_function():
    sources = _package_sources()
    sources["matcher.py"] += "\n\ndef planted_helper(line):\n    return line\n"
    found = unused_public_names(sources, ENTRY_POINTS)
    assert len(found) == 1 and found[0].startswith("matcher.py line ")
    assert found[0].endswith(": planted_helper")


@pytest.mark.parametrize("sources, unused", [
    ({"a.py": "def f(): ...\n"}, ["a.py line 1: f"]),
    ({"a.py": "def f(): ...\n", "b.py": "from a import f\nf()\n"}, []),
    ({"a.py": "def f(): ...\n", "b.py": "import a\na.f()\n"}, []),
    ({"a.py": "def f(n):\n    return f(n - 1)\n"}, ["a.py line 1: f"]),
    ({"a.py": "X = 1\ndef g():\n    return X\n"}, ["a.py line 2: g"]),
    ({"a.py": "class C: ...\n", "b.py": "def h(x: 'C | None') -> None: ...\nh(1)\n"}, []),
    ({"a.py": "class C: ...\n", "__init__.py": "from .a import C\n"}, ["a.py line 1: C"]),
    ({"a.py": "def main(): ...\nif __name__ == '__main__':\n    main()\n"},
     ["a.py line 1: main"]),
    ({"a.py": "def _f(): ...\n__all__ = []\n"}, []),
])
def test_unused_public_names_reads_uses_across_modules(sources, unused):
    assert unused_public_names(sources) == unused


def _module_name(path: str) -> str:
    """``logsmith/analyzer/__init__.py`` -> ``logsmith.analyzer``."""
    parts = path.removesuffix(".py").split("/")
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def reexport_mismatches(sources: dict[str, str]) -> list[str]:
    """Where a package's ``__all__`` differs from the names that modules
    outside that package import through it with ``from ... import``.

    ``sources`` maps each file's path, relative to the directory holding its
    top-level package (``logsmith/cli.py``, ``perfbench/run.py``), to its
    text. A submodule imported by name is no re-export, and an ``__init__``'s
    own imports must bind exactly the names in its ``__all__``."""
    modules = {_module_name(path) for path in sources}
    inits = {_module_name(path): ast.parse(source) for path, source in sources.items()
             if path.endswith("__init__.py")}
    wanted: dict[str, dict[str, list[str]]] = {package: {} for package in inits}
    for path, source in sorted(sources.items()):
        importer = _module_name(path)
        here = importer.split(".") if path.endswith("__init__.py") else importer.split(".")[:-1]
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.ImportFrom):
                continue
            target = node.module
            if node.level:
                target = ".".join(here[:len(here) - node.level + 1]
                                  + ([node.module] if node.module else []))
            if target not in wanted or f"{importer}.".startswith(f"{target}."):
                continue
            for alias in node.names:
                if f"{target}.{alias.name}" not in modules:
                    wanted[target].setdefault(alias.name, []).append(importer)
    problems = []
    for package, tree in sorted(inits.items()):
        exported = set()
        bound = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(target, ast.Name) and target.id == "__all__"
                    for target in node.targets):
                exported = set(ast.literal_eval(node.value))
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound.update(alias.asname or alias.name for alias in node.names)
        for name in sorted(exported - set(wanted[package])):
            problems.append(f"{package}: exports {name}, "
                            "which no module outside it imports through it")
        for name in sorted(set(wanted[package]) - exported):
            problems.append(f"{package}: does not export {name}, "
                            f"imported by {', '.join(wanted[package][name])}")
        for name in sorted(bound ^ exported):
            problems.append(f"{package}: {name} is "
                            + ("imported but not in __all__" if name in bound
                               else "in __all__ but not imported"))
    return problems


REPOSITORY = PACKAGE.parent.parent


def _boundary_sources() -> dict[str, str]:
    """The package's modules and the benchmark's, which imports the package."""
    paths = [(path, PACKAGE.parent) for path in sorted(PACKAGE.rglob("*.py"))]
    paths += [(path, REPOSITORY) for path in sorted((REPOSITORY / "perfbench").glob("*.py"))]
    return {path.relative_to(base).as_posix(): path.read_text(encoding="utf-8")
            for path, base in paths}


def test_each_package_exports_what_crosses_its_boundary():
    assert reexport_mismatches(_boundary_sources()) == []


def _plant(sources: dict[str, str], path: str, *edits: tuple[str, str]) -> dict[str, str]:
    text = sources[path]
    for old, new in edits:
        assert old in text, old
        text = text.replace(old, new)
    return {**sources, path: text}


def test_reexport_check_finds_a_planted_extra_export():
    sources = _plant(_boundary_sources(), "logsmith/analyzer/__init__.py",
                     ("import build_call_graph", "import CallGraph, build_call_graph"),
                     ('__all__ = [\n', '__all__ = [\n    "CallGraph",\n'))
    assert reexport_mismatches(sources) == [
        "logsmith.analyzer: exports CallGraph, which no module outside it imports through it"]


def test_reexport_check_finds_a_planted_missing_export():
    sources = _plant(_boundary_sources(), "logsmith/analyzer/__init__.py",
                     ("StaticReport, build_report, render_report", "StaticReport, render_report"),
                     ('    "build_report",\n', ""))
    assert reexport_mismatches(sources) == [
        "logsmith.analyzer: does not export build_report, imported by "
        "logsmith.cli, logsmith.whitebox.extract, perfbench.tracer"]


_PKG_A = {"pkg/__init__.py": "from .a import f\n__all__ = ['f']\n", "pkg/a.py": "def f(): ...\n"}


@pytest.mark.parametrize("sources, found", [
    ({**_PKG_A, "bench/x.py": "from pkg import f\n"}, []),
    (_PKG_A, ["pkg: exports f, which no module outside it imports through it"]),
    ({**_PKG_A, "pkg/b.py": "from . import f\nfrom pkg import f\n"},
     ["pkg: exports f, which no module outside it imports through it"]),
    ({"pkg/__init__.py": "", "pkg/sub/__init__.py": _PKG_A["pkg/__init__.py"],
      "pkg/sub/a.py": "def f(): ...\n", "pkg/c.py": "def g():\n    from .sub import f\n"}, []),
    ({"pkg/__init__.py": "__all__ = []\n", "pkg/a.py": "", "bench/x.py": "from pkg import a\n"},
     []),
    ({"pkg/__init__.py": "", "bench/x.py": "from pkg import g\n", "bench/y.py": "from pkg import g\n"},
     ["pkg: does not export g, imported by bench.x, bench.y"]),
    ({**_PKG_A, "pkg/__init__.py": "from .a import f\n__all__ = []\n"},
     ["pkg: f is imported but not in __all__"]),
    ({**_PKG_A, "pkg/__init__.py": "__all__ = ['f']\n", "bench/x.py": "from pkg import f\n"},
     ["pkg: f is in __all__ but not imported"]),
])
def test_reexport_mismatches_reads_imports_from_outside_the_package(sources, found):
    assert reexport_mismatches(sources) == found


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


def sends_outside(source: str, owner: str = "invoke_gateway") -> list[str]:
    """The ``.send(...)`` calls in ``source`` that no function named ``owner`` holds."""
    tree = ast.parse(source)
    held = {id(node) for function in ast.walk(tree)
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
            and function.name == owner for node in ast.walk(function)}
    return [f"line {node.lineno}: {ast.unparse(node.func)}" for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "send" and id(node) not in held]


def test_only_invoke_gateway_calls_send():
    found = {str(path.relative_to(PACKAGE)): sends_outside(path.read_text(encoding="utf-8"))
             for path in MODULES}
    assert {module: calls for module, calls in found.items() if calls} == {}
    # the check sees the one call it allows: held by no function, it is found
    gateway = (PACKAGE / "whitebox" / "gateway.py").read_text(encoding="utf-8")
    assert [call.split(": ")[1] for call in sends_outside(gateway, owner="")] == ["gateway.send"]


@pytest.mark.parametrize("source, found", [
    ("def invoke_gateway(p, g):\n    return g.send(p)\n", []),
    ("def _ask(g, p):\n    return g.send(p)\n", ["line 2: g.send"]),
    ("def invoke_gateway(p, g):\n    def inner():\n        return g.send(p)\n"
     "    return inner()\n", []),
    ("class G:\n    def send(self, p):\n        return p\n", []),
    ("x = self.gateway.send(p)\n", ["line 1: self.gateway.send"]),
])
def test_sends_outside_reads_calls_by_their_enclosing_function(source, found):
    assert sends_outside(source) == found


SLOTTED_PACKAGES = ("analyzer", "whitebox")


def unslotted_dataclasses(modules) -> list[str]:
    """The dataclasses defined in ``modules`` that declare no ``__slots__``, or
    whose instances get a ``__dict__`` all the same, from a base class."""
    found = []
    for module in modules:
        for name, value in vars(module).items():
            if (isinstance(value, type) and dataclasses.is_dataclass(value)
                    and value.__module__ == module.__name__
                    and ("__slots__" not in vars(value)
                         or any("__dict__" in vars(base) for base in value.__mro__))):
                found.append(f"{module.__name__}.{name}")
    return found


def _slotted_modules() -> list:
    return [importlib.import_module(f"logsmith.{package}.{path.stem}")
            for package in SLOTTED_PACKAGES
            for path in sorted((PACKAGE / package).glob("*.py"))]


def test_analyzer_and_whitebox_dataclasses_are_slotted():
    modules = _slotted_modules()
    assert len(modules) == len([path for package in SLOTTED_PACKAGES
                                for path in (PACKAGE / package).glob("*.py")])
    assert unslotted_dataclasses(modules) == []


def test_instances_of_the_parsed_project_have_no_dict():
    from logsmith.analyzer import parse_source
    from logsmith.whitebox.extract import ProjectFile, extract_project
    from logsmith.whitebox.gateway import MockGateway
    from conftest import EXAMPLE_PROJECT

    texts = [path.read_text(encoding="utf-8") for path in sorted(EXAMPLE_PROJECT.glob("*.java"))]
    files = [ProjectFile(unit=parse_source(text), text=text) for text in texts]
    _, foo = extract_project(files, MockGateway())
    enumeration = foo.report.enumerations[0]
    path = enumeration.paths[0]
    values = [files[0], foo, foo.unit, foo.unit.methods[0], foo.unit.methods[0].body[0],
              foo.report, enumeration, enumeration.site, enumeration.site.call, path,
              path.steps[0]]
    assert [type(value).__name__ for value in values if hasattr(value, "__dict__")] == []


@pytest.mark.parametrize("source, found", [
    ("@dataclass(frozen=True)\nclass Planted:\n    x: int\n", ["planted.Planted"]),
    ("@dataclass(slots=True)\nclass Planted:\n    x: int\n", []),
    ("class Base:\n    pass\n@dataclass(slots=True)\nclass Planted(Base):\n    x: int\n",
     ["planted.Planted"]),
    ("class Planted:\n    x: int\n", []),
])
def test_unslotted_dataclasses_finds_a_planted_dataclass(source, found):
    module = types.ModuleType("planted")
    code = compile("from dataclasses import dataclass\n" + source, "planted", "exec",
                   dont_inherit=True)  # no string annotations, which need sys.modules
    exec(code, vars(module))
    assert unslotted_dataclasses([module]) == found
    assert unslotted_dataclasses(_slotted_modules() + [module]) == found


_IMPORT_PROBE = """
import sys
import logsmith.cli
loaded = [name for name in ("requests", "yaml") if name in sys.modules]
config = logsmith.cli.read_config(sys.argv[1])
print(loaded, config, "yaml" in sys.modules)
"""


def test_cli_import_loads_neither_http_nor_yaml(tmp_path):
    config = tmp_path / "config.yaml"
    config.write_text("workers: 2\n", encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(config)],
                         capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    # nothing at import; the config file is still read as YAML
    assert run.stdout == "[] {'workers': 2} True\n"
