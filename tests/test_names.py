"""Every name a module loads must be bound somewhere in that module,
and every name it imports with `from ... import` must be loaded.

The checks are scope-insensitive: a name counts as bound if the module
imports, assigns, defines or takes it as an argument anywhere, or if it
is a builtin, and as used if it is loaded anywhere.  That is coarse, but
it catches a missing import, which otherwise only surfaces as a
NameError on the code path that uses it, and an import left behind when
its last use goes.  The package's __init__ imports only to re-export.
"""

import ast
import builtins
import subprocess
import sys
from pathlib import Path

import pytest

import mcmsat

PACKAGE_DIR = Path(mcmsat.__file__).parent
MODULES = sorted(PACKAGE_DIR.glob("*.py"))
# Imported for callers that reach it through this module, not used here.
REEXPORTED = {("solve.py", "recoding_witness")}


def bound_names(tree: ast.AST) -> set[str]:
    bound = set(dir(builtins)) | {"__file__"}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.arg):
            bound.add(node.arg)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            bound.update(node.names)
    return bound


def undefined_names(source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source)
    bound = bound_names(tree)
    return sorted(
        (node.lineno, node.id)
        for node in ast.walk(tree)
        if isinstance(node, ast.Name)
        and isinstance(node.ctx, ast.Load)
        and node.id not in bound
    )


def unused_imports(source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source)
    loaded = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(
        (node.lineno, alias.asname or alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
        if (alias.asname or alias.name) not in loaded
    )


def test_checker_flags_a_missing_import():
    source = "from os import path\n\ndef f():\n    return path, sep\n"
    assert undefined_names(source) == [(4, "sep")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_undefined_names(path):
    assert undefined_names(path.read_text()) == []


def test_checker_flags_an_unused_import():
    source = "from __future__ import annotations\nfrom os import path, sep\n\ndef f():\n    return path\n"
    assert unused_imports(source) == [(2, "sep")]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_module_uses_every_import(path):
    unused = [
        (line, name)
        for line, name in unused_imports(path.read_text())
        if (path.name, name) not in REEXPORTED
    ]
    assert unused == []



def imported(tree: ast.AST):
    """(line, dotted name) of everything an import in the tree brings in;
    a name imported from within the package starts with "."."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module + "." if node.module else "")
            yield from ((node.lineno, base + alias.name) for alias in node.names)


def test_native_imports_nothing_from_the_package():
    # It is the leaf that the other modules import at their top.
    tree = ast.parse((PACKAGE_DIR / "native.py").read_text())
    assert [(line, name) for line, name in imported(tree) if name.startswith((".", "mcmsat"))] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_imports_native(path):
    functions = [node for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    assert [line for f in functions for line, name in imported(f) if "native" in name.split(".")] == []


def test_loading_the_core_imports_no_hashlib():
    # hashlib loads OpenSSL, several MB of resident memory in every process.
    code = "import sys, mcmsat; mcmsat.native.load(); print('hashlib' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"


REPO = PACKAGE_DIR.parent.parent
# Outside the package, the code that runs it: the benchmark, whose
# string constants count too (spans.install looks functions up by name),
# and the tools.
CALLERS = sorted((REPO / "benchmark").glob("*.py")) + sorted((REPO / "tools").glob("*.py"))


def definitions(tree: ast.AST):
    """(line, name) of each module-level function and class, and of each
    method as Class.method; neither dunder methods, which Python calls,
    nor the functions registered as click commands."""
    def command(node):
        return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
                   and d.func.attr in ("command", "group") for d in node.decorator_list)

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not command(node):
            yield node.lineno, node.name
        elif isinstance(node, ast.ClassDef):
            yield node.lineno, node.name
            yield from ((item.lineno, f"{node.name}.{item.name}") for item in node.body
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__")))


def references(tree: ast.AST, strings: bool) -> set[str]:
    """The names, attributes and `from`-imported names in the tree, and
    its string constants if `strings`."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def unreferenced(defining: list[str], calling: list[str]) -> list[tuple[int, int, str]]:
    """(source, line, name) of each definition in the `defining` sources
    that no `defining` source references, nor any `calling` one, string
    constants included."""
    trees = [ast.parse(source) for source in defining]
    found = set().union(*(references(tree, False) for tree in trees),
                        *(references(ast.parse(source), True) for source in calling))
    return [(i, line, name) for i, tree in enumerate(trees) for line, name in definitions(tree)
            if name.rpartition(".")[2] not in found]


def test_checker_flags_an_unreferenced_definition():
    source = ("import click\n\n@click.command()\ndef run():\n    return used(), C().kept()\n\n"
              "def used():\n    pass\n\ndef unused():\n    pass\n\n"
              "class C:\n    def __init__(self):\n        pass\n\n    def kept(self):\n        pass\n\n"
              "    def dropped(self):\n        pass\n\ndef named():\n    pass\n")
    assert unreferenced([source], ["print('named')"]) == [(0, 10, "unused"), (0, 20, "C.dropped")]


def test_the_package_defines_only_what_it_or_its_callers_reference():
    found = unreferenced([path.read_text() for path in MODULES], [path.read_text() for path in CALLERS])
    assert [(MODULES[i].name, line, name) for i, line, name in found] == []
