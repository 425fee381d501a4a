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
