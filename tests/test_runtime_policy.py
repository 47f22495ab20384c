"""The runtime imports only the standard library, reads no environment and
imports nothing at module level that it does not use.

Every module of the package is parsed, not imported, so the check also
covers imports that sit inside functions.  The CLI module imports no layer
at module level, so that each subcommand loads only the layers it runs.
"""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "arithsurf").glob("*.py"))


def _violations(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [] if node.level else [node.module]
            if node.module == "os":
                found += [f"from os import {a.name}" for a in node.names if a.name in ("environ", "getenv")]
        elif isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
            found.append(f"line {node.lineno}: .{node.attr}")
            continue
        else:
            continue
        found += [
            f"line {node.lineno}: import {name}"
            for name in names
            if name.split(".")[0] not in sys.stdlib_module_names
        ]
    return found


def test_sources_found():
    assert any(path.name == "__init__.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_stdlib_only_and_no_environment_reads(path):
    assert _violations(ast.parse(path.read_text(), str(path))) == []


def test_cli_module_level_imports_are_stdlib_version_and_errors():
    cli = next(path for path in SOURCES if path.name == "cli.py")
    found = []
    for node in ast.parse(cli.read_text(), str(cli)).body:
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
            if node.module != "errors" and not (node.module is None and names == ["__version__"]):
                found.append(f"line {node.lineno}: from .{node.module or ''} import {', '.join(names)}")
            continue
        else:
            continue
        found += [
            f"line {node.lineno}: import {name}"
            for name in modules
            if name.split(".")[0] not in sys.stdlib_module_names
        ]
    assert found == []


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update({alias.asname or alias.name.split(".")[0]: node.lineno for alias in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update({alias.asname or alias.name: node.lineno for alias in node.names})
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_level_imports_are_used(path):
    assert _unused_imports(ast.parse(path.read_text(), str(path))) == []
