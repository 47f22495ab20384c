"""The runtime imports only the standard library, reads no environment,
imports nothing at module level that it does not use, and gives every
``lru_cache`` an integer bound unless an allowlist names it.  No module
imports ``hashlib``, ``ssl`` or ``hmac``, so no process maps OpenSSL, not
even one that prints a bundle id.

Every module of the package is parsed, not imported, so the check also
covers imports that sit inside functions.  The CLI module imports no layer
at module level, so that each subcommand loads only the layers it runs.
No module imports ``dataclasses`` or generates code with ``exec``,
``eval`` or ``compile``, and a process that ran a command of each family
holds neither ``dataclasses`` nor ``inspect``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
SOURCES = sorted((SRC / "arithsurf").glob("*.py"))


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


# Unbounded caches whose entries hold fixed-size values: a ring tag, a
# three-integer section count.
UNBOUNDED_CACHE_ALLOWLIST = {"graded.GF", "cohomology._section_space_cached"}


def _cache_bounds(tree: ast.Module, module: str) -> dict[str, object]:
    """Qualified function name -> maxsize of each ``lru_cache``/``cache``
    decorator: an int, or None when unbounded or not a literal integer
    (a module-level ``NAME = <int>`` counts as one)."""
    constants = {
        node.targets[0].id: node.value.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
        and isinstance(node.value, ast.Constant)
    }
    bounds = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for deco in node.decorator_list:
            call = deco if isinstance(deco, ast.Call) else None
            target = call.func if call else deco
            name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
            if name == "cache":
                bounds[f"{module}.{node.name}"] = None
            elif name == "lru_cache":
                if call is None:
                    size = 128  # the documented default of a bare @lru_cache
                else:
                    arg = next((k.value for k in call.keywords if k.arg == "maxsize"), None)
                    if arg is None and call.args:
                        arg = call.args[0]
                    size = 128 if arg is None else (
                        constants.get(arg.id) if isinstance(arg, ast.Name) else getattr(arg, "value", None)
                    )
                bounds[f"{module}.{node.name}"] = size if type(size) is int else None
    return bounds


def _all_cache_bounds() -> dict[str, object]:
    bounds = {}
    for path in SOURCES:
        bounds.update(_cache_bounds(ast.parse(path.read_text(), str(path)), path.stem))
    return bounds


def test_every_cache_is_bounded_or_allowlisted():
    unbounded = {name for name, size in _all_cache_bounds().items() if size is None}
    assert unbounded - UNBOUNDED_CACHE_ALLOWLIST == set()


def test_cache_allowlist_names_existing_unbounded_caches():
    bounds = _all_cache_bounds()
    assert {name for name in UNBOUNDED_CACHE_ALLOWLIST if bounds.get(name, 0) is None} == UNBOUNDED_CACHE_ALLOWLIST


def test_cache_policy_flags_an_unbounded_cache():
    tree = ast.parse(
        "from functools import lru_cache, cache\n"
        "N = 8\n"
        "@lru_cache(maxsize=None)\ndef a(x): pass\n"
        "@lru_cache(None)\ndef b(x): pass\n"
        "@cache\ndef c(x): pass\n"
        "@lru_cache(maxsize=N)\ndef d(x): pass\n"
        "@lru_cache\ndef e(x): pass\n"
        "@lru_cache(maxsize=16)\ndef f(x): pass\n"
    )
    assert _cache_bounds(tree, "m") == {"m.a": None, "m.b": None, "m.c": None, "m.d": 8, "m.e": 128, "m.f": 16}


CODEGEN_BUILTINS = ("exec", "eval", "compile")


def _imports_of(tree: ast.AST, modules) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [f"line {node.lineno}: import {a.name}" for a in node.names if a.name.split(".")[0] in modules]
        elif isinstance(node, ast.ImportFrom) and not node.level and node.module.split(".")[0] in modules:
            found.append(f"line {node.lineno}: from {node.module} import ...")
    return found


def _codegen_and_dataclasses(tree: ast.AST) -> list[str]:
    found = _imports_of(tree, ("dataclasses",))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in CODEGEN_BUILTINS:
            found.append(f"line {node.lineno}: {node.func.id}()")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_dataclasses_and_no_generated_code(path):
    # value classes come from errors.frozen, which builds closures
    assert _codegen_and_dataclasses(ast.parse(path.read_text(), str(path))) == []


def test_codegen_policy_flags_each_form():
    tree = ast.parse(
        "import dataclasses\nfrom dataclasses import dataclass\n"
        "exec('x = 1')\neval('1')\ncompile('1', 's', 'eval')\nre.compile('x')\n"
    )
    assert len(_codegen_and_dataclasses(tree)) == 5


# hashlib, ssl and hmac map OpenSSL's libcrypto, several MB of resident
# memory; bundle ids come from bundles._fnv1a_64 instead
OPENSSL_MODULES = ("hashlib", "_hashlib", "ssl", "_ssl", "hmac")


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_module_imports_openssl(path):
    assert _imports_of(ast.parse(path.read_text(), str(path)), OPENSSL_MODULES) == []


def _run_python(script: str) -> str:
    done = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_commands_load_neither_dataclasses_nor_inspect():
    # dataclasses imports inspect, ast, dis and tokenize, about 10 ms of a
    # fresh process; no command needs them
    script = "\n".join([
        "import contextlib, io, sys",
        "import arithsurf.cli",
        *(
            f"with contextlib.redirect_stdout(io.StringIO()): assert arithsurf.cli.main({argv!r}) == 0"
            for argv in (
                ["bundle", "build", "--generic-type", "1", "--jump", "3:2"],
                ["transform", "factorize", "--generic-type", "1", "--prime", "3", "--twist", "0",
                 "--g", "x0", "--h", "x1^2"],
                ["surface", "normal-form", "-n", "2", "-f", "5*x0*x1", "--certify"],
                ["delpezzo", "classify", "--points", "1:0:0,0:1:0,0:0:1,1:1:1"],
            )
        ),
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))",
    ])
    assert _run_python(script).split() == ["[]"]


def test_layers_ids_and_a_bundle_command_load_no_openssl():
    layers = [f"arithsurf.{path.stem}" for path in SOURCES if path.stem != "__init__"]
    script = "\n".join([
        "import contextlib, io, sys",
        f"import {', '.join(layers)}",
        "print(arithsurf.transforms.prescribed_types(1, [(5, 2)]).identifier())",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    assert arithsurf.cli.main(['bundle', 'build', '--generic-type', '1', '--jump', '5:2']) == 0",
        "print(sorted(m for m in ('_hashlib', '_ssl') if m in sys.modules))",
    ])
    assert _run_python(script).split() == ["f6cd1a1d5f244cc9", "[]"]
