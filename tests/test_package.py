"""Package-wide guards: the runtime imports only the standard library, the
command line starts without ``dataclasses`` or ``inspect``, every module-level
function and class and every non-dunder method is read somewhere, and a
re-import leaves no old module alive."""

import ast
import gc
import importlib
import os
import subprocess
import sys
import weakref
from pathlib import Path

import divstab

SOURCES = sorted(Path(divstab.__file__).parent.glob("*.py"))
BENCH = sorted((Path(__file__).resolve().parents[1] / "bench").glob("*.py"))


def test_runtime_imports_only_the_standard_library():
    assert SOURCES
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                continue
            if isinstance(node, ast.ImportFrom):
                names = [node.module]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)


def test_cold_cli_import_leaves_out_dataclasses_and_inspect():
    """``import divstab.cli`` in a fresh interpreter loads neither module: each
    command is a fresh process, and importing them was most of its start-up."""
    code = ("import sys; before = set(sys.modules); import divstab.cli; "
            "print(' '.join(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before))))")
    env = {**os.environ, "PYTHONPATH": str(Path(divstab.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.split() == []


def _names_read(stmt: ast.stmt) -> set[str]:
    """The names a top-level statement reads: as a name, an attribute or an
    import alias, less its own name, so a definition does not read itself."""
    read = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name)
    read.discard(getattr(stmt, "name", None))
    return read


def test_every_module_level_definition_is_read():
    """No function or class of the package is read by tests alone: each is
    named somewhere in the package or the benchmark, outside its own body."""
    assert BENCH
    defined, read = [], set()
    for path in SOURCES + BENCH:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            read |= _names_read(stmt)
            if path in SOURCES and isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.stem, stmt.name))
    assert [f"{module}.{name}" for module, name in defined if name not in read] == []


def test_every_method_is_read():
    """No method of a package class, dunders aside, is read by tests alone:
    each name is read somewhere in the package or the benchmark, outside its
    own body.  A class body counts statement by statement, so a method read
    by a sibling method counts as read."""
    defined, read = [], set()
    for path in SOURCES + BENCH:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(stmt, ast.ClassDef):
                read |= _names_read(stmt)
                continue
            for item in stmt.body:
                read |= _names_read(item)
                if (path in SOURCES and isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    defined.append((path.stem, stmt.name, item.name))
    assert [".".join(d) for d in defined if d[2] not in read] == []


def test_reimporting_the_package_frees_the_old_modules():
    """No module-level value may pin a class in a cache that outlives the
    module (``typing`` caches every ``Union`` it builds, with its args)."""
    saved = {k: m for k, m in sys.modules.items() if k.split(".")[0] == "divstab"}
    refs = []
    try:
        for _ in range(3):
            for key in saved:
                sys.modules.pop(key, None)
            fresh = importlib.import_module("divstab.scenario")
            importlib.import_module("divstab.projgeo")
            refs.append(weakref.ref(fresh.Poly))
            del fresh
    finally:
        for key in [k for k in sys.modules if k.split(".")[0] == "divstab"]:
            del sys.modules[key]
        sys.modules.update(saved)
    gc.collect()
    assert [ref() for ref in refs] == [None] * 3
