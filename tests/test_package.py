"""Package-wide guards: the runtime imports only the standard library, and a
re-import leaves no old module alive."""

import ast
import gc
import importlib
import sys
import weakref
from pathlib import Path

import divstab

SOURCES = sorted(Path(divstab.__file__).parent.glob("*.py"))


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
