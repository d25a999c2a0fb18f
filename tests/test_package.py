"""Package-wide guards: the runtime imports only the standard library, the
command line starts without ``dataclasses`` or ``inspect``, every module-level
function and class and every non-dunder method is read somewhere, only
``ratmath`` reads a polynomial's numerators and decides "affine in u", only
schedule validation forms a chamber's positive part, one loop reads a cone's
H-representation, only the scenario reader's
``_Section`` forms an error that names a section, only ``_rational_class``
and the infeasible scan parse a scenario class, only ``run_verify``
evaluates a scenario, and a re-import leaves no old module alive."""

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


def test_only_ratmath_reads_poly_numerators():
    """The integer table format is decided in ``ratmath`` alone: no other
    module of the package reads an attribute named ``num``, so a ``Poly``'s
    numerators are read through ``ratmath._tables``."""
    readers = sorted({path.stem for path in SOURCES if path.stem != "ratmath"
                      for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                      if isinstance(node, ast.Attribute) and node.attr == "num"})
    assert readers == []


def test_affinity_is_read_in_ratmath():
    """"Affine in u" is decided by ``ratmath._affine`` alone: no module of the
    package names ``degree_u`` or ``degree_v``, and only ``ratmath`` and
    ``lattice`` name ``_tables``, the integer tables ``_affine`` reads."""
    named = {}
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = (getattr(node, "id", None) or getattr(node, "attr", None)
                    or (node.name if isinstance(node, (ast.alias, ast.FunctionDef)) else None))
            if name in ("degree_u", "degree_v", "_tables"):
                named.setdefault(name, set()).add(path.stem)
    assert "degree_u" not in named and "degree_v" not in named
    assert named["_tables"] <= {"ratmath", "lattice"}


def test_projgeo_reads_no_univariate_poly():
    """projgeo runs on MPoly and integers alone: it reads no name ``Poly``,
    ``rational_roots`` or ``poly_gcd``."""
    (path,) = [path for path in SOURCES if path.stem == "projgeo"]
    read = set().union(*map(_names_read, ast.parse(path.read_text(encoding="utf-8")).body))
    assert read & {"Poly", "rational_roots", "poly_gcd"} == set()


def test_only_validation_forms_positive_parts():
    """P(u) of a schedule chamber is formed by ``validate_schedule``, whose
    records every invariant and the pointwise ``zariski`` command read: no
    other function of the package calls ``positive_part``."""
    callers = sorted(f"{path.stem}.{stmt.name}" for path in SOURCES
                     for stmt in ast.parse(path.read_text(encoding="utf-8")).body
                     for node in ast.walk(stmt)
                     if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                     and node.func.attr == "positive_part")
    assert callers == ["sinv.validate_schedule"]


def test_cone_membership_has_one_reader():
    """A cone's H-representation is formed once per ``ConeSpec`` and read by
    ``feasible_interval`` alone: no module names ``_separate``, only
    ``ConeSpec`` calls ``_h_representation``, ``cones`` imports nothing from
    ``functools`` (no process-wide facet cache), and only the callers that
    print a decomposition call ``effective_decompose``; every other
    membership question asks ``separate``."""
    named, builders, caches, deciders = set(), [], [], []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if "_separate" in (getattr(node, "id", None), getattr(node, "attr", None),
                               getattr(node, "name", None)):
                named.add(path.stem)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and path.stem == "cones":
                modules = ([node.module] if isinstance(node, ast.ImportFrom)
                           else [alias.name for alias in node.names])
                caches += [m for m in modules if m == "functools"]
        for stmt in tree.body:
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                called = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if called == "_h_representation":
                    builders.append(f"{path.stem}.{stmt.name}")
                if called == "effective_decompose":
                    deciders.append(f"{path.stem}.{stmt.name}")
    assert named == set() and caches == []
    assert builders == ["cones.ConeSpec"]
    assert {d for d in deciders if not d.startswith("cones.")} == {
        "cli._cmd_effdec", "scenario._evaluate_decomposition", "sinv.dominance_bound"}


def test_only_run_verify_evaluates_scenarios():
    """One evaluation path: no function of the package but
    ``scenario.run_verify`` calls ``evaluate_scenario``, so every command
    that evaluates a scenario times it and reports an error raised in it as
    one ERROR row, the same way."""
    callers = sorted(f"{path.stem}.{stmt.name}" for path in SOURCES
                     for stmt in ast.parse(path.read_text(encoding="utf-8")).body
                     for node in ast.walk(stmt) if isinstance(node, ast.Call)
                     and "evaluate_scenario" in (getattr(node.func, "id", None),
                                                 getattr(node.func, "attr", None)))
    assert callers == ["scenario.run_verify"]


def test_single_scenario_commands_parse_through_run_verify():
    """``s-curve`` and ``s-divisor`` parse each file once, inside
    ``run_verify``: only it, the bundled-scenario loader and the two
    pointwise commands call ``parse_scenario``."""
    callers = sorted(f"{path.stem}.{stmt.name}" for path in SOURCES
                     for stmt in ast.parse(path.read_text(encoding="utf-8")).body
                     for node in ast.walk(stmt) if isinstance(node, ast.Call)
                     and "parse_scenario" in (getattr(node.func, "id", None),
                                              getattr(node.func, "attr", None)))
    assert callers == ["cli._cmd_effdec", "cli._cmd_zariski", "scenario.load_bundled_scenario",
                       "scenario.run_verify"]


def test_only_the_section_reader_forms_section_errors():
    """Every ``ScenarioFormatError`` whose message starts with ``[``, naming a
    section, is built inside ``scenario._Section``, so one method gives each
    the shape ``[section] key (line N): why``."""
    (path,) = [path for path in SOURCES if path.stem == "scenario"]
    tree = ast.parse(path.read_text(encoding="utf-8"))
    (section,) = [stmt for stmt in tree.body
                  if isinstance(stmt, ast.ClassDef) and stmt.name == "_Section"]
    inside = set(map(id, ast.walk(section)))
    sites = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "ScenarioFormatError" and node.args):
            continue
        head = node.args[0]
        if isinstance(head, ast.JoinedStr):
            head = head.values[0]
        if isinstance(head, ast.Constant) and str(head.value).startswith("["):
            sites.append((id(node) in inside, node.lineno))
    assert sites and [line for ok, line in sites if not ok] == []


def test_scenario_classes_parse_through_one_reader():
    """In ``scenario``, only ``_rational_class`` and the ``infeasible_scan``
    branch of ``_build_scenario`` name ``parse_divisor_expr``, so every other
    class key is refused with u or v in it at its own key."""
    (path,) = [path for path in SOURCES if path.stem == "scenario"]
    tree = ast.parse(path.read_text(encoding="utf-8"))
    functions = {stmt.name: stmt for stmt in tree.body if isinstance(stmt, ast.FunctionDef)}
    scan_branches = [node for node in ast.walk(functions["_build_scenario"])
                     if isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
                     and isinstance(node.test.comparators[0], ast.Constant)
                     and node.test.comparators[0].value == "infeasible_scan"]
    allowed = {id(node) for root in [functions["_rational_class"], *scan_branches]
               for node in ast.walk(root)}
    sites = [(id(node) in allowed, node.lineno) for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id == "parse_divisor_expr"]
    assert len(scan_branches) == 1 and len(sites) == 2
    assert [line for ok, line in sites if not ok] == []


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
