"""Every module-level import of a library or test module is used by that
module.

``__init__.py`` is skipped: its imports are the package's re-exports.
Only ``quandles`` checks a table: no other library module names
``validate_table`` or ``_check_shape``.  Importing the commands pulls in
neither ``dataclasses`` nor ``inspect``, which cost a start-up more than
most jobs take, nor ``meataxe`` and the ``random`` it needs, which only a
job that decides a simplicity loads.  ``meataxe`` takes its linear
algebra from ``linalg`` alone, never from ``lattices``, which imports it.
"""

import ast
import os
import pathlib
import statistics
import subprocess
import sys

import quandlekit
from conftest import ACCEPTANCE_LINES

MODULES = sorted(p for p in pathlib.Path(quandlekit.__file__).parent.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(pathlib.Path(__file__).parent.glob("*.py"))


def unused_imports(source):
    """(line, name) of each module-level import binding that no Name
    node of the module reads."""
    tree = ast.parse(source)
    bound = [
        (node.lineno, (alias.asname or alias.name).split(".")[0])
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in used]


def test_scan_sees_unused_and_used_imports():
    source = "import os\nimport os.path as osp\nfrom a import b, c as d\n\ndef f():\n    return b, osp\n"
    assert unused_imports(source) == [(1, "os"), (3, "d")]


def test_library_modules_use_every_import():
    assert len(MODULES) >= 10
    found = {p.name: unused_imports(p.read_text()) for p in MODULES}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_test_modules_use_every_import():
    assert len(TEST_MODULES) >= 10
    found = {p.name: unused_imports(p.read_text()) for p in TEST_MODULES}
    assert {name: lines for name, lines in found.items() if lines} == {}


def names(source):
    """Every name a module binds by import, reads, or reads as an attribute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(name for alias in node.names for name in (alias.name, alias.asname) if name)
        elif isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def test_names_scan_sees_imports_calls_and_attributes():
    source = "from .quandles import validate_table as v\nquandles._check_shape(1, [[0]])\n"
    assert {"validate_table", "v", "_check_shape"} <= names(source)


def test_only_quandles_checks_tables():
    checks = {"validate_table", "_check_shape"}
    found = {p.name: sorted(names(p.read_text()) & checks) for p in MODULES if p.name != "quandles.py"}
    assert {name: used for name, used in found.items() if used} == {}


def test_meataxe_imports_nothing_from_lattices():
    tree = ast.parse((pathlib.Path(quandlekit.__file__).parent / "meataxe.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found.update((node.module or "").split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(part for alias in node.names for part in alias.name.split("."))
    assert "lattices" not in found


def imported_modules(source):
    """The top-level name of every module a module imports, at any depth."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            found.add(node.module.split(".")[0])
    return found


def test_imported_modules_scan_sees_nested_and_absolute_imports():
    source = "import os.path\nfrom dataclasses import x\nfrom . import y\nfrom .a import b\n\ndef f():\n    import inspect\n"
    assert imported_modules(source) == {"os", "dataclasses", "inspect"}


def test_no_library_module_imports_dataclasses_or_inspect():
    found = {p.name: sorted(imported_modules(p.read_text()) & {"dataclasses", "inspect"}) for p in MODULES}
    assert {name: used for name, used in found.items() if used} == {}


STARTUP = "import quandlekit.cli, quandlekit.dihedral, quandlekit.lattices"


def fresh_interpreter(code):
    """stdout of code run by a new interpreter that imports this quandlekit,
    with no site packages and no bytecode written."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(quandlekit.__file__).parent.parent), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_startup_imports_neither_dataclasses_nor_inspect():
    lazy = {"dataclasses", "inspect", "quandlekit.meataxe", "random"}
    code = "import sys\n%s\nprint(sorted(%r & set(sys.modules)))" % (STARTUP, lazy)
    assert fresh_interpreter(code).strip() == "[]"


def test_startup_time_reported():
    """Non-gating: the median import time of the commands in 5 fresh interpreters."""
    code = "import time\nstart = time.perf_counter()\n%s\nprint(time.perf_counter() - start)" % STARTUP
    seconds = [float(fresh_interpreter(code)) for _ in range(5)]
    ACCEPTANCE_LINES.append(
        "start-up REPORT (non-gating): %s in %.3fs, median of 5 fresh interpreters (%.3f-%.3fs)"
        % (STARTUP, statistics.median(seconds), min(seconds), max(seconds))
    )


def test_source_size_reported():
    """Non-gating: the lines of src/quandlekit/*.py, counted as `wc -l` counts them."""
    paths = sorted(pathlib.Path(quandlekit.__file__).parent.glob("*.py"))
    lines = sum(p.read_bytes().count(b"\n") for p in paths)
    ACCEPTANCE_LINES.append(
        "source size REPORT (non-gating): %d lines in %d files of src/quandlekit" % (lines, len(paths))
    )
