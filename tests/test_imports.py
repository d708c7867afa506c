"""Every module-level import of a library or test module is used by that
module.

``__init__.py`` is skipped: its imports are the package's re-exports.
Only ``quandles`` checks a table: no other library module names
``validate_table`` or ``_check_shape``.
"""

import ast
import pathlib

import quandlekit

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
